"""Machine-readable campaign manifests for reproducibility audits.

Every campaign run with a manifest sink attached emits one
:class:`CampaignManifest`: the exact :class:`~repro.sim.campaign.CampaignConfig`
(plus its digest), the cluster identity, the RNG label hierarchy roots
every stream derives from, the steady-state solver mode, the shard plan
shape, the campaign-wide :class:`~repro.gpu.dvfs.SolverStats` totals, and
a digest of the canonical CSV serialization of the result.

The point is auditability *without re-execution*: two manifests with equal
``config_digest``, ``rng`` roots, solver mode, and cluster identity claim
the same campaign, and their ``result.digest_blake2b`` fields either agree
(reproduction verified) or pinpoint a divergence — no campaign re-run, no
fixture comparison.  ``campaign_config_from_manifest`` reconstructs the
exact :class:`~repro.sim.campaign.CampaignConfig` from a manifest entry.

Manifests validate against :data:`MANIFEST_SCHEMA`, a JSON-Schema-style
document checked by the dependency-free :func:`validate_manifest` (the
container image carries no ``jsonschema`` package; the subset validator
covers the object/array/scalar structure the schema uses).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..config import config_from_dict, config_to_dict
from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycles
    from ..cluster.cluster import Cluster
    from ..gpu.dvfs import SolverStats
    from ..sim.campaign import CampaignConfig
    from ..sim.parallel import ParallelConfig
    from ..telemetry.dataset import MeasurementDataset
    from ..workloads.base import Workload

__all__ = [
    "MANIFEST_SCHEMA",
    "SCHEMA_VERSION",
    "CampaignManifest",
    "Manifest",
    "build_campaign_manifest",
    "campaign_config_from_manifest",
    "read_manifest",
    "validate_manifest",
]

#: Version of the manifest document layout; bump on breaking changes.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CampaignManifest:
    """Everything needed to audit one campaign without re-running it.

    The nested dicts are deliberately plain (JSON-able scalars only) so an
    entry round-trips through :meth:`to_dict` / JSON unchanged.
    """

    cluster: dict[str, Any]
    workload: dict[str, Any]
    config: dict[str, Any]
    config_digest: str
    rng: dict[str, Any]
    solver: dict[str, Any]
    plan: dict[str, Any]
    result: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """The JSON-able document form of this entry."""
        return {
            "cluster": dict(self.cluster),
            "workload": dict(self.workload),
            "config": dict(self.config),
            "config_digest": self.config_digest,
            "rng": dict(self.rng),
            "solver": dict(self.solver),
            "plan": dict(self.plan),
            "result": dict(self.result),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignManifest":
        """Rebuild an entry from its document form."""
        return cls(
            cluster=dict(data["cluster"]),
            workload=dict(data["workload"]),
            config=dict(data["config"]),
            config_digest=str(data["config_digest"]),
            rng=dict(data["rng"]),
            solver=dict(data["solver"]),
            plan=dict(data["plan"]),
            result=dict(data["result"]),
        )


@dataclass
class Manifest:
    """A manifest file in the making: one entry per executed campaign.

    Pass an instance to :func:`repro.api.run_campaign` (or any facade
    function that runs campaigns — ``screen`` and ``sweep`` append several
    entries) and :meth:`write` it when done.
    """

    campaigns: list[CampaignManifest] = field(default_factory=list)

    def add(self, entry: CampaignManifest) -> None:
        """Append one campaign entry."""
        self.campaigns.append(entry)

    def to_dict(self) -> dict[str, Any]:
        """The complete JSON-able manifest document."""
        from .. import __version__

        return {
            "schema_version": SCHEMA_VERSION,
            "package_version": __version__,
            "campaigns": [entry.to_dict() for entry in self.campaigns],
        }

    def write(self, path: str | Path) -> Path:
        """Validate and write the manifest document as JSON."""
        doc = self.to_dict()
        validate_manifest(doc)
        path = Path(path)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True),
                        encoding="utf-8")
        return path


def read_manifest(path: str | Path) -> dict[str, Any]:
    """Load and validate a manifest document written by :meth:`Manifest.write`."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    validate_manifest(doc)
    return doc


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def build_campaign_manifest(
    cluster: "Cluster",
    workload: "Workload",
    config: "CampaignConfig",
    parallel: "ParallelConfig",
    n_shards: int,
    dataset: "MeasurementDataset",
    solver_stats: "SolverStats",
) -> CampaignManifest:
    """Assemble the manifest entry for one finished campaign.

    Called by :func:`repro.sim.parallel.execute_campaign` after the merge;
    the entry is a pure function of inputs that are themselves
    deterministic, so serial and parallel executions of the same campaign
    produce identical entries (including the result digest).
    """
    from ..gpu.dvfs import default_solver
    from ..telemetry.io import dataset_to_csv_text

    config_dict = config_to_dict(config)
    csv_text = dataset_to_csv_text(dataset)
    return CampaignManifest(
        cluster={
            "name": cluster.name,
            "seed": cluster.seed,
            "gpu_name": cluster.spec.name,
            "n_gpus": cluster.n_gpus,
            "n_nodes": cluster.n_nodes,
            "cooling": cluster.cooling.kind,
            "admin_access": cluster.admin_access,
            "run_noise_sigma": cluster.run_noise_sigma,
        },
        workload={
            "name": workload.name,
            "n_gpus": workload.n_gpus,
            "performance_metric": workload.performance_metric,
        },
        config=config_dict,
        config_digest=_digest(json.dumps(config_dict, sort_keys=True)),
        rng={
            # The complete label hierarchy every stream of the campaign
            # derives from (see repro.rng and repro.sim.run.run_rng_label).
            "master_seed": cluster.seed,
            "root_label": f"cluster-{cluster.name}",
            "derived_seed": cluster.rng_factory.seed,
            "day_label_format": "campaign-day-{day}",
            "run_label_format": "run-{workload}-day-{day}-idx-{run}",
            "shard_stream_format": "shard-{shard}-of-{n_shards}",
        },
        solver={
            "mode": default_solver(),
            "solves": solver_stats.solves,
            "batches": solver_stats.batches,
            "columns_evaluated": solver_stats.columns_evaluated,
            "dense_cells": solver_stats.dense_cells,
            "fixed_point_iterations": solver_stats.fixed_point_iterations,
        },
        plan={
            "n_shards": n_shards,
            "max_gpus_per_shard": parallel.max_gpus_per_shard,
        },
        result={
            "n_rows": dataset.n_rows,
            "columns": dataset.column_names,
            "digest_blake2b": _digest(csv_text),
        },
    )


def campaign_config_from_manifest(
    entry: CampaignManifest | Mapping[str, Any],
) -> "CampaignConfig":
    """Reconstruct the exact :class:`CampaignConfig` a manifest entry records.

    Accepts either a :class:`CampaignManifest` or its document (dict) form.
    The reconstruction is validated against the recorded ``config_digest``
    so a hand-edited manifest fails loudly instead of auditing the wrong
    campaign.
    """
    from ..sim.campaign import CampaignConfig

    if isinstance(entry, CampaignManifest):
        config_dict = dict(entry.config)
        digest = entry.config_digest
    else:
        config_dict = dict(entry["config"])
        digest = str(entry["config_digest"])
    recomputed = _digest(json.dumps(config_dict, sort_keys=True))
    if recomputed != digest:
        raise ConfigError(
            f"manifest config digest mismatch: recorded {digest}, "
            f"recomputed {recomputed} — the config block was altered"
        )
    return config_from_dict(CampaignConfig, config_dict)


# ---------------------------------------------------------------------------
# schema + dependency-free validation
# ---------------------------------------------------------------------------

_SOLVER_BLOCK = {
    "type": "object",
    "required": ["mode", "solves", "columns_evaluated", "dense_cells",
                 "fixed_point_iterations"],
    "properties": {
        # Writers always emit "fleet"; the retired modes stay valid so
        # manifests recorded by earlier releases still validate.
        "mode": {"type": "string", "enum": ["ladder", "fleet", "grid"]},
        "batches": {"type": "integer"},
        "solves": {"type": "integer"},
        "columns_evaluated": {"type": "integer"},
        "dense_cells": {"type": "integer"},
        "fixed_point_iterations": {"type": "integer"},
    },
}

#: JSON-Schema-style description of the manifest document.
MANIFEST_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["schema_version", "package_version", "campaigns"],
    "properties": {
        "schema_version": {"type": "integer"},
        "package_version": {"type": "string"},
        "campaigns": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["cluster", "workload", "config", "config_digest",
                             "rng", "solver", "plan", "result"],
                "properties": {
                    "cluster": {
                        "type": "object",
                        "required": ["name", "seed", "gpu_name", "n_gpus",
                                     "n_nodes", "cooling", "admin_access",
                                     "run_noise_sigma"],
                        "properties": {
                            "name": {"type": "string"},
                            "seed": {"type": "integer"},
                            "gpu_name": {"type": "string"},
                            "n_gpus": {"type": "integer"},
                            "n_nodes": {"type": "integer"},
                            "cooling": {"type": "string"},
                            "admin_access": {"type": "boolean"},
                            "run_noise_sigma": {"type": "number"},
                        },
                    },
                    "workload": {
                        "type": "object",
                        "required": ["name", "n_gpus", "performance_metric"],
                        "properties": {
                            "name": {"type": "string"},
                            "n_gpus": {"type": "integer"},
                            "performance_metric": {"type": "string"},
                        },
                    },
                    "config": {
                        "type": "object",
                        "required": ["days", "runs_per_day", "coverage",
                                     "power_limit_w"],
                        "properties": {
                            "days": {"type": "integer"},
                            "runs_per_day": {"type": "integer"},
                            "coverage": {"type": "number"},
                            "power_limit_w": {"type": ["number", "null"]},
                        },
                    },
                    "config_digest": {"type": "string"},
                    "rng": {
                        "type": "object",
                        "required": ["master_seed", "root_label",
                                     "derived_seed", "day_label_format",
                                     "run_label_format",
                                     "shard_stream_format"],
                        "properties": {
                            "master_seed": {"type": "integer"},
                            "root_label": {"type": "string"},
                            "derived_seed": {"type": "integer"},
                            "day_label_format": {"type": "string"},
                            "run_label_format": {"type": "string"},
                            "shard_stream_format": {"type": "string"},
                        },
                    },
                    "solver": _SOLVER_BLOCK,
                    "plan": {
                        "type": "object",
                        "required": ["n_shards", "max_gpus_per_shard"],
                        "properties": {
                            "n_shards": {"type": "integer"},
                            "max_gpus_per_shard": {
                                "type": ["integer", "null"]
                            },
                        },
                    },
                    "result": {
                        "type": "object",
                        "required": ["n_rows", "columns", "digest_blake2b"],
                        "properties": {
                            "n_rows": {"type": "integer"},
                            "columns": {
                                "type": "array",
                                "items": {"type": "string"},
                            },
                            "digest_blake2b": {"type": "string"},
                        },
                    },
                },
            },
        },
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # bool is an int subclass in Python; JSON distinguishes them.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}

#: Exact types every value of a JSON type has when it was parsed or built
#: from plain literals; a value of another type (a subclass) takes the
#: full predicate of :data:`_TYPE_CHECKS`.
_PLAIN_TYPES = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "integer": (int,),
    "number": (int, float),
    "boolean": (bool,),
    "null": (type(None),),
}

#: Compiled validators by ``id(schema)``, each kept with its schema so the
#: id cannot be reused.  Schemas are treated as immutable once used.
_COMPILED: dict[int, tuple[Mapping[str, Any], Callable[[Any], None]]] = {}
_COMPILED_MAX = 32


class _Invalid(Exception):
    """A violation on its way up to :func:`validate_manifest`.

    Each container it passes through adds its path segment, so the path
    is only built for a document that fails.
    """

    def __init__(self, detail: str) -> None:
        super().__init__(detail)
        self.detail = detail
        self.segments: list[str] = []


def validate_manifest(doc: Any, schema: Mapping[str, Any] | None = None) -> None:
    """Validate a manifest document against :data:`MANIFEST_SCHEMA`.

    Raises :class:`~repro.errors.ConfigError` naming the offending JSON
    path on the first violation.  Supports the schema subset the manifest
    uses: ``type`` (including type unions), ``required``, ``properties``,
    ``items``, and ``enum``.  Each schema is compiled once into a tree of
    checks (:func:`_compile`).
    """
    schema = schema if schema is not None else MANIFEST_SCHEMA
    entry = _COMPILED.get(id(schema))
    if entry is None or entry[0] is not schema:
        if len(_COMPILED) >= _COMPILED_MAX:
            _COMPILED.pop(next(iter(_COMPILED)))
        entry = _COMPILED[id(schema)] = (schema, _compile(schema))
    try:
        entry[1](doc)
    except _Invalid as exc:
        invalid = exc
    else:
        return
    path = "$" + "".join(reversed(invalid.segments))
    raise ConfigError(f"manifest invalid at {path}: {invalid.detail}")


def _compile(schema: Mapping[str, Any]) -> Callable[[Any], None]:
    """One schema node as a check that raises :class:`_Invalid`.

    The checks run in the order of a plain tree walk: ``type``, then
    ``enum``, then for a dict its ``required`` keys and its present
    ``properties`` in schema order, for a list its ``items`` in order.
    A declared type that admits no dict (or no list) skips that branch.
    """
    types = schema.get("type")
    allowed = None
    if types is not None:
        allowed = types if isinstance(types, list) else [types]
    checks = [_TYPE_CHECKS[t] for t in allowed or ()]
    plain = frozenset(c for t in allowed or () for c in _PLAIN_TYPES[t])
    expected = "/".join(allowed or ())
    enum = schema.get("enum")
    required = tuple(schema.get("required", ()))
    properties = tuple(
        (key, f".{key}", _compile(sub))
        for key, sub in schema.get("properties", {}).items()
    )
    items = schema.get("items")
    item_check = None if items is None else _compile(items)
    may_be_dict = allowed is None or "object" in allowed
    may_be_list = allowed is None or "array" in allowed

    def check(value: Any) -> None:
        if allowed is not None and type(value) not in plain and not any(
            c(value) for c in checks
        ):
            raise _Invalid(
                f"expected {expected}, got {type(value).__name__}"
            )
        if enum is not None and value not in enum:
            raise _Invalid(f"{value!r} not in {enum}")
        if may_be_dict and isinstance(value, dict):
            for key in required:
                if key not in value:
                    raise _Invalid(f"missing required key {key!r}")
            segment = ""
            try:
                for key, segment, sub in properties:
                    if key in value:
                        sub(value[key])
            except _Invalid as exc:
                exc.segments.append(segment)
                raise
        if item_check is not None and may_be_list and isinstance(value, list):
            i = 0
            try:
                for i, element in enumerate(value):
                    item_check(element)
            except _Invalid as exc:
                exc.segments.append(f"[{i}]")
                raise

    return check
