"""The :class:`Cluster` — a named, fully-materialized GPU installation.

A cluster ties together a SKU, a topology, a cooling plant, a facility
model, a silicon process batch, and a defect assignment into a ready-to-run
:class:`~repro.gpu.device.GPUFleet`.  Construction is deterministic in the
seed, so a preset like ``longhorn(seed=1)`` is the *same machine* every time
— the property that lets the paper's cross-application findings ("BERT's and
ResNet-50's outlier nodes are the same", Takeaway 6) reproduce here.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

import numpy as np

from ..config import require
from ..errors import ConfigError
from ..gpu.defects import DefectAssignment, DefectConfig, DefectType, assign_defects
from ..gpu.device import GPUFleet
from ..gpu.silicon import SiliconConfig, sample_population
from ..gpu.specs import GPUSpec
from ..obs.observer import active_observer
from ..rng import RngFactory
from .cooling import AirCooling, MineralOilCooling, WaterCooling
from .facility import FacilityModel
from .topology import Topology

__all__ = ["ForcedDefect", "Cluster", "ClusterConfig"]

CoolingModel = AirCooling | WaterCooling | MineralOilCooling

#: Upper bound on cached fleets (per-day and per-(day, shard) entries each).
#: Campaign executors touch (days x shards-per-day) distinct keys — dozens —
#: so the bound only matters for pathological callers; eviction is FIFO.
_FLEET_CACHE_MAX = 128


def active_fault_plan(cluster: "Cluster"):
    """The chaos fault plan injected on ``cluster``, or ``None``.

    The chaos hook mirrors the tracer/timeline protocol: hot paths call
    this once per site and pay a single attribute read plus a ``None``
    branch when injection is off (``benchmarks/bench_chaos_overhead.py``
    bounds that cost).  Plans attach via :meth:`Cluster.set_fault_plan`
    and, being a plain pickled attribute, follow the cluster into
    campaign worker processes unchanged.
    """
    return getattr(cluster, "fault_plan", None)


@dataclass(frozen=True)
class ForcedDefect:
    """Deterministically place a defect at a named location.

    Used by presets to pin the paper's *specific* outliers — the two sick
    Frontera c197 GPUs, the Longhorn c002 stragglers, the Summit
    rowh-col36 power-delivery cluster — at their published locations, on
    top of the random defect background.

    Parameters
    ----------
    scope:
        ``"gpu"``, ``"node"``, or ``"cabinet"``.
    label:
        GPU / node / cabinet label in the cluster topology.
    kind:
        Defect type to force.
    count:
        How many GPUs inside the scope to affect (lowest indices first);
        ``None`` affects all of them.
    severity:
        Defect parameter: power-cap fraction for POWER_DELIVERY,
        throughput multiplier for SICK_SLOW, thermal-resistance multiplier
        for HOT_RUNNER.
    """

    scope: str
    label: str
    kind: DefectType
    severity: float
    count: int | None = None

    def __post_init__(self) -> None:
        require(self.scope in ("gpu", "node", "cabinet"),
                f"scope must be gpu/node/cabinet, got {self.scope!r}")
        require(self.kind != DefectType.NONE, "cannot force DefectType.NONE")
        require(self.severity > 0, "severity must be positive")
        if self.kind in (DefectType.POWER_DELIVERY, DefectType.SICK_SLOW):
            require(self.severity <= 1.0,
                    f"{self.kind.name} severity is a fraction of nominal "
                    "and must be <= 1")
        elif self.kind == DefectType.HOT_RUNNER:
            require(self.severity >= 1.0,
                    "HOT_RUNNER severity multiplies thermal resistance "
                    "and must be >= 1")
        if self.count is not None:
            require(self.count > 0, "count must be positive when given")


@dataclass(frozen=True)
class ClusterConfig:
    """Serializable scalar description of a cluster (Table I row)."""

    name: str
    gpu_name: str
    n_gpus: int
    n_nodes: int
    gpus_per_node: int
    cooling: str
    admin_access: bool
    run_noise_sigma: float


class Cluster:
    """A named GPU installation, deterministically built from a seed.

    Parameters
    ----------
    name:
        Cluster name (``"Longhorn"``, ...).
    spec:
        GPU SKU.
    topology:
        Machine-room layout.
    cooling:
        Cooling-plant model.
    silicon_config, defect_config:
        Process-batch and defect-incidence distributions.
    facility:
        Day-to-day environmental drift model.
    run_noise_sigma:
        Std-dev of the multiplicative per-run duration noise (launch
        jitter, neighbour interference).  Calibrated per cluster against
        Fig. 8's per-GPU repeatability medians.
    admin_access:
        Whether the experimenter can pin clocks / power limits (only
        CloudLab in the paper, Section VI-B).
    forced_defects:
        Deterministic outlier placements applied after random assignment.
    seed:
        Master seed; everything stochastic in the build derives from it.
    """

    def __init__(
        self,
        name: str,
        spec: GPUSpec,
        topology: Topology,
        cooling: CoolingModel,
        silicon_config: SiliconConfig,
        defect_config: DefectConfig,
        facility: FacilityModel | None = None,
        run_noise_sigma: float = 0.002,
        admin_access: bool = False,
        forced_defects: tuple[ForcedDefect, ...] = (),
        seed: int = 0,
    ) -> None:
        require(run_noise_sigma >= 0, "run_noise_sigma must be >= 0")
        self.name = name
        self.spec = spec
        self.topology = topology
        self.cooling = cooling
        self.silicon_config = silicon_config
        self.defect_config = defect_config
        self.facility = facility if facility is not None else FacilityModel()
        self.run_noise_sigma = run_noise_sigma
        self.admin_access = admin_access
        self.forced_defects = forced_defects
        self.seed = seed

        self.rng_factory = RngFactory(seed).child(f"cluster-{name}")
        n = topology.n_gpus
        self.silicon = sample_population(
            n, silicon_config, self.rng_factory.generator("silicon")
        )
        defects = assign_defects(
            n,
            defect_config,
            self.rng_factory.generator("defects"),
            location_group=topology.location_group_of_gpu(),
        )
        self.defects = self._apply_forced_defects(defects)
        self.environment = cooling.environment(
            topology, self.rng_factory.generator("cooling")
        )
        self._base_fleet = GPUFleet(
            spec=spec,
            silicon=self.silicon,
            defects=self.defects,
            r_theta_base_c_per_w=self.environment.r_theta_base_c_per_w,
            coolant_c=self.environment.coolant_c,
        )
        #: Chaos injection plan (:class:`repro.chaos.plan.ChaosPlan`), or
        #: ``None``.  Attach with :meth:`set_fault_plan`.
        self.fault_plan = None
        self._init_fleet_caches()

    def set_fault_plan(self, plan) -> None:
        """Attach (or clear, with ``None``) a chaos fault-injection plan.

        The plan must be compiled for this cluster's topology
        (:func:`repro.chaos.plan.compile_plan`).  Cached day fleets are
        dropped so a plan attached after use still takes effect.
        """
        if plan is not None:
            require(
                getattr(plan, "n_gpus", None) == self.n_gpus,
                f"fault plan was compiled for {getattr(plan, 'n_gpus', '?')} "
                f"GPUs, cluster has {self.n_gpus}",
            )
        self.fault_plan = plan
        self._init_fleet_caches()

    def _init_fleet_caches(self) -> None:
        self._fleet_day_cache: dict[int, GPUFleet] = {}
        self._fleet_slice_cache: dict[tuple, GPUFleet] = {}
        self._fleet_cache_lock = threading.Lock()

    def __getstate__(self) -> dict:
        # Locks cannot pickle and caches should not travel to workers (each
        # worker repopulates deterministically on first use).
        state = self.__dict__.copy()
        del state["_fleet_day_cache"]
        del state["_fleet_slice_cache"]
        del state["_fleet_cache_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_fleet_caches()

    # ------------------------------------------------------------------

    @property
    def n_gpus(self) -> int:
        """Total GPUs in the cluster."""
        return self.topology.n_gpus

    @property
    def n_nodes(self) -> int:
        """Total nodes in the cluster."""
        return self.topology.n_nodes

    @property
    def fleet(self) -> GPUFleet:
        """The fleet under nominal (day-independent) facility conditions."""
        return self._base_fleet

    def fleet_for_day(self, day_index: int) -> GPUFleet:
        """The fleet under the facility conditions of campaign day ``day_index``.

        Memoized per day: the facility offset is a pure function of
        (day, master seed), so the day fleet is computed once and shared by
        every run and shard of that day instead of being rebuilt per run.
        Returned fleets are immutable views — never mutate their arrays.
        """
        with self._fleet_cache_lock:
            fleet = self._fleet_day_cache.get(day_index)
        tracer = active_observer().tracer
        if fleet is not None:
            if tracer is not None:
                tracer.add("cache.fleet_day.hit")
            return fleet
        if tracer is not None:
            tracer.add("cache.fleet_day.miss")
        offset = self.facility.coolant_offset_c(day_index, self.rng_factory)
        plan = active_fault_plan(self)
        if plan is not None and plan.affects(day_index):
            fleet = self._faulted_fleet(day_index, offset, plan)
        elif offset == 0.0:
            fleet = self._base_fleet
        else:
            fleet = self._base_fleet.with_coolant(
                self.environment.coolant_c + offset
            )
        with self._fleet_cache_lock:
            if len(self._fleet_day_cache) >= _FLEET_CACHE_MAX:
                self._fleet_day_cache.pop(next(iter(self._fleet_day_cache)))
            self._fleet_day_cache[day_index] = fleet
        return fleet

    def _faulted_fleet(self, day_index: int, offset: float, plan) -> GPUFleet:
        """The day fleet under an active chaos plan.

        Effects are pure functions of the day, so the per-day cache in
        :meth:`fleet_for_day` stays valid.  Coolant faults stack on the
        facility offset as per-GPU deltas; cap faults scale the defect
        arrays into a new :class:`DefectAssignment`.  The silicon
        population is untouched, so the base fleet's power model — with
        its cached per-die solver parameters — is reused.
        """
        coolant = self.environment.coolant_c + offset
        delta = plan.coolant_delta_c(day_index)
        if delta is not None:
            coolant = coolant + delta
        multipliers = plan.defect_multipliers(day_index)
        if multipliers is None:
            return self._base_fleet.with_coolant(coolant)
        power_mult, freq_mult = multipliers
        base = self._base_fleet.defects
        defects = DefectAssignment(
            kind=base.kind,
            power_cap_frac=base.power_cap_frac * power_mult,
            frequency_cap_frac=base.frequency_cap_frac * freq_mult,
            efficiency=base.efficiency,
            extra_thermal_resistance=base.extra_thermal_resistance,
        )
        return GPUFleet(
            spec=self.spec,
            silicon=self.silicon,
            defects=defects,
            r_theta_base_c_per_w=self.environment.r_theta_base_c_per_w,
            coolant_c=coolant,
            policy=self._base_fleet.policy,
            power_model=self._base_fleet.power_model,
        )

    def fleet_slice(self, day_index: int, gpu_indices: np.ndarray) -> GPUFleet:
        """The day fleet restricted to ``gpu_indices``, memoized per (day, shard).

        Campaign executors call this once per run; the silicon/defect/
        thermal re-slicing is identical for every run of the same (day,
        shard) pair, so it is cached under a digest of the index array.
        Returned fleets are immutable views — never mutate their arrays.
        """
        gpu_indices = np.asarray(gpu_indices)
        digest = hashlib.blake2b(
            gpu_indices.tobytes(), digest_size=16
        ).digest()
        key = (day_index, gpu_indices.dtype.str, gpu_indices.shape[0], digest)
        with self._fleet_cache_lock:
            fleet = self._fleet_slice_cache.get(key)
        tracer = active_observer().tracer
        if fleet is not None:
            if tracer is not None:
                tracer.add("cache.fleet_slice.hit")
            return fleet
        if tracer is not None:
            tracer.add("cache.fleet_slice.miss")
        fleet = self.fleet_for_day(day_index).take(gpu_indices)
        with self._fleet_cache_lock:
            if len(self._fleet_slice_cache) >= _FLEET_CACHE_MAX:
                self._fleet_slice_cache.pop(next(iter(self._fleet_slice_cache)))
            self._fleet_slice_cache[key] = fleet
        return fleet

    def config(self) -> ClusterConfig:
        """Scalar summary of this cluster (a Table I row)."""
        return ClusterConfig(
            name=self.name,
            gpu_name=self.spec.name,
            n_gpus=self.n_gpus,
            n_nodes=self.n_nodes,
            gpus_per_node=self.topology.gpus_per_node,
            cooling=self.cooling.kind,
            admin_access=self.admin_access,
            run_noise_sigma=self.run_noise_sigma,
        )

    # ------------------------------------------------------------------

    def _resolve_scope_gpus(self, scope: str, label: str) -> np.ndarray:
        topo = self.topology
        if scope == "gpu":
            try:
                return np.asarray([topo.gpu_labels.index(label)])
            except ValueError:
                raise ConfigError(f"unknown GPU label {label!r}") from None
        if scope == "node":
            return topo.gpus_of_node(topo.node_index(label))
        try:
            cab = topo.cabinet_labels.index(label)
        except ValueError:
            raise ConfigError(f"unknown cabinet label {label!r}") from None
        return np.flatnonzero(topo.cabinet_of_gpu == cab)

    def _apply_forced_defects(self, defects: DefectAssignment) -> DefectAssignment:
        if not self.forced_defects:
            return defects
        kind = defects.kind.copy()
        cap = defects.power_cap_frac.copy()
        fcap = defects.frequency_cap_frac.copy()
        eff = defects.efficiency.copy()
        res = defects.extra_thermal_resistance.copy()
        for forced in self.forced_defects:
            gpus = self._resolve_scope_gpus(forced.scope, forced.label)
            if forced.count is not None:
                gpus = gpus[: forced.count]
            kind[gpus] = int(forced.kind)
            # Reset any randomly-assigned parameters for these GPUs first.
            cap[gpus] = 1.0
            fcap[gpus] = 1.0
            eff[gpus] = 1.0
            res[gpus] = 1.0
            if forced.kind == DefectType.POWER_DELIVERY:
                cap[gpus] = forced.severity
            elif forced.kind == DefectType.SICK_SLOW:
                fcap[gpus] = forced.severity
            elif forced.kind == DefectType.HOT_RUNNER:
                res[gpus] = forced.severity
        return DefectAssignment(
            kind=kind,
            power_cap_frac=cap,
            frequency_cap_frac=fcap,
            efficiency=eff,
            extra_thermal_resistance=res,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cluster({self.name!r}, gpu={self.spec.name}, n_gpus={self.n_gpus}, "
            f"cooling={self.cooling.kind})"
        )
