"""Golden campaign fixtures: the specs, the builder, and the file layout.

Each golden fixture is one small, seeded SGEMM campaign per cluster preset
— the complete measurement table, serialized to canonical CSV and gzipped
(with a zeroed mtime so the archive bytes themselves are reproducible).
``tests/test_golden.py`` asserts the library's current output matches the
committed text byte-for-byte, which pins determinism across *refactors*,
not merely across shard counts: any change to an RNG stream, a draw order,
a float expression, or the CSV serialization shows up as a diff here.

Regenerate (only when a change is *intended* to alter streams) with::

    PYTHONPATH=src python tools/regen_golden.py
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from pathlib import Path

from repro.cluster import (
    cloudlab,
    corona,
    frontera,
    longhorn,
    summit,
    vortex,
)
from repro.sim import CampaignConfig, run_campaign
from repro.telemetry.dataset import MeasurementDataset
from repro.telemetry.io import dataset_to_csv_text
from repro.workloads import sgemm
from repro.workloads.sgemm import SGEMM_N_AMD

__all__ = [
    "GOLDEN_DIR",
    "GOLDEN_SEED",
    "GOLDEN_CONFIG",
    "GOLDEN_CAMPAIGNS",
    "GoldenSpec",
    "assert_matches_golden",
    "build_golden_dataset",
    "golden_csv_text",
    "golden_path",
    "read_golden_text",
    "write_golden",
]

GOLDEN_DIR = Path(__file__).resolve().parent

#: One seed for all fixtures; distinct from the test-suite and benchmark
#: seeds so golden diffs cannot be masked by fixture reuse.
GOLDEN_SEED = 20221113

#: Two days, one run per day: long enough to cover the per-day facility
#: drift and the day-keyed RNG hierarchy, small enough to commit.
GOLDEN_CONFIG = CampaignConfig(days=2, runs_per_day=1)


@dataclass(frozen=True)
class GoldenSpec:
    """One golden fixture: a (preset, scale, SGEMM size) campaign."""

    preset: object  # cluster factory, e.g. repro.cluster.longhorn
    scale: float
    sgemm_n: int | None = None  # None = the workload default (NVIDIA size)

    def build_cluster(self):
        return self.preset(seed=GOLDEN_SEED, scale=self.scale)

    def build_workload(self):
        return sgemm() if self.sgemm_n is None else sgemm(n=self.sgemm_n)


#: Scales mirror the fast fixtures in tests/conftest.py: each keeps the
#: preset's signature structure (Longhorn's c002 cabinet, Summit's grid,
#: Corona's AMD dither) while staying a few hundred rows.
GOLDEN_CAMPAIGNS: dict[str, GoldenSpec] = {
    "longhorn-sgemm": GoldenSpec(longhorn, scale=0.25),
    "summit-sgemm": GoldenSpec(summit, scale=0.03125),
    "vortex-sgemm": GoldenSpec(vortex, scale=0.34),
    "frontera-sgemm": GoldenSpec(frontera, scale=0.34),
    "corona-sgemm": GoldenSpec(corona, scale=0.6, sgemm_n=SGEMM_N_AMD),
    "cloudlab-sgemm": GoldenSpec(cloudlab, scale=1.0),
}


def build_golden_dataset(name: str, *, tracer=None, manifest=None,
                         monitor=None, workers=None) -> MeasurementDataset:
    """Run the (small) campaign a golden fixture pins.

    ``tracer``/``manifest``/``monitor`` pass through to
    :func:`run_campaign` so the observability layer's zero-perturbation
    guarantee is pinned against the same fixtures (the output must be
    byte-identical either way).  ``workers`` likewise: the shard plan is
    execution shape only, so the fixtures also pin the parallel path.
    """
    spec = GOLDEN_CAMPAIGNS[name]
    return run_campaign(spec.build_cluster(), spec.build_workload(),
                        GOLDEN_CONFIG, tracer=tracer, manifest=manifest,
                        monitor=monitor, workers=workers)


def golden_csv_text(name: str, *, tracer=None, manifest=None,
                    monitor=None, workers=None) -> str:
    """The canonical CSV text of a freshly computed golden campaign."""
    return dataset_to_csv_text(
        build_golden_dataset(name, tracer=tracer, manifest=manifest,
                             monitor=monitor, workers=workers)
    )


def assert_matches_golden(name: str, *, workers=None) -> None:
    """Recompute one fixture's campaign and compare it byte for byte.

    On a mismatch, fails at the first differing line (or the row count)
    rather than dumping both texts.
    """
    expected = read_golden_text(name)
    actual = golden_csv_text(name, workers=workers)
    if actual == expected:
        return
    where = name if workers is None else f"{name} (workers={workers})"
    exp_lines = expected.splitlines()
    act_lines = actual.splitlines()
    for i, (e, a) in enumerate(zip(exp_lines, act_lines)):
        assert a == e, (
            f"{where}: first diff at line {i + 1}\n"
            f"  golden : {e}\n  current: {a}"
        )
    assert len(act_lines) == len(exp_lines), (
        f"{where}: row count changed "
        f"({len(exp_lines)} golden vs {len(act_lines)} current)"
    )
    raise AssertionError(f"{where}: output text differs from committed golden")


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.csv.gz"


def read_golden_text(name: str) -> str:
    """The committed fixture, decompressed to its canonical CSV text."""
    with gzip.open(golden_path(name), "rt", encoding="utf-8", newline="") as fh:
        return fh.read()


def write_golden(name: str) -> Path:
    """(Re)write one fixture with reproducible archive bytes (mtime=0)."""
    path = golden_path(name)
    data = golden_csv_text(name).encode("utf-8")
    with open(path, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(data)
    return path
