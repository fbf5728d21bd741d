"""Measurement campaigns: many runs, many days, most of the fleet.

The paper's methodology (Section III): measure >90% of each cluster's GPUs,
repeat over days and weeks to rule out transients, use exclusive node
allocations, and record everything.  :func:`run_campaign` reproduces that
protocol and emits a long-form :class:`~repro.telemetry.dataset.MeasurementDataset`
with one row per (GPU, run), carrying the identity columns every analysis
in :mod:`repro.core` groups by.

Execution is delegated to :mod:`repro.sim.parallel`, which partitions the
(day, run) grid — and, on very large fleets, GPU-index shards within a run
— into a deterministic shard plan.  Pass ``workers=N`` (or a full
:class:`~repro.sim.parallel.ParallelConfig`) to fan the plan out across
processes; the result is bit-identical to the serial execution.

Attach a :class:`~repro.telemetry.progress.CampaignProgress` to watch shards
complete; besides per-shard timings, its ``solver_stats`` property
aggregates the DVFS solver counters
(:class:`~repro.gpu.dvfs.SolverStats`) across the campaign — how much of
the dense p-state grid the steady-state fleet search avoided evaluating
(see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.facility import FacilityModel
from ..config import require
from ..errors import ConfigError
from ..telemetry.dataset import MeasurementDataset
from ..telemetry.progress import CampaignProgress
from ..telemetry.sample import (
    METRIC_FREQUENCY,
    METRIC_PERFORMANCE,
    METRIC_POWER,
    METRIC_TEMPERATURE,
)
from ..workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..obs.manifest import Manifest
    from ..obs.metrics import FleetMonitor
    from ..obs.timeline import TimelineRecorder
    from ..obs.tracer import Tracer
    from .parallel import ParallelConfig

__all__ = ["CampaignConfig", "run_campaign"]


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of a measurement campaign.

    Parameters
    ----------
    days:
        Calendar days covered (the paper: 1-8 weeks depending on cluster).
    runs_per_day:
        Independent runs per covered GPU per day.
    coverage:
        Fraction of nodes reachable each day (shared clusters rarely grant
        everything; Vortex yielded 184 of 216 GPUs).
    power_limit_w:
        Administrative power cap applied to every run (CloudLab sweeps).
    """

    days: int = 7
    runs_per_day: int = 1
    coverage: float = 1.0
    power_limit_w: float | None = None

    def __post_init__(self) -> None:
        # Counts must be genuine integers: a float like 2.5 would silently
        # truncate in range() loops and shard plans, so reject it outright
        # (bool is an int subclass but is surely a caller mistake here).
        for name in ("days", "runs_per_day"):
            value = getattr(self, name)
            require(
                isinstance(value, int) and not isinstance(value, bool),
                f"{name} must be an integer, got {value!r}",
            )
        require(self.days >= 1, f"days must be >= 1, got {self.days}")
        require(self.runs_per_day >= 1,
                f"runs_per_day must be >= 1, got {self.runs_per_day}")
        require(0 < self.coverage <= 1, "coverage must be in (0, 1]")
        require(
            self.power_limit_w is None or self.power_limit_w > 0,
            f"power_limit_w must be positive, got {self.power_limit_w}",
        )


def run_campaign(
    cluster: Cluster,
    workload: Workload,
    config: CampaignConfig | None = None,
    *,
    workers: int | None = None,
    parallel: "ParallelConfig | None" = None,
    progress: CampaignProgress | None = None,
    tracer: "Tracer | None" = None,
    manifest: "Manifest | None" = None,
    monitor: "FleetMonitor | None" = None,
    timeline: "TimelineRecorder | None" = None,
) -> MeasurementDataset:
    """Execute a campaign and return the long-form measurement table.

    Columns: ``cluster``, ``workload``, ``day``, ``weekday``, ``run``,
    ``gpu_index``, ``gpu_label``, ``node_label``, ``cabinet`` (plus ``row``
    / ``column`` on grid topologies), the four reported metrics, the
    ``true_*`` ground-truth columns, cap flags, and ``defect_kind`` (ground
    truth for validation — a real operator would not have it).

    Parameters
    ----------
    cluster, workload, config:
        What to measure, with what, for how long.
    workers:
        Shorthand for ``parallel=ParallelConfig(workers=...)``: fan the
        campaign's shard plan out over this many worker processes.
        ``None`` or ``1`` executes serially in-process.  The returned
        dataset is exactly equal — every column, bit for bit — regardless
        of the worker count (see :mod:`repro.sim.parallel`).
    parallel:
        Full sharding/execution configuration; mutually exclusive with
        ``workers``.
    progress:
        Optional :class:`~repro.telemetry.progress.CampaignProgress` sink
        receiving one per-shard timing record as shards complete.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` collecting spans and
        counters for the campaign (see :mod:`repro.obs`).  Tracing never
        perturbs the measurement: the dataset is byte-identical with or
        without it.
    manifest:
        Optional :class:`~repro.obs.manifest.Manifest`; one audit entry
        (config digest, RNG roots, solver totals, result digest) is
        appended per executed campaign.
    monitor:
        Optional :class:`~repro.obs.metrics.FleetMonitor` collecting the
        fleet metrics stream (per-GPU gauges, histograms, run samples for
        health analysis).  Like the tracer it is merged in canonical plan
        order and never perturbs the measurement.
    timeline:
        Optional :class:`~repro.obs.timeline.TimelineRecorder` receiving
        the unified flight-recorder event stream (campaign lifecycle plus
        one event per simulated run).  Events carry a logical clock only —
        the recorded timeline is byte-identical at any worker count.
    """
    from .parallel import ParallelConfig, execute_campaign

    config = config if config is not None else CampaignConfig()
    if workers is not None:
        if parallel is not None:
            raise ConfigError(
                "pass either workers= or parallel=, not both"
            )
        parallel = ParallelConfig(workers=workers)
    return execute_campaign(
        cluster, workload, config, parallel=parallel, progress=progress,
        tracer=tracer, manifest=manifest, monitor=monitor, timeline=timeline,
    )


def _to_dataset(
    cluster: Cluster,
    workload: Workload,
    day: int,
    run_index: int,
    result,
) -> MeasurementDataset:
    topo = cluster.topology
    idx = result.gpu_indices
    n = idx.shape[0]
    node_idx = topo.node_of_gpu[idx]
    columns: dict[str, np.ndarray] = {
        "cluster": np.full(n, cluster.name, dtype=object),
        "workload": np.full(n, workload.name, dtype=object),
        "day": np.full(n, day, dtype=np.int64),
        "weekday": np.full(n, FacilityModel.weekday_name(day), dtype=object),
        "run": np.full(n, run_index, dtype=np.int64),
        "gpu_index": idx.astype(np.int64),
        "gpu_label": np.asarray(
            [topo.gpu_labels[i] for i in idx], dtype=object
        ),
        "node_label": np.asarray(
            [topo.node_labels[i] for i in node_idx], dtype=object
        ),
        "cabinet": np.asarray(
            [topo.cabinet_labels[c] for c in topo.cabinet_of_gpu[idx]],
            dtype=object,
        ),
        METRIC_PERFORMANCE: result.performance_ms,
        METRIC_FREQUENCY: result.frequency_mhz,
        METRIC_POWER: result.power_w,
        METRIC_TEMPERATURE: result.temperature_c,
        "true_frequency_mhz": result.true_frequency_mhz,
        "true_power_w": result.true_power_w,
        "true_temperature_c": result.true_temperature_c,
        "power_capped": result.power_capped,
        "thermally_capped": result.thermally_capped,
        "defect_kind": cluster.defects.kind[idx].astype(np.int64),
    }
    if topo.has_grid:
        rows = topo.row_of_gpu[idx]
        columns["row"] = np.asarray(
            [topo.row_labels[r] for r in rows], dtype=object
        )
        columns["column"] = (topo.column_of_gpu[idx] + 1).astype(np.int64)
    return MeasurementDataset(columns)
