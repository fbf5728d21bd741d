"""Measurement campaigns: many runs, many days, most of the fleet.

The paper's methodology (Section III): measure >90% of each cluster's GPUs,
repeat over days and weeks to rule out transients, use exclusive node
allocations, and record everything.  :func:`run_campaign` reproduces that
protocol and emits a long-form :class:`~repro.telemetry.dataset.MeasurementDataset`
with one row per (GPU, run), carrying the identity columns every analysis
in :mod:`repro.core` groups by.

:func:`run_campaign` plans the campaign with :mod:`repro.sim.parallel`,
which partitions the (day, run) grid — and, on very large fleets,
GPU-index shards within a run — into a deterministic shard plan, runs
the plan there serially or on a pool, and merges the results and the
shard sinks in plan order.  Pass ``workers=N`` (or a full
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

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..cluster.cluster import Cluster, active_fault_plan
from ..cluster.facility import FacilityModel
from ..config import require
from ..errors import ConfigError
from ..gpu.dvfs import SolverStats
from ..obs.observer import _attach, active_observer
from ..obs.timeline import measurement_digest
from ..telemetry.dataset import MeasurementDataset, shared_str_column
from ..telemetry.progress import CampaignProgress
from ..telemetry.sample import (
    METRIC_FREQUENCY,
    METRIC_PERFORMANCE,
    METRIC_POWER,
    METRIC_TEMPERATURE,
)
from ..workloads.base import Workload
from .parallel import (
    ParallelConfig,
    ShardTask,
    _execute_pool,
    _execute_serial,
    _group_plan,
    plan_shards,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..obs.manifest import Manifest
    from ..obs.metrics import FleetMonitor
    from ..obs.timeline import TimelineRecorder
    from ..obs.tracer import Tracer

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
    parallel: ParallelConfig | None = None,
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
    tracer, monitor, timeline:
        The campaign's sinks: a :class:`~repro.obs.tracer.Tracer` for
        spans and counters, a :class:`~repro.obs.metrics.FleetMonitor`
        for the fleet metrics stream (per-GPU gauges, histograms, run
        samples for health analysis), and a
        :class:`~repro.obs.timeline.TimelineRecorder` for the
        flight-recorder event stream (one campaign-lifecycle envelope
        plus one event per simulated run, on a logical clock only).  The
        campaign reads them from
        :func:`~repro.obs.observer.active_observer`; a sink passed here
        is activated over the active one and ``None`` inherits it.
        Every shard runs under its own shard-local sinks, in whatever
        worker executes it, and the payloads merge into these in
        canonical plan order, so span structure, counter totals, the
        monitor's sample stream and the timeline are the same at any
        worker count and backend.  The monitor is then finalized into
        its fleet-level registry.  No sink perturbs the measurement: the
        dataset is byte-identical with or without them.
    manifest:
        Optional :class:`~repro.obs.manifest.Manifest`; one audit entry
        (config digest, RNG roots, solver totals, result digest) is
        appended per executed campaign.
    """
    config = config if config is not None else CampaignConfig()
    if workers is not None and parallel is not None:
        raise ConfigError("pass either workers= or parallel=, not both")
    if parallel is None:
        parallel = ParallelConfig(workers=workers)
    with _attach(tracer, monitor, timeline):
        observer = active_observer()
        tracer, monitor = observer.tracer, observer.monitor
        timeline = observer.recorder
        if tracer is not None:
            campaign_start, campaign_t0 = time.time(), time.perf_counter()
            plan_start, plan_t0 = time.time(), time.perf_counter()
        tasks = plan_shards(cluster, workload, config, parallel)
        if tracer is not None:
            tracer.record_span(
                "plan",
                category="campaign",
                track=tracer.track,
                start_s=plan_start,
                duration_s=time.perf_counter() - plan_t0,
                n_shards=len(tasks),
            )
        if progress is not None:
            progress.begin(len(tasks))
        if timeline is not None:
            # Only plan-determined fields: worker count and backend must
            # not leave a fingerprint on the byte-stable timeline.
            timeline.record(
                "campaign",
                "campaign_begin",
                cluster.name,
                workload=workload.name,
                days=config.days,
                runs_per_day=config.runs_per_day,
                coverage=config.coverage,
                power_limit_w=config.power_limit_w,
                n_shards=len(tasks),
                fleet_gpus=cluster.topology.n_gpus,
            )
        backend = parallel.resolved_backend()
        groups = _group_plan(
            tasks, merge_days=active_fault_plan(cluster) is None
        )
        n_workers = min(parallel.effective_workers, len(groups))
        if backend == "serial" or n_workers <= 1:
            outputs = _execute_serial(
                cluster, workload, config, tasks, groups, progress, observer
            )
        else:
            outputs = _execute_pool(
                cluster, workload, config, tasks, groups, backend, n_workers,
                progress, observer,
            )
        parts = [dataset for dataset, _, _, _ in outputs]
        solvers = [solver for _, _, solver, _ in outputs]
        payloads = [payload for _, _, _, payload in outputs]
        if tracer is not None:
            merge_start, merge_t0 = time.time(), time.perf_counter()
        dataset = MeasurementDataset.concat(parts)
        # Canonical-order merge: payloads are indexed by plan position, so
        # the fold — the monitor's run stream, the span sequence, counter
        # totals and the timeline's event order — is identical for any
        # worker layout.
        for payload in payloads:
            observer.merge_payload(payload)
        if monitor is not None:
            monitor.finalize(cluster.topology.gpu_labels)
        if tracer is not None:
            _synthesize_day_spans(tracer, tasks, groups, payloads)
            tracer.record_span(
                "merge",
                category="campaign",
                track=tracer.track,
                start_s=merge_start,
                duration_s=time.perf_counter() - merge_t0,
                n_parts=len(parts),
            )
            tracer.add("campaign.shards", len(tasks))
            tracer.add("campaign.rows", dataset.n_rows)
            tracer.record_span(
                "campaign",
                category="campaign",
                track=tracer.track,
                start_s=campaign_start,
                duration_s=time.perf_counter() - campaign_t0,
                cluster=cluster.name,
                workload=workload.name,
                days=config.days,
                runs_per_day=config.runs_per_day,
                backend=backend,
                workers=n_workers,
            )
        totals = SolverStats()
        for solver in solvers:
            if solver is not None:
                totals.merge(solver)
        if timeline is not None:
            timeline.record(
                "campaign",
                "campaign_end",
                cluster.name,
                rows=dataset.n_rows,
                n_shards=len(tasks),
                solves=totals.solves,
                batches=totals.batches,
                measurements=measurement_digest(
                    dataset.column(METRIC_PERFORMANCE),
                    dataset.column(METRIC_FREQUENCY),
                    dataset.column(METRIC_POWER),
                    dataset.column(METRIC_TEMPERATURE),
                ),
            )
    if manifest is not None:
        from ..obs.manifest import build_campaign_manifest

        manifest.add(
            build_campaign_manifest(
                cluster, workload, config, parallel, len(tasks), dataset,
                totals,
            )
        )
    return dataset


def _synthesize_day_spans(
    tracer: "Tracer",
    tasks: list[ShardTask],
    groups: list[list[int]],
    payloads: list[dict],
) -> None:
    """Record one span per campaign day covering its shard spans.

    Day spans live on their own ``day-{d:03d}`` tracks (not inside shard
    tracks) because in parallel execution a day's shards overlap in wall
    time; a dedicated per-day row shows the day envelope without breaking
    the time-containment nesting inside shard tracks.

    A run group simulates consecutive days together, so each of its days
    gets the group's one wall interval: no per-day timing exists.  Such a
    day span carries ``group_days``, every day its interval is shared
    with, so a reader charges the interval once, not once per day.
    """
    bounds: dict[int, list] = {}
    for task, payload in zip(tasks, payloads):
        spans, _ = payload["tracer"]
        for record in spans:
            if record.name != "shard":
                continue
            entry = bounds.setdefault(
                task.day, [record.start_s, record.end_s, 0]
            )
            entry[0] = min(entry[0], record.start_s)
            entry[1] = max(entry[1], record.end_s)
            entry[2] += 1
    shared: dict[int, set[int]] = {}
    for group in groups:
        days = {tasks[i].day for i in group}
        for day in days:
            shared.setdefault(day, set()).update(days)
    for day in sorted(bounds):
        start, end, n_shards = bounds[day]
        group_days = tuple(sorted(shared[day]))
        extra = {"group_days": group_days} if len(group_days) > 1 else {}
        tracer.record_span(
            "day",
            category="campaign",
            track=f"day-{day:03d}",
            start_s=start,
            duration_s=max(0.0, end - start),
            day=day,
            n_shards=n_shards,
            **extra,
        )


def _to_datasets(
    cluster: Cluster,
    workload: Workload,
    days: list[int],
    run_indices: list[int],
    results: list,
) -> list[MeasurementDataset]:
    """The dataset slice of each of a group's runs on the same GPUs.

    ``days[i]`` and ``run_indices[i]`` are the coordinates of
    ``results[i]``.  The GPU identity columns do not depend on the run,
    so they are built once, and the ``day`` and ``weekday`` columns once
    per day; each run adds its ``run`` column and its measurements.
    """
    topo = cluster.topology
    idx = results[0].gpu_indices
    n = idx.shape[0]
    identity: dict[str, np.ndarray | None] = {
        "cluster": shared_str_column(n, cluster.name),
        "workload": shared_str_column(n, workload.name),
        "day": None,
        "weekday": None,
        "run": None,
        "gpu_index": idx.astype(np.int64),
        "gpu_label": topo.gpu_label_array[idx],
        "node_label": topo.node_label_of_gpu[idx],
        "cabinet": topo.cabinet_label_of_gpu[idx],
        # The run's measurements take these places, in this order.
        **dict.fromkeys((
            METRIC_PERFORMANCE, METRIC_FREQUENCY, METRIC_POWER,
            METRIC_TEMPERATURE, "true_frequency_mhz", "true_power_w",
            "true_temperature_c", "power_capped", "thermally_capped",
        )),
        "defect_kind": cluster.defects.kind[idx].astype(np.int64),
    }
    if topo.has_grid:
        identity["row"] = topo.row_label_of_gpu[idx]
        identity["column"] = (topo.column_of_gpu[idx] + 1).astype(np.int64)
    calendar = {
        day: {
            "day": np.full(n, day, dtype=np.int64),
            "weekday": shared_str_column(
                n, FacilityModel.weekday_name(day)
            ),
        }
        for day in dict.fromkeys(days)
    }
    return [
        MeasurementDataset({
            **identity,
            **calendar[day],
            "run": np.full(n, run_index, dtype=np.int64),
            METRIC_PERFORMANCE: result.performance_ms,
            METRIC_FREQUENCY: result.frequency_mhz,
            METRIC_POWER: result.power_w,
            METRIC_TEMPERATURE: result.temperature_c,
            "true_frequency_mhz": result.true_frequency_mhz,
            "true_power_w": result.true_power_w,
            "true_temperature_c": result.true_temperature_c,
            "power_capped": result.power_capped,
            "thermally_capped": result.thermally_capped,
        })
        for day, run_index, result in zip(days, run_indices, results)
    ]
