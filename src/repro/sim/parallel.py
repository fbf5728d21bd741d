"""Sharded, parallel campaign execution — bit-identical to the serial path.

The paper's methodology multiplies out to thousands of (GPU, day, run)
measurements per cluster; executed one run at a time, the Summit preset
(27,648 GPUs) dominates the wall clock of every figure script.  This module
partitions a campaign into independent **shards** and executes them across
``concurrent.futures`` workers.

Equivalence, not approximation
------------------------------
A parallel simulator is only trustworthy if it is provably the same
simulator.  Three properties make the parallel result *exactly* equal —
every column, every bit — to the serial one:

1. **Keyed RNG streams.**  Every random draw of a run derives from
   ``cluster.rng_factory.child(run_rng_label(workload, day, run))`` — a
   pure function of the campaign coordinates.  A worker process
   reconstructs the exact stream from the coordinates alone; no RNG state
   crosses the executor boundary.  When a run is split into GPU shards,
   each shard draws from its own child stream
   (``generator("shard-{i}-of-{m}")``) and the facility-wide coolant
   fluctuation — physically shared by every GPU in the run — comes from a
   dedicated run-level stream that every shard reconstructs identically.
2. **Worker-independent planning.**  :func:`plan_shards` depends only on
   the cluster, the workload, and the campaign/parallel configuration —
   never on the worker count or the backend.  Serial and parallel
   executors run literally the same plan, so "serial vs parallel" can
   only differ in *who* executes a shard, which the physics cannot see.
3. **Canonical merge order.**  Results are placed by plan position and
   concatenated in (day, run, shard) order, i.e. ascending
   (day, run, gpu_index).  No cross-shard floating-point reduction
   happens during the merge — only concatenation — so there is no
   reduction-order sensitivity.

The equivalence is enforced by ``tests/sim/test_parallel_equivalence.py``
(exact equality across workers x shard shapes x every cluster preset) and
pinned across refactors by the golden fixtures under ``tests/golden/``.
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack
from concurrent.futures import (
    FIRST_EXCEPTION,
    Executor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..cluster.allocator import ExclusiveNodeAllocator
from ..cluster.cluster import Cluster, active_fault_plan
from ..config import require
from ..errors import SimulationError
from ..gpu.dvfs import SolverStats
from ..obs.manifest import Manifest, build_campaign_manifest
from ..obs.metrics import FleetMonitor
from ..obs.observer import Observer, activate
from ..obs.timeline import TimelineRecorder, measurement_digest
from ..obs.tracer import Tracer
from ..telemetry.sample import (
    METRIC_FREQUENCY,
    METRIC_PERFORMANCE,
    METRIC_POWER,
    METRIC_TEMPERATURE,
)
from ..telemetry.dataset import MeasurementDataset
from ..telemetry.progress import CampaignProgress, ShardTiming
from ..workloads.base import Workload
from .run import RUN_COOLANT_SIGMA_SHARED, run_rng_label, simulate_run

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .campaign import CampaignConfig

__all__ = [
    "DEFAULT_MAX_GPUS_PER_SHARD",
    "ParallelConfig",
    "ShardTask",
    "make_executor",
    "plan_shards",
    "execute_campaign",
]

#: Runs on fleets larger than this are split into GPU-index shards.  Sized
#: so every preset except full-scale Summit stays a single shard per run
#: (preserving the seed's exact serial streams) while Summit splits into
#: four pieces that parallelize and fit comfortably in worker memory.
DEFAULT_MAX_GPUS_PER_SHARD = 8192

_BACKENDS = ("auto", "serial", "thread", "process")


@dataclass(frozen=True)
class ParallelConfig:
    """How a campaign is sharded and executed.

    Parameters
    ----------
    workers:
        Worker count.  ``None`` or ``1`` executes the plan serially in
        the calling process (no pool is created).  The pool never exceeds
        the number of shards in the plan.
    backend:
        ``"process"`` (default for ``workers > 1``) isolates workers in
        subprocesses — true parallelism for the NumPy-heavy physics.
        ``"thread"`` shares the cluster object and suits tests or
        GIL-releasing BLAS-bound workloads.  ``"serial"`` forces in-process
        execution regardless of ``workers``; ``"auto"`` picks for you.
    max_gpus_per_shard:
        Within-run sharding threshold.  Runs covering more GPUs than this
        are split into node-aligned GPU shards; ``None`` disables
        within-run sharding entirely.  This changes *which* keyed RNG
        streams a run consumes, so it must be identical between any two
        executions you expect to compare bit-for-bit (it is part of the
        plan, not of the execution).
    """

    workers: int | None = None
    backend: str = "auto"
    max_gpus_per_shard: int | None = DEFAULT_MAX_GPUS_PER_SHARD

    def __post_init__(self) -> None:
        require(
            self.workers is None or self.workers >= 1,
            f"workers must be None or >= 1, got {self.workers}",
        )
        require(
            self.backend in _BACKENDS,
            f"backend must be one of {_BACKENDS}, got {self.backend!r}",
        )
        require(
            self.max_gpus_per_shard is None or self.max_gpus_per_shard >= 1,
            "max_gpus_per_shard must be None or >= 1, "
            f"got {self.max_gpus_per_shard}",
        )

    @property
    def effective_workers(self) -> int:
        """The worker count as an integer (serial == 1)."""
        return 1 if self.workers is None else int(self.workers)

    def resolved_backend(self) -> str:
        """The backend actually used: ``serial``, ``thread`` or ``process``."""
        if self.backend != "auto":
            return self.backend
        return "serial" if self.effective_workers <= 1 else "process"


@dataclass(frozen=True)
class ShardTask:
    """One schedulable unit: a (day, run) pair restricted to a GPU shard.

    ``gpu_indices`` is the shard's slice of the day's covered GPUs, in
    ascending order and node-aligned (whole nodes only), so multi-GPU
    bulk-synchronous jobs never straddle a shard boundary.
    """

    day: int
    run_index: int
    shard_index: int
    n_shards: int
    gpu_indices: np.ndarray = field(repr=False)

    @property
    def n_gpus(self) -> int:
        """GPUs simulated by this shard."""
        return int(self.gpu_indices.shape[0])


def plan_shards(
    cluster: Cluster,
    workload: Workload,
    config: "CampaignConfig",
    parallel: ParallelConfig | None = None,
) -> list[ShardTask]:
    """The campaign's full shard plan, in canonical (day, run, shard) order.

    Deterministic in (cluster, workload, config, parallel) and — crucially
    — independent of worker count and backend: the plan defines *what* the
    campaign computes, the executor only decides *where*.

    The per-day coverage draw consumes the same keyed stream
    (``child("campaign-day-{d}").generator("coverage")``) the serial
    campaign runner always used, so plans replay exactly.
    """
    parallel = parallel if parallel is not None else ParallelConfig()
    allocator = ExclusiveNodeAllocator(cluster.topology)
    tasks: list[ShardTask] = []
    for day in range(config.days):
        day_rng = cluster.rng_factory.child(f"campaign-day-{day}").generator(
            "coverage"
        )
        allocations = allocator.sweep(coverage=config.coverage, rng=day_rng)
        plan = active_fault_plan(cluster)
        if plan is not None:
            # Chaos node loss drops whole nodes from the day's sweep
            # *after* the coverage draw, so every other day's RNG stream
            # — and the plan's worker-independence — is untouched.
            lost = plan.lost_nodes(day)
            if lost:
                allocations = [
                    a for a in allocations if a.node_index not in lost
                ]
        if not allocations:
            continue
        shards = _partition_nodes(
            [a.gpu_indices for a in allocations], parallel.max_gpus_per_shard
        )
        for run_index in range(config.runs_per_day):
            for shard_index, gpus in enumerate(shards):
                tasks.append(
                    ShardTask(
                        day=day,
                        run_index=run_index,
                        shard_index=shard_index,
                        n_shards=len(shards),
                        gpu_indices=gpus,
                    )
                )
    return tasks


def _partition_nodes(
    node_gpu_arrays: list[np.ndarray], max_gpus_per_shard: int | None
) -> list[np.ndarray]:
    """Greedily pack whole nodes into contiguous shards of bounded size.

    A shard always contains at least one node, so a node wider than the
    bound becomes a singleton shard rather than an error.
    """
    if max_gpus_per_shard is None:
        return [np.concatenate(node_gpu_arrays)]
    shards: list[np.ndarray] = []
    current: list[np.ndarray] = []
    current_n = 0
    for gpus in node_gpu_arrays:
        if current and current_n + gpus.shape[0] > max_gpus_per_shard:
            shards.append(np.concatenate(current))
            current, current_n = [], 0
        current.append(gpus)
        current_n += gpus.shape[0]
    if current:
        shards.append(np.concatenate(current))
    return shards


# ---------------------------------------------------------------------------
# shard execution (shared by every backend; runs in workers for pools)
# ---------------------------------------------------------------------------


def _execute_shard(
    cluster: Cluster,
    workload: Workload,
    power_limit_w: float | None,
    task: ShardTask,
) -> tuple[MeasurementDataset, float, "SolverStats | None"]:
    """Simulate one shard and convert it to its dataset slice.

    Single-shard runs take the exact legacy path (the ``"run"`` stream of
    the run's keyed child factory), so campaigns on ordinarily-sized
    fleets are byte-identical to the pre-sharding executor.  Multi-shard
    runs reconstruct, from the same child factory, (a) the run-level
    shared coolant fluctuation and (b) the shard's private stream.
    """
    started = time.perf_counter()
    if task.n_shards == 1:
        result = simulate_run(
            cluster,
            workload,
            day=task.day,
            run_index=task.run_index,
            gpu_indices=task.gpu_indices,
            power_limit_w=power_limit_w,
        )
    else:
        run_factory = cluster.rng_factory.child(
            run_rng_label(workload, task.day, task.run_index)
        )
        shared_offset = float(
            run_factory.generator("coolant-shared").normal(
                0.0, RUN_COOLANT_SIGMA_SHARED
            )
        )
        shard_rng = run_factory.generator(
            f"shard-{task.shard_index}-of-{task.n_shards}"
        )
        result = simulate_run(
            cluster,
            workload,
            day=task.day,
            run_index=task.run_index,
            gpu_indices=task.gpu_indices,
            power_limit_w=power_limit_w,
            rng=shard_rng,
            coolant_shared_offset_c=shared_offset,
        )
    from .campaign import _to_dataset  # deferred: campaign imports us too

    dataset = _to_dataset(cluster, workload, task.day, task.run_index, result)
    return dataset, time.perf_counter() - started, result.solver_stats


def _execute_shard_observed(
    cluster: Cluster,
    workload: Workload,
    power_limit_w: float | None,
    task: ShardTask,
    shard: Observer,
) -> tuple[MeasurementDataset, float, "SolverStats | None", dict]:
    """Execute one shard under its shard-local ``shard`` observer.

    Every observed shard gets its *own* sinks (built by
    :meth:`~repro.obs.observer.Observer.for_shard`) — even on the serial
    path — activated thread-locally for the duration of the shard, so
    counter totals, span structure, the metric sample stream, and the
    event timeline are identical for any worker count or backend: the
    executors merge the returned payloads in canonical plan order
    afterwards.  An empty observer activates nothing.
    """
    if not shard.sinks():
        return (*_execute_shard(cluster, workload, power_limit_w, task), {})
    with ExitStack() as stack:
        stack.enter_context(activate(**shard.sinks()))
        if shard.tracer is not None:
            stack.enter_context(
                shard.tracer.span(
                    "shard",
                    category="shard",
                    day=task.day,
                    run_index=task.run_index,
                    shard_index=task.shard_index,
                    n_shards=task.n_shards,
                    n_gpus=task.n_gpus,
                )
            )
        dataset, duration, solver = _execute_shard(
            cluster, workload, power_limit_w, task
        )
    return dataset, duration, solver, shard.to_payload()


def _shard_error(task: ShardTask, exc: BaseException) -> SimulationError:
    shard = (
        f", shard {task.shard_index + 1}/{task.n_shards}"
        if task.n_shards > 1
        else ""
    )
    return SimulationError(
        f"campaign shard failed (day={task.day}, run={task.run_index}"
        f"{shard}, {task.n_gpus} GPUs): {exc}"
    )


# -- process-pool plumbing ---------------------------------------------------
#
# The cluster and workload are shipped once per worker through the pool
# initializer (cheap: a Longhorn cluster pickles to ~70 kB); tasks then
# carry only their shard coordinates, GPU indices and fresh shard-local
# observer.

_WORKER_CONTEXT: dict[str, tuple] = {}


def _init_worker(
    cluster: Cluster, workload: Workload, power_limit_w: float | None
) -> None:
    _WORKER_CONTEXT["campaign"] = (cluster, workload, power_limit_w)


def _run_task_in_worker(
    task: ShardTask, shard: Observer
) -> tuple[MeasurementDataset, float, "SolverStats | None", dict]:
    cluster, workload, power_limit_w = _WORKER_CONTEXT["campaign"]
    return _execute_shard_observed(
        cluster, workload, power_limit_w, task, shard
    )


def make_executor(
    backend: str,
    n_workers: int,
    *,
    initializer: Callable | None = None,
    initargs: tuple = (),
) -> Executor:
    """Build the ``concurrent.futures`` executor the campaign engine uses.

    ``backend`` is ``"thread"`` or ``"process"``; process pools prefer the
    fork start method where available (the initializer payload still
    travels by pickle, so spawn-only platforms work too).  Exposed so
    other long-lived components — notably :mod:`repro.service`'s worker
    pool — reuse the exact pool construction (and its start-method
    choice) instead of growing a second one.  ``multiprocessing`` loads
    only when a process pool is built.
    """
    require(
        backend in ("thread", "process"),
        f"backend must be 'thread' or 'process', got {backend!r}",
    )
    require(n_workers >= 1, f"n_workers must be >= 1, got {n_workers}")
    if backend == "thread":
        return ThreadPoolExecutor(
            max_workers=n_workers, initializer=initializer, initargs=initargs
        )
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )
    return ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=ctx,
        initializer=initializer,
        initargs=initargs,
    )


def _make_executor(
    backend: str,
    n_workers: int,
    cluster: Cluster,
    workload: Workload,
    power_limit_w: float | None,
) -> Executor:
    if backend == "thread":
        return ThreadPoolExecutor(max_workers=n_workers)
    return make_executor(
        "process",
        n_workers,
        initializer=_init_worker,
        initargs=(cluster, workload, power_limit_w),
    )


# ---------------------------------------------------------------------------
# campaign executor
# ---------------------------------------------------------------------------


def execute_campaign(
    cluster: Cluster,
    workload: Workload,
    config: "CampaignConfig",
    parallel: ParallelConfig | None = None,
    progress: CampaignProgress | None = None,
    *,
    tracer: Tracer | None = None,
    manifest: Manifest | None = None,
    monitor: FleetMonitor | None = None,
    timeline: TimelineRecorder | None = None,
) -> MeasurementDataset:
    """Plan, execute (serially or in parallel), and merge a campaign.

    This is the engine behind :func:`repro.sim.campaign.run_campaign`;
    call that instead unless you are composing executors.

    When ``tracer`` is given, every shard runs under its own shard-local
    tracer (in whatever worker executes it) and the per-shard payloads are
    merged into ``tracer`` in canonical plan order after the result merge
    — so counter totals and span structure are independent of worker
    count and backend.  ``monitor`` works the same way for the fleet
    metrics pipeline: shard-local :class:`~repro.obs.metrics.FleetMonitor`
    instances collect run samples and hook counters, the payloads merge in
    plan order, and :meth:`~repro.obs.metrics.FleetMonitor.finalize` then
    derives the fleet-level registry — making the sample stream, health
    events, and registry totals invariant to ``workers=``.  When
    ``manifest`` is given, one
    :class:`~repro.obs.manifest.CampaignManifest` entry is appended after
    execution.  ``timeline`` receives the unified flight-recorder event
    stream: one campaign-lifecycle envelope plus every shard's per-run
    events, folded in plan order so the recorded timeline is byte-identical
    at any worker count (events carry no wall time at all).  No sink
    perturbs the campaign: outputs are bit-identical with or without them.

    Only sinks passed here are observed across workers: a sink merely
    activated on the calling thread (:func:`~repro.obs.observer.activate`)
    sees the shards of a serial run but never those of a pool.
    """
    parallel = parallel if parallel is not None else ParallelConfig()
    observer = Observer(tracer, monitor, timeline)
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
        # Only plan-determined fields: worker count and backend must not
        # leave a fingerprint on the byte-stable timeline.
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
    n_workers = min(parallel.effective_workers, len(tasks))
    if backend == "serial" or n_workers <= 1:
        parts, solvers, payloads = _execute_serial(
            cluster, workload, config, tasks, progress, observer
        )
    else:
        parts, solvers, payloads = _execute_pool(
            cluster, workload, config, tasks, backend, n_workers, progress,
            observer,
        )
    if tracer is not None:
        merge_start, merge_t0 = time.time(), time.perf_counter()
    dataset = MeasurementDataset.concat(parts)
    # Canonical-order merge: payloads are indexed by plan position, so the
    # fold — the monitor's run stream, the span sequence, counter totals
    # and the timeline's event order — is identical for any worker layout.
    for payload in payloads:
        observer.merge_payload(payload)
    if monitor is not None:
        monitor.finalize(cluster.topology.gpu_labels)
    if tracer is not None:
        _synthesize_day_spans(tracer, tasks, payloads)
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
        manifest.add(
            build_campaign_manifest(
                cluster, workload, config, parallel, len(tasks), dataset,
                totals,
            )
        )
    return dataset


def _synthesize_day_spans(
    tracer: Tracer, tasks: list[ShardTask], payloads: list[dict]
) -> None:
    """Record one span per campaign day covering its shard spans.

    Day spans live on their own ``day-{d:03d}`` tracks (not inside shard
    tracks) because in parallel execution a day's shards overlap in wall
    time; a dedicated per-day row shows the day envelope without breaking
    the time-containment nesting inside shard tracks.
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
    for day in sorted(bounds):
        start, end, n_shards = bounds[day]
        tracer.record_span(
            "day",
            category="campaign",
            track=f"day-{day:03d}",
            start_s=start,
            duration_s=max(0.0, end - start),
            day=day,
            n_shards=n_shards,
        )


def _record(
    progress: CampaignProgress | None,
    task: ShardTask,
    dataset: MeasurementDataset,
    duration: float,
    solver: "SolverStats | None",
) -> None:
    if progress is None:
        return
    progress.record(
        ShardTiming(
            day=task.day,
            run_index=task.run_index,
            shard_index=task.shard_index,
            n_shards=task.n_shards,
            n_rows=dataset.n_rows,
            duration_s=duration,
            solver=solver,
        )
    )


def _execute_serial(
    cluster: Cluster,
    workload: Workload,
    config: "CampaignConfig",
    tasks: list[ShardTask],
    progress: CampaignProgress | None,
    observer: Observer,
) -> tuple[list[MeasurementDataset], list["SolverStats | None"], list[dict]]:
    parts: list[MeasurementDataset] = []
    solvers: list["SolverStats | None"] = []
    payloads: list[dict] = []
    for task in tasks:
        try:
            dataset, duration, solver, payload = _execute_shard_observed(
                cluster, workload, config.power_limit_w, task,
                observer.for_shard(task),
            )
        except SimulationError as exc:
            raise _shard_error(task, exc) from exc
        _record(progress, task, dataset, duration, solver)
        parts.append(dataset)
        solvers.append(solver)
        payloads.append(payload)
    return parts, solvers, payloads


def _execute_pool(
    cluster: Cluster,
    workload: Workload,
    config: "CampaignConfig",
    tasks: list[ShardTask],
    backend: str,
    n_workers: int,
    progress: CampaignProgress | None,
    observer: Observer,
) -> tuple[list[MeasurementDataset], list["SolverStats | None"], list[dict]]:
    parts: list[MeasurementDataset | None] = [None] * len(tasks)
    solvers: list["SolverStats | None"] = [None] * len(tasks)
    payloads: list[dict | None] = [None] * len(tasks)
    executor = _make_executor(
        backend, n_workers, cluster, workload, config.power_limit_w
    )
    submit: Callable
    if backend == "thread":
        # Threads share the cluster object directly; no initializer needed.
        def submit(t: ShardTask):
            return executor.submit(
                _execute_shard_observed, cluster, workload,
                config.power_limit_w, t, observer.for_shard(t),
            )
    else:
        def submit(t: ShardTask):
            return executor.submit(_run_task_in_worker, t, observer.for_shard(t))

    try:
        futures = {submit(t): (i, t) for i, t in enumerate(tasks)}
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_EXCEPTION)
            for future in done:
                index, task = futures[future]
                try:
                    dataset, duration, solver, payload = future.result()
                except Exception as exc:
                    # Fail fast with shard context rather than letting the
                    # remaining futures drain (or the caller hang on a
                    # half-merged campaign).
                    raise _shard_error(task, exc) from exc
                parts[index] = dataset
                solvers[index] = solver
                payloads[index] = payload
                _record(progress, task, dataset, duration, solver)
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
    assert all(p is not None for p in parts)
    return parts, solvers, payloads  # type: ignore[return-value]


def default_worker_count(cap: int = 4) -> int:
    """A sensible worker count for this machine: ``min(cap, cpu_count)``.

    Used by the benchmark suite so figure scripts parallelize on capable
    machines and degrade to the serial path on single-core CI runners.
    """
    return max(1, min(cap, os.cpu_count() or 1))
