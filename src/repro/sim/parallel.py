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
   executors run literally the same plan, in the same execution groups
   (the runs of consecutive days of one shard, up to a row budget, whose
   solves are batched together), so
   "serial vs parallel" can only differ in *who* executes a group, which
   the physics cannot see.
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
from concurrent.futures import (
    FIRST_EXCEPTION,
    Executor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..cluster.allocator import _swept_nodes
from ..cluster.cluster import Cluster, active_fault_plan
from ..config import require
from ..errors import SimulationError
from ..gpu.dvfs import SolverStats
from ..obs.observer import Observer
from ..telemetry.dataset import MeasurementDataset
from ..telemetry.progress import CampaignProgress, ShardTiming
from ..workloads.base import Workload
from .run import RUN_COOLANT_SIGMA_SHARED, _simulate_runs, run_rng_label

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .campaign import CampaignConfig

__all__ = [
    "DEFAULT_MAX_GPUS_PER_SHARD",
    "ParallelConfig",
    "ShardTask",
    "make_executor",
    "plan_shards",
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
        the number of execution groups (runs of consecutive days of one
        shard, see :func:`_group_plan`) in the plan.
    backend:
        ``"process"`` (default for ``workers > 1``) isolates workers in
        subprocesses.  On a 2-vCPU host (Python 3.11.7, numpy 2.4.6) it
        measured 1.4–2.2x slower than serial at ``workers=2`` on every
        campaign shape tried (docs/PARALLELISM.md).
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
    topology = cluster.topology
    width = topology.gpus_per_node
    # Shards pack whole nodes — as many as fit under the bound, at least
    # one, so a node wider than the bound becomes a singleton shard rather
    # than an error.  Node GPUs are contiguous (node i holds GPUs
    # i*width ... (i+1)*width - 1), so a day's GPUs are one gather.
    bound = parallel.max_gpus_per_shard
    nodes_per_shard = None if bound is None else max(1, bound // width)
    lanes = np.arange(width)
    plan = active_fault_plan(cluster)
    tasks: list[ShardTask] = []
    for day in range(config.days):
        # Full coverage draws nothing, so its stream is never built.
        day_rng = None if config.coverage == 1.0 else cluster.rng_factory.child(
            f"campaign-day-{day}"
        ).generator("coverage")
        nodes = _swept_nodes(topology.n_nodes, config.coverage, day_rng)
        if plan is not None:
            # Chaos node loss drops whole nodes from the day's sweep
            # *after* the coverage draw, so every other day's RNG stream
            # — and the plan's worker-independence — is untouched.
            lost = plan.lost_nodes(day)
            if lost:
                nodes = nodes[~np.isin(nodes, sorted(lost))]
        if not nodes.shape[0]:
            continue
        gpus = (nodes[:, None] * width + lanes).ravel()
        step = (nodes_per_shard or nodes.shape[0]) * width
        shards = [
            gpus[at:at + step] for at in range(0, gpus.shape[0], step)
        ]
        for run_index in range(config.runs_per_day):
            for shard_index, shard_gpus in enumerate(shards):
                tasks.append(
                    ShardTask(
                        day=day,
                        run_index=run_index,
                        shard_index=shard_index,
                        n_shards=len(shards),
                        gpu_indices=shard_gpus,
                    )
                )
    return tasks


# ---------------------------------------------------------------------------
# group execution (shared by every backend; runs in workers for pools)
# ---------------------------------------------------------------------------


def _group_plan(
    tasks: list[ShardTask], merge_days: bool = True
) -> list[list[int]]:
    """Plan positions of each execution group, in plan order.

    A group is the runs of consecutive days of one shard, in (day, run)
    order.  A day's runs of one shard join the shard's open group while
    the day directly follows the group's last day, covers the same GPUs,
    and keeps the group within :data:`DEFAULT_MAX_GPUS_PER_SHARD` rows
    (runs x GPUs); otherwise they open a new group, so a day whose own
    rows exceed the budget is a group by itself.  ``merge_days=False``
    keeps every (day, shard) alone: the campaign passes it while a chaos
    fault plan is active, whose days may differ in more than coolant.

    Groups are a pure function of the plan, so they — and everything
    they compute — do not depend on the worker count or the backend.
    """
    days: dict[tuple[int, int], list[int]] = {}
    for position, task in enumerate(tasks):
        days.setdefault((task.day, task.shard_index), []).append(position)
    groups: list[list[int]] = []
    open_groups: dict[int, list[int]] = {}
    for (day, shard_index), positions in days.items():
        group = open_groups.get(shard_index)
        if (
            merge_days
            and group is not None
            and tasks[group[-1]].day == day - 1
            and (len(group) + len(positions)) * tasks[group[0]].n_gpus
            <= DEFAULT_MAX_GPUS_PER_SHARD
            and np.array_equal(
                tasks[group[0]].gpu_indices, tasks[positions[0]].gpu_indices
            )
        ):
            group.extend(positions)
            continue
        open_groups[shard_index] = positions
        groups.append(positions)
    return groups


def _task_streams(
    cluster: Cluster, workload: Workload, task: ShardTask
) -> tuple[np.random.Generator, float | None]:
    """A task's random stream and pre-drawn shared coolant offset.

    Single-shard runs take the legacy stream (``"run"`` of the run's keyed
    child factory, which draws its own coolant offset first), so campaigns
    on ordinarily-sized fleets are byte-identical to the pre-sharding
    executor.  Multi-shard runs reconstruct, from the same child factory,
    (a) the run-level shared coolant fluctuation and (b) the shard's
    private stream.
    """
    run_factory = cluster.rng_factory.child(
        run_rng_label(workload, task.day, task.run_index)
    )
    if task.n_shards == 1:
        return run_factory.generator("run"), None
    shared_offset = float(
        run_factory.generator("coolant-shared").normal(
            0.0, RUN_COOLANT_SIGMA_SHARED
        )
    )
    shard_rng = run_factory.generator(
        f"shard-{task.shard_index}-of-{task.n_shards}"
    )
    return shard_rng, shared_offset


#: What executing one task yields: its dataset slice, its share of the
#: group's wall time, its solver counters and its shard observer payload.
_TaskOutput = tuple[MeasurementDataset, float, "SolverStats | None", dict]


def _execute_group(
    cluster: Cluster,
    workload: Workload,
    power_limit_w: float | None,
    tasks: list[ShardTask],
    shards: list[Observer],
) -> list[_TaskOutput]:
    """Simulate the tasks of one group and convert each to its dataset slice.

    The group's runs execute together (:func:`~repro.sim.run._simulate_runs`:
    one DVFS solve per step for all of them), each on its own keyed
    stream and under its own shard-local observer ``shards[i]`` (built by
    :meth:`~repro.obs.observer.Observer.for_shard` — even on the serial
    path), so counter totals, span structure, the metric sample stream,
    and the event timeline are identical for any worker count or backend:
    :func:`~repro.sim.campaign.run_campaign` merges the returned payloads
    in canonical plan order afterwards.  Each task's tracer gets a
    ``shard`` span over the group's wall interval, and each task records
    an equal share of that interval as its duration.
    """
    from .campaign import _to_datasets  # deferred: campaign imports us too

    start_s, t0 = time.time(), time.perf_counter()
    results = _simulate_runs(
        cluster,
        workload,
        tasks[0].gpu_indices,
        [
            (task.day, task.run_index, *_task_streams(cluster, workload, task),
             shard)
            for task, shard in zip(tasks, shards)
        ],
        power_limit_w,
    )
    datasets = _to_datasets(
        cluster, workload, [t.day for t in tasks],
        [t.run_index for t in tasks], results,
    )
    duration = time.perf_counter() - t0
    outputs: list[_TaskOutput] = []
    for task, shard, dataset, result in zip(tasks, shards, datasets, results):
        if shard.tracer is not None:
            shard.tracer.record_span(
                "shard",
                category="shard",
                track=shard.tracer.track,
                start_s=start_s,
                duration_s=duration,
                day=task.day,
                run_index=task.run_index,
                shard_index=task.shard_index,
                n_shards=task.n_shards,
                n_gpus=task.n_gpus,
            )
        outputs.append((
            dataset, duration / len(tasks), result.solver_stats,
            shard.to_payload(),
        ))
    return outputs


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
# initializer (cheap: a Longhorn cluster pickles to ~70 kB); a group then
# carries only its tasks' shard coordinates, GPU indices and fresh
# shard-local observers.

_WORKER_CONTEXT: dict[str, tuple] = {}


def _init_worker(
    cluster: Cluster, workload: Workload, power_limit_w: float | None
) -> None:
    _WORKER_CONTEXT["campaign"] = (cluster, workload, power_limit_w)


def _run_group_in_worker(
    tasks: list[ShardTask], shards: list[Observer]
) -> list[_TaskOutput]:
    cluster, workload, power_limit_w = _WORKER_CONTEXT["campaign"]
    return _execute_group(cluster, workload, power_limit_w, tasks, shards)


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


def _place(
    outputs: list,
    tasks: list[ShardTask],
    group: list[int],
    group_outputs: list[_TaskOutput],
    progress: CampaignProgress | None,
) -> None:
    """Store a finished group's outputs by plan position; report progress."""
    for position, output in zip(group, group_outputs):
        outputs[position] = output
        if progress is None:
            continue
        task = tasks[position]
        dataset, duration, solver, _ = output
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
    groups: list[list[int]],
    progress: CampaignProgress | None,
    observer: Observer,
) -> list[_TaskOutput]:
    outputs: list = [None] * len(tasks)
    for group in groups:
        members = [tasks[i] for i in group]
        try:
            group_outputs = _execute_group(
                cluster, workload, config.power_limit_w, members,
                [observer.for_shard(t) for t in members],
            )
        except SimulationError as exc:
            raise _shard_error(members[0], exc) from exc
        _place(outputs, tasks, group, group_outputs, progress)
    return outputs


def _execute_pool(
    cluster: Cluster,
    workload: Workload,
    config: "CampaignConfig",
    tasks: list[ShardTask],
    groups: list[list[int]],
    backend: str,
    n_workers: int,
    progress: CampaignProgress | None,
    observer: Observer,
) -> list[_TaskOutput]:
    outputs: list = [None] * len(tasks)
    executor = _make_executor(
        backend, n_workers, cluster, workload, config.power_limit_w
    )
    submit: Callable
    if backend == "thread":
        # Threads share the cluster object directly; no initializer needed.
        def submit(members: list[ShardTask], shards: list[Observer]):
            return executor.submit(
                _execute_group, cluster, workload, config.power_limit_w,
                members, shards,
            )
    else:
        def submit(members: list[ShardTask], shards: list[Observer]):
            return executor.submit(_run_group_in_worker, members, shards)

    try:
        futures = {}
        for group in groups:
            members = [tasks[i] for i in group]
            future = submit(members, [observer.for_shard(t) for t in members])
            futures[future] = group
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_EXCEPTION)
            for future in done:
                group = futures[future]
                try:
                    group_outputs = future.result()
                except Exception as exc:
                    # Fail fast with shard context rather than letting the
                    # remaining futures drain (or the caller hang on a
                    # half-merged campaign).
                    raise _shard_error(tasks[group[0]], exc) from exc
                _place(outputs, tasks, group, group_outputs, progress)
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
    assert all(output is not None for output in outputs)
    return outputs


def default_worker_count(cap: int = 4) -> int:
    """A sensible worker count for this machine: ``min(cap, cpu_count)``.

    Used by the benchmark suite so figure scripts parallelize on capable
    machines and degrade to the serial path on single-core CI runners.
    """
    return max(1, min(cap, os.cpu_count() or 1))
