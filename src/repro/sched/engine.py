"""Deterministic discrete-event batch-queue engine.

One serial event loop drives a whole scheduling run: jobs are submitted
from a seeded trace, queued, placed by a pluggable policy over a
:class:`~repro.cluster.allocator.FreeListAllocator`, priced on their
granted GPUs by :func:`~repro.sim.job.sample_job_runtimes` (bulk-synchronous
gang semantics — the slowest member gates the job), and their completions
return capacity to the free list.

Determinism is structural, not incidental:

* the event queue orders by ``(time, kind, seq)`` with completions ahead
  of submissions at equal times, so processing order is a pure function of
  the trace;
* every random draw comes from a labeled :class:`~repro.rng.RngFactory`
  stream — one policy stream, one private stream *per job* keyed by job
  id, so a job's intrinsic draws are identical under every policy;
* the engine itself is serial.  The only parallelism in the stack (the
  profiling campaign feeding variability-aware placement) is already
  bit-identical across worker counts, so the same seed and policy yield a
  byte-identical event log no matter how the run was configured.

One dispatch loop produces that log, through incremental structures:
O(1) fit checks from the allocator's free-count buckets, static policy
orders resolved through :class:`~repro.sched.index.OrderedFreeIndex`
segment trees, per-attempt rankings (random draws, or a custom policy's
opaque :meth:`~repro.sched.policies.PlacementPolicy.rank_nodes`) resolved
with one vectorized scan, a per-gang-size blocked-queue index instead of
head rescans, and lookahead job pricing: runtimes are drawn at placement
and solved in batches through the runtime half of
:func:`~repro.sim.job.sample_job_runtimes` only once a finish time could
be the next event, except for jobs a top-clock certificate
(:meth:`~repro.gpu.dvfs.DvfsController.certify_top`) shows to run at
the top p-state, whose finish lands at their runtime floor with no
solve; energy settles once per day after the loop.
Policies describe their ranking via
:meth:`~repro.sched.policies.PlacementPolicy.indexed_ranking`;
``docs/SCHEDULING.md`` carries the byte-stability argument, and the
original rank-every-node loop lives on as the test oracle in
``tests/sched/reference_engine.py``.
"""

from __future__ import annotations

import contextlib
import heapq
import json
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..cluster.allocator import FreeListAllocator, GangAllocation
from ..cluster.cluster import Cluster
from ..errors import SimulationError
from ..obs.observer import active_observer
# The engine prices through the two halves of ``sample_job_runtimes``;
# the function itself stays importable here, where perfbench wraps it.
from ..sim.job import (  # noqa: F401
    JobDraw,
    JobPricingRequest,
    _certify_top,
    _draw,
    _job_table,
    _JobTable,
    _price_runtimes,
    _PricedBatch,
    _settle_energy,
    reference_unit_times,
    sample_job_runtimes,
)
from ..workloads import get_workload
from ..workloads.base import Workload
from .index import OrderedFreeIndex, SizeBucketQueue, resolve_with_ranking
from .policies import PlacementPolicy, StaticRankingSpec
from .trace import Job

__all__ = [
    "JobRecord",
    "ScheduleOutcome",
    "run_schedule",
    "event_log_lines",
    "ENGINE_MODES",
    "SLOW_THRESHOLD",
    "FAST_PERCENTILE",
]

#: Fractional slowdown over the fast baseline that marks a GPU as slow —
#: the paper's "6-7% slower than the fastest GPUs".
SLOW_THRESHOLD = 0.06

#: Percentile of the fleet's reference times taken as the fast baseline.
FAST_PERCENTILE = 2.0

#: Values the ignored ``run_schedule(engine=...)`` keyword still validates
#: against.  There is one dispatch loop; the keyword (and the matching
#: request field) leaves at the next request-schema bump.
ENGINE_MODES = ("auto", "indexed", "reference")

_EVT_FINISH = 0  # completions release capacity before equal-time arrivals
_EVT_SUBMIT = 1

#: Day length used to map simulated time onto facility days.
_SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class JobRecord:
    """Everything one job experienced, from submission to completion."""

    job_id: int
    workload_name: str
    n_gpus: int
    work_units: int
    submit_time_s: float
    start_time_s: float
    finish_time_s: float
    node_indices: tuple[int, ...]
    gpu_indices: tuple[int, ...]
    runtime_s: float
    energy_j: float
    gang_imbalance: float
    slow_assigned: bool

    @property
    def wait_time_s(self) -> float:
        """Time spent queued before the gang was granted."""
        return self.start_time_s - self.submit_time_s

    @property
    def jct_s(self) -> float:
        """Job completion time: submission to completion."""
        return self.finish_time_s - self.submit_time_s


@dataclass(frozen=True)
class ScheduleOutcome:
    """A completed scheduling run: per-job records plus the event log."""

    policy_name: str
    records: tuple[JobRecord, ...]
    events: tuple[dict[str, object], ...]

    @cached_property
    def makespan_s(self) -> float:
        """First submission to last completion (computed once, cached)."""
        if not self.records:
            return 0.0
        return max(r.finish_time_s for r in self.records) - min(
            r.submit_time_s for r in self.records
        )


def _round(value: float) -> float:
    """Canonical float rounding for byte-stable event logs."""
    return round(float(value), 6)


#: The event log's encoder: ``json.dumps`` with these arguments would
#: build a new one per event.
_EVENT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def event_log_lines(events: tuple[dict[str, object], ...]) -> list[str]:
    """Serialize events as canonical JSON Lines (sorted keys, no spaces)."""
    encode = _EVENT_ENCODER.encode
    return [encode(event) for event in events]


def _validate_jobs(cluster: Cluster, jobs: tuple[Job, ...],
                   policy: PlacementPolicy) -> None:
    """Shared entry checks: widths fit the machine and the power budget."""
    if not jobs:
        raise SimulationError("a scheduling run needs at least one job")
    n_fleet = cluster.topology.n_gpus
    for job in jobs:
        if job.n_gpus > n_fleet:
            raise SimulationError(
                f"job {job.job_id} wants {job.n_gpus} GPUs but the "
                f"machine has {n_fleet}"
            )
    admission = policy.admission
    if admission is not None:
        admission.reset()
        widest = max(job.n_gpus for job in jobs)
        if not admission.can_admit(widest):
            raise SimulationError(
                f"a {widest}-GPU job can never start under a "
                f"{admission.budget_w:.0f} W budget at "
                f"{admission.gpu_reserve_w:.0f} W per GPU"
            )


def _workload_table(jobs: tuple[Job, ...]) -> dict[str, Workload]:
    return {
        name: get_workload(name)
        for name in sorted({job.workload_name for job in jobs})
    }


def run_schedule(
    cluster: Cluster,
    jobs: tuple[Job, ...],
    policy: PlacementPolicy,
    *,
    engine: str = "auto",
) -> ScheduleOutcome:
    """Run the full trace through the queue under one placement policy.

    Parameters
    ----------
    cluster:
        The simulated machine (topology, physics, seeded streams).
    jobs:
        The offered load — typically :func:`~repro.sched.generate_trace`.
    policy:
        A constructed :class:`~repro.sched.PlacementPolicy`; its
        ``backfill`` flag selects the queue discipline.
    engine:
        Accepted for compatibility and ignored: there is one dispatch
        loop.  Still checked against :data:`ENGINE_MODES`.

    Returns the per-job records and the canonical event log.  Emits
    ``sched.*`` counters and a run span on the active tracer, if any.
    """
    if engine not in ENGINE_MODES:
        raise SimulationError(
            f"unknown engine {engine!r}; expected one of {ENGINE_MODES}"
        )
    _validate_jobs(cluster, jobs, policy)
    outcome = _run_loop(
        cluster, jobs, policy,
        policy.indexed_ranking(cluster.topology.n_nodes),
    )
    recorder = active_observer().recorder
    if recorder is not None:
        _record_timeline(cluster, policy, jobs, outcome, recorder)
    return outcome


def _record_timeline(
    cluster: Cluster,
    policy: PlacementPolicy,
    jobs: tuple[Job, ...],
    outcome: ScheduleOutcome,
    recorder,
) -> None:
    """Append the run to the unified flight recorder.

    Recorded post-hoc from the outcome rather than inside the dispatch
    loop, so the timeline is a pure function of the event log and
    records: any outcome equal to this one (the test oracle's included)
    records the same bytes.  Start events carry the *exact* (unrounded)
    record floats, letting a replayer rebuild every :class:`JobRecord`
    bit-for-bit and re-derive the scheduling-report digest from the
    timeline alone.
    """
    recorder.record(
        "sched",
        "sched_begin",
        cluster.name,
        policy=policy.name,
        backfill=policy.backfill,
        n_jobs=len(jobs),
        fleet_gpus=cluster.topology.n_gpus,
    )
    by_id = {record.job_id: record for record in outcome.records}
    for event in outcome.events:
        job_id = event["job"]
        record = by_id[job_id]
        entity = f"job-{job_id}"
        if event["event"] == "submit":
            recorder.record(
                "sched",
                "submit",
                entity,
                job=int(job_id),
                t=float(record.submit_time_s),
                workload=record.workload_name,
                n_gpus=int(record.n_gpus),
                work_units=int(record.work_units),
            )
        elif event["event"] == "start":
            recorder.record(
                "sched",
                "start",
                entity,
                job=int(job_id),
                t=float(record.start_time_s),
                nodes=[int(n) for n in record.node_indices],
                gpus=[int(g) for g in record.gpu_indices],
                backfilled=bool(event["backfilled"]),
                runtime_s=float(record.runtime_s),
                energy_j=float(record.energy_j),
                gang_imbalance=float(record.gang_imbalance),
                slow_assigned=bool(record.slow_assigned),
            )
        else:
            recorder.record(
                "sched",
                "finish",
                entity,
                job=int(job_id),
                t=float(record.finish_time_s),
            )


def _run_loop(
    cluster: Cluster,
    jobs: tuple[Job, ...],
    policy: PlacementPolicy,
    spec,
) -> ScheduleOutcome:
    """The dispatch loop, for every policy.

    Decision-for-decision equal to the rank-every-node reference loop
    (``tests/sched/reference_engine.py``):

    * fit checks come from the allocator's O(1) free-count buckets — the
      fit predicate ("any node with ≥k free" / "≥k free in total") never
      depends on the preference order, only the chosen nodes do;
    * static rankings resolve through one segment tree per distinct
      order, and futile attempts are skipped outright (static policies
      consume no randomness, so skipping leaves no stream trace);
    * every other ranking — a random spec's draw, or an opaque policy's
      :meth:`~repro.sched.policies.PlacementPolicy.rank_nodes` on a copy
      of the free counts (``spec is None``) — is taken at every reference
      attempt point, before the fit check, for stream parity; each order
      resolves in one vectorized scan, and an order naming too few free
      nodes means "does not fit", exactly as in the reference loop;
    * pricing looks ahead.  At placement the job's start event is
      emitted (it carries no runtime), its finish ``seq`` reserved, and
      its run-level draws taken as
      :func:`~repro.sim.job.draw_job_runtime` takes them, which also
      gives an exact runtime floor.  Everything a draw shares with the
      other jobs of its (workload, day) — the steady load, the fleet's
      top-p-state unit times, the slow-assignment mask — is one table,
      built on the first placement of that pair.  Before each pop, if
      the heap is empty or the smallest unpriced ``start + floor`` is
      ``<=`` the head's time, the placements since the last such
      trigger are first certified, one vectorized pass per placement
      day: a job whose every GPU passes
      :meth:`~repro.gpu.dvfs.DvfsController.certify_top` runs at the
      top p-state, so its runtime is its floor and its finish lands at
      once.  If an uncertified job still could precede the head, every
      uncertified job's runtime is priced — one batch per placement
      day, through the runtime half of
      :func:`~repro.sim.job.sample_job_runtimes` — and its finish event
      lands.  A finish is never earlier than its floor, so nothing
      pending can precede a head that every floor exceeds; ``<=``
      because a FINISH sorts ahead of a SUBMIT at equal times, and the
      heap's ``(time, kind, seq)`` order makes the late push
      unobservable.  Certified jobs ride along in the next batch of
      their day, or in one leftover batch per day after the loop, for
      their records; one priced off its floor raises
      :class:`~repro.errors.SimulationError`.  Dithering fleets have a
      zero floor and certify nothing, so they price every round before
      the next pop;
    * energy waits for the end.  No decision reads it, so a batch runs
      only the runtime half of pricing (one DVFS solve), and after the
      loop each placement day's multi-GPU gangs settle at their
      duty-adjusted load in one more solve, across all of that day's
      batches; only then are the records built.
    """
    allocator = FreeListAllocator(cluster.topology)
    policy_rng = cluster.rng_factory.child("sched-policy").generator(
        policy.name
    )
    workloads = _workload_table(jobs)
    admission = policy.admission
    per_node = allocator.topology.gpus_per_node
    counts_view = allocator.free_counts_view()
    # Keyed by the workload object: two workloads may share a name.
    tables: dict[tuple[Workload, int], tuple[_JobTable, np.ndarray]] = {}

    def job_table(
        workload: Workload, day: int
    ) -> tuple[_JobTable, np.ndarray]:
        # The draw table, and which GPUs the reference times call slow: a
        # gang is slow-assigned when its slowest reference time exceeds
        # the threshold, i.e. when any of its GPUs does.
        key = (workload, day)
        entry = tables.get(key)
        if entry is None:
            ref = reference_unit_times(cluster, workload, day=day)
            fast = float(np.percentile(ref, FAST_PERCENTILE))
            entry = tables[key] = (
                _job_table(cluster, workload, day),
                ref > fast * (1.0 + SLOW_THRESHOLD),
            )
        return entry

    heap: list[tuple[float, int, int, int]] = []
    seq = 0
    for job in jobs:
        heapq.heappush(heap, (job.submit_time_s, _EVT_SUBMIT, seq, job.job_id))
        seq += 1

    by_id = {job.job_id: job for job in jobs}
    running: dict[int, GangAllocation] = {}
    records: list[JobRecord] = []
    events: list[dict[str, object]] = []
    tracer = active_observer().tracer

    static = isinstance(spec, StaticRankingSpec)
    if static:
        trees = [
            OrderedFreeIndex(order, allocator.free_counts())
            for order in spec.orders
        ]
        for tree in trees:
            allocator.add_listener(tree.update)
        order_cache: dict[tuple[str, int], int] = {}

        def tree_of(job: Job) -> OrderedFreeIndex:
            key = (job.workload_name, job.n_gpus)
            which = order_cache.get(key)
            if which is None:
                which = spec.order_index_of(
                    workloads[job.workload_name], job.n_gpus
                )
                order_cache[key] = which
            return trees[which]

    # Wait-queue representation: per-attempt rankings must walk every
    # queued job at reference draw points, so they keep the flat list;
    # static non-backfill only ever consults the head; static backfill
    # uses the per-gang-size index so a free event wakes only widths that
    # now fit.
    use_buckets = static and policy.backfill
    bucket_queue = SizeBucketQueue() if use_buckets else None
    flat_queue: deque[int] | list[int] = deque() if static else []
    arrival = 0

    def capacity_fits(k: int) -> bool:
        if k <= per_node:
            return allocator.n_nodes_with_at_least(k) > 0
        return allocator.n_free >= k

    def fits(k: int) -> bool:
        if admission is not None and not admission.can_admit(k):
            return False
        return capacity_fits(k)

    def plan_static(job: Job) -> list[tuple[int, int]] | None:
        tree = tree_of(job)
        if job.n_gpus <= per_node:
            node = tree.first_at_least(job.n_gpus)
            if node < 0:
                return None
            return [(node, job.n_gpus)]
        return tree.take_prefix(job.n_gpus)

    # Placed jobs whose runtime is drawn but not yet solved, each with
    # the finish-event seq reserved at placement: ``fresh`` holds the
    # placements since the last lookahead trigger, not yet certified,
    # ``pending`` the jobs that failed the certificate, and ``earliest``
    # the smallest start + floor among both.  ``certified`` (by placement
    # day) holds the jobs whose finish is already pushed, awaiting a batch.
    Entry = tuple[
        Job, float, tuple[int, ...], tuple[int, ...], bool, int, JobDraw
    ]
    fresh: list[Entry] = []
    pending: list[Entry] = []
    certified: dict[int, list[Entry]] = {}
    earliest = math.inf

    def place(job: Job, requests: list[tuple[int, int]],
              backfilled: bool, now: float) -> None:
        nonlocal seq, earliest
        allocation = allocator.allocate(requests)
        running[job.job_id] = allocation
        if admission is not None:
            admission.commit(job.job_id, job.n_gpus)
        day = int(now // _SECONDS_PER_DAY)
        workload = workloads[job.workload_name]
        table, slow_gpus = job_table(workload, day)
        slow = bool(slow_gpus[allocation.gpu_indices].any())
        nodes = tuple(allocation.node_indices.tolist())
        gpus = tuple(allocation.gpu_indices.tolist())
        # The start event carries no runtime, so it is emitted now.
        events.append(
            {
                "event": "start",
                "t": _round(now),
                "job": job.job_id,
                "nodes": nodes,
                "gpus": gpus,
                "backfilled": backfilled,
            }
        )
        if tracer is not None:
            tracer.add("sched.placements")
            if backfilled:
                tracer.add("sched.backfills")
            if slow:
                tracer.add("sched.slow_assignments")
        draw = _draw(
            cluster,
            JobPricingRequest(
                workload=workload,
                gpu_indices=allocation.gpu_indices,
                work_units=job.work_units,
                rng=cluster.rng_factory.child(
                    f"sched-job-{job.job_id}"
                ).generator("run"),
            ),
            day,
            table,
        )
        fresh.append((job, now, nodes, gpus, slow, seq, draw))
        earliest = min(earliest, now + draw.floor_s)
        seq += 1

    def dispatch_static(now: float) -> None:
        if not policy.backfill:
            while flat_queue:
                job = by_id[flat_queue[0]]
                if tracer is not None:
                    tracer.add("sched.dispatch_attempts")
                if admission is not None and not admission.can_admit(
                    job.n_gpus
                ):
                    return
                requests = plan_static(job)
                if requests is None:
                    return
                flat_queue.popleft()
                place(job, requests, False, now)
            return
        while True:
            if tracer is not None:
                tracer.add("sched.dispatch_attempts")
            entry = bucket_queue.earliest_fitting(fits)
            if entry is None:
                return
            entry_seq, job_id, size = entry
            backfilled = entry_seq != bucket_queue.head_seq()
            bucket_queue.pop(size)
            job = by_id[job_id]
            # fits() held, and the fit predicate is ranking-independent,
            # so the tree plan cannot miss.
            place(job, plan_static(job), backfilled, now)

    if spec is None:
        def rank(job: Job) -> np.ndarray:
            # A copy: an opaque policy may mutate its argument.
            return policy.rank_nodes(
                workloads[job.workload_name], job.n_gpus,
                allocator.free_counts(), policy_rng,
            )
    elif not static:
        def rank(job: Job) -> np.ndarray:
            return spec.draw(policy_rng)

    def dispatch_ranked(now: float) -> None:
        index = 0
        while index < len(flat_queue):
            job = by_id[flat_queue[index]]
            if tracer is not None:
                tracer.add("sched.dispatch_attempts")
            if admission is not None and not admission.can_admit(job.n_gpus):
                if not policy.backfill:
                    return
                index += 1
                continue
            # Reference draw point: the ranking is taken before the fit
            # check, so the policy stream stays byte-compatible even for
            # attempts that cannot place.
            ranking = rank(job)
            requests = None
            if capacity_fits(job.n_gpus):
                # None despite capacity: an opaque ranking left out the
                # nodes that have it.
                requests = resolve_with_ranking(
                    ranking, counts_view, job.n_gpus, per_node
                )
            if requests is None:
                if not policy.backfill:
                    return
                index += 1
                continue
            backfilled = index > 0
            flat_queue.pop(index)
            place(job, requests, backfilled, now)
            if not policy.backfill:
                index = 0

    dispatch = dispatch_static if static else dispatch_ranked

    # Runtime-priced batches awaiting their energy, by placement day,
    # each with its jobs' (job, start, nodes, gpus, slow) entries.
    priced: dict[int, list[tuple[list[tuple], _PricedBatch]]] = {}

    def by_day(entries: list[Entry]) -> dict[int, list[Entry]]:
        days: dict[int, list[Entry]] = {}
        for entry in entries:
            days.setdefault(entry[-1].day, []).append(entry)
        return days

    def certify_fresh() -> None:
        # One certificate pass per placement day.  A certified job's
        # runtime is its floor, so its finish lands now; the rest join
        # ``pending``, whose floors alone then make ``earliest``.
        nonlocal earliest
        n_certified = 0
        for day, entries in by_day(fresh).items():
            passed = _certify_top(
                cluster, [entry[-1] for entry in entries], day
            )
            for entry, ok in zip(entries, passed.tolist()):
                job, start, _, _, _, finish_seq, draw = entry
                if ok:
                    heapq.heappush(heap, (
                        start + draw.floor_s, _EVT_FINISH, finish_seq,
                        job.job_id,
                    ))
                    certified.setdefault(day, []).append(entry)
                    n_certified += 1
                else:
                    pending.append(entry)
        fresh.clear()
        earliest = min(
            (entry[1] + entry[-1].floor_s for entry in pending),
            default=math.inf,
        )
        if tracer is not None:
            tracer.add("sched.certified_jobs", n_certified)

    def price(day: int, solve: list[Entry], riders: list[Entry]) -> None:
        # One batch: the jobs whose finish waits on it, then certified
        # jobs riding along for their records.
        entries = solve + riders
        batch = _price_runtimes(
            cluster, [entry[-1] for entry in entries], day
        )
        if tracer is not None:
            tracer.add("sched.price_batches")
        runtimes = batch.runtime_s.tolist()
        for (job, start, _, _, _, finish_seq, _), runtime in zip(
            solve, runtimes
        ):
            heapq.heappush(
                heap, (start + runtime, _EVT_FINISH, finish_seq, job.job_id)
            )
        for entry, runtime in zip(riders, runtimes[len(solve):]):
            if runtime != entry[-1].floor_s:
                raise SimulationError(
                    f"job {entry[0].job_id} was certified at its "
                    f"{entry[-1].floor_s!r} s floor but priced at "
                    f"{runtime!r} s"
                )
        priced.setdefault(day, []).append(
            ([entry[:5] for entry in entries], batch)
        )

    def price_pending() -> None:
        nonlocal earliest
        for day, entries in by_day(pending).items():
            price(day, entries, certified.pop(day, []))
        pending.clear()
        earliest = math.inf

    def settle_records() -> None:
        for day, batches in priced.items():
            settled = _settle_energy(
                cluster, day, [batch for _, batch in batches]
            )
            for (entries, batch), (_, energy) in zip(batches, settled):
                for entry, runtime, ratio, joules in zip(
                    entries, batch.runtime_s.tolist(),
                    batch.gang_imbalance.tolist(), energy,
                ):
                    job, start, nodes, gpus, slow = entry
                    records.append(
                        JobRecord(
                            job_id=job.job_id,
                            workload_name=job.workload_name,
                            n_gpus=job.n_gpus,
                            work_units=job.work_units,
                            submit_time_s=job.submit_time_s,
                            start_time_s=start,
                            finish_time_s=start + runtime,
                            node_indices=nodes,
                            gpu_indices=gpus,
                            runtime_s=runtime,
                            energy_j=joules,
                            gang_imbalance=ratio,
                            slow_assigned=slow,
                        )
                    )

    span = (
        tracer.span(
            "schedule", category="sched", policy=policy.name,
            n_jobs=len(jobs),
        )
        if tracer is not None
        else contextlib.nullcontext()
    )
    with span:
        while True:
            # Lookahead: an unpriced job's finish is >= its start + floor,
            # so no such job can precede the heap head while every floor
            # lies beyond it.  ``<=``, not ``<``: at equal times a FINISH
            # sorts ahead of a SUBMIT.  Once one might, the new placements
            # are certified first, and only uncertified jobs decide whether
            # a batch solves.
            if (fresh or pending) and (not heap or earliest <= heap[0][0]):
                if fresh:
                    certify_fresh()
                if pending and (not heap or earliest <= heap[0][0]):
                    price_pending()
            if not heap:
                break
            now, kind, _, job_id = heapq.heappop(heap)
            if kind == _EVT_SUBMIT:
                job = by_id[job_id]
                if use_buckets:
                    bucket_queue.push(job.n_gpus, arrival, job_id)
                    arrival += 1
                else:
                    flat_queue.append(job_id)
                events.append(
                    {
                        "event": "submit",
                        "t": _round(now),
                        "job": job_id,
                        "workload": job.workload_name,
                        "n_gpus": job.n_gpus,
                        "work_units": job.work_units,
                    }
                )
                if tracer is not None:
                    tracer.add("sched.submitted")
            else:
                allocation = running.pop(job_id)
                allocator.free(allocation)
                if admission is not None:
                    admission.release(job_id)
                events.append(
                    {"event": "finish", "t": _round(now), "job": job_id}
                )
                if tracer is not None:
                    tracer.add("sched.completed")
            dispatch(now)
        # Certified jobs that no later batch of their day took along.
        for day, riders in certified.items():
            price(day, [], riders)
        settle_records()

    queued = len(bucket_queue) if use_buckets else len(flat_queue)
    if queued or running:
        raise SimulationError(
            f"scheduling run ended with {queued} queued and "
            f"{len(running)} running jobs"
        )
    records.sort(key=lambda r: r.job_id)
    return ScheduleOutcome(
        policy_name=policy.name,
        records=tuple(records),
        events=tuple(events),
    )
