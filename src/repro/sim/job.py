"""Per-job runtime sampling for the batch-queue simulator.

Where :func:`repro.sim.run.simulate_run` measures the *fleet* (every GPU
runs the workload side by side, the paper's characterization protocol),
this module prices one *job*: a gang of GPUs granted by the scheduler
(:mod:`repro.sched`) runs the workload bulk-synchronously and the slowest
member gates every iteration.  The physics is the same steady-state DVFS
solve and roofline evaluation the campaigns use, so a job lands exactly
where the characterization says its GPUs sit.

Four entry points:

* :func:`reference_unit_times` — the noise-free per-GPU unit time of a
  workload across the whole fleet (intrinsic GPU speed).  The scheduler's
  slow-assignment accounting compares a job's GPUs against this table,
  mirroring the paper's "6-7% slower than the fastest GPUs" definition.
* :func:`sample_job_runtime` — one job's realized runtime, energy, and
  gang imbalance on its allocated GPUs, with the run-level software and
  environment draws of :mod:`repro.sim.run` keyed per job so the same job
  draws the same factors under every placement policy.
* :func:`draw_job_runtime` and :func:`sample_job_runtimes` — two-phase
  pricing, the indexed scheduler's hot path.  The draw step takes a job's
  normal draws from its own job-id-keyed stream in one
  ``standard_normal`` batch and bounds its runtime from below (exactly,
  in IEEE doubles); the solve step prices many drawn jobs together,
  gathering their GPUs' solver inputs by index from the day fleet,
  bitwise equal to pricing each job alone.  It has two halves: one
  vectorized DVFS solve for the runtimes, and one for the energy of the
  multi-GPU gangs, which may settle many batches of a day at once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..cluster.cluster import Cluster
from ..errors import SimulationError
from ..workloads.base import WAIT_ACTIVITY, Workload
from .run import (
    RUN_COOLANT_SIGMA_LOCAL,
    RUN_COOLANT_SIGMA_SHARED,
    expected_max_of_normals,
)

__all__ = [
    "JobPerformance",
    "JobPricingRequest",
    "JobDraw",
    "reference_unit_times",
    "sample_job_runtime",
    "draw_job_runtime",
    "sample_job_runtimes",
    "DEFAULT_SYNC_OVERHEAD_MS",
    "INTER_NODE_SYNC_FACTOR",
]

#: Per-unit synchronization cost (ms) for gangs whose workload model does
#: not carry one (single-GPU workload profiles scheduled as gangs).
DEFAULT_SYNC_OVERHEAD_MS = 6.0

#: Multiplier applied to the sync overhead per *additional* node the gang
#: spans: inter-node allreduce rides the injection network, not NVLink.
INTER_NODE_SYNC_FACTOR = 0.5


@dataclass(frozen=True)
class JobPerformance:
    """What one scheduled job experienced on its allocated GPUs.

    ``unit_time_ms`` is per-GPU (what each member *could* sustain);
    ``job_unit_ms`` is the gang-synchronous unit time that actually
    elapsed — the slowest member plus synchronization.
    """

    gpu_indices: np.ndarray
    unit_time_ms: np.ndarray
    job_unit_ms: float
    runtime_s: float
    power_w: np.ndarray
    energy_j: float
    gang_imbalance: float

    @property
    def n_gpus(self) -> int:
        """GPUs in the job."""
        return int(self.gpu_indices.shape[0])


def reference_unit_times(
    cluster: Cluster,
    workload: Workload,
    day: int = 0,
) -> np.ndarray:
    """Noise-free per-GPU unit time (ms) of ``workload`` across the fleet.

    The deterministic component of GPU speed — silicon lottery, defects,
    thermal seat, day-``day`` facility conditions — with every run-level
    software and environment draw suppressed.  The scheduler uses this as
    the ground truth for "is this GPU slow for this workload".  The
    whole machine settles in one vectorized DVFS solve.
    """
    fleet = cluster.fleet_for_day(day)
    spec = fleet.spec
    act0, dram0 = workload.steady_load(
        spec.f_max_mhz, spec.compute_throughput, spec.mem_bandwidth_gbs
    )
    rng = cluster.rng_factory.child(
        f"sched-reference-{workload.name}-day-{day}"
    ).generator("reference")
    efficiency = fleet.throughput_efficiency()
    op = fleet.controller.solve_steady(
        act0,
        dram0,
        efficiency,
        power_cap_w=fleet.power_cap_w(None),
        f_cap_mhz=fleet.frequency_cap_mhz(),
        rng=rng,
    )
    return workload.unit_time_ms(
        op.f_effective_mhz,
        spec.compute_throughput,
        fleet.memory_bandwidth_gbs(),
        efficiency,
    )


def sample_job_runtime(
    cluster: Cluster,
    workload: Workload,
    gpu_indices: np.ndarray,
    *,
    day: int = 0,
    work_units: int = 100,
    rng: np.random.Generator,
) -> JobPerformance:
    """Price one gang job on its allocated GPUs.

    Parameters
    ----------
    cluster, workload:
        The machine and the application profile.  The gang width is the
        length of ``gpu_indices`` (the workload's own ``n_gpus`` is a
        campaign-protocol detail, not a constraint here).
    gpu_indices:
        The job's GPUs (global indices; may span several nodes).
    day:
        Facility day the job starts on (selects coolant conditions).
    work_units:
        Workload units the job executes; runtime scales linearly.
    rng:
        The job's random stream.  Key it per job id
        (``cluster.rng_factory.child(f"sched-job-{job_id}")``) so a job's
        intrinsic draws are identical under every placement policy.
    """
    gpu_indices = np.sort(np.asarray(gpu_indices, dtype=np.int64))
    n = int(gpu_indices.shape[0])
    if n < 1:
        raise SimulationError("a job needs at least one GPU")
    if int(work_units) < 1:
        raise SimulationError(f"work_units must be >= 1, got {work_units}")

    fleet = cluster.fleet_slice(day, gpu_indices)
    spec = fleet.spec

    # Run-level thermal environment, exactly as simulate_run draws it.
    coolant = (
        fleet.coolant_c
        + rng.normal(0.0, RUN_COOLANT_SIGMA_SHARED)
        + rng.normal(0.0, RUN_COOLANT_SIGMA_LOCAL, size=n)
    )
    fleet = fleet.with_coolant(coolant)

    act0, dram0 = workload.steady_load(
        spec.f_max_mhz, spec.compute_throughput, spec.mem_bandwidth_gbs
    )
    corr = np.sqrt(workload.activity_speed_correlation)
    z_shared = rng.normal(size=n)
    z_speed = corr * z_shared + np.sqrt(1 - corr**2) * rng.normal(size=n)
    z_act = corr * z_shared + np.sqrt(1 - corr**2) * rng.normal(size=n)
    time_multiplier = np.exp(workload.run_speed_sigma * z_speed)
    act_run = np.clip(
        act0 * np.exp(-workload.activity_mix_sigma * z_act), 0.02, 1.0
    )

    efficiency = fleet.throughput_efficiency()
    cap = fleet.power_cap_w(None)
    f_cap = fleet.frequency_cap_mhz()
    op = fleet.controller.solve_steady(
        act_run, dram0, efficiency, power_cap_w=cap, f_cap_mhz=f_cap, rng=rng
    )

    drift = 1.0 + rng.normal(0.0, cluster.run_noise_sigma, size=n)
    unit_ms = (
        workload.unit_time_ms(
            op.f_effective_mhz,
            spec.compute_throughput,
            fleet.memory_bandwidth_gbs(),
            efficiency,
        )
        * time_multiplier
        * np.clip(drift, 0.5, 1.5)
    )

    job_unit_ms = _job_unit_ms(
        workload, unit_ms, _nodes_spanned(cluster, gpu_indices)
    )
    if n == 1:
        power = op.power_w
    else:
        # Early finishers busy-wait at low activity; their sustained power
        # drops with their idle share (Fig. 15 semantics).
        duty = np.clip(unit_ms / job_unit_ms, 0.0, 1.0)
        act_eff = act_run * duty + WAIT_ACTIVITY * (1.0 - duty)
        op = fleet.controller.solve_steady(
            act_eff,
            dram0 * duty,
            efficiency,
            power_cap_w=cap,
            f_cap_mhz=f_cap,
            rng=rng,
        )
        power = op.power_w

    runtime_s = job_unit_ms * int(work_units) / 1000.0
    return JobPerformance(
        gpu_indices=gpu_indices,
        unit_time_ms=unit_ms,
        job_unit_ms=job_unit_ms,
        runtime_s=runtime_s,
        power_w=power,
        energy_j=float(power.sum()) * runtime_s,
        gang_imbalance=float(unit_ms.max() / np.median(unit_ms)),
    )


def _nodes_spanned(cluster: Cluster, gang: np.ndarray) -> int:
    return len(set(cluster.topology.node_of_gpu[gang].tolist()))


def _job_unit_ms(workload: Workload, unit_ms: np.ndarray, spanned: int) -> float:
    """Gang-synchronous unit time: the slowest member plus synchronization.

    Non-decreasing in every element of ``unit_ms`` under IEEE
    round-to-nearest (``max``, a multiply by a factor >= 1, and adding a
    non-negative constant are each monotone) — half of the argument that
    :attr:`JobDraw.floor_s` bounds the priced runtime.
    """
    n = int(unit_ms.shape[0])
    if n == 1:
        return float(unit_ms[0])
    sync_ms = (
        workload.sync_overhead_ms
        if workload.sync_overhead_ms > 0.0
        else DEFAULT_SYNC_OVERHEAD_MS
    )
    sync_ms *= 1.0 + INTER_NODE_SYNC_FACTOR * (spanned - 1)
    jitter_amp = expected_max_of_normals(n)
    return float(
        unit_ms.max() * (1.0 + workload.iteration_jitter_sigma * jitter_amp)
        + sync_ms
    )


@dataclass(frozen=True)
class JobPricingRequest:
    """One job to price in a :func:`sample_job_runtimes` batch.

    ``rng`` is the job's own stream (key it per job id exactly as for
    :func:`sample_job_runtime`) — batching never mixes streams, so each
    job draws the same factors it would draw priced alone.
    """

    workload: Workload
    gpu_indices: np.ndarray
    work_units: int
    rng: np.random.Generator


@dataclass(frozen=True)
class JobDraw:
    """A job's run-level draws, taken at placement and priced later.

    :func:`draw_job_runtime` builds it; :func:`sample_job_runtimes` prices
    a batch of them.  ``floor_s`` is an exact lower bound on the priced
    ``runtime_s``: the engine may defer pricing until a job's finish time
    could be the next event.  ``normals`` is the job's whole
    ``standard_normal(1 + 5n)`` draw; the factors the floor needs
    (``time_multiplier``, ``drift``) are derived from it at placement,
    the run's coolant and activity only in the pricing batch.  On
    dithering fleets nothing is pre-drawn (the per-GPU fields are
    ``None``, the stream untouched) and the floor is ``0.0``.
    """

    request: JobPricingRequest
    day: int
    gpu_indices: np.ndarray  # sorted
    spanned: int             # nodes the gang spans
    floor_s: float
    normals: np.ndarray | None = None
    act0: float = 0.0
    dram0: float = 0.0
    time_multiplier: np.ndarray | None = None
    drift: np.ndarray | None = None


@dataclass(frozen=True)
class _JobTable:
    """What every draw of one workload on one day shares.

    ``top_unit_ms`` is the workload's unit time at the top p-state on
    every GPU of the day fleet (``None`` on dithering fleets, which draw
    nothing ahead).  The roofline is elementwise, so gathering a gang's
    entries gives the bits of evaluating the gang alone.
    """

    act0: float
    dram0: float
    corr: float
    ortho: float
    top_unit_ms: np.ndarray | None


def _speed_mix(workload: Workload) -> tuple[float, float]:
    """Weights of the shared and own normals in the speed/activity draws."""
    corr = np.sqrt(workload.activity_speed_correlation)
    return corr, np.sqrt(1 - corr**2)


def _job_table(cluster: Cluster, workload: Workload, day: int) -> _JobTable:
    """The draw inputs of ``workload`` on day ``day`` that no job changes."""
    day_fleet = cluster.fleet_for_day(day)
    spec = day_fleet.spec
    act0, dram0 = workload.steady_load(
        spec.f_max_mhz, spec.compute_throughput, spec.mem_bandwidth_gbs
    )
    top_unit_ms = None
    if not day_fleet.policy.dither:
        arrays = day_fleet.arrays
        top_unit_ms = workload.unit_time_ms(
            spec.f_max_mhz,
            spec.compute_throughput,
            arrays.mem_bandwidth_gbs,
            arrays.efficiency,
        )
    return _JobTable(act0, dram0, *_speed_mix(workload), top_unit_ms)


def draw_job_runtime(
    cluster: Cluster,
    request: JobPricingRequest,
    *,
    day: int = 0,
) -> JobDraw:
    """Take one job's run-level draws and bound its runtime from below.

    The job's normal draws collapse into one ``standard_normal(1 + 5n)``
    call on its own stream (numpy's ``normal(loc, scale)`` is
    ``loc + scale * z``, and a sliced batch equals the sequential draws of
    :func:`sample_job_runtime`).  The floor is the runtime expression of
    :func:`sample_job_runtimes` with the solved clock replaced by the top
    p-state: ``roofline_time_ms`` does not increase as the clock rises, and
    every later step (``* time_multiplier``, ``* drift``, the gang
    expression of :func:`_job_unit_ms`, ``* work_units / 1000``) is
    monotone under IEEE round-to-nearest, so ``floor_s <= runtime_s``
    holds bit for bit.

    Dithering fleets draw run noise *after* the first solve, which on
    dithering ladders consumes the stream, so nothing can be drawn ahead:
    the stream is left untouched and the floor is ``0.0``.

    Called alone, this builds the (workload, day) table for the one job;
    the scheduler builds each table once per run and draws against it.
    """
    return _draw(
        cluster, request, day, _job_table(cluster, request.workload, day)
    )


def _draw(
    cluster: Cluster,
    request: JobPricingRequest,
    day: int,
    table: _JobTable,
) -> JobDraw:
    """:func:`draw_job_runtime` against a prebuilt table of its day."""
    gang = np.sort(np.asarray(request.gpu_indices, dtype=np.int64))
    n = int(gang.shape[0])
    if n < 1:
        raise SimulationError("a job needs at least one GPU")
    if int(request.work_units) < 1:
        raise SimulationError(
            f"work_units must be >= 1, got {request.work_units}"
        )
    spanned = 1 if n == 1 else _nodes_spanned(cluster, gang)
    if table.top_unit_ms is None:
        return JobDraw(request, day, gang, spanned, 0.0)

    workload = request.workload
    z = request.rng.standard_normal(1 + 5 * n)
    z_speed = (
        table.corr * z[1 + n : 1 + 2 * n]
        + table.ortho * z[1 + 2 * n : 1 + 3 * n]
    )
    time_multiplier = np.exp(workload.run_speed_sigma * z_speed)
    # np.clip(1.0 + normal(0.0, sigma), 0.5, 1.5) in its bits: the 0.0 +
    # only turns -0.0 into +0.0, which 1.0 + absorbs, and the ufuncs skip
    # clip's Python wrapper (NaN propagates through both forms, and
    # neither bound is a signed zero).
    drift = np.minimum(
        np.maximum(1.0 + cluster.run_noise_sigma * z[1 + 4 * n :], 0.5), 1.5
    )
    floor_unit_ms = table.top_unit_ms[gang] * time_multiplier * drift
    floor_s = (
        _job_unit_ms(workload, floor_unit_ms, spanned)
        * int(request.work_units)
        / 1000.0
    )
    return JobDraw(
        request=request,
        day=day,
        gpu_indices=gang,
        spanned=spanned,
        floor_s=floor_s,
        normals=z,
        act0=table.act0,
        dram0=table.dram0,
        time_multiplier=time_multiplier,
        drift=drift,
    )


def sample_job_runtimes(
    cluster: Cluster,
    requests: Sequence[JobDraw | JobPricingRequest],
    *,
    day: int = 0,
) -> list[JobPerformance]:
    """Price several gang jobs together, bitwise equal to pricing alone.

    The solve step of two-phase pricing: ``requests`` holds jobs drawn on
    day ``day`` by :func:`draw_job_runtime` (bare requests are drawn
    here first, one table per workload).  Pricing has two halves, each
    array at a time over the batch's concatenated rows (one row per GPU
    of each job, in job order):

    * the runtime half (:func:`_price_runtimes`) settles every gang's
      free-running clock in one vectorized DVFS solve and derives unit
      times, runtimes and gang imbalance;
    * the energy half (:func:`_settle_energy`) settles the multi-GPU
      gangs again at their duty-adjusted load, in one more solve, and
      takes each job's energy.

    The scheduler runs the runtime half per batch and the energy half
    once per day after its dispatch loop, since no decision reads
    energy.  The DVFS solver's evaluation-shape freedom makes a
    concatenated solve bit-identical to per-gang solves, so neither the
    composition of a batch nor the settling of many batches at once is
    observable.  Dithering fleets price each job alone with the
    sequential :func:`sample_job_runtime`, preserving stream-exact
    equality everywhere.
    """
    if not requests:
        return []
    tables: dict[int, _JobTable] = {}
    draws = []
    for r in requests:
        if not isinstance(r, JobDraw):
            table = tables.get(id(r.workload))
            if table is None:
                table = tables[id(r.workload)] = _job_table(
                    cluster, r.workload, day
                )
            r = _draw(cluster, r, day, table)
        elif r.day != day:
            raise SimulationError(
                f"a job drawn on day {r.day} cannot price on day {day}"
            )
        draws.append(r)
    priced = _price_runtimes(cluster, draws, day)
    ((power, energy),) = _settle_energy(cluster, day, [priced])
    starts = priced.starts
    return [
        JobPerformance(
            gpu_indices=draw.gpu_indices,
            unit_time_ms=priced.unit_ms[lo:hi],
            job_unit_ms=job_ms,
            runtime_s=runtime,
            power_w=power[lo:hi],
            energy_j=energy_j,
            gang_imbalance=ratio,
        )
        for draw, lo, hi, job_ms, runtime, ratio, energy_j in zip(
            draws, starts.tolist(), (starts + priced.widths).tolist(),
            priced.job_unit_ms.tolist(), priced.runtime_s.tolist(),
            priced.gang_imbalance.tolist(), energy,
        )
    ]


@dataclass(frozen=True)
class _PricedBatch:
    """The runtime half of one pricing batch (:func:`_price_runtimes`).

    Per job: its first row (``starts``), ``widths``, the gang unit time,
    runtime and imbalance.  Per row: the unit time and ``power_w``, the
    power at the free-running clock, which is final for one-GPU gangs.
    The rows of multi-GPU gangs (``multi``, with the job of each in
    ``multi_job``) carry what :func:`_settle_energy` settles them again
    from: their GPUs, run coolant, activity and DRAM load.  Dithering
    fleets price each job alone, so their rows arrive settled and
    ``multi`` is empty.
    """

    starts: np.ndarray
    widths: np.ndarray
    unit_ms: np.ndarray
    job_unit_ms: np.ndarray
    runtime_s: np.ndarray
    gang_imbalance: np.ndarray
    power_w: np.ndarray
    multi: np.ndarray
    multi_job: np.ndarray
    multi_gpus: np.ndarray
    multi_coolant: np.ndarray
    multi_act: np.ndarray
    multi_dram: np.ndarray


def _price_runtimes(
    cluster: Cluster, draws: Sequence[JobDraw], day: int
) -> _PricedBatch:
    """The runtime half of :func:`sample_job_runtimes`, for drawn jobs.

    * the run's coolant and activity come from the jobs' concatenated
      normals, with the elementwise operations of the one-job path;
    * the gangs' solver inputs are gathered by index from the day fleet
      (:meth:`~repro.gpu.GPUFleet.solver_at` — no sub-fleet is built),
      and every gang's free-running clock settles in one vectorized
      DVFS solve;
    * unit times take one roofline call per distinct workload, gang
      maxima one ``maximum.reduceat``, gang medians one ``lexsort``; the
      gang expression of :func:`_job_unit_ms` and the runtime are
      evaluated for all jobs at once.  Each is the one-job expression
      elementwise, so every result keeps its bits.
    """
    n_jobs = len(draws)
    widths = np.array([draw.gpu_indices.shape[0] for draw in draws])
    starts = np.zeros(n_jobs, dtype=np.int64)
    np.cumsum(widths[:-1], out=starts[1:])
    day_fleet = cluster.fleet_for_day(day)
    if day_fleet.policy.dither:
        return _priced_alone(cluster, draws, day, starts, widths)

    job_of_row = np.repeat(np.arange(n_jobs), widths)
    width_row = widths[job_of_row]
    pos_row = np.arange(job_of_row.shape[0]) - starts[job_of_row]
    concat = np.concatenate([draw.gpu_indices for draw in draws])

    # Per-job scalars; workloads are told apart by identity (two
    # workloads may share a name).
    slot_of: dict[int, int] = {}
    workloads: list[Workload] = []
    workload_of_job = np.empty(n_jobs, dtype=np.int64)
    for j, draw in enumerate(draws):
        workload = draw.request.workload
        slot = slot_of.get(id(workload))
        if slot is None:
            slot = slot_of[id(workload)] = len(workloads)
            workloads.append(workload)
        workload_of_job[j] = slot
    mix = np.array([_speed_mix(w) for w in workloads])
    act0 = np.array([draw.act0 for draw in draws])
    dram0 = np.array([draw.dram0 for draw in draws])
    workload_row = workload_of_job[job_of_row]

    # The normals: a job's z[0] is the shared coolant offset, then n
    # each of local coolant, shared, speed, activity and drift normals.
    z = np.concatenate([draw.normals for draw in draws])
    z_start = np.zeros(n_jobs, dtype=np.int64)
    np.cumsum(1 + 5 * widths[:-1], out=z_start[1:])
    z_first = z_start[job_of_row]
    z_row = z_first + pos_row
    z_shared = z[z_row + 1 + width_row]
    z_act = (
        mix[workload_row, 0] * z_shared
        + mix[workload_row, 1] * z[z_row + 1 + 3 * width_row]
    )
    neg_mix_sigma = -np.array([w.activity_mix_sigma for w in workloads])
    act_run = np.clip(
        act0[job_of_row] * np.exp(neg_mix_sigma[workload_row] * z_act),
        0.02,
        1.0,
    )
    coolant = (
        day_fleet.coolant_c[concat]
        + (0.0 + RUN_COOLANT_SIGMA_SHARED * z[z_first])
        + (0.0 + RUN_COOLANT_SIGMA_LOCAL * z[z_row + 1])
    )
    dram0_row = dram0[job_of_row]

    controller, arrays = day_fleet.solver_at(concat, coolant)
    efficiency = arrays.efficiency
    op = controller.solve_steady(
        act_run,
        dram0_row,
        efficiency,
        power_cap_w=arrays.power_cap_w,
        f_cap_mhz=arrays.f_cap_mhz,
    )
    spec = day_fleet.spec
    f_effective = op.f_effective_mhz
    mem_bw = arrays.mem_bandwidth_gbs
    free_ms = np.empty(concat.shape[0])
    for slot, workload in enumerate(workloads):
        rows = np.flatnonzero(workload_row == slot)
        free_ms[rows] = workload.unit_time_ms(
            f_effective[rows],
            spec.compute_throughput,
            mem_bw[rows],
            efficiency[rows],
        )
    unit_ms = (
        free_ms
        * np.concatenate([draw.time_multiplier for draw in draws])
        * np.concatenate([draw.drift for draw in draws])
    )

    # The gang expression of _job_unit_ms, for every job at once; a
    # one-GPU gang's unit time passes through.
    slowest = np.maximum.reduceat(unit_ms, starts)
    sync_ms = np.array([
        w.sync_overhead_ms if w.sync_overhead_ms > 0.0
        else DEFAULT_SYNC_OVERHEAD_MS
        for w in workloads
    ])[workload_of_job]
    sync_ms = sync_ms * (
        1.0
        + INTER_NODE_SYNC_FACTOR
        * (np.array([draw.spanned for draw in draws]) - 1)
    )
    jitter = np.array([w.iteration_jitter_sigma for w in workloads])
    jitter_amp = np.array(
        [expected_max_of_normals(n) for n in widths.tolist()]
    )
    job_unit_ms = np.where(
        widths == 1,
        slowest,
        slowest * (1.0 + jitter[workload_of_job] * jitter_amp) + sync_ms,
    )

    # Gang medians from one sort: the middle element, or the mean of the
    # two middle ones ((a + a) / 2 == a, so one expression serves both).
    ranked = unit_ms[np.lexsort((unit_ms, job_of_row))]
    median = (
        ranked[starts + (widths - 1) // 2] + ranked[starts + widths // 2]
    ) / 2
    units = np.array([int(draw.request.work_units) for draw in draws])
    multi = np.flatnonzero(width_row > 1)
    return _PricedBatch(
        starts=starts,
        widths=widths,
        unit_ms=unit_ms,
        job_unit_ms=job_unit_ms,
        runtime_s=job_unit_ms * units / 1000.0,
        gang_imbalance=slowest / median,
        power_w=op.power_w,
        multi=multi,
        multi_job=job_of_row[multi],
        multi_gpus=concat[multi],
        multi_coolant=coolant[multi],
        multi_act=act_run[multi],
        multi_dram=dram0_row[multi],
    )


def _priced_alone(
    cluster: Cluster,
    draws: Sequence[JobDraw],
    day: int,
    starts: np.ndarray,
    widths: np.ndarray,
) -> _PricedBatch:
    """The runtime half on a dithering fleet: each job priced alone.

    Dithering draws from the job's stream inside both of its solves, so
    the one-job path runs whole and the batch's rows arrive settled.
    """
    perfs = [
        sample_job_runtime(
            cluster,
            draw.request.workload,
            draw.gpu_indices,
            day=day,
            work_units=draw.request.work_units,
            rng=draw.request.rng,
        )
        for draw in draws
    ]
    none = np.empty(0, dtype=np.int64)
    empty = np.empty(0)
    return _PricedBatch(
        starts=starts,
        widths=widths,
        unit_ms=np.concatenate([p.unit_time_ms for p in perfs]),
        job_unit_ms=np.array([p.job_unit_ms for p in perfs]),
        runtime_s=np.array([p.runtime_s for p in perfs]),
        gang_imbalance=np.array([p.gang_imbalance for p in perfs]),
        power_w=np.concatenate([p.power_w for p in perfs]),
        multi=none,
        multi_job=none,
        multi_gpus=none,
        multi_coolant=empty,
        multi_act=empty,
        multi_dram=empty,
    )


def _settle_energy(
    cluster: Cluster, day: int, batches: Sequence[_PricedBatch]
) -> list[tuple[np.ndarray, list[float]]]:
    """The energy half: each batch's per-row power and per-job energy.

    Early finishers busy-wait at low activity (see
    :func:`sample_job_runtime`): the multi-GPU gangs of every batch,
    which must all have priced on day ``day``, settle again at their
    duty-adjusted load in one DVFS solve.  Energy keeps a per-job
    ``power.sum()``, because a segmented sum adds in another order.
    """
    loads = []
    for batch in batches:
        duty = np.clip(
            batch.unit_ms[batch.multi] / batch.job_unit_ms[batch.multi_job],
            0.0,
            1.0,
        )
        loads.append((
            batch.multi_act * duty + WAIT_ACTIVITY * (1.0 - duty),
            batch.multi_dram * duty,
        ))
    settled = None
    if any(batch.multi.shape[0] for batch in batches):
        sub, arrays = cluster.fleet_for_day(day).solver_at(
            np.concatenate([batch.multi_gpus for batch in batches]),
            np.concatenate([batch.multi_coolant for batch in batches]),
        )
        settled = sub.solve_steady(
            np.concatenate([act for act, _ in loads]),
            np.concatenate([dram for _, dram in loads]),
            arrays.efficiency,
            power_cap_w=arrays.power_cap_w,
            f_cap_mhz=arrays.f_cap_mhz,
        ).power_w

    out = []
    offset = 0
    for batch in batches:
        power = batch.power_w
        m = int(batch.multi.shape[0])
        if m:
            power = power.copy()
            power[batch.multi] = settled[offset : offset + m]
            offset += m
        starts = batch.starts
        out.append((
            power,
            [
                float(power[lo:hi].sum()) * runtime
                for lo, hi, runtime in zip(
                    starts.tolist(), (starts + batch.widths).tolist(),
                    batch.runtime_s.tolist(),
                )
            ],
        ))
    return out
