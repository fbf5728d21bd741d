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
  gathering their GPUs' solver inputs by index from the day fleet and
  settling the batch in at most two vectorized DVFS solves, bitwise
  equal to pricing each job alone.
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
    return int(np.unique(cluster.topology.node_of_gpu[gang]).shape[0])


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
    could be the next event.  On dithering fleets nothing is pre-drawn
    (the per-GPU fields are ``None``, the stream untouched) and the floor
    is ``0.0``.
    """

    request: JobPricingRequest
    day: int
    gpu_indices: np.ndarray  # sorted
    spanned: int             # nodes the gang spans
    floor_s: float
    coolant_c: np.ndarray | None = None
    act_run: np.ndarray | None = None
    dram0: float = 0.0
    time_multiplier: np.ndarray | None = None
    drift: np.ndarray | None = None


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
    """
    gang = np.sort(np.asarray(request.gpu_indices, dtype=np.int64))
    n = int(gang.shape[0])
    if n < 1:
        raise SimulationError("a job needs at least one GPU")
    if int(request.work_units) < 1:
        raise SimulationError(
            f"work_units must be >= 1, got {request.work_units}"
        )
    spanned = _nodes_spanned(cluster, gang)
    day_fleet = cluster.fleet_for_day(day)
    if day_fleet.policy.dither:
        return JobDraw(request, day, gang, spanned, 0.0)

    spec = day_fleet.spec
    workload = request.workload
    act0, dram0 = workload.steady_load(
        spec.f_max_mhz, spec.compute_throughput, spec.mem_bandwidth_gbs
    )
    z = request.rng.standard_normal(1 + 5 * n)
    z_local = z[1 : 1 + n]
    z_shared = z[1 + n : 1 + 2 * n]
    z_speed_ortho = z[1 + 2 * n : 1 + 3 * n]
    z_act_ortho = z[1 + 3 * n : 1 + 4 * n]
    z_drift = z[1 + 4 * n : 1 + 5 * n]
    coolant = (
        day_fleet.coolant_c[gang]
        + (0.0 + RUN_COOLANT_SIGMA_SHARED * z[0])
        + (0.0 + RUN_COOLANT_SIGMA_LOCAL * z_local)
    )
    corr = np.sqrt(workload.activity_speed_correlation)
    ortho = np.sqrt(1 - corr**2)
    z_speed = corr * z_shared + ortho * z_speed_ortho
    z_act = corr * z_shared + ortho * z_act_ortho
    time_multiplier = np.exp(workload.run_speed_sigma * z_speed)
    act_run = np.clip(
        act0 * np.exp(-workload.activity_mix_sigma * z_act), 0.02, 1.0
    )
    drift = np.clip(
        1.0 + (0.0 + cluster.run_noise_sigma * z_drift), 0.5, 1.5
    )
    arrays = day_fleet.arrays
    floor_unit_ms = (
        workload.unit_time_ms(
            spec.f_max_mhz,
            spec.compute_throughput,
            arrays.mem_bandwidth_gbs[gang],
            arrays.efficiency[gang],
        )
        * time_multiplier
        * drift
    )
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
        coolant_c=coolant,
        act_run=act_run,
        dram0=dram0,
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
    here first).  The gangs' solver inputs are gathered by index from the
    day fleet (:meth:`~repro.gpu.GPUFleet.solver_at` — no sub-fleet is
    built), and the whole batch settles in at most two vectorized DVFS
    solves: one for every gang's free-running unit times, one for the
    multi-GPU gangs' duty-adjusted power.  The DVFS solver's
    evaluation-shape freedom makes the concatenated solve bit-identical
    to per-gang solves, so batch composition is unobservable.

    Dithering fleets fall back to the sequential
    :func:`sample_job_runtime` per job, preserving stream-exact equality
    everywhere.
    """
    if not requests:
        return []
    draws = [
        r if isinstance(r, JobDraw) else draw_job_runtime(cluster, r, day=day)
        for r in requests
    ]
    for draw in draws:
        if draw.day != day:
            raise SimulationError(
                f"a job drawn on day {draw.day} cannot price on day {day}"
            )
    day_fleet = cluster.fleet_for_day(day)
    if day_fleet.policy.dither:
        return [
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

    widths = [int(draw.gpu_indices.shape[0]) for draw in draws]
    offsets = np.zeros(len(draws) + 1, dtype=np.int64)
    np.cumsum(widths, out=offsets[1:])
    concat = np.concatenate([draw.gpu_indices for draw in draws])
    coolant = np.concatenate([draw.coolant_c for draw in draws])
    act_run = np.concatenate([draw.act_run for draw in draws])
    dram0_row = np.repeat([draw.dram0 for draw in draws], widths)
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
    mem_bw = arrays.mem_bandwidth_gbs
    f_effective = op.f_effective_mhz
    power_free = op.power_w

    unit_ms_of: list[np.ndarray] = []
    job_unit_ms_of: list[float] = []
    multi: list[int] = []
    act_eff_parts: list[np.ndarray] = []
    dram_eff_parts: list[np.ndarray] = []
    for j, draw in enumerate(draws):
        rows = slice(int(offsets[j]), int(offsets[j + 1]))
        workload = draw.request.workload
        unit_ms = (
            workload.unit_time_ms(
                f_effective[rows],
                spec.compute_throughput,
                mem_bw[rows],
                efficiency[rows],
            )
            * draw.time_multiplier
            * draw.drift
        )
        unit_ms_of.append(unit_ms)
        job_unit_ms = _job_unit_ms(workload, unit_ms, draw.spanned)
        job_unit_ms_of.append(job_unit_ms)
        if widths[j] == 1:
            continue
        # Early finishers busy-wait at low activity (see sample_job_runtime).
        duty = np.clip(unit_ms / job_unit_ms, 0.0, 1.0)
        multi.append(j)
        act_eff_parts.append(
            draw.act_run * duty + WAIT_ACTIVITY * (1.0 - duty)
        )
        dram_eff_parts.append(draw.dram0 * duty)

    power_of: dict[int, np.ndarray] = {}
    if multi:
        sub, sub_arrays = day_fleet.solver_at(
            np.concatenate([draws[j].gpu_indices for j in multi]),
            np.concatenate([draws[j].coolant_c for j in multi]),
        )
        op_eff = sub.solve_steady(
            np.concatenate(act_eff_parts),
            np.concatenate(dram_eff_parts),
            sub_arrays.efficiency,
            power_cap_w=sub_arrays.power_cap_w,
            f_cap_mhz=sub_arrays.f_cap_mhz,
        )
        at = 0
        for j in multi:
            power_of[j] = op_eff.power_w[at : at + widths[j]]
            at += widths[j]

    out: list[JobPerformance] = []
    for j, draw in enumerate(draws):
        unit_ms = unit_ms_of[j]
        job_unit_ms = job_unit_ms_of[j]
        power = power_of.get(j)
        if power is None:
            power = power_free[int(offsets[j]) : int(offsets[j + 1])]
        runtime_s = job_unit_ms * int(draw.request.work_units) / 1000.0
        out.append(
            JobPerformance(
                gpu_indices=draw.gpu_indices,
                unit_time_ms=unit_ms,
                job_unit_ms=job_unit_ms,
                runtime_s=runtime_s,
                power_w=power,
                energy_j=float(power.sum()) * runtime_s,
                gang_imbalance=float(unit_ms.max() / np.median(unit_ms)),
            )
        )
    return out
