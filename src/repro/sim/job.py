"""Per-job runtime sampling for the batch-queue simulator.

Where :func:`repro.sim.run.simulate_run` measures the *fleet* (every GPU
runs the workload side by side, the paper's characterization protocol),
this module prices one *job*: a gang of GPUs granted by the scheduler
(:mod:`repro.sched`) runs the workload bulk-synchronously and the slowest
member gates every iteration.  The physics is the same steady-state DVFS
solve and roofline evaluation the campaigns use, so a job lands exactly
where the characterization says its GPUs sit.

Three entry points:

* :func:`reference_unit_times` — the noise-free per-GPU unit time of a
  workload across the whole fleet (intrinsic GPU speed).  The scheduler's
  slow-assignment accounting compares a job's GPUs against this table,
  mirroring the paper's "6-7% slower than the fastest GPUs" definition.
* :func:`sample_job_runtime` — one job's realized runtime, energy, and
  gang imbalance on its allocated GPUs, with the run-level software and
  environment draws of :mod:`repro.sim.run` keyed per job so the same job
  draws the same factors under every placement policy.
* :func:`sample_job_runtimes` — several jobs priced together: each job's
  normal draws come from its own job-id-keyed stream in one
  ``standard_normal`` batch, the gangs are concatenated into a single
  fleet slice, and the whole batch settles in at most two vectorized
  DVFS solves, bitwise equal to pricing each job alone.  This is the
  indexed scheduler's hot path.
"""

from __future__ import annotations

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
    "reference_unit_times",
    "sample_job_runtime",
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

    spanned = int(
        np.unique(cluster.topology.node_of_gpu[gpu_indices]).shape[0]
    )
    if n == 1:
        job_unit_ms = float(unit_ms[0])
        power = op.power_w
    else:
        sync_ms = (
            workload.sync_overhead_ms
            if workload.sync_overhead_ms > 0.0
            else DEFAULT_SYNC_OVERHEAD_MS
        )
        sync_ms *= 1.0 + INTER_NODE_SYNC_FACTOR * (spanned - 1)
        jitter_amp = expected_max_of_normals(n)
        job_unit_ms = float(
            unit_ms.max()
            * (1.0 + workload.iteration_jitter_sigma * jitter_amp)
            + sync_ms
        )
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


def sample_job_runtimes(
    cluster: Cluster,
    requests: list[JobPricingRequest],
    *,
    day: int = 0,
) -> list[JobPerformance]:
    """Price several gang jobs together, bitwise equal to pricing alone.

    The batched twin of :func:`sample_job_runtime`: per-job normal draws
    collapse into one ``standard_normal(1 + 5n)`` call on the job's own
    stream (numpy's ``normal(loc, scale)`` is ``loc + scale * z``, and a
    sliced batch equals the sequential draws), the gangs concatenate into
    a single fleet slice, and the whole batch settles in at most two
    vectorized DVFS solves — one for every gang's free-running unit
    times, one for the multi-GPU gangs' duty-adjusted power.  The DVFS
    solver's evaluation-shape freedom makes the concatenated solve
    bit-identical to per-gang solves.

    Pre-drawing is only sound when the DVFS policy does not dither (the
    reference path draws run noise *after* the first solve, which on
    dithering ladders consumes the stream); dithering fleets fall back to
    the sequential path, preserving stream-exact equality everywhere.
    """
    if not requests:
        return []
    day_fleet = cluster.fleet_for_day(day)
    if day_fleet.controller.policy.dither:
        return [
            sample_job_runtime(
                cluster,
                request.workload,
                request.gpu_indices,
                day=day,
                work_units=request.work_units,
                rng=request.rng,
            )
            for request in requests
        ]

    gangs: list[np.ndarray] = []
    widths: list[int] = []
    for request in requests:
        gang = np.sort(np.asarray(request.gpu_indices, dtype=np.int64))
        n = int(gang.shape[0])
        if n < 1:
            raise SimulationError("a job needs at least one GPU")
        if int(request.work_units) < 1:
            raise SimulationError(
                f"work_units must be >= 1, got {request.work_units}"
            )
        gangs.append(gang)
        widths.append(n)

    offsets = np.zeros(len(requests) + 1, dtype=np.int64)
    np.cumsum(widths, out=offsets[1:])
    total = int(offsets[-1])
    concat = np.concatenate(gangs)
    fleet = day_fleet.take(concat)
    spec = fleet.spec
    base_coolant = fleet.coolant_c

    coolant = np.empty(total, dtype=float)
    act_run = np.empty(total, dtype=float)
    dram0_row = np.empty(total, dtype=float)
    time_multiplier = np.empty(total, dtype=float)
    drift = np.empty(total, dtype=float)
    dram0_of: list[float] = []
    run_noise_sigma = cluster.run_noise_sigma
    for j, request in enumerate(requests):
        n = widths[j]
        rows = slice(int(offsets[j]), int(offsets[j + 1]))
        workload = request.workload
        act0, dram0 = workload.steady_load(
            spec.f_max_mhz, spec.compute_throughput, spec.mem_bandwidth_gbs
        )
        dram0_of.append(dram0)
        z = request.rng.standard_normal(1 + 5 * n)
        z_local = z[1 : 1 + n]
        z_shared = z[1 + n : 1 + 2 * n]
        z_speed_ortho = z[1 + 2 * n : 1 + 3 * n]
        z_act_ortho = z[1 + 3 * n : 1 + 4 * n]
        z_drift = z[1 + 4 * n : 1 + 5 * n]
        coolant[rows] = (
            base_coolant[rows]
            + (0.0 + RUN_COOLANT_SIGMA_SHARED * z[0])
            + (0.0 + RUN_COOLANT_SIGMA_LOCAL * z_local)
        )
        corr = np.sqrt(workload.activity_speed_correlation)
        ortho = np.sqrt(1 - corr**2)
        z_speed = corr * z_shared + ortho * z_speed_ortho
        z_act = corr * z_shared + ortho * z_act_ortho
        time_multiplier[rows] = np.exp(workload.run_speed_sigma * z_speed)
        act_run[rows] = np.clip(
            act0 * np.exp(-workload.activity_mix_sigma * z_act), 0.02, 1.0
        )
        dram0_row[rows] = dram0
        drift[rows] = np.clip(
            1.0 + (0.0 + run_noise_sigma * z_drift), 0.5, 1.5
        )

    fleet = fleet.with_coolant(coolant)
    efficiency = fleet.throughput_efficiency()
    cap = fleet.power_cap_w(None)
    f_cap = fleet.frequency_cap_mhz()
    op = fleet.controller.solve_steady(
        act_run,
        dram0_row,
        efficiency,
        power_cap_w=cap,
        f_cap_mhz=f_cap,
    )
    mem_bw = fleet.memory_bandwidth_gbs()
    f_effective = op.f_effective_mhz
    power_free = op.power_w

    node_of_gpu = cluster.topology.node_of_gpu
    unit_ms_of: list[np.ndarray] = []
    job_unit_ms_of: list[float] = []
    multi: list[int] = []
    act_eff_parts: list[np.ndarray] = []
    dram_eff_parts: list[np.ndarray] = []
    for j, request in enumerate(requests):
        n = widths[j]
        rows = slice(int(offsets[j]), int(offsets[j + 1]))
        workload = request.workload
        unit_ms = (
            workload.unit_time_ms(
                f_effective[rows],
                spec.compute_throughput,
                mem_bw[rows],
                efficiency[rows],
            )
            * time_multiplier[rows]
            * drift[rows]
        )
        unit_ms_of.append(unit_ms)
        if n == 1:
            job_unit_ms_of.append(float(unit_ms[0]))
            continue
        spanned = int(np.unique(node_of_gpu[gangs[j]]).shape[0])
        sync_ms = (
            workload.sync_overhead_ms
            if workload.sync_overhead_ms > 0.0
            else DEFAULT_SYNC_OVERHEAD_MS
        )
        sync_ms *= 1.0 + INTER_NODE_SYNC_FACTOR * (spanned - 1)
        jitter_amp = expected_max_of_normals(n)
        job_unit_ms = float(
            unit_ms.max()
            * (1.0 + workload.iteration_jitter_sigma * jitter_amp)
            + sync_ms
        )
        job_unit_ms_of.append(job_unit_ms)
        duty = np.clip(unit_ms / job_unit_ms, 0.0, 1.0)
        multi.append(j)
        act_eff_parts.append(
            act_run[rows] * duty + WAIT_ACTIVITY * (1.0 - duty)
        )
        dram_eff_parts.append(dram0_of[j] * duty)

    power_of: dict[int, np.ndarray] = {}
    if multi:
        rows_of: dict[int, slice] = {}
        at = 0
        for j in multi:
            rows_of[j] = slice(at, at + widths[j])
            at += widths[j]
        sub_fleet = day_fleet.take(
            np.concatenate([gangs[j] for j in multi])
        ).with_coolant(
            np.concatenate(
                [coolant[offsets[j] : offsets[j + 1]] for j in multi]
            )
        )
        op_eff = sub_fleet.controller.solve_steady(
            np.concatenate(act_eff_parts),
            np.concatenate(dram_eff_parts),
            sub_fleet.throughput_efficiency(),
            power_cap_w=sub_fleet.power_cap_w(None),
            f_cap_mhz=sub_fleet.frequency_cap_mhz(),
        )
        for j in multi:
            power_of[j] = op_eff.power_w[rows_of[j]]

    out: list[JobPerformance] = []
    for j, request in enumerate(requests):
        rows = slice(int(offsets[j]), int(offsets[j + 1]))
        unit_ms = unit_ms_of[j]
        job_unit_ms = job_unit_ms_of[j]
        power = power_of.get(j)
        if power is None:
            power = power_free[rows]
        runtime_s = job_unit_ms * int(request.work_units) / 1000.0
        out.append(
            JobPerformance(
                gpu_indices=gangs[j],
                unit_time_ms=unit_ms,
                job_unit_ms=job_unit_ms,
                runtime_s=runtime_s,
                power_w=power,
                energy_j=float(power.sum()) * runtime_s,
                gang_imbalance=float(unit_ms.max() / np.median(unit_ms)),
            )
        )
    return out
