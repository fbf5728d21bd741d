"""Simulate one measurement run of a workload across cluster GPUs.

A *run* follows the paper's protocol (Sections III-V): allocate GPUs
exclusively, execute the workload long enough for DVFS to settle, and
record the per-GPU medians of performance, frequency, power, and
temperature through the profiler's sensor path.

The simulation is fully vectorized over the participating GPUs — and,
in a campaign, over the runs of consecutive days of one shard, whose
DVFS solves settle as one batch (:func:`_simulate_runs`):

1. build the day's fleet and apply run-level coolant jitter;
2. draw the run's software factors (ML speed/activity multipliers, drift);
3. solve the DVFS steady state per GPU;
4. evaluate the workload roofline at the settled clocks;
5. for multi-GPU jobs, apply bulk-synchronous semantics: the node's
   iteration time is the max across its GPUs (plus allreduce), and GPUs
   that finish early busy-wait at low activity — which is re-fed into the
   power solve so straggler *neighbours* show max clocks and low power
   (Fig. 15);
6. push everything through the sensor model.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from ..cluster.cluster import Cluster
from ..errors import SimulationError
from ..gpu.dvfs import (
    SolverStats,
    SteadyOperatingPoint,
    _count_solver_work,
    _observe_solve,
)
from ..obs.observer import Observer, activate, active_observer
from ..obs.timeline import measurement_digest
from ..telemetry.sample import SensorModel
from ..workloads.base import WAIT_ACTIVITY, Workload

__all__ = [
    "RunMeasurements",
    "simulate_run",
    "run_rng_label",
    "expected_max_of_normals",
    "EXPECTED_MAX_OF_NORMALS",
    "RUN_COOLANT_SIGMA_SHARED",
    "RUN_COOLANT_SIGMA_LOCAL",
]

#: E[max of k standard normals] — the bulk-synchronous amplification of
#: per-iteration jitter for k GPUs (k=1 means no amplification).  These are
#: the calibrated (3-decimal) constants the committed golden campaigns were
#: produced with; :func:`expected_max_of_normals` extends the table to
#: arbitrary k without perturbing the listed widths.
EXPECTED_MAX_OF_NORMALS = {1: 0.0, 2: 0.564, 3: 0.846, 4: 1.029, 6: 1.267, 8: 1.423}

#: Numerically-computed values for job widths outside the calibrated table.
_EMAX_CACHE: dict[int, float] = {}


def expected_max_of_normals(k: int) -> float:
    """E[max of ``k`` iid standard normals], for any job width ``k >= 1``.

    Widths in :data:`EXPECTED_MAX_OF_NORMALS` return the calibrated table
    constants (bit-compatible with the committed golden campaigns); other
    widths are integrated numerically from
    ``E[max] = ∫ x k φ(x) Φ(x)^(k-1) dx`` and memoized.  Raises
    :class:`~repro.errors.SimulationError` for ``k < 1`` — silently
    treating an unknown width as "no amplification" would understate
    bulk-synchronous jitter for 5- or 7-GPU jobs.
    """
    k = int(k)
    if k < 1:
        raise SimulationError(f"job width must be >= 1, got {k}")
    table = EXPECTED_MAX_OF_NORMALS.get(k)
    if table is not None:
        return table
    cached = _EMAX_CACHE.get(k)
    if cached is None:
        cached = _EMAX_CACHE[k] = _integrate_expected_max(k)
    return cached


def _integrate_expected_max(k: int) -> float:
    """Trapezoid quadrature of the max-order-statistic mean (~1e-7 accurate)."""
    x = np.linspace(-12.0, 12.0, 48001)
    phi = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    # Φ from the cumulative integral of φ (no erf dependency); Φ(-12) ~ 2e-33.
    cdf = np.concatenate(
        ([0.0], np.cumsum((phi[1:] + phi[:-1]) * 0.5 * (x[1] - x[0])))
    )
    return float(np.trapezoid(x * k * phi * cdf ** (k - 1), x))

#: Std-dev (degC) of the facility-wide coolant fluctuation within one run.
RUN_COOLANT_SIGMA_SHARED = 0.35
#: Std-dev (degC) of per-GPU coolant fluctuation within one run.
RUN_COOLANT_SIGMA_LOCAL = 0.20


def run_rng_label(workload: Workload, day: int, run_index: int) -> str:
    """The :meth:`~repro.rng.RngFactory.child` label that names one run.

    Every random draw of a run derives from
    ``cluster.rng_factory.child(run_rng_label(...))``, so any executor —
    serial, threaded, or a separate process — can reconstruct the exact
    stream from the campaign coordinates alone.
    """
    return f"run-{workload.name}-day-{day}-idx-{run_index}"


@dataclass(frozen=True)
class RunMeasurements:
    """What the profiler recorded for one run (arrays over the run's GPUs).

    ``performance_ms`` follows the workload's metric (median kernel
    duration, iteration duration, or long-kernel aggregate).  ``true_*``
    fields carry the unobservable ground truth for validation.
    """

    gpu_indices: np.ndarray
    performance_ms: np.ndarray
    frequency_mhz: np.ndarray
    power_w: np.ndarray
    temperature_c: np.ndarray
    true_frequency_mhz: np.ndarray
    true_power_w: np.ndarray
    true_temperature_c: np.ndarray
    power_capped: np.ndarray
    thermally_capped: np.ndarray
    #: Steady-state solver work counters for this run (not a measurement —
    #: telemetry for the campaign executor's progress sink).
    solver_stats: SolverStats | None = None

    @property
    def n(self) -> int:
        """GPUs measured in this run."""
        return int(self.gpu_indices.shape[0])


def simulate_run(
    cluster: Cluster,
    workload: Workload,
    day: int = 0,
    run_index: int = 0,
    gpu_indices: np.ndarray | None = None,
    power_limit_w: float | None = None,
    sensor: SensorModel | None = None,
    *,
    rng: np.random.Generator | None = None,
    coolant_shared_offset_c: float | None = None,
) -> RunMeasurements:
    """Simulate one run and return its reported measurements.

    Parameters
    ----------
    cluster:
        The machine.
    workload:
        What to run.  Multi-GPU workloads require ``gpu_indices`` to be
        whole nodes (multiples of the node width, node-aligned).
    day, run_index:
        Campaign coordinates; they seed the run's randomness so campaigns
        replay exactly.
    gpu_indices:
        GPUs participating (default: the whole cluster).
    power_limit_w:
        Administrative power limit (Section VI-B); requires
        ``cluster.admin_access``.
    sensor:
        Sensor model override.
    rng:
        Random stream override.  The default is the keyed stream
        ``cluster.rng_factory.child(run_rng_label(...)).generator("run")``;
        the sharded campaign executor passes per-shard streams instead
        (see :mod:`repro.sim.parallel`).
    coolant_shared_offset_c:
        Pre-drawn facility-wide coolant fluctuation for this run.  By
        default it is the first draw of ``rng``; shard executors pass the
        run-level value so every GPU shard of one run shares the same
        facility environment.

    This is the one-run case of the campaign executor's group of runs
    (:func:`_simulate_runs`), observed by the sinks active on the calling
    thread.
    """
    if gpu_indices is None:
        gpu_indices = np.arange(cluster.n_gpus)
    if rng is None:
        rng = cluster.rng_factory.child(
            run_rng_label(workload, day, run_index)
        ).generator("run")
    return _simulate_runs(
        cluster,
        workload,
        gpu_indices,
        [(day, run_index, rng, coolant_shared_offset_c, Observer())],
        power_limit_w,
        sensor,
    )[0]


def _simulate_runs(
    cluster: Cluster,
    workload: Workload,
    gpu_indices: np.ndarray,
    runs: Sequence[
        tuple[int, int, np.random.Generator, float | None, Observer]
    ],
    power_limit_w: float | None = None,
    sensor: SensorModel | None = None,
) -> list[RunMeasurements]:
    """Simulate several runs on the same GPUs, solving them together.

    ``runs`` holds one ``(day, run_index, rng, coolant_shared_offset_c,
    observer)`` per run (see :func:`simulate_run` for the first four);
    ``observer`` holds the run's own sinks, activated over the sinks
    active on the calling thread (an empty one activates nothing).  The
    runs may come from several days, whose fleets must differ only in
    coolant (the campaign merges days only without a chaos fault plan):
    each run looks up its own day's
    :meth:`~repro.cluster.cluster.Cluster.fleet_slice`, each run's row of
    the group's coolant is ``(its slice's coolant + shared offset) +
    local jitter``, and every other solver input comes from the first
    run's slice.
    Each run draws from its own ``rng`` in exactly the order a run
    simulated alone draws, so every run's measurements are bit-identical
    to simulating it alone.  Between the draws, the runs' arrays are
    stacked ``(runs, GPUs)`` and every DVFS steady solve settles all runs
    that need it in one batch — a controller gathered from a view of the
    first run's cached slice at ``np.tile(arange(n), runs)`` in the
    runs' concatenated coolant (the view derives the group's solver
    inputs; the cache keeps none).  The fleet search treats every row on
    its own, so a batch settles each row exactly as the run's own solve
    would.  The exception is a dithering policy (AMD DPM), whose solve
    draws duty cycles from the run's stream: there every run is solved
    alone.

    Every per-run hook fires once per run, on the sinks active under the
    run's ``observer``: the fleet-slice lookup, each solve's ``solve``
    span and monitor throttle count over the run's rows, and, each
    carrying the run's own day, the monitor's run sample, the recorder's
    ``sim/run`` event and the tracer's ``run`` span.  The batched solves
    themselves run with every sink masked.

    Solver work counters are charged by plan position: each run is
    charged the ``solves`` and ``dense_cells`` of its own rows, and the
    group's first run also the ``batches``, ``columns_evaluated`` and
    ``fixed_point_iterations`` of every solve of the group (a batch's
    work cannot be split by row).  Both the run's ``solver_stats`` and
    its tracer's ``solver.*`` counters follow this rule, so a group of
    one run reports exactly its own work.
    """
    if power_limit_w is not None and not cluster.admin_access:
        raise SimulationError(
            f"cluster {cluster.name} does not grant administrative access; "
            "power limits cannot be set (Section VI-B used CloudLab for this)"
        )
    gpu_indices = np.asarray(gpu_indices)
    if workload.is_multi_gpu:
        _check_node_alignment(cluster, workload, gpu_indices)
    span_start, span_t0 = time.time(), time.perf_counter()
    sensor = sensor if sensor is not None else SensorModel()

    observers = []
    slices = []
    for day, _, _, _, observer in runs:
        sinks = observer.sinks()
        with activate(**sinks) if sinks else nullcontext():
            # Memoized per (day, shard): the day's facility conditions and
            # the silicon/thermal re-slicing are shared by every run of
            # the shard.
            slices.append(cluster.fleet_slice(day, gpu_indices))
            observers.append(active_observer())
    fleet = slices[0]
    n = fleet.n
    b = len(runs)
    rngs = [rng for _, _, rng, _, _ in runs]

    # Run-level thermal environment fluctuation on the run's own day,
    # then the software factors: correlated speed / activity draws
    # (Section V-A).
    coolant, z_shared, e_speed, e_act = np.empty((4, b, n))
    for i, (_, _, rng, offset, _) in enumerate(runs):
        if offset is None:
            offset = rng.normal(0.0, RUN_COOLANT_SIGMA_SHARED)
        coolant[i] = (slices[i].coolant_c + offset) + rng.normal(
            0.0, RUN_COOLANT_SIGMA_LOCAL, size=n
        )
        z_shared[i] = rng.normal(size=n)
        e_speed[i] = rng.normal(size=n)
        e_act[i] = rng.normal(size=n)

    spec = fleet.spec
    act0, dram0 = workload.steady_load(
        spec.f_max_mhz, spec.compute_throughput, spec.mem_bandwidth_gbs
    )
    corr = np.sqrt(workload.activity_speed_correlation)
    z_speed = corr * z_shared + np.sqrt(1 - corr**2) * e_speed
    z_act = corr * z_shared + np.sqrt(1 - corr**2) * e_act
    time_multiplier = np.exp(workload.run_speed_sigma * z_speed)
    activity_multiplier = np.exp(-workload.activity_mix_sigma * z_act)
    act_run = np.clip(act0 * activity_multiplier, 0.02, 1.0)

    # The group derives its FleetArrays on a view of the slice and drops
    # them with the group: the cached slice keeps none.
    group_fleet = fleet.with_coolant(fleet.coolant_c)
    arrays = group_fleet.arrays
    efficiency = arrays.efficiency
    per_gpu = (efficiency, fleet.power_cap_w(power_limit_w), arrays.f_cap_mhz)
    stats = [SolverStats() for _ in runs]
    k_ladder = spec.n_pstates

    def solve(members, activity, dram_utilization) -> SteadyOperatingPoint:
        """Settle the runs ``members`` (group rows) at their ``(m, n)``
        activity, fire their solve hooks, charge the work; returns an
        operating point of ``(m, n)`` fields."""
        step = 1 if fleet.policy.dither else members.shape[0]
        parts = []
        for at in range(0, members.shape[0], step):
            rows = members[at:at + step]
            m = rows.shape[0]
            controller, _ = group_fleet.solver_at(
                np.tile(np.arange(n), m), coolant[rows].ravel()
            )
            eff, cap, f_cap = (np.tile(a, m) for a in per_gpu)
            dram = dram_utilization
            if np.ndim(dram):
                dram = dram[at:at + step].ravel()
            start_s, t0 = time.time(), time.perf_counter()
            with activate(None, monitor=None, recorder=None):
                op = controller.solve_steady(
                    activity[at:at + step].ravel(), dram, eff,
                    power_cap_w=cap, f_cap_mhz=f_cap,
                    rng=rngs[rows[0]] if fleet.policy.dither else None,
                )
            timing = (start_s, time.perf_counter() - t0)
            for j, row in enumerate(rows):
                cells = slice(j * n, (j + 1) * n)
                _observe_solve(
                    observers[row], timing, op.power_capped[cells],
                    op.thermally_capped[cells],
                )
                stats[row].solves += n
                stats[row].dense_cells += n * k_ladder
            work = controller.stats
            stats[0].batches += work.batches
            stats[0].columns_evaluated += work.columns_evaluated
            stats[0].fixed_point_iterations += work.fixed_point_iterations
            parts.append(op)
        return SteadyOperatingPoint(*(
            np.concatenate([getattr(p, name) for p in parts]).reshape(-1, n)
            for name in _OP_FIELDS
        ))

    every = np.arange(b)
    op = solve(every, act_run, dram0)

    drift = np.empty((b, n))
    rate = workload.pathological_run_rate
    if rate > 0.0:
        k = workload.n_gpus
        n_jobs = n // k
        hit = np.empty((b, n_jobs), dtype=bool)
        job_slowdown = np.empty((b, n_jobs))
    for i, rng in enumerate(rngs):
        drift[i] = 1.0 + rng.normal(0.0, cluster.run_noise_sigma, size=n)
        if rate > 0.0:
            hit[i] = rng.random(n_jobs) < rate
            job_slowdown[i] = rng.uniform(*workload.pathological_slowdown,
                                          size=n_jobs)
    unit_ms = (
        workload.unit_time_ms(
            op.f_effective_mhz, spec.compute_throughput,
            arrays.mem_bandwidth_gbs, efficiency,
        )
        * time_multiplier
        * np.clip(drift, 0.5, 1.5)
    )

    # Rare pathological runs: a stalled input pipeline or contended
    # filesystem drags the whole job while its GPUs sit near idle (the
    # extreme 3.5x ML stragglers at 76 W).  Drawn per job, so every GPU
    # of a multi-GPU job shares the event.
    if rate > 0.0:
        path_mult = np.repeat(np.where(hit, job_slowdown, 1.0), k, axis=1)
        unit_ms = unit_ms * path_mult
        # A stalled job barely exercises the GPU.
        act_run = np.clip(act_run / path_mult, 0.02, 1.0)
        again = np.flatnonzero(hit.any(axis=1))
        if not workload.is_multi_gpu and again.size:
            # Stalled single-GPU runs settle again at their idle activity.
            resolved = solve(again, act_run[again], dram0)
            for name in _OP_FIELDS:
                getattr(op, name)[again] = getattr(resolved, name)

    if workload.is_multi_gpu:
        unit_ms, op = _apply_bulk_synchronous(
            workload, unit_ms, act_run, dram0, solve, every
        )
    else:
        jitter_amp = expected_max_of_normals(1)
        unit_ms = unit_ms * (1.0 + workload.iteration_jitter_sigma * jitter_amp)

    # Median-over-units estimation noise; shared within a node for
    # bulk-synchronous jobs because the iteration time itself is shared.
    median_noise, reported_power, reported_temp = np.empty((3, b, n))
    gain = fleet.silicon.power_sensor_gain
    for i, rng in enumerate(rngs):
        median_noise[i] = rng.normal(
            0.0, 0.003 / np.sqrt(workload.units_per_run), size=n
        )
        reported_power[i] = sensor.read_power(op.power_w[i], gain, rng)
        reported_temp[i] = sensor.read_temperature(op.temperature_c[i], rng)
    if workload.is_multi_gpu:
        k = workload.n_gpus
        median_noise = np.repeat(
            median_noise.reshape(b, -1, k)[:, :, 0], k, axis=1
        )
    performance = unit_ms * (1.0 + median_noise)
    reported_freq = sensor.read_frequency(
        op.f_reported_mhz, spec.pstate_array()
    )

    results = []
    for i, (day, run_index, _, _, _) in enumerate(runs):
        obs = observers[i]
        monitor = obs.monitor
        if monitor is not None:
            # Reported values only, after everything that feeds the result
            # is computed — the monitor observes, it cannot perturb.
            monitor.observe_run(
                day=day,
                run_index=run_index,
                gpu_indices=gpu_indices,
                performance_ms=performance[i],
                frequency_mhz=reported_freq[i],
                power_w=reported_power[i],
                temperature_c=reported_temp[i],
                power_capped=op.power_capped[i],
                thermally_capped=op.thermally_capped[i],
            )
        recorder = obs.recorder
        if recorder is not None:
            # Like the monitor: observe only, after everything feeding the
            # result is computed.  No wall-clock — the digest covers the
            # raw reported arrays bit-exactly, so a replayed timeline can
            # attest that the measurements it describes are the
            # measurements produced.
            recorder.record(
                "sim",
                "run",
                f"day-{day:03d}/run-{run_index:03d}",
                day=day,
                run_index=run_index,
                workload=workload.name,
                n_gpus=n,
                gpu_first=int(gpu_indices[0]),
                gpu_last=int(gpu_indices[-1]),
                solves=stats[i].solves,
                batches=stats[i].batches,
                measurements=measurement_digest(
                    performance[i], reported_freq[i], reported_power[i],
                    reported_temp[i],
                ),
            )
        tracer = obs.tracer
        if tracer is not None:
            _count_solver_work(tracer, stats[i])
            tracer.add("run.count", 1)
            tracer.add("run.gpus", n)
            tracer.record_span(
                "run",
                category="run",
                track=tracer.track,
                start_s=span_start,
                duration_s=time.perf_counter() - span_t0,
                workload=workload.name,
                day=day,
                run_index=run_index,
                n_gpus=n,
            )
        results.append(RunMeasurements(
            gpu_indices=gpu_indices.copy(),
            performance_ms=performance[i],
            frequency_mhz=reported_freq[i],
            power_w=reported_power[i],
            temperature_c=reported_temp[i],
            true_frequency_mhz=op.f_effective_mhz[i],
            true_power_w=op.power_w[i],
            true_temperature_c=op.temperature_c[i],
            power_capped=op.power_capped[i],
            thermally_capped=op.thermally_capped[i],
            solver_stats=stats[i],
        ))
    return results


#: The :class:`~repro.gpu.dvfs.SteadyOperatingPoint` fields, in order.
_OP_FIELDS = tuple(f.name for f in fields(SteadyOperatingPoint))


def _check_node_alignment(
    cluster: Cluster, workload: Workload, gpu_indices: np.ndarray
) -> None:
    width = cluster.topology.gpus_per_node
    if workload.n_gpus > width:
        raise SimulationError(
            f"workload wants {workload.n_gpus} GPUs per job but nodes have {width}"
        )
    if gpu_indices.shape[0] % workload.n_gpus:
        raise SimulationError(
            f"{gpu_indices.shape[0]} GPUs do not divide into jobs of "
            f"{workload.n_gpus}"
        )
    nodes = cluster.topology.node_of_gpu[gpu_indices]
    groups = nodes.reshape(-1, workload.n_gpus)
    if not np.all(groups == groups[:, :1]):
        raise SimulationError(
            "multi-GPU jobs must be allocated within single nodes "
            "(exclusive-node policy, Section III)"
        )


def _apply_bulk_synchronous(
    workload: Workload,
    unit_ms: np.ndarray,
    act_run: np.ndarray,
    dram0: float,
    solve,
    every: np.ndarray,
) -> tuple[np.ndarray, SteadyOperatingPoint]:
    """Bulk-synchronous multi-GPU semantics (ResNet/BERT, Section V).

    The job's iteration time is the slowest member plus the allreduce;
    early finishers busy-wait, so their *sustained* activity — and hence
    power and temperature — drops in proportion to their idle share.
    Arrays are ``(runs, n)``; returns the per-GPU iteration time and the
    re-settled operating point.
    """
    k = workload.n_gpus
    b = unit_ms.shape[0]
    groups = unit_ms.reshape(b, -1, k)
    jitter_amp = expected_max_of_normals(k)
    t_sync = (
        groups.max(axis=2) * (1.0 + workload.iteration_jitter_sigma * jitter_amp)
        + workload.sync_overhead_ms
    )
    t_node = np.repeat(t_sync, k, axis=1)

    duty = np.clip(unit_ms / t_node, 0.0, 1.0)
    act_eff = act_run * duty + WAIT_ACTIVITY * (1.0 - duty)
    return t_node, solve(every, act_eff, dram0 * duty)
