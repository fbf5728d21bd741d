"""Simulate one measurement run of a workload across cluster GPUs.

A *run* follows the paper's protocol (Sections III-V): allocate GPUs
exclusively, execute the workload long enough for DVFS to settle, and
record the per-GPU medians of performance, frequency, power, and
temperature through the profiler's sensor path.

The simulation is fully vectorized over the participating GPUs:

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
from dataclasses import dataclass

import numpy as np

from ..cluster.cluster import Cluster
from ..config import require
from ..errors import SimulationError
from ..gpu.dvfs import SolverStats
from ..obs.observer import active_observer
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
    """
    if power_limit_w is not None and not cluster.admin_access:
        raise SimulationError(
            f"cluster {cluster.name} does not grant administrative access; "
            "power limits cannot be set (Section VI-B used CloudLab for this)"
        )
    if gpu_indices is None:
        gpu_indices = np.arange(cluster.n_gpus)
    else:
        gpu_indices = np.asarray(gpu_indices)
    if workload.is_multi_gpu:
        _check_node_alignment(cluster, workload, gpu_indices)

    obs = active_observer()
    tracer = obs.tracer
    if tracer is not None:
        span_start = time.time()
        span_t0 = time.perf_counter()

    sensor = sensor if sensor is not None else SensorModel()
    # Memoized per (day, shard): the day's facility conditions and the
    # silicon/thermal re-slicing are shared by every run of the same shard.
    fleet = cluster.fleet_slice(day, gpu_indices)
    n = fleet.n

    if rng is None:
        rng = cluster.rng_factory.child(
            run_rng_label(workload, day, run_index)
        ).generator("run")

    # Run-level thermal environment fluctuation.
    if coolant_shared_offset_c is None:
        coolant_shared_offset_c = rng.normal(0.0, RUN_COOLANT_SIGMA_SHARED)
    coolant = (
        fleet.coolant_c
        + coolant_shared_offset_c
        + rng.normal(0.0, RUN_COOLANT_SIGMA_LOCAL, size=n)
    )
    fleet = fleet.with_coolant(coolant)

    spec = fleet.spec
    act0, dram0 = workload.steady_load(
        spec.f_max_mhz, spec.compute_throughput, spec.mem_bandwidth_gbs
    )

    # Software factors: correlated speed / activity draws (Section V-A).
    corr = np.sqrt(workload.activity_speed_correlation)
    z_shared = rng.normal(size=n)
    z_speed = corr * z_shared + np.sqrt(1 - corr**2) * rng.normal(size=n)
    z_act = corr * z_shared + np.sqrt(1 - corr**2) * rng.normal(size=n)
    time_multiplier = np.exp(workload.run_speed_sigma * z_speed)
    activity_multiplier = np.exp(-workload.activity_mix_sigma * z_act)
    act_run = np.clip(act0 * activity_multiplier, 0.02, 1.0)

    efficiency = fleet.throughput_efficiency()
    cap = fleet.power_cap_w(power_limit_w)
    f_cap = fleet.frequency_cap_mhz()

    op = fleet.controller.solve_steady(
        act_run, dram0, efficiency, power_cap_w=cap, f_cap_mhz=f_cap, rng=rng
    )

    bw = fleet.memory_bandwidth_gbs()
    drift = 1.0 + rng.normal(0.0, cluster.run_noise_sigma, size=n)
    unit_ms = (
        workload.unit_time_ms(
            op.f_effective_mhz, spec.compute_throughput, bw, efficiency
        )
        * time_multiplier
        * np.clip(drift, 0.5, 1.5)
    )

    # Rare pathological runs: a stalled input pipeline or contended
    # filesystem drags the whole job while its GPUs sit near idle (the
    # extreme 3.5x ML stragglers at 76 W).  Drawn per job, so every GPU
    # of a multi-GPU job shares the event.
    path_mult = np.ones(n)
    if workload.pathological_run_rate > 0.0:
        k = workload.n_gpus
        n_jobs = n // k
        hit = rng.random(n_jobs) < workload.pathological_run_rate
        lo, hi = workload.pathological_slowdown
        job_mult = np.where(hit, rng.uniform(lo, hi, size=n_jobs), 1.0)
        path_mult = np.repeat(job_mult, k)
        unit_ms = unit_ms * path_mult
        # A stalled job barely exercises the GPU.
        act_run = np.clip(act_run / path_mult, 0.02, 1.0)
        if not workload.is_multi_gpu and hit.any():
            op = fleet.controller.solve_steady(
                act_run, dram0, efficiency, power_cap_w=cap,
                f_cap_mhz=f_cap, rng=rng,
            )

    true_power = op.power_w
    true_temp = op.temperature_c
    if workload.is_multi_gpu:
        unit_ms, true_power, true_temp, op = _apply_bulk_synchronous(
            fleet, workload, unit_ms, act_run, dram0, efficiency, cap, f_cap,
            rng, op
        )
    else:
        jitter_amp = expected_max_of_normals(1)
        unit_ms = unit_ms * (1.0 + workload.iteration_jitter_sigma * jitter_amp)

    # Median-over-units estimation noise; shared within a node for
    # bulk-synchronous jobs because the iteration time itself is shared.
    median_noise = rng.normal(
        0.0, 0.003 / np.sqrt(workload.units_per_run), size=n
    )
    if workload.is_multi_gpu:
        k = workload.n_gpus
        median_noise = np.repeat(median_noise.reshape(-1, k)[:, 0], k)
    performance = unit_ms * (1.0 + median_noise)

    reported_power = sensor.read_power(
        true_power, fleet.silicon.power_sensor_gain, rng
    )
    reported_temp = sensor.read_temperature(true_temp, rng)
    reported_freq = sensor.read_frequency(
        op.f_reported_mhz, spec.pstate_array()
    )

    monitor = obs.monitor
    if monitor is not None:
        # Reported values only, after everything that feeds the result is
        # computed — the monitor observes, it cannot perturb.
        monitor.observe_run(
            day=day,
            run_index=run_index,
            gpu_indices=gpu_indices,
            performance_ms=performance,
            frequency_mhz=reported_freq,
            power_w=reported_power,
            temperature_c=reported_temp,
            power_capped=op.power_capped,
            thermally_capped=op.thermally_capped,
        )
    recorder = obs.recorder
    if recorder is not None:
        # Like the monitor: observe only, after everything feeding the
        # result is computed.  No wall-clock — the digest covers the raw
        # reported arrays bit-exactly, so a replayed timeline can attest
        # that the measurements it describes are the measurements produced.
        stats = fleet.controller.stats
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
            solves=stats.solves,
            batches=stats.batches,
            measurements=measurement_digest(
                performance, reported_freq, reported_power, reported_temp
            ),
        )
    if tracer is not None:
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
    return RunMeasurements(
        gpu_indices=gpu_indices.copy(),
        performance_ms=performance,
        frequency_mhz=reported_freq,
        power_w=reported_power,
        temperature_c=reported_temp,
        true_frequency_mhz=op.f_effective_mhz,
        true_power_w=true_power,
        true_temperature_c=true_temp,
        power_capped=op.power_capped,
        thermally_capped=op.thermally_capped,
        # The run's controller is private to this run (with_coolant builds
        # it), so its counters are exactly this run's solver work.
        solver_stats=fleet.controller.stats.copy(),
    )


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
    fleet,
    workload: Workload,
    unit_ms: np.ndarray,
    act_run: np.ndarray,
    dram0: float,
    efficiency: np.ndarray,
    cap: np.ndarray,
    f_cap: np.ndarray,
    rng: np.random.Generator,
    op,
):
    """Bulk-synchronous multi-GPU semantics (ResNet/BERT, Section V).

    The job's iteration time is the slowest member plus the allreduce;
    early finishers busy-wait, so their *sustained* activity — and hence
    power and temperature — drops in proportion to their idle share.
    """
    k = workload.n_gpus
    groups = unit_ms.reshape(-1, k)
    jitter_amp = expected_max_of_normals(k)
    t_sync = (
        groups.max(axis=1) * (1.0 + workload.iteration_jitter_sigma * jitter_amp)
        + workload.sync_overhead_ms
    )
    t_node = np.repeat(t_sync, k)

    duty = np.clip(unit_ms / t_node, 0.0, 1.0)
    act_eff = act_run * duty + WAIT_ACTIVITY * (1.0 - duty)
    op2 = fleet.controller.solve_steady(
        act_eff, dram0 * duty, efficiency, power_cap_w=cap, f_cap_mhz=f_cap,
        rng=rng
    )
    return t_node, op2.power_w, op2.temperature_c, op2
