"""The per-run simulator: the test oracle of grouped run execution.

:func:`simulate_run` is one run simulated alone, with its own DVFS solves
— the way every run executed before the runs of one (day, shard) were
grouped into one batched solve per step
(:func:`repro.sim.run._simulate_runs`).  The grouped path must reproduce
it bit for bit: measurements, draws, and every observer hook.
:func:`per_run_groups` patches the campaign executor so each task runs
alone through this oracle, the way the per-run executor ran it.
"""

from __future__ import annotations

import contextlib
import time
from contextlib import ExitStack
from unittest import mock

import numpy as np

from repro.cluster.cluster import Cluster
from repro.errors import SimulationError
from repro.obs.observer import activate, active_observer
from repro.obs.timeline import measurement_digest
from repro.sim import parallel
from repro.sim.campaign import _to_datasets
from repro.sim.run import (
    RUN_COOLANT_SIGMA_LOCAL,
    RUN_COOLANT_SIGMA_SHARED,
    RunMeasurements,
    _check_node_alignment,
    expected_max_of_normals,
    run_rng_label,
)
from repro.telemetry.sample import SensorModel
from repro.workloads.base import WAIT_ACTIVITY, Workload


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


def execute_group_per_run(cluster, workload, power_limit_w, tasks, shards):
    """Drop-in for ``parallel._execute_group``: every task on its own.

    Each task runs through the oracle :func:`simulate_run` under its
    activated shard observer, inside a ``shard`` span — the per-run
    executor's shape.
    """
    outputs = []
    for task, shard in zip(tasks, shards):
        with ExitStack() as stack:
            if shard.sinks():
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
            started = time.perf_counter()
            rng, offset = parallel._task_streams(cluster, workload, task)
            result = simulate_run(
                cluster,
                workload,
                day=task.day,
                run_index=task.run_index,
                gpu_indices=task.gpu_indices,
                power_limit_w=power_limit_w,
                rng=rng,
                coolant_shared_offset_c=offset,
            )
            (dataset,) = _to_datasets(
                cluster, workload, [task.day], [task.run_index], [result]
            )
            duration = time.perf_counter() - started
        outputs.append(
            (dataset, duration, result.solver_stats, shard.to_payload())
        )
    return outputs


@contextlib.contextmanager
def per_run_groups():
    """Run every campaign in the block one task at a time on the oracle.

    In-process executors only (serial and thread backends, or a forked
    process pool created inside the block).
    """
    with mock.patch.object(parallel, "_execute_group", execute_group_per_run):
        yield
