"""The runtime floor of two-phase job pricing is a true lower bound.

:func:`~repro.sim.job.draw_job_runtime` bounds a job's runtime before
its DVFS solve by pricing it at the top p-state; the scheduler defers the
solve until that floor could reach the next event.  The bound must hold
bit for bit — ``floor_s <= runtime_s`` in IEEE doubles — for every gang,
workload and day, including the defective GPUs whose solve lands far
below the top of the ladder (POWER_DELIVERY caps, SICK_SLOW ceilings,
HOT_RUNNER thermal throttling) and chaos-scaled caps.  On dithering
fleets nothing can be drawn ahead and the floor is exactly zero.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import (
    FaultSchedule,
    InletTemperatureDrift,
    PowerCapDirective,
    Scenario,
    StuckPState,
    compile_plan,
)
from repro.cluster import get_preset
from repro.cluster.cluster import Cluster
from repro.cluster.cooling import AirCooling
from repro.cluster.topology import cabinet_topology
from repro.gpu.defects import DefectConfig, DefectType
from repro.gpu.silicon import SiliconConfig
from repro.gpu.specs import V100
from repro.sched.trace import PAPER_WORKLOAD_NAMES
from repro.sim.job import (
    JobPricingRequest,
    draw_job_runtime,
    sample_job_runtime,
    sample_job_runtimes,
)
from repro.workloads import get_workload

#: A workload for the AMD preset alongside the paper mix.
WORKLOADS = PAPER_WORKLOAD_NAMES + ("sgemm-amd",)


@functools.cache
def _defective_cluster(chaos: bool) -> Cluster:
    """48 V100s where roughly half the dies carry one of the three defects."""
    cluster = Cluster(
        name="Defective",
        spec=V100,
        topology=cabinet_topology(
            "Defective", 12, gpus_per_node=4, nodes_per_cabinet=3
        ),
        cooling=AirCooling(inlet_c=24.0, r_theta_base_c_per_w=0.16),
        silicon_config=SiliconConfig(voltage_offset_sigma=0.01),
        defect_config=DefectConfig(
            power_delivery_rate=0.18,
            sick_slow_rate=0.18,
            hot_runner_rate=0.18,
            hot_runner_resistance=(1.5, 2.2),
        ),
        seed=7,
    )
    if chaos:
        scenario = Scenario(
            name="floor-probe",
            description="scaled caps, a stuck node and a hot cabinet",
            faults=(
                PowerCapDirective(
                    schedule=FaultSchedule(onset_day=0, ramp_days=2),
                    power_cap_frac=0.7,
                ),
                StuckPState(
                    schedule=FaultSchedule(onset_day=1),
                    frequency_cap_frac=0.6,
                    scope="node",
                    index=2,
                ),
                InletTemperatureDrift(
                    schedule=FaultSchedule(onset_day=0),
                    drift_c=9.0,
                    scope="cabinet",
                    index=1,
                ),
            ),
        )
        cluster.set_fault_plan(compile_plan(scenario, cluster))
    return cluster


def test_defect_mix_covers_every_kind():
    defects = _defective_cluster(False).defects
    for kind in (DefectType.POWER_DELIVERY, DefectType.SICK_SLOW,
                 DefectType.HOT_RUNNER):
        assert defects.count(kind) >= 3


@st.composite
def batches(draw):
    n_gpus = _defective_cluster(False).topology.n_gpus
    jobs = []
    for job_id in range(draw(st.integers(1, 5))):
        gang = draw(st.lists(st.integers(0, n_gpus - 1), min_size=1,
                             max_size=8, unique=True))
        jobs.append((
            job_id,
            draw(st.sampled_from(WORKLOADS)),
            tuple(gang),
            draw(st.sampled_from((1, 2, 17, 400))),
        ))
    return draw(st.booleans()), draw(st.integers(0, 4)), jobs


def _request(cluster, job_id, workload, gang, units):
    return JobPricingRequest(
        workload=get_workload(workload),
        gpu_indices=np.asarray(gang, dtype=np.int64),
        work_units=units,
        rng=cluster.rng_factory.child(f"floor-job-{job_id}").generator("run"),
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(batches())
def test_floor_never_exceeds_priced_runtime(batch):
    chaos, day, jobs = batch
    cluster = _defective_cluster(chaos)
    draws = [
        draw_job_runtime(cluster, _request(cluster, *job), day=day)
        for job in jobs
    ]
    perfs = sample_job_runtimes(cluster, draws, day=day)
    for draw, perf in zip(draws, perfs):
        assert 0.0 < draw.floor_s <= perf.runtime_s
    # Drawing first changes nothing: the eager one-job path agrees.
    for job, perf in zip(jobs, perfs):
        job_id, workload, gang, units = job
        alone = sample_job_runtime(
            cluster, get_workload(workload), np.asarray(gang), day=day,
            work_units=units,
            rng=cluster.rng_factory.child(
                f"floor-job-{job_id}"
            ).generator("run"),
        )
        assert alone.runtime_s == perf.runtime_s
        assert alone.energy_j == perf.energy_j


def test_floor_is_tight_at_the_top_pstate():
    """A job that settles at the top p-state prices exactly at its floor."""
    cluster = get_preset("longhorn", seed=2022, scale=0.25)
    draw = draw_job_runtime(
        cluster, _request(cluster, 0, "pagerank", (4,), 3), day=0
    )
    (perf,) = sample_job_runtimes(cluster, [draw], day=0)
    assert draw.floor_s == perf.runtime_s


def test_dithering_fleet_floor_is_zero_and_stream_untouched():
    corona = get_preset("corona", seed=11, scale=0.1)
    request = _request(corona, 3, "sgemm-amd", (0, 1), 25)
    state = request.rng.bit_generator.state
    draw = draw_job_runtime(corona, request, day=1)
    assert draw.floor_s == 0.0
    assert draw.normals is None
    assert request.rng.bit_generator.state == state
    (perf,) = sample_job_runtimes(corona, [draw], day=1)
    alone = sample_job_runtime(
        corona, get_workload("sgemm-amd"), np.asarray([0, 1]), day=1,
        work_units=25,
        rng=corona.rng_factory.child("floor-job-3").generator("run"),
    )
    assert perf.runtime_s == alone.runtime_s
