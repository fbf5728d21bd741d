"""The top-clock certificate is sound, and it is not vacuous.

:meth:`~repro.gpu.dvfs.DvfsController.certify_top` decides without a
fixed point that a GPU settles at the top p-state; the scheduler then
pushes the job's finish at ``start + floor_s`` and never solves for it
before the job's records are built.  The certificate must never pass a
row the solver would throttle, under everything that moves a GPU off the
top: SICK_SLOW and chaos boost ceilings, POWER_DELIVERY and chaos power
caps, administrative power limits, activity clipped at either end of its
range, and coolant far out in the run draw's tail.  A certified row must
settle at the top rung with every ladder cell feasible; a certified
gang's batch-priced runtime must equal its floor bit for bit; and asking
with ``rows``/``coolant_c`` must equal asking a gathered controller.
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
from repro.sched.trace import PAPER_WORKLOAD_NAMES
from repro.sim.job import (
    JobPricingRequest,
    _certify_top,
    _job_spans,
    _run_rows,
    draw_job_runtime,
    sample_job_runtimes,
)
from repro.workloads import get_workload

CLUSTERS = ("Summit", "Longhorn", "Vortex")


@functools.cache
def _cluster(name: str, chaos: bool):
    cluster = get_preset(name, seed=2022, scale=0.1)
    if chaos:
        scenario = Scenario(
            name="certificate-probe",
            description="scaled caps, a stuck node and a hot cabinet",
            faults=(
                PowerCapDirective(
                    schedule=FaultSchedule(onset_day=0, ramp_days=2),
                    power_cap_frac=0.75,
                ),
                StuckPState(
                    schedule=FaultSchedule(onset_day=0),
                    frequency_cap_frac=0.8,
                    scope="node",
                    index=1,
                ),
                InletTemperatureDrift(
                    schedule=FaultSchedule(onset_day=1),
                    drift_c=12.0,
                    scope="cabinet",
                    index=0,
                ),
            ),
        )
        cluster.set_fault_plan(compile_plan(scenario, cluster))
    return cluster


@st.composite
def populations(draw):
    fleet = _cluster(
        draw(st.sampled_from(CLUSTERS)), draw(st.booleans())
    ).fleet_for_day(draw(st.integers(0, 3)))
    m = draw(st.integers(1, 16))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=m, max_size=m)))

    rows = column(st.integers(0, fleet.n - 1))
    # Draws outside [0.02, 1.0] clip onto its ends, as run activity does.
    activity = np.clip(column(st.floats(-0.1, 1.3)), 0.02, 1.0)
    dram = column(st.floats(0.0, 1.0))
    coolant = (
        fleet.coolant_c[rows]
        + draw(st.sampled_from((0.0, -8.0, 6.0, 15.0, 30.0)))
        + column(st.floats(-3.0, 3.0))
    )
    limit = draw(st.sampled_from((None, None, 250.0, 160.0, 90.0)))
    ceiling = column(st.sampled_from((1.0, 1.0, 1.0, 0.98, 0.7)))
    return fleet, rows, coolant, (
        activity,
        dram,
        fleet.arrays.efficiency[rows],
        fleet.power_cap_w(limit)[rows],
        fleet.frequency_cap_mhz()[rows] * ceiling,
    )


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(populations())
def test_a_certified_row_settles_at_the_top(population):
    fleet, rows, coolant, (act, dram, eff, cap, f_cap) = population
    kwargs = dict(power_cap_w=cap, f_cap_mhz=f_cap)
    passed = fleet.controller.certify_top(
        act, dram, eff, rows=rows, coolant_c=coolant, **kwargs
    )
    sub, _ = fleet.solver_at(rows, coolant)
    assert np.array_equal(passed, sub.certify_top(act, dram, eff, **kwargs))
    top = sub.pstates().shape[0] - 1
    op = sub.solve_steady(act, dram, eff, **kwargs)
    assert (op.pstate_index[passed] == top).all()
    # The proof's stronger claim: every cell of a certified row is
    # feasible, not just the one the search happens to settle.
    p, t = sub.power_grid(act, dram, eff)
    t_limit = fleet.spec.t_slowdown_c - sub.policy.thermal_headroom_c
    assert (p[passed] <= cap[passed, None]).all()
    assert (t[passed] <= t_limit).all()


@st.composite
def batches(draw):
    cluster = _cluster(draw(st.sampled_from(CLUSTERS)), draw(st.booleans()))
    n_gpus = cluster.topology.n_gpus
    jobs = []
    for job_id in range(draw(st.integers(1, 6))):
        gang = draw(st.lists(st.integers(0, n_gpus - 1), min_size=1,
                             max_size=8, unique=True))
        jobs.append((
            job_id,
            draw(st.sampled_from(PAPER_WORKLOAD_NAMES)),
            np.asarray(gang),
            draw(st.sampled_from((1, 3, 40, 400))),
        ))
    return cluster, draw(st.integers(0, 3)), jobs


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(batches())
def test_a_certified_gang_prices_at_its_floor(batch):
    cluster, day, jobs = batch
    draws = [
        draw_job_runtime(
            cluster,
            JobPricingRequest(
                workload=get_workload(workload),
                gpu_indices=gang,
                work_units=units,
                rng=cluster.rng_factory.child(
                    f"certificate-job-{job_id}"
                ).generator("run"),
            ),
            day=day,
        )
        for job_id, workload, gang, units in jobs
    ]
    passed = _certify_top(cluster, draws, day)
    perfs = sample_job_runtimes(cluster, draws, day=day)
    for draw, perf, ok in zip(draws, perfs, passed.tolist()):
        if ok:
            assert perf.runtime_s == draw.floor_s


def test_quarter_summit_certifies_most_top_rows():
    """On the machine of the scheduling benchmark the certificate is tight.

    One-GPU jobs of every paper workload, spread over quarter Summit: at
    their run draws' activity and coolant, almost every GPU that settles
    at the top is certified.  SGEMM alone never reaches the top clock
    there (its fleet is power-capped), so the mix carries the check.
    """
    cluster = get_preset("Summit", seed=0, scale=0.25)
    fleet = cluster.fleet_for_day(0)
    draws = [
        draw_job_runtime(
            cluster,
            JobPricingRequest(
                workload=get_workload(name),
                gpu_indices=np.array([gpu]),
                work_units=10,
                rng=cluster.rng_factory.child(
                    f"certificate-{name}-{gpu}"
                ).generator("run"),
            ),
        )
        for name in PAPER_WORKLOAD_NAMES
        for gpu in range(0, fleet.n, 16)
    ]
    passed = _certify_top(cluster, draws, 0)
    rows = _run_rows(fleet, draws, _job_spans(draws)[1])
    sub, arrays = fleet.solver_at(rows.concat, rows.coolant)
    op = sub.solve_steady(
        rows.act_run, rows.dram0_row, arrays.efficiency,
        power_cap_w=arrays.power_cap_w, f_cap_mhz=arrays.f_cap_mhz,
    )
    top = op.pstate_index == fleet.spec.n_pstates - 1
    assert not passed[~top].any()
    assert top.sum() > len(draws) // 2
    assert passed.sum() >= 0.9 * top.sum()

