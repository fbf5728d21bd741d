"""Lookahead pricing: the engine against the eager reference loop.

The engine draws a job's runtime factors at placement but solves its
DVFS operating point only once the job's finish time could be the next
event — when the smallest pending ``start + floor`` reaches the heap
head (``<=``: at equal times a FINISH sorts ahead of a SUBMIT).  The
reference loop (``tests/sched/reference_engine.py``) prices every job
eagerly, one at a time, so any mis-ordered finish, any pricing on the
wrong day, and any stream drawn out of turn shows up as a differing
event log or record here.

Hypothesis varies trace seeds, arrival rates, diurnal shapes, bursts of
equal submit times, work down to one unit (floors on or near the next
event), traces that straddle a day boundary with jobs pending, every
shipped policy with backfill on and off, and a dithering AMD fleet
(Corona), whose zero floors keep the eager per-round path.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.obs import Tracer, activate
from repro.sched import (
    BackfillPolicy,
    EnergyCappedPolicy,
    FifoPolicy,
    HealthAwarePolicy,
    VariabilityAwarePolicy,
    event_log_lines,
    node_power_watts,
    run_schedule,
)
from repro.sched.trace import Job
from repro.sim.job import JobPricingRequest, draw_job_runtime
from repro.workloads import get_workload
from tests.sched.reference_engine import run_reference

#: Seconds per facility day (the engine's day index is ``t // DAY``).
DAY = 86_400.0


@functools.cache
def _cluster(name: str):
    scale = 0.25 if name == "longhorn" else 0.1
    return api.load_preset(name, seed=2022, scale=scale)


def _policy(key: str, backfill: bool, cluster):
    n = cluster.topology.n_nodes
    if key == "fifo":
        return BackfillPolicy() if backfill else FifoPolicy()
    if key == "variability-aware":
        scores = 1.0 + 0.1 * np.random.default_rng(11).random(n)
        return VariabilityAwarePolicy(scores, backfill=backfill)
    if key == "health-aware":
        from repro.obs.health import GRADES

        draw = np.random.default_rng(12).integers(0, len(GRADES), size=n)
        return HealthAwarePolicy(
            tuple(GRADES[g] for g in draw), backfill=backfill
        )
    node_power = node_power_watts(
        cluster.fleet_for_day(0).power_cap_w(None),
        cluster.topology.node_of_gpu,
        n,
    )
    return EnergyCappedPolicy(
        node_power,
        power_budget_w=float(node_power.sum()) * 0.5,
        gpus_per_node=cluster.topology.gpus_per_node,
        backfill=backfill,
    )


@st.composite
def scenarios(draw):
    cluster_name = draw(st.sampled_from(("longhorn", "longhorn", "corona")))
    lo = draw(st.sampled_from((1, 1, 5, 40)))
    hi = draw(st.sampled_from((1, 3, 40, 160)))
    diurnal = draw(st.booleans())
    config = api.TraceConfig(
        n_jobs=draw(st.integers(2, 24)),
        arrival_rate_per_hour=draw(st.sampled_from((60.0, 900.0, 5000.0))),
        gang_sizes=(1, 2, 4, 8),
        work_units_range=(lo, max(lo, hi)),
        seed=draw(st.integers(0, 2**16)),
        diurnal_amplitude=0.6 if diurnal else 0.0,
        day_of_week_weights=(
            (1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.4) if diurnal else None
        ),
    )
    # Bursts: snap submit times onto a coarse grid so several jobs share
    # one submit time.  Offsets park the trace just before midnight so
    # jobs placed on day d are still pending when day d + 1 begins.
    burst_s = draw(st.sampled_from((0.0, 0.0, 1.0, 30.0)))
    offset_s = draw(st.sampled_from((0.0, DAY - 20.0, 2 * DAY - 0.5)))
    policy = (draw(st.sampled_from(
        ("fifo", "variability-aware", "health-aware", "energy-capped")
    )), draw(st.booleans()))
    return cluster_name, config, burst_s, offset_s, policy


def _jobs(config, burst_s, offset_s) -> tuple[Job, ...]:
    jobs = api.generate_trace(config)
    if burst_s:
        jobs = tuple(
            dataclasses.replace(
                job,
                submit_time_s=float(np.floor(job.submit_time_s / burst_s))
                * burst_s,
            )
            for job in jobs
        )
    return tuple(
        dataclasses.replace(job, submit_time_s=job.submit_time_s + offset_s)
        for job in jobs
    )


def _assert_engines_agree(cluster, jobs, key, backfill):
    ref = run_reference(cluster, jobs, _policy(key, backfill, cluster))
    idx = run_schedule(cluster, jobs, _policy(key, backfill, cluster))
    assert event_log_lines(idx.events) == event_log_lines(ref.events)
    assert idx.records == ref.records
    return idx


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_lookahead_engine_matches_eager_reference(scenario):
    cluster_name, config, burst_s, offset_s, (key, backfill) = scenario
    cluster = _cluster(cluster_name)
    jobs = _jobs(config, burst_s, offset_s)
    _assert_engines_agree(cluster, jobs, key, backfill)


def test_finish_exactly_at_next_submit_prices_first():
    """The ``<=`` trigger, pinned on an exact tie.

    A one-GPU PageRank job runs at the top p-state, so its floor equals
    its runtime.  A second job submitted at exactly the first's finish
    time ties the floor with the heap head; only pricing *before* that
    pop lets the FINISH sort ahead of the SUBMIT, as the eager reference
    loop orders them.
    """
    cluster = _cluster("longhorn")
    policy = ("variability-aware", False)
    first = Job(job_id=0, submit_time_s=0.0, workload_name="pagerank",
                n_gpus=1, work_units=3)
    alone = run_reference(cluster, (first,), _policy(*policy, cluster))
    record = alone.records[0]
    draw = draw_job_runtime(
        cluster,
        JobPricingRequest(
            workload=get_workload("pagerank"),
            gpu_indices=np.asarray(record.gpu_indices),
            work_units=3,
            rng=cluster.rng_factory.child("sched-job-0").generator("run"),
        ),
        day=0,
    )
    assert draw.floor_s == record.runtime_s  # the tie is real
    finish = record.finish_time_s
    second = Job(job_id=1, submit_time_s=finish, workload_name="sgemm",
                 n_gpus=4, work_units=2)
    third = Job(job_id=2, submit_time_s=finish, workload_name="lammps",
                n_gpus=1, work_units=1)
    outcome = _assert_engines_agree(
        cluster, (first, second, third), *policy
    )
    kinds = [(e["event"], e["job"]) for e in outcome.events]
    assert kinds.index(("finish", 0)) < kinds.index(("submit", 1))


def test_pricing_is_deferred_and_batched():
    """Lookahead prices far fewer batches than there are placements."""
    cluster = _cluster("longhorn")
    jobs = api.generate_trace(
        api.TraceConfig(n_jobs=60, arrival_rate_per_hour=900.0, seed=5)
    )
    policy = _policy("variability-aware", True, cluster)
    tracer = Tracer()
    with activate(tracer):
        run_schedule(cluster, jobs, policy)
    assert tracer.counters["sched.placements"] == 60
    assert tracer.counters["sched.price_batches"] < 60 / 2
