"""Energy settles once per placement day, after the dispatch loop.

The engine prices each batch's runtimes in one DVFS solve and leaves its
energy for later: no decision reads it.  After the loop, the multi-GPU
gangs of every batch placed on one day settle at their duty-adjusted load
in one more solve.  So a run's solver batches are its price batches, one
per day that placed a multi-GPU gang, and one reference solve per
(workload, day) table.  A dithering fleet (Corona) keeps pricing each job
alone: one solve per job and a second per multi-GPU job.

The traces straddle midnight so that two days settle apart, and the
records (energy included) must equal the eager reference loop's.
"""

from __future__ import annotations

import dataclasses
import functools

from repro import api
from repro.obs import Tracer, activate
from repro.sched import FifoPolicy, run_schedule
from tests.sched.reference_engine import run_reference

DAY = 86_400.0


@functools.cache
def _cluster(name: str):
    return api.load_preset(
        name, seed=2022, scale=0.25 if name == "longhorn" else 0.1
    )


def _traced_run(name: str):
    cluster = _cluster(name)
    jobs = api.generate_trace(
        api.TraceConfig(
            n_jobs=40,
            arrival_rate_per_hour=60.0,
            gang_sizes=(1, 2, 4, 8),
            seed=3,
        )
    )
    # Start half an hour before midnight: the trace runs into day 1.
    jobs = tuple(
        dataclasses.replace(job, submit_time_s=job.submit_time_s + DAY - 1800)
        for job in jobs
    )
    tracer = Tracer()
    with activate(tracer):
        outcome = run_schedule(cluster, jobs, FifoPolicy())
    assert outcome.records == run_reference(
        cluster, jobs, FifoPolicy()
    ).records

    def day(record) -> int:
        return int(record.start_time_s // DAY)

    multi_days = {day(r) for r in outcome.records if r.n_gpus > 1}
    assert multi_days == {0, 1}
    tables = {(r.workload_name, day(r)) for r in outcome.records}
    return outcome, tracer.counters, multi_days, tables


def test_energy_settles_once_per_day():
    _, counters, multi_days, tables = _traced_run("longhorn")
    # Several batches per day, so one settle per day saves solves.
    assert counters["sched.price_batches"] > 2 * len(multi_days)
    assert counters["solver.batches"] == (
        counters["sched.price_batches"] + len(multi_days) + len(tables)
    )


def test_dithering_fleet_prices_each_job_alone():
    outcome, counters, _, tables = _traced_run("corona")
    multi_jobs = sum(r.n_gpus > 1 for r in outcome.records)
    assert counters["solver.batches"] == (
        len(outcome.records) + multi_jobs + len(tables)
    )
