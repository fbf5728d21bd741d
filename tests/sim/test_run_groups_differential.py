"""Grouped run execution against the per-run oracle, searched by Hypothesis.

The campaign executor runs the runs of consecutive days of one shard as
one group (up to 8,192 rows) and settles each of the group's DVFS solve
steps in one batched solve (:func:`repro.sim.run._simulate_runs`).  The
oracle (``tests/sim/run_oracle.py``) executes every task alone through
the per-run simulator.  Over presets (Corona's dithering policy and
full-scale Longhorn, whose days split on the row budget, included),
workloads (single-GPU, bulk-synchronous multi-GPU, and pathological
re-solves), days, runs per day, partial coverage, within-run GPU shards,
chaos scenarios and every executor backend, the two must agree bit for
bit on everything a campaign emits: the dataset, the Prometheus
exposition, the health report, the flight-recorder timeline and the
tracer's deterministic counters and span structure.  The one difference
allowed is the point of grouping: fewer solver batches, wherever batches
are counted.
"""

from __future__ import annotations

import dataclasses
import functools
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.api import monitor_fleet
from repro.chaos import (
    CoolantPumpDegradation,
    FaultSchedule,
    NodeLoss,
    PowerCapDirective,
    Scenario,
    StuckPState,
    compile_plan,
)
from repro.cluster import cloudlab, corona, longhorn, summit, vortex
from repro.obs import TimelineRecorder, Tracer
from repro.obs.health import HealthPolicy
from repro.obs.metrics import MonitorConfig, render_prometheus
from repro.obs.timeline import timeline_lines
from repro.sim import CampaignConfig, ParallelConfig, plan_shards
from repro.sim.parallel import _group_plan
from repro.telemetry import CampaignProgress
from repro.telemetry.io import dataset_to_csv_text
from repro.workloads import bert_pretraining, resnet50, sgemm
from repro.workloads.sgemm import SGEMM_N_AMD

from .run_oracle import per_run_groups

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SETTINGS = settings(
    max_examples=14, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PRESETS = {
    "longhorn": lambda: longhorn(seed=5, scale=0.25),
    "longhorn-full": lambda: longhorn(seed=5),
    "summit": lambda: summit(seed=5, scale=0.0625),
    "corona": lambda: corona(seed=5, scale=0.3),
    "vortex": lambda: vortex(seed=5, scale=0.34),
    "cloudlab": lambda: cloudlab(seed=5),
}


#: One fault day (day 1) of each effect channel, or none.
DAY_ONE = FaultSchedule(onset_day=1, recovery_day=2)
CHAOS = {
    "none": (),
    "cap-day": (
        PowerCapDirective(DAY_ONE, power_cap_frac=0.8),
        StuckPState(DAY_ONE, frequency_cap_frac=0.7, scope="node", index=0),
    ),
    "node-loss-day": (NodeLoss(DAY_ONE, scope="node", index=0),),
    "coolant": (
        CoolantPumpDegradation(FaultSchedule(onset_day=1, ramp_days=1),
                               coolant_rise_c=4.0),
    ),
}


@functools.cache
def cluster_of(name: str, chaos: str = "none"):
    cluster = PRESETS[name]()
    if CHAOS[chaos]:
        scenario = Scenario(name=chaos, description="differential probe",
                            faults=CHAOS[chaos])
        cluster.set_fault_plan(compile_plan(scenario, cluster))
    return cluster


def workload_of(kind: str, cluster):
    if kind == "sgemm":
        return sgemm(n=SGEMM_N_AMD) if cluster.name == "Corona" else sgemm()
    if kind == "bert":
        return bert_pretraining(n_gpus=2)
    if kind == "resnet":
        return resnet50(n_gpus=2)
    # A pathological rate high enough that most groups mix stalled and
    # clean runs: single-GPU runs re-solve, multi-GPU ones re-feed the
    # bulk-synchronous solve.
    n_gpus = 1 if kind == "stalls-1" else 2
    return dataclasses.replace(
        resnet50(n_gpus=n_gpus, batch_size=16 * n_gpus),
        pathological_run_rate=0.25,
    )


EXECUTORS = {
    "serial": {},
    "thread-2": {"workers": 2, "backend": "thread"},
    "process-2": {"workers": 2, "backend": "process"},
}


def observed_campaign(cluster, workload, config, parallel):
    """Everything one monitored, traced, recorded campaign emits."""
    tracer = Tracer()
    timeline = TimelineRecorder()
    progress = CampaignProgress()
    result = monitor_fleet(
        cluster=cluster,
        workload=workload,
        config=config,
        parallel=parallel,
        policy=HealthPolicy(window_runs=3),
        monitor_config=MonitorConfig(window_runs=3),
        progress=progress,
        tracer=tracer,
        timeline=timeline,
    )
    return result, tracer, timeline, progress


def without_batches(recorder: TimelineRecorder) -> list[str]:
    """Timeline lines with every ``batches`` payload field dropped."""
    lines = timeline_lines(recorder)
    out = lines[:1]
    for line in lines[1:]:
        doc = json.loads(line)
        doc.get("payload", {}).pop("batches", None)
        out.append(json.dumps(doc, sort_keys=True))
    return out


@SETTINGS
@given(
    preset=st.sampled_from(sorted(PRESETS)),
    kind=st.sampled_from(["sgemm", "bert", "resnet", "stalls-1", "stalls-2"]),
    days=st.integers(1, 6),
    runs_per_day=st.integers(1, 5),
    coverage=st.sampled_from([1.0, 0.75, 0.5]),
    shards=st.sampled_from([None, 2, 3]),
    executor=st.sampled_from(sorted(EXECUTORS)),
    chaos=st.sampled_from(sorted(CHAOS)),
)
# Full-scale Longhorn: 4 runs x 416 GPUs = 1,664 rows a day, so six days
# split on the 8,192-row budget into groups of 4 + 2 days.
@example(preset="longhorn-full", kind="sgemm", days=6, runs_per_day=4,
         coverage=1.0, shards=None, executor="serial", chaos="none")
# Two Vortex days in one group: a fixed-point counter that charged frozen
# cells riding along in the batch's working set differed here.
@example(preset="vortex", kind="sgemm", days=2, runs_per_day=3,
         coverage=1.0, shards=3, executor="process-2", chaos="none")
def test_grouped_execution_matches_per_run_oracle(
    preset, kind, days, runs_per_day, coverage, shards, executor, chaos
):
    cluster = cluster_of(preset, chaos)
    workload = workload_of(kind, cluster)
    config = CampaignConfig(
        days=days, runs_per_day=runs_per_day, coverage=coverage
    )
    # About ``shards`` node-aligned GPU shards per run, whatever the fleet.
    bound = None if shards is None else max(1, cluster.n_gpus // shards)
    with per_run_groups():
        expected = observed_campaign(
            cluster, workload, config, ParallelConfig(max_gpus_per_shard=bound)
        )
    actual = observed_campaign(
        cluster, workload, config,
        ParallelConfig(max_gpus_per_shard=bound, **EXECUTORS[executor]),
    )
    (want, want_tracer, want_timeline, want_progress) = expected
    (got, got_tracer, got_timeline, got_progress) = actual

    assert dataset_to_csv_text(got.dataset) == dataset_to_csv_text(
        want.dataset
    )
    assert render_prometheus(got.monitor) == render_prometheus(want.monitor)
    assert got.report.render() == want.report.render()
    assert json.dumps(got.report.to_dict(), sort_keys=True) == json.dumps(
        want.report.to_dict(), sort_keys=True
    )
    assert without_batches(got_timeline) == without_batches(want_timeline)

    got_counters = got_tracer.deterministic_counters()
    want_counters = want_tracer.deterministic_counters()
    got_batches = got_counters.pop("solver.batches")
    want_batches = want_counters.pop("solver.batches")
    assert got_counters == want_counters
    assert got_tracer.span_index() == want_tracer.span_index()

    got_stats = got_progress.solver_stats
    want_stats = want_progress.solver_stats
    for name in ("solves", "dense_cells", "columns_evaluated",
                 "fixed_point_iterations"):
        assert getattr(got_stats, name) == getattr(want_stats, name), name
    assert got_stats.batches == got_batches
    assert want_stats.batches == want_batches
    groups = _group_plan(
        plan_shards(cluster, workload, config,
                    ParallelConfig(max_gpus_per_shard=bound)),
        merge_days=chaos == "none",
    )
    if cluster.fleet.policy.dither or all(len(g) == 1 for g in groups):
        # Dithering draws inside the solve (one run per batch), and a
        # lone run has nothing to batch with.
        assert got_batches == want_batches
    else:
        assert got_batches < want_batches
