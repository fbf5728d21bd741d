"""Pinned solver counters of grouped run execution.

The runs of consecutive days of one shard settle in one batched DVFS
solve per step, up to 8,192 rows a group, so a campaign takes one solver
batch per group where the per-run executor (``tests/sim/run_oracle.py``)
took one per run, while every per-GPU work counter stays exactly where
that executor left it.  Batch-level work is charged to the first run of
each group's first day; everything else to the run whose rows it solved.
Two pinned cases outside the differential's search: power-limited
groups, and ``simulate_run`` as the one-run group.
"""

from __future__ import annotations

from repro.cluster import longhorn
from repro.obs import TimelineRecorder, Tracer
from repro.obs.metrics import FleetMonitor
from repro.sim import CampaignConfig, run_campaign, simulate_run
from repro.telemetry import CampaignProgress
from repro.telemetry.io import dataset_to_csv_text
from repro.workloads import resnet50, sgemm

from .run_oracle import per_run_groups
from .run_oracle import simulate_run as oracle_run

#: 3 days x 4 runs x 96 GPUs of the quarter-scale Longhorn: 1,152 rows,
#: so the whole campaign is one group.
CONFIG = CampaignConfig(days=3, runs_per_day=4)


def monitored(cluster):
    progress = CampaignProgress()
    monitor = FleetMonitor()
    timeline = TimelineRecorder()
    run_campaign(
        cluster, sgemm(), CONFIG, progress=progress, monitor=monitor,
        timeline=timeline,
    )
    return progress, monitor, timeline


def test_a_campaign_takes_one_batch_per_group(small_longhorn):
    with per_run_groups():
        before, before_monitor, _ = monitored(small_longhorn)
    after, after_monitor, _ = monitored(small_longhorn)
    old, new = before.solver_stats, after.solver_stats
    assert old.batches == CONFIG.days * CONFIG.runs_per_day
    assert new.batches == 1
    assert (new.solves, new.dense_cells, new.columns_evaluated,
            new.fixed_point_iterations) == (
        old.solves, old.dense_cells, old.columns_evaluated,
        old.fixed_point_iterations)
    # The monitor still sees one solve per run.
    runs = CONFIG.days * CONFIG.runs_per_day
    for monitor in (before_monitor, after_monitor):
        assert monitor.registry.counter("solver_solves_total") == runs


def test_batch_work_is_charged_to_the_first_run_of_each_group(
    small_longhorn,
):
    progress, _, timeline = monitored(small_longhorn)
    n = small_longhorn.n_gpus
    for timing in progress.timings:
        stats = timing.solver
        assert (stats.solves, stats.dense_cells) == (
            n, n * small_longhorn.spec.n_pstates
        )
        # The one group's lead: the first run of its first day.
        lead = (timing.day, timing.run_index) == (0, 0)
        assert stats.batches == int(lead)
        assert (stats.columns_evaluated > 0) == lead
        assert (stats.fixed_point_iterations > 0) == lead
    runs = [e for e in timeline.events() if (e.layer, e.kind) == ("sim", "run")]
    assert len(runs) == CONFIG.days * CONFIG.runs_per_day
    assert [e.value("batches") for e in runs] == [1] + [0] * (len(runs) - 1)
    end = next(e for e in timeline.events() if e.kind == "campaign_end")
    assert end.value("batches") == 1


def test_day_spans_of_a_group_name_the_days_they_share():
    # Full Longhorn at 4 runs a day is 1,664 rows a day, so days 0-3
    # settle as one group of 6,656 rows and days 4-5 as another.
    tracer = Tracer()
    run_campaign(
        longhorn(seed=0), sgemm(), CampaignConfig(days=6, runs_per_day=4),
        tracer=tracer,
    )
    days = {
        dict(span.args)["day"]: span
        for span in tracer.spans if span.name == "day"
    }
    assert sorted(days) == list(range(6))
    for day, span in days.items():
        shared = (0, 1, 2, 3) if day < 4 else (4, 5)
        assert dict(span.args)["group_days"] == shared
        # The interval is the group's, not a per-day timing.
        lead = days[shared[0]]
        assert (span.start_s, span.duration_s) == (
            lead.start_s, lead.duration_s
        )


def test_a_day_simulated_alone_has_no_group_days(small_longhorn):
    tracer = Tracer()
    run_campaign(small_longhorn, sgemm(), CampaignConfig(days=1),
                 tracer=tracer)
    (day,) = [span for span in tracer.spans if span.name == "day"]
    assert "group_days" not in dict(day.args)


def test_power_limited_groups_match_the_oracle(tiny_cloudlab):
    # Administrative power limits (Section VI-B) only run on CloudLab;
    # the grouped cap must be each run's own, bit for bit.
    config = CampaignConfig(days=2, runs_per_day=3, power_limit_w=150.0)
    with per_run_groups():
        expected = run_campaign(tiny_cloudlab, sgemm(), config)
    actual = run_campaign(tiny_cloudlab, sgemm(), config)
    assert dataset_to_csv_text(actual) == dataset_to_csv_text(expected)
    assert actual["power_capped"].any()


def test_a_lone_run_is_the_oracle_run(small_longhorn):
    # simulate_run is the one-run group, down to its solver counters.
    for workload in (sgemm(), resnet50()):
        got = simulate_run(small_longhorn, workload, day=1, run_index=2)
        want = oracle_run(small_longhorn, workload, day=1, run_index=2)
        for name in ("performance_ms", "frequency_mhz", "power_w",
                     "temperature_c", "true_frequency_mhz", "true_power_w",
                     "true_temperature_c", "power_capped",
                     "thermally_capped"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.solver_stats == want.solver_stats
