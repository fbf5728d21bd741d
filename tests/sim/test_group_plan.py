"""The execution-group planner: which runs settle in one batched solve.

A group is the runs of consecutive days of one shard (same GPUs), up to
8,192 rows (runs x GPUs) unless one day alone is larger, and no day is
merged while a chaos fault plan is active.  The planner is searched over
synthetic shard plans; the campaign is checked to hand every executor
(serial, ``thread`` and ``process`` at 1-3 workers) the same groups, and
the plan shapes the docs quote are pinned.
"""

from __future__ import annotations

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import CoolantPumpDegradation, FaultSchedule, Scenario
from repro.chaos import compile_plan
from repro.cluster import longhorn, summit
from repro.sim import CampaignConfig, ParallelConfig, plan_shards, run_campaign
from repro.sim import campaign
from repro.sim.parallel import DEFAULT_MAX_GPUS_PER_SHARD, ShardTask, _group_plan
from repro.telemetry import CampaignProgress
from repro.workloads import sgemm

#: Candidate GPU sets of one day: a small and a large fleet, a subset of
#: the large one, and one whose single run exceeds the row budget.
GPU_SETS = [np.arange(64), np.arange(2048), np.arange(0, 2048, 2),
            np.arange(9000)]


@st.composite
def shard_plans(draw):
    """A plan in ``plan_shards`` order: (day, run, shard), days may be
    missing (every node lost), and each day picks its own GPU set and
    shard count."""
    tasks = []
    runs_per_day = draw(st.integers(1, 6))
    for day in range(draw(st.integers(1, 10))):
        if draw(st.booleans()) and draw(st.booleans()):
            continue  # a day with no covered node has no tasks
        gpus = GPU_SETS[draw(st.integers(0, len(GPU_SETS) - 1))]
        shards = np.array_split(gpus, draw(st.integers(1, 3)))
        for run_index in range(runs_per_day):
            for shard_index, shard in enumerate(shards):
                tasks.append(ShardTask(day, run_index, shard_index,
                                       len(shards), shard))
    return tasks


def rows(tasks, group):
    return sum(tasks[i].n_gpus for i in group)


def day_rows(tasks, group):
    """Rows of each day of a group, in day order."""
    by_day: dict[int, int] = {}
    for i in group:
        by_day[tasks[i].day] = by_day.get(tasks[i].day, 0) + tasks[i].n_gpus
    return by_day


@settings(max_examples=200, deadline=None)
@given(tasks=shard_plans(), merge_days=st.booleans())
def test_groups_partition_the_plan_within_the_merge_rules(tasks, merge_days):
    groups = _group_plan(tasks, merge_days=merge_days)
    # Every task in exactly one group, each group in plan order, groups
    # ordered by their first task.
    assert sorted(i for g in groups for i in g) == list(range(len(tasks)))
    assert all(g == sorted(g) for g in groups)
    assert [g[0] for g in groups] == sorted(g[0] for g in groups)
    for group in groups:
        lead = tasks[group[0]]
        # One shard, one GPU set.
        assert {tasks[i].shard_index for i in group} == {lead.shard_index}
        assert all(np.array_equal(tasks[i].gpu_indices, lead.gpu_indices)
                   for i in group)
        # Consecutive days, each whole, within the row budget unless one
        # day alone exceeds it.
        per_day = day_rows(tasks, group)
        days = sorted(per_day)
        assert days == list(range(days[0], days[-1] + 1))
        assert rows(tasks, group) <= max(DEFAULT_MAX_GPUS_PER_SHARD,
                                         max(per_day.values()))
        assert len(days) == 1 or rows(tasks, group) <= \
            DEFAULT_MAX_GPUS_PER_SHARD
        if not merge_days:
            assert len(days) == 1
    # Greedy: a shard's next group starts on a day that could not join.
    if merge_days:
        last: dict[int, list[int]] = {}
        for group in groups:
            lead = tasks[group[0]]
            before = last.get(lead.shard_index)
            if before is not None:
                tail = tasks[before[-1]]
                assert (
                    tail.day != lead.day - 1
                    or not np.array_equal(tail.gpu_indices, lead.gpu_indices)
                    or rows(tasks, before) + day_rows(tasks, group)[lead.day]
                    > DEFAULT_MAX_GPUS_PER_SHARD
                )
            last[lead.shard_index] = group


@functools.cache
def full_longhorn():
    return longhorn(seed=5)


def group_days(cluster, days, runs_per_day=4):
    """Days of each group of an SGEMM campaign's plan."""
    tasks = plan_shards(cluster, sgemm(),
                        CampaignConfig(days=days, runs_per_day=runs_per_day))
    return [sorted({tasks[i].day for i in g}) for g in _group_plan(tasks)]


@pytest.mark.parametrize("days, split", [
    (6, [4, 2]),
    (9, [4, 4, 1]),
    (28, [4] * 7),
])
def test_full_longhorn_fits_four_days_a_group(days, split):
    # 4 runs x 416 GPUs = 1,664 rows a day; five days would be 8,320.
    assert [len(d) for d in group_days(full_longhorn(), days)] == split


def test_full_summit_days_stay_alone():
    # Four shards a day (3 x 8,190 + 3,078 GPUs); four runs of any shard
    # exceed the budget, so every (day, shard) is a group of its own.
    cluster = summit(seed=5)
    assert len(group_days(cluster, 1)) == 4
    assert len(group_days(cluster, 7)) == 28
    # One run of the smallest shard (3,078 rows) pairs up two days; that
    # group is listed by its first task, day 0's last shard.
    assert group_days(cluster, 2, runs_per_day=1) == [
        [0], [0], [0], [0, 1], [1], [1], [1]
    ]


def executed_groups(cluster, config, parallel):
    """The groups ``run_campaign`` hands its executor, as task coordinates,
    plus each task's charged solver batches (the group leads')."""
    seen = []

    def spy(execute):
        def record(cluster, workload, config, tasks, groups, *args):
            seen.append([
                [(tasks[i].day, tasks[i].run_index, tasks[i].shard_index)
                 for i in g]
                for g in groups
            ])
            return execute(cluster, workload, config, tasks, groups, *args)
        return record

    progress = CampaignProgress()
    with mock.patch.object(campaign, "_execute_serial",
                           spy(campaign._execute_serial)), \
            mock.patch.object(campaign, "_execute_pool",
                              spy(campaign._execute_pool)):
        run_campaign(cluster, sgemm(), config, parallel=parallel,
                     progress=progress)
    (groups,) = seen
    batches = {
        (t.day, t.run_index, t.shard_index): t.solver.batches
        for t in progress.timings
    }
    return groups, batches


def test_every_executor_runs_the_same_groups():
    cluster = full_longhorn()
    config = CampaignConfig(days=9, runs_per_day=4)
    want = executed_groups(cluster, config, None)
    groups, batches = want
    assert [len(g) for g in groups] == [16, 16, 4]
    # Batch work lands on each group's lead: its first day's first run.
    leads = {g[0] for g in groups}
    assert {key for key, n in batches.items() if n} == leads
    for backend in ("serial", "thread", "process"):
        for workers in (1, 2, 3):
            parallel = ParallelConfig(workers=workers, backend=backend)
            assert executed_groups(cluster, config, parallel) == want


def test_faulted_days_stay_alone():
    # A plan whose fault starts on day 2: even the unaffected days run
    # one group each while it is attached.
    cluster = longhorn(seed=5)
    scenario = Scenario(
        name="pump", description="late pump degradation",
        faults=(CoolantPumpDegradation(FaultSchedule(onset_day=2),
                                       coolant_rise_c=3.0),),
    )
    cluster.set_fault_plan(compile_plan(scenario, cluster))
    groups, _ = executed_groups(
        cluster, CampaignConfig(days=4, runs_per_day=4), None
    )
    assert [sorted({day for day, _, _ in g}) for g in groups] == [
        [0], [1], [2], [3]
    ]
