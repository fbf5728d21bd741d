"""Shard planning against the allocator path, searched by Hypothesis.

:func:`repro.sim.parallel.plan_shards` gathers each day's GPU indices
from the covered node array in one step and packs shards by node count.
The reference below is the allocator path it replaced: one
:class:`~repro.cluster.allocator.Allocation` per node from
:meth:`ExclusiveNodeAllocator.sweep`, the chaos lost-node filter over
those allocations, and a greedy packing of whole nodes under the shard
bound.  Over coverage, lost nodes and shard bounds (narrower than a node
included), both must produce the same tasks with the same int64 index
arrays — ``fleet_slice`` keys its cache on their dtype and bytes.
"""

from __future__ import annotations

import functools
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import longhorn, summit, vortex
from repro.cluster.allocator import ExclusiveNodeAllocator
from repro.sim import CampaignConfig, ParallelConfig, parallel, plan_shards
from repro.workloads import sgemm

SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PRESETS = {
    "longhorn": lambda: longhorn(seed=7, scale=0.25),
    "summit": lambda: summit(seed=7, scale=0.0625),
    "vortex": lambda: vortex(seed=7, scale=0.34),
}


@functools.cache
def cluster_of(name: str):
    return PRESETS[name]()


class LostNodes:
    """A stand-in fault plan that only loses nodes, per day."""

    def __init__(self, lost_by_day: dict[int, frozenset[int]]) -> None:
        self.lost_by_day = lost_by_day

    def lost_nodes(self, day: int) -> frozenset[int]:
        return self.lost_by_day.get(day, frozenset())


def allocator_plan(cluster, config, max_gpus_per_shard, plan):
    """The allocator-path planner: per-node allocations, greedy packing."""
    allocator = ExclusiveNodeAllocator(cluster.topology)
    tasks = []
    for day in range(config.days):
        day_rng = cluster.rng_factory.child(f"campaign-day-{day}").generator(
            "coverage"
        )
        allocations = allocator.sweep(coverage=config.coverage, rng=day_rng)
        lost = plan.lost_nodes(day)
        allocations = [a for a in allocations if a.node_index not in lost]
        if not allocations:
            continue
        shards, current, current_n = [], [], 0
        for allocation in allocations:
            gpus = allocation.gpu_indices
            if max_gpus_per_shard is not None and current and (
                current_n + gpus.shape[0] > max_gpus_per_shard
            ):
                shards.append(np.concatenate(current))
                current, current_n = [], 0
            current.append(gpus)
            current_n += gpus.shape[0]
        shards.append(np.concatenate(current))
        for run_index in range(config.runs_per_day):
            for shard_index, gpus in enumerate(shards):
                tasks.append(
                    (day, run_index, shard_index, len(shards), gpus)
                )
    return tasks


@SETTINGS
@given(
    preset=st.sampled_from(sorted(PRESETS)),
    days=st.integers(1, 3),
    runs_per_day=st.integers(1, 3),
    coverage=st.sampled_from([1.0, 0.9, 0.5, 0.1]),
    bound=st.one_of(st.none(), st.integers(1, 40)),
    lost_seed=st.integers(0, 2**16),
    lost_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
def test_plan_matches_allocator_path(
    preset, days, runs_per_day, coverage, bound, lost_seed, lost_share
):
    cluster = cluster_of(preset)
    config = CampaignConfig(
        days=days, runs_per_day=runs_per_day, coverage=coverage
    )
    rng = np.random.default_rng(lost_seed)
    n_nodes = cluster.n_nodes
    plan = LostNodes({
        day: frozenset(
            int(node) for node in np.flatnonzero(
                rng.random(n_nodes) < lost_share
            )
        )
        for day in range(days)
    })
    with mock.patch.object(parallel, "active_fault_plan", lambda _: plan):
        tasks = plan_shards(
            cluster, sgemm(), config,
            ParallelConfig(max_gpus_per_shard=bound),
        )
    expected = allocator_plan(cluster, config, bound, plan)
    assert len(tasks) == len(expected)
    for task, (day, run_index, shard_index, n_shards, gpus) in zip(
        tasks, expected
    ):
        assert (task.day, task.run_index, task.shard_index, task.n_shards) \
            == (day, run_index, shard_index, n_shards)
        assert task.gpu_indices.dtype == np.int64
        assert task.gpu_indices.tobytes() == gpus.tobytes()
