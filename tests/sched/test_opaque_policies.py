"""Opaque custom policies: the one dispatch loop against the reference oracle.

A policy that overrides :meth:`~repro.sched.PlacementPolicy.rank_nodes`
describes nothing to the engine (``indexed_ranking() is None``), so the
engine calls ``rank_nodes`` at every placement attempt — before the fit
check, on a copy of the free counts — and resolves the returned order in
one vectorized scan.  The reference loop (``tests/sched/reference_engine.py``)
defines what that must produce.

Hypothesis draws rankings from families that stress each part of that
contract: fixed orders, orders that read the free counts, orders naming
only a subset of nodes (sometimes none), policy-stream draws whose length
depends on the gang width, workload-dependent orders, and one ranking
that mutates its ``free_counts`` argument in place.  Each runs with
backfill on and off, with and without power-budget admission (an
:class:`~repro.sched.EnergyCappedPolicy` subclass), over varied trace
seeds and arrival rates.  Event-log lines, records, every ``sched.*``
counter the oracle emits, and any end-of-run error must match exactly.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import SimulationError
from repro.obs import Tracer, activate
from repro.sched import (
    EnergyCappedPolicy,
    PlacementPolicy,
    event_log_lines,
    node_power_watts,
    run_schedule,
)
from tests.sched.reference_engine import run_reference

#: Compute-bound workloads: the workload-dependent family reverses them.
_SENSITIVE = frozenset({"sgemm", "resnet", "bert"})


def _reversed(workload, n_gpus, free, rng):
    return np.arange(free.shape[0])[::-1]


def _most_free_first(workload, n_gpus, free, rng):
    return np.argsort(-free, kind="stable")


def _static_subset(workload, n_gpus, free, rng):
    return np.flatnonzero(np.arange(free.shape[0]) % 4 != 1)


def _sometimes_empty(workload, n_gpus, free, rng):
    # Empty only while something runs, so a later finish retries and the
    # trace still drains.
    if int(free.sum()) < 4 * free.shape[0] and rng.random() < 0.3:
        return np.empty(0, dtype=np.int64)
    return rng.permutation(free.shape[0])[: max(2, free.shape[0] // 2)]


def _width_dependent_draws(workload, n_gpus, free, rng):
    rng.standard_normal(n_gpus)
    return rng.permutation(free.shape[0])


def _by_workload(workload, n_gpus, free, rng):
    order = np.arange(free.shape[0])
    return order[::-1] if workload.name in _SENSITIVE else order


def _mutates_argument(workload, n_gpus, free, rng):
    order = np.argsort(free, kind="stable")
    free -= 1
    return order


FAMILIES = {
    fn.__name__.lstrip("_"): fn
    for fn in (_reversed, _most_free_first, _static_subset, _sometimes_empty,
               _width_dependent_draws, _by_workload, _mutates_argument)
}


class OpaquePolicy(PlacementPolicy):
    """A custom policy whose ranking the engine cannot index."""

    name = "opaque"

    def __init__(self, rank, backfill: bool) -> None:
        self._rank = rank
        self.backfill = backfill

    def rank_nodes(self, workload, n_gpus, free_counts, rng):
        return self._rank(workload, n_gpus, free_counts, rng)


class OpaqueCappedPolicy(EnergyCappedPolicy):
    """Power-budget admission with an overridden ranking."""

    name = "opaque-capped"

    def __init__(self, rank, **kwargs) -> None:
        super().__init__(**kwargs)
        self._rank = rank

    def rank_nodes(self, workload, n_gpus, free_counts, rng):
        return self._rank(workload, n_gpus, free_counts, rng)


@functools.cache
def _cluster():
    # Nine 4-GPU nodes: small enough that queues form and 8-GPU gangs
    # must span nodes.
    return api.load_preset("longhorn", seed=2022, scale=0.1)


def _policy(family: str, backfill: bool, admission: bool, cluster):
    rank = FAMILIES[family]
    if not admission:
        return OpaquePolicy(rank, backfill)
    node_power = node_power_watts(
        cluster.fleet_for_day(0).power_cap_w(None),
        cluster.topology.node_of_gpu,
        cluster.topology.n_nodes,
    )
    return OpaqueCappedPolicy(
        rank,
        node_power_w=node_power,
        power_budget_w=float(node_power.sum()) * 0.4,
        gpus_per_node=cluster.topology.gpus_per_node,
        backfill=backfill,
    )


#: How the engine prices, which the eagerly pricing oracle does not count.
_PRICING_COUNTERS = ("sched.price_batches", "sched.certified_jobs")


def _observe(run, cluster, jobs, policy):
    """Event lines, records, sched counters and any error of one run."""
    tracer = Tracer()
    try:
        with activate(tracer):
            outcome = run(cluster, jobs, policy)
    except SimulationError as exc:
        result = ("error", str(exc))
    else:
        result = (event_log_lines(outcome.events), outcome.records)
    counters = {
        name: value
        for name, value in tracer.counters.items()
        if name.startswith("sched.") and name not in _PRICING_COUNTERS
    }
    return result, counters


@st.composite
def scenarios(draw):
    config = api.TraceConfig(
        n_jobs=draw(st.integers(6, 24)),
        arrival_rate_per_hour=draw(
            st.sampled_from((900.0, 5000.0, 20000.0))
        ),
        gang_sizes=(1, 2, 4, 8),
        work_units_range=(1, draw(st.sampled_from((3, 60, 200)))),
        seed=draw(st.integers(0, 2**16)),
    )
    family = draw(st.sampled_from(sorted(FAMILIES)))
    return config, family, draw(st.booleans()), draw(st.booleans())


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_opaque_policies_match_reference(scenario):
    config, family, backfill, admission = scenario
    cluster = _cluster()
    jobs = api.generate_trace(config)
    policy = _policy(family, backfill, admission, cluster)
    assert policy.indexed_ranking(cluster.topology.n_nodes) is None
    production = _observe(run_schedule, cluster, jobs, policy)
    oracle = _observe(
        run_reference, cluster, jobs,
        _policy(family, backfill, admission, cluster),
    )
    assert production == oracle

