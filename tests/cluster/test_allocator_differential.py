"""Differential test: the list-based allocator against its set-based oracle.

:class:`~repro.cluster.allocator.FreeListAllocator` keeps each node's
free GPUs as a sorted list; :class:`SetFreeListAllocator` is the design
it replaced.  Random allocate/free sequences on small topologies —
invalid requests included — must give both the same grants, counts,
listener calls and error messages, and a failing call must leave the
state exactly as it was.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster.allocator import FreeListAllocator, GangAllocation
from repro.cluster.topology import cabinet_topology
from repro.errors import AllocationError

from tests.cluster.allocator_oracle import SetFreeListAllocator


def _state(allocator) -> tuple:
    """Everything a caller can read of an allocator's state."""
    topology = allocator.topology
    per_node = topology.gpus_per_node
    counts = allocator.free_counts()
    np.testing.assert_array_equal(allocator.free_counts_view(), counts)
    return (
        counts.tolist(),
        allocator.n_free,
        allocator.n_busy,
        tuple(
            allocator.n_nodes_with_at_least(k)
            for k in range(-1, per_node + 2)
        ),
        tuple(
            tuple(allocator.free_gpus_of_node(n).tolist())
            for n in range(topology.n_nodes)
        ),
    )


def _outcome(call):
    """``("ok", value)`` or ``("error", message)`` of ``call()``."""
    try:
        return ("ok", call())
    except AllocationError as exc:
        return ("error", str(exc))


def _scalars(n_nodes: int, per_node: int):
    """Node indices and counts: mostly valid ints, some hostile values."""
    return st.one_of(
        st.integers(0, max(n_nodes, per_node) + 1),
        st.integers(-2, -1),
        st.integers(0, 3).map(np.int64),
        st.booleans(),
        st.sampled_from([1.0, 2.5]),
    )


@st.composite
def scenarios(draw):
    n_nodes = draw(st.integers(1, 5))
    per_node = draw(st.integers(1, 4))
    nodes_per_cabinet = draw(st.integers(1, 3))
    n_gpus = n_nodes * per_node
    scalar = _scalars(n_nodes, per_node)
    request = st.tuples(scalar, scalar)
    valid_request = st.tuples(
        st.integers(0, n_nodes - 1), st.integers(1, per_node)
    )
    op = st.one_of(
        st.tuples(
            st.just("allocate"),
            st.lists(st.one_of(valid_request, request), max_size=4),
        ),
        st.tuples(st.just("allocate"), st.lists(valid_request, min_size=1,
                                               max_size=3)),
        # Free the i-th grant so far: live, or already freed (double free).
        st.tuples(st.just("free"), st.integers(0, 40)),
        # Free a hand-made allocation, duplicates and free GPUs included.
        st.tuples(
            st.just("free_gpus"),
            st.lists(st.integers(0, n_gpus - 1), min_size=1, max_size=4),
        ),
    )
    ops = draw(st.lists(op, max_size=40))
    return n_nodes, per_node, nodes_per_cabinet, ops


def _run(n_nodes, per_node, nodes_per_cabinet, ops):
    topology = cabinet_topology("D", n_nodes, per_node, nodes_per_cabinet)
    fast = FreeListAllocator(topology)
    oracle = SetFreeListAllocator(topology)
    calls = {"fast": [], "oracle": []}
    for name, allocator in (("fast", fast), ("oracle", oracle)):
        log = calls[name]
        allocator.add_listener(lambda node, count, log=log: log.append(
            ("a", node, count)))
        allocator.add_listener(lambda node, count, log=log: log.append(
            ("b", node, count)))
    granted: list[GangAllocation] = []
    for kind, arg in ops:
        before = _state(fast)
        if kind == "allocate":
            got = _outcome(lambda: fast.allocate(arg))
            want = _outcome(lambda: oracle.allocate(arg))
        else:
            if kind == "free":
                if not granted:
                    continue
                allocation = granted[arg % len(granted)]
            else:
                gpus = np.asarray(sorted(arg), dtype=np.int64)
                allocation = GangAllocation(
                    node_indices=np.unique(topology.node_of_gpu[gpus]),
                    gpu_indices=gpus,
                )
            got = _outcome(lambda: fast.free(allocation))
            want = _outcome(lambda: oracle.free(allocation))
        if got[0] == "ok" and kind == "allocate":
            grant, expected = got[1], want[1]
            assert want[0] == "ok", want
            for field in ("node_indices", "gpu_indices"):
                a, b = getattr(grant, field), getattr(expected, field)
                assert a.dtype == b.dtype == np.int64
                assert a.tolist() == b.tolist()
            granted.append(grant)
        else:
            assert got[0] == want[0] and got[1:] == want[1:], (kind, arg)
        if got[0] == "error":
            assert _state(fast) == before, (kind, arg)
        assert _state(fast) == _state(oracle), (kind, arg)
        assert calls["fast"] == calls["oracle"], (kind, arg)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
@example((3, 4, 2, [
    ("allocate", [(0, 2), (0, 1)]),        # duplicate node
    ("allocate", [(1, 0)]),                # count 0
    ("allocate", [(2, 5)]),                # over-ask
    ("allocate", [(1, True)]),             # bool count
    ("allocate", [(1, 2.0)]),              # float count
    ("allocate", [(True, 1)]),             # bool node
    ("allocate", [(3, 1)]),                # node out of range
    ("allocate", []),                      # empty request
    ("allocate", [(2, 3), (0, np.int64(4))]),
    ("free", 0),
    ("free", 0),                           # double free
    ("free_gpus", [9, 9]),                 # one GPU listed twice
    ("free_gpus", [1, 8, 9]),              # partly free already
    ("allocate", [(0, 4), (1, 4), (2, 3)]),
]))
def test_list_allocator_matches_set_oracle(scenario):
    _run(*scenario)

