"""Unit and property tests for the scheduler's allocation indexes.

Each structure must answer exactly as the reference engine's brute-force
scan would — these tests check every query against the obvious O(n)
recomputation under randomized orders, counts, and churn.
"""

import numpy as np
import pytest

from repro.sched.index import (
    OrderedFreeIndex,
    SizeBucketQueue,
    resolve_with_ranking,
)


def _brute_first_at_least(order, counts, k):
    for node in order.tolist():
        if counts[node] >= k:
            return int(node)
    return -1


def _brute_take_prefix(order, counts, k):
    if int(counts.sum()) < k:
        return None
    out, remaining = [], k
    for node in order.tolist():
        take = min(int(counts[node]), remaining)
        if take > 0:
            out.append((int(node), take))
            remaining -= take
        if remaining == 0:
            return out
    return None


class TestOrderedFreeIndex:
    @pytest.mark.parametrize("n_nodes", (1, 5, 64, 97))
    def test_queries_match_brute_force(self, n_nodes):
        rng = np.random.default_rng(n_nodes)
        order = rng.permutation(n_nodes)
        counts = rng.integers(0, 7, size=n_nodes)
        tree = OrderedFreeIndex(order, counts)
        for k in range(1, 9):
            assert tree.first_at_least(k) == _brute_first_at_least(
                order, counts, k
            )
        for k in (1, 3, counts.sum(), counts.sum() + 1):
            assert tree.take_prefix(int(k)) == _brute_take_prefix(
                order, counts, int(k)
            )

    def test_incremental_updates_track_mutations(self):
        rng = np.random.default_rng(0)
        n_nodes = 40
        order = rng.permutation(n_nodes)
        counts = np.full(n_nodes, 6, dtype=np.int64)
        tree = OrderedFreeIndex(order, counts)
        for _ in range(500):
            node = int(rng.integers(0, n_nodes))
            counts[node] = int(rng.integers(0, 7))
            tree.update(node, int(counts[node]))
            k = int(rng.integers(1, 8))
            assert tree.first_at_least(k) == _brute_first_at_least(
                order, counts, k
            )
            width = int(rng.integers(1, 20))
            assert tree.take_prefix(width) == _brute_take_prefix(
                order, counts, width
            )

    @pytest.mark.parametrize("n_nodes", (1, 2, 7, 33))
    def test_updated_tree_equals_rebuilt_tree(self, n_nodes):
        """Every internal max and sum after churn, not just the answers."""
        rng = np.random.default_rng(n_nodes)
        order = rng.permutation(n_nodes)
        counts = rng.integers(0, 7, size=n_nodes)
        tree = OrderedFreeIndex(order, counts)
        for _ in range(400):
            node = int(rng.integers(0, n_nodes))
            counts[node] = int(rng.integers(0, 7))
            tree.update(node, int(counts[node]))
            rebuilt = OrderedFreeIndex(order, counts)
            assert tree._max == rebuilt._max
            assert tree._sum == rebuilt._sum

    def test_empty_machine(self):
        tree = OrderedFreeIndex(np.arange(3), np.zeros(3, dtype=np.int64))
        assert tree.first_at_least(1) == -1
        assert tree.take_prefix(1) is None
        assert tree.take_prefix(0) == []

    def test_prefers_order_not_node_index(self):
        order = np.asarray([2, 0, 1])
        counts = np.asarray([4, 4, 4])
        tree = OrderedFreeIndex(order, counts)
        assert tree.first_at_least(2) == 2
        assert tree.take_prefix(6) == [(2, 4), (0, 2)]


class TestResolveWithRanking:
    @pytest.mark.parametrize("trial", range(20))
    def test_matches_brute_force(self, trial):
        rng = np.random.default_rng(trial)
        n_nodes = int(rng.integers(1, 30))
        per_node = int(rng.integers(1, 7))
        ranking = rng.permutation(n_nodes)
        counts = rng.integers(0, per_node + 1, size=n_nodes)
        width = int(rng.integers(1, 3 * per_node + 1))
        got = resolve_with_ranking(ranking, counts, width, per_node)
        if width <= per_node:
            want = _brute_first_at_least(ranking, counts, width)
            assert got == (None if want < 0 else [(want, width)])
        else:
            assert got == _brute_take_prefix(ranking, counts, width)

    def test_single_node_exact_fit(self):
        got = resolve_with_ranking(
            np.asarray([1, 0]), np.asarray([2, 3]), 3, 4
        )
        assert got == [(1, 3)]

    def test_insufficient_capacity(self):
        assert resolve_with_ranking(
            np.asarray([0, 1]), np.asarray([1, 1]), 8, 4
        ) is None

    @pytest.mark.parametrize("width", (2, 8))
    def test_empty_ranking_never_fits(self, width):
        # A custom policy's opaque ranking may name no nodes at all.
        empty = np.empty(0, dtype=np.int64)
        assert resolve_with_ranking(empty, np.full(6, 4), width, 4) is None


class TestSizeBucketQueue:
    def test_fifo_within_and_across_buckets(self):
        queue = SizeBucketQueue()
        queue.push(4, 0, 100)
        queue.push(1, 1, 101)
        queue.push(4, 2, 102)
        assert len(queue) == 3
        assert queue.head_seq() == 0
        # width 4 blocked, width 1 fits -> earliest fitting is job 101
        assert queue.earliest_fitting(lambda s: s == 1) == (1, 101, 1)
        assert queue.pop(1) == (1, 101)
        assert queue.head_seq() == 0
        assert queue.earliest_fitting(lambda s: True) == (0, 100, 4)
        queue.pop(4)
        assert queue.earliest_fitting(lambda s: True) == (2, 102, 4)
        queue.pop(4)
        assert len(queue) == 0
        assert queue.head_seq() is None
        assert queue.earliest_fitting(lambda s: True) is None

    def test_fit_probe_called_once_per_width(self):
        queue = SizeBucketQueue()
        for seq in range(10):
            queue.push(1 + seq % 3, seq, seq)
        probed = []
        queue.earliest_fitting(lambda s: probed.append(s) or False)
        assert sorted(probed) == [1, 2, 3]

    def test_matches_flat_queue_scan_under_churn(self):
        rng = np.random.default_rng(5)
        queue = SizeBucketQueue()
        flat = []  # (seq, job_id, size) in submission order
        seq = 0
        for _ in range(400):
            if flat and rng.random() < 0.5:
                free = int(rng.integers(0, 9))
                want = next(
                    (e for e in flat if e[2] <= free), None
                )
                got = queue.earliest_fitting(lambda s: s <= free)
                assert got == want
                if want is not None:
                    flat.remove(want)
                    assert queue.pop(want[2]) == (want[0], want[1])
            else:
                size = int(rng.choice([1, 2, 4, 8]))
                queue.push(size, seq, 1000 + seq)
                flat.append((seq, 1000 + seq, size))
                seq += 1
            assert len(queue) == len(flat)
            head = min(flat)[0] if flat else None
            assert queue.head_seq() == head
