"""Unit tests of the health tracker's ring buffer and window statistics.

:class:`~repro.obs.health._Ring` holds the last ``capacity`` runs of each
GPU for every signal the tracker windows; :func:`~repro.obs.health.
_window_median` and :func:`~repro.obs.health._window_mean` reduce its
windows.  The byte-level agreement with the nan-function oracle is in
``test_window_differential.py``; these tests pin the ring's own
behaviour on small hand-checked cases: eviction, partial coverage, block
scans, duplicate series, shared write positions and snapshot/restore.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.obs.health import _Ring, _window_mean, _window_median


def _push(ring: _Ring, values, indices=None) -> None:
    """One run on a one-window ring."""
    values = np.asarray(values, dtype=float)
    if indices is None:
        indices = np.arange(values.shape[0])
    ring.push_runs([0, len(indices)], np.asarray(indices), values[None],
                   contents=False)


def _stats(ring: _Ring) -> tuple[np.ndarray, np.ndarray]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return (_window_median(ring.buffer[0], ring.count),
                _window_mean(ring.buffer[0], ring.count))


class TestWindowStatistics:
    def test_push_and_median(self):
        ring = _Ring(1, 3, 2)
        _push(ring, [1.0, 10.0, 100.0])
        _push(ring, [3.0, 30.0, 300.0])
        median, mean = _stats(ring)
        assert median.tolist() == [2.0, 20.0, 200.0]
        assert mean.tolist() == [2.0, 20.0, 200.0]

    def test_ring_evicts_oldest(self):
        ring = _Ring(1, 1, 2)
        for value in (1.0, 2.0, 9.0):
            _push(ring, [value])
        # 1.0 fell out of the window; median over {2, 9}
        median, mean = _stats(ring)
        assert median.tolist() == [5.5]
        assert mean.tolist() == [5.5]
        assert ring.count.tolist() == [2]

    def test_partial_coverage_advances_only_observed_series(self):
        ring = _Ring(1, 4, 3)
        _push(ring, [5.0, 7.0], indices=[0, 2])
        assert ring.count.tolist() == [1, 0, 1, 0]
        assert ring.pos.tolist() == [1, 0, 1, 0]
        median, mean = _stats(ring)
        assert median[0] == 5.0 and median[2] == 7.0
        assert mean[0] == 5.0 and mean[2] == 7.0
        assert np.isnan(median[[1, 3]]).all()
        assert np.isnan(mean[[1, 3]]).all()

    def test_empty_ring_statistics_are_nan(self):
        median, mean = _stats(_Ring(1, 3, 4))
        assert np.isnan(median).all() and median.shape == (3,)
        assert np.isnan(mean).all() and mean.shape == (3,)

    def test_odd_count_median_is_middle_value(self):
        ring = _Ring(1, 1, 5)
        for value in (9.0, 1.0, 4.0):
            _push(ring, [value])
        median, mean = _stats(ring)
        assert median.tolist() == [4.0]
        assert mean.tolist() == [14.0 / 3.0]

    def test_nan_observation_is_skipped_but_counted(self):
        ring = _Ring(1, 1, 3)
        for value in (2.0, np.nan, 6.0):
            _push(ring, [value])
        assert ring.count.tolist() == [3]
        median, mean = _stats(ring)
        assert median.tolist() == [4.0]
        assert mean.tolist() == [4.0]

    def test_window_of_nan_observations_only_is_nan(self):
        ring = _Ring(1, 2, 2)
        _push(ring, [np.nan, 1.0])
        median, mean = _stats(ring)
        assert np.isnan(median[0]) and np.isnan(mean[0])
        assert median[1] == 1.0 and mean[1] == 1.0


class TestPushRuns:
    def test_block_scan_equals_one_push_per_run(self):
        rng = np.random.default_rng(7)
        bounds, series, values = [0], [], []
        for _ in range(9):
            rows = np.flatnonzero(rng.random(5) < 0.6)
            series.append(rows)
            values.append(rng.normal(size=(2, rows.shape[0])))
            bounds.append(bounds[-1] + rows.shape[0])
        block = _Ring(2, 5, 3)
        counts, kept = block.push_runs(
            bounds, np.concatenate(series), np.concatenate(values, axis=1)
        )
        single = _Ring(2, 5, 3)
        for r, (rows, vals) in enumerate(zip(series, values)):
            one_counts, one_kept = single.push_runs([0, rows.shape[0]], rows, vals)
            assert counts[r].tolist() == one_counts[0].tolist()
            assert kept[:, r].tobytes() == one_kept[:, 0].tobytes()
        assert block.buffer.tobytes() == single.buffer.tobytes()
        assert block.pos.tolist() == single.pos.tolist()
        assert block.count.tolist() == single.count.tolist()

    def test_contents_holds_the_buffer_after_each_run(self):
        ring = _Ring(1, 2, 2)
        counts, kept = ring.push_runs(
            [0, 2, 3], np.array([0, 1, 1]), np.array([[1.0, 2.0, 3.0]])
        )
        assert kept.shape == (1, 2, 2, 2)
        assert np.array_equal(kept[0, 0], [[1.0, np.nan], [2.0, np.nan]],
                              equal_nan=True)
        assert np.array_equal(kept[0, 1], [[1.0, np.nan], [2.0, 3.0]],
                              equal_nan=True)
        assert counts.tolist() == [[1, 1], [1, 2]]

    def test_contents_false_returns_no_copies(self):
        ring = _Ring(3, 2, 2)
        counts, kept = ring.push_runs(
            [0, 2], np.array([0, 1]), np.ones((3, 2)), contents=False
        )
        assert kept is None
        assert counts.tolist() == [[1, 1]]

    def test_series_listed_twice_keeps_the_later_value(self):
        ring = _Ring(1, 2, 3)
        counts, _ = ring.push_runs(
            [0, 3], np.array([0, 0, 1]), np.array([[4.0, 8.0, 1.0]]),
            contents=False,
        )
        assert counts.tolist() == [[1, 1]]
        assert ring.buffer[0, 0, 0] == 8.0
        assert np.isnan(ring.buffer[0, 0, 1:]).all()

    def test_windows_share_write_position_and_count(self):
        ring = _Ring(2, 1, 2)
        for value in (1.0, 2.0, 3.0):
            ring.push_runs([0, 1], np.array([0]), np.array([[value], [-value]]),
                           contents=False)
        assert ring.buffer[0, 0].tolist() == [3.0, 2.0]
        assert ring.buffer[1, 0].tolist() == [-3.0, -2.0]
        assert ring.pos.tolist() == [1]
        assert ring.count.tolist() == [2]

    def test_snapshot_is_a_copy_and_restore_returns_to_it(self):
        ring = _Ring(1, 2, 2)
        _push(ring, [1.0, 2.0])
        state = ring.snapshot()
        _push(ring, [5.0, 6.0])
        _push(ring, [7.0], indices=[0])
        # later pushes do not reach the snapshot
        assert np.array_equal(state[0][0], [[1.0, np.nan], [2.0, np.nan]],
                              equal_nan=True)
        assert state[1].tolist() == [1, 1]
        assert state[2].tolist() == [1, 1]
        ring.restore(state)
        assert ring.buffer.tobytes() == state[0].tobytes()
        assert ring.pos.tolist() == [1, 1]
        assert ring.count.tolist() == [1, 1]
        _push(ring, [3.0, 4.0])
        median, _ = _stats(ring)
        assert median.tolist() == [2.0, 3.0]
