"""Window statistics vs the nan-function oracles, byte for byte.

:class:`~repro.obs.metrics.SlidingWindow` computes ``median``, ``mean`` and
``series_stats`` with plain numpy reductions over each series' non-NaN
count, and calls no nan-function.  Every statistic must equal :mod:`tests.obs.window_oracle`'s nan-function result
in raw bytes, on arbitrary push sequences: capacities 1 to 12 (the pairwise
summation of ``np.sum`` changes grouping at 8 terms), pushes before and
after wrap-around, partial coverage through ``indices=``, NaN pushed into
filled slots, infinities, signed zeros, values near the overflow limit,
subnormals and ties.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.obs.metrics import SlidingWindow

from . import window_oracle as oracle

SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_SPECIALS = [0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 5e-324, 1.0, 2.0]

_VALUES = st.one_of(
    st.sampled_from(_SPECIALS),
    st.floats(allow_nan=False, width=64),
)

_STATS = ("mean", "p5", "p50", "p95", "iqr")


def _quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(*args)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes(), (got, want)


def assert_matches_oracle(window: SlidingWindow) -> None:
    assert_same_bits(_quiet(window.median), _quiet(oracle.median, window))
    assert_same_bits(_quiet(window.mean), _quiet(oracle.mean, window))
    got = _quiet(window.series_stats)
    want = _quiet(oracle.series_stats, window)
    assert list(got) == list(want) == list(_STATS)
    for key in _STATS:
        assert_same_bits(got[key], want[key])


@st.composite
def windows(draw):
    """A window after a random push sequence, NaN observations optional."""
    n_series = draw(st.integers(1, 6))
    capacity = draw(st.integers(1, 10))
    values = (
        st.one_of(_VALUES, st.just(np.nan)) if draw(st.booleans()) else _VALUES
    )
    window = SlidingWindow(n_series, capacity)
    for _ in range(draw(st.integers(0, 3 * capacity + 2))):
        if draw(st.booleans()):
            indices = None
            width = n_series
        else:
            chosen = draw(st.lists(
                st.integers(0, n_series - 1), unique=True, max_size=n_series,
            ))
            indices = np.asarray(chosen, dtype=np.int64)
            width = indices.shape[0]
        pushed = draw(st.lists(values, min_size=width, max_size=width))
        window.push(np.asarray(pushed, dtype=float), indices)
    return window


class TestWindowStatistics:
    @SETTINGS
    @given(window=windows())
    def test_matches_oracle(self, window):
        assert_matches_oracle(window)

    @SETTINGS
    @given(
        capacity=st.integers(1, 6),
        pushes=st.integers(0, 14),
        data=st.data(),
    )
    def test_ties_match_oracle(self, capacity, pushes, data):
        # Few distinct values, so most windows hold ties (signed zeros are
        # ties that differ in bits); NaN observations move the ties into
        # the slots np.nanpercentile compacts.
        window = SlidingWindow(4, capacity)
        tie_values = st.sampled_from([0.0, -0.0, 1.0, 1.0, 3.0, np.nan])
        for _ in range(pushes):
            pushed = data.draw(st.lists(tie_values, min_size=4, max_size=4))
            window.push(np.asarray(pushed))
        assert_matches_oracle(window)

    @SETTINGS
    @given(
        capacity=st.integers(8, 12),
        data=st.data(),
    )
    def test_long_partial_windows_match_oracle(self, capacity, data):
        # Ordinary magnitudes in windows that are not full yet: the sums
        # whose grouping depends on the row width.
        window = SlidingWindow(3, capacity)
        values = st.floats(1e-3, 1e3)
        for _ in range(data.draw(st.integers(0, capacity))):
            window.push(np.asarray(
                data.draw(st.lists(values, min_size=3, max_size=3))
            ))
        assert_matches_oracle(window)

    @pytest.mark.parametrize("rows", [
        [[-0.0]], [[-0.0, -0.0, -0.0]], [[1e308, 1e308, 1.0]],
        [[1e308, 1e308]], [[np.inf, -np.inf]], [[np.inf, np.inf, 1.0]],
        [[5e-324, 5e-324, 5e-324]], [[np.nan, 1.0, 2.0]], [[np.nan]],
        [[4.0, np.nan, np.inf]], [[-0.0, np.nan, 0.0, 0.0, np.nan, -0.0]],
        [[-0.0, np.nan, -0.0, 0.0]], [[np.nan, -0.0, -0.0, 0.0]],
        [[-0.0, np.nan], [1e308, 1e308]],
        [[1.0] * 8, [0.1] * 8], [[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]],
        [[51.182, 0.095, 0.001, 9.486, 0.003]],
    ], ids=repr)
    def test_pinned_windows(self, rows):
        # Cases where np.median / np.mean / a shorter sum would not give
        # nanmedian / nanmean bits: the odd median doubles the middle value
        # (so 1e308 overflows), sums seed +0.0, and a row of 8+ slots sums
        # pairwise, so five values summed alone differ from the same five
        # padded with unfilled slots to capacity 9.  NaN observations are
        # skipped, also beside +inf (the masked median sorts them as +inf);
        # among signed zeros the percentiles depend on the order in which
        # np.nanpercentile compacts the row, not only on its values.
        rows = np.asarray(rows)
        width = rows.shape[1]
        for capacity in sorted({1, 2, 3, width, width + 1, 9, 12}):
            window = SlidingWindow(rows.shape[0], capacity)
            for column in rows.T:
                window.push(column)
            assert_matches_oracle(window)

    def test_empty_and_partial_series_stay_nan(self):
        window = SlidingWindow(3, 4)
        assert_matches_oracle(window)
        window.push(np.array([2.0]), indices=np.array([1]))
        assert_matches_oracle(window)
        assert np.isnan(window.median()[[0, 2]]).all()
