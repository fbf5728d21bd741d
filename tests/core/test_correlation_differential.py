"""Rank-once correlation matrix vs the per-pair Spearman oracle, bit for bit.

:func:`~repro.core.correlation.correlation_matrix` ranks a column once
when every value in it is finite, and ranks ties from one stable sort;
:mod:`tests.core.correlation_oracle` ranks every pair afresh with
:func:`numpy.unique`.  Both coefficients of every pair must agree in
their raw bits, and a dataset one of them rejects must make both raise
the same error.
"""

from __future__ import annotations

import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import correlation
from repro.core.correlation import correlation_matrix
from repro.errors import AnalysisError
from repro.telemetry.dataset import MeasurementDataset
from repro.telemetry.sample import PAPER_METRICS

from . import correlation_oracle as oracle

SETTINGS = settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Few distinct values, so ties (and ties of signed zeros) are common.
_TIED = st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e308, -1e308])
_FINITE = st.one_of(
    _TIED, st.floats(allow_nan=False, allow_infinity=False, width=64)
)
#: Column kinds: all tied, all finite (ranked once), or some rows
#: NaN/inf (ranked per pair).
_COLUMN_VALUES = (
    _TIED,
    _FINITE,
    st.one_of(_FINITE, st.sampled_from([np.nan, np.inf, -np.inf])),
)


def outcome(fn, dataset):
    """``fn``'s coefficients as raw bits, or its error's type and message."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            matrix = fn(dataset)
        except Exception as exc:  # noqa: BLE001 - compared, not hidden
            return type(exc), str(exc)
    return {
        key: (pair.metric_x, pair.metric_y, pair.n,
              struct.pack("<d", pair.rho), struct.pack("<d", pair.rho_spearman))
        for key, pair in matrix.items()
    }


def assert_matches_oracle(dataset: MeasurementDataset) -> None:
    got = outcome(correlation_matrix, dataset)
    want = outcome(oracle.correlation_matrix, dataset)
    assert got == want
    if isinstance(want, dict):
        assert list(got) == list(want)


@st.composite
def metric_datasets(draw):
    """2-4 paper metric columns; each all finite, or holding NaN/inf."""
    n = draw(st.integers(0, 24))
    names = draw(st.lists(st.sampled_from(PAPER_METRICS), min_size=2,
                          max_size=len(PAPER_METRICS), unique=True))
    columns = {}
    for name in names:
        values = draw(st.sampled_from(_COLUMN_VALUES))
        columns[name] = np.array(
            draw(st.lists(values, min_size=n, max_size=n)), dtype=float
        )
    return MeasurementDataset(columns)


class TestCorrelationMatrixDifferential:
    @SETTINGS
    @given(ds=metric_datasets())
    def test_matches_oracle(self, ds):
        assert_matches_oracle(ds)

    @pytest.mark.parametrize("columns", [
        # Ties in both columns, and a tie across the pair.
        {"performance_ms": [1.0, 1.0, 2.0, 3.0, 3.0, 4.0],
         "frequency_mhz": [6.0, 5.0, 5.0, 4.0, 2.0, 2.0]},
        # -0.0 == 0.0: one tie group, ranked in row order.
        {"performance_ms": [0.0, -0.0, 1.0, -0.0, 0.0, -1.0],
         "power_w": [-0.0, 0.0, 0.0, 2.0, -0.0, 3.0]},
        # A constant column: zero spread gives 0.0, not a division.
        {"performance_ms": [5.0] * 6,
         "frequency_mhz": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
         "temperature_c": [3.0, 3.0, 1.0, 1.0, 2.0, 2.0]},
        # NaN and infinities drop rows per pair.
        {"performance_ms": [1.0, np.nan, 3.0, 4.0, 2.0, 6.0],
         "frequency_mhz": [2.0, 1.0, np.inf, 3.0, 5.0, 4.0],
         "power_w": [1.0, 2.0, 3.0, -np.inf, 5.0, 5.0],
         "temperature_c": [9.0, 8.0, 7.0, 7.0, 6.0, 5.0]},
        # Fewer than 3 rows at all.
        {"performance_ms": [1.0, 2.0], "frequency_mhz": [2.0, 1.0]},
        # Integer columns are widened to float first.
        {"performance_ms": np.array([3, 1, 2, 2, 2**60 + 1, 2**60]),
         "frequency_mhz": np.array([1, 1, 1, 2, 2, 2])},
    ], ids=["ties", "signed-zero-ties", "constant-column", "nan-and-inf",
            "too-few-rows", "int-columns"])
    def test_pinned_cases(self, columns):
        assert_matches_oracle(MeasurementDataset(
            {name: np.asarray(values) for name, values in columns.items()}
        ))

    def test_too_few_finite_pairs_raises(self):
        ds = MeasurementDataset({
            "performance_ms": np.array([1.0, np.nan, np.nan, 4.0]),
            "frequency_mhz": np.arange(4.0),
        })
        assert outcome(correlation_matrix, ds) == (
            AnalysisError, "fewer than 3 finite point pairs"
        )
        assert_matches_oracle(ds)

    def test_finite_columns_rank_once(self):
        rng = np.random.default_rng(0)
        ds = MeasurementDataset({
            name: rng.integers(0, 5, 40).astype(float)
            for name in PAPER_METRICS
        })
        with mock.patch.object(correlation, "_rank",
                               wraps=correlation._rank) as rank, \
                mock.patch.object(correlation, "spearman",
                                  wraps=correlation.spearman) as spearman:
            correlation_matrix(ds)
        assert rank.call_count == len(PAPER_METRICS)
        assert spearman.call_count == 0

    def test_non_finite_column_takes_per_pair_path(self):
        rng = np.random.default_rng(1)
        columns = {name: rng.standard_normal(40) for name in PAPER_METRICS}
        columns["power_w"][3] = np.nan
        ds = MeasurementDataset(columns)
        with mock.patch.object(correlation, "spearman",
                               wraps=correlation.spearman) as spearman:
            correlation_matrix(ds)
        # Only the pairs holding power_w rank afresh.
        assert spearman.call_count == len(PAPER_METRICS) - 1
        assert_matches_oracle(ds)
