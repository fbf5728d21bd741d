"""Tests for the global power manager."""

import functools
from unittest import mock

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.mitigation.global_power import (
    allocate_equal_frequency,
    allocate_uniform,
    evaluate_allocation,
)
from repro.workloads import sgemm

from tests.gpu.dvfs_oracle import dense_grid


@pytest.fixture(scope="module")
def fleet(small_longhorn):
    return small_longhorn.fleet


class TestAllocateUniform:
    def test_fair_share(self, fleet):
        alloc = allocate_uniform(fleet, fleet.n * 250.0)
        np.testing.assert_allclose(alloc.caps_w, 250.0)
        assert alloc.strategy == "uniform"

    def test_capped_at_tdp(self, fleet):
        alloc = allocate_uniform(fleet, fleet.n * 500.0)
        np.testing.assert_allclose(alloc.caps_w, fleet.spec.tdp_w)

    def test_invalid_budget(self, fleet):
        with pytest.raises(Exception):
            allocate_uniform(fleet, 0.0)


class TestAllocateEqualFrequency:
    def test_budget_respected(self, fleet):
        budget = fleet.n * 270.0
        alloc = allocate_equal_frequency(fleet, sgemm(), budget)
        # Spent power at the target stays under budget (margin excluded).
        assert alloc.allocated_w <= budget + fleet.n * 2.0
        assert alloc.target_frequency_mhz is not None

    def test_caps_never_exceed_boards(self, fleet):
        alloc = allocate_equal_frequency(fleet, sgemm(), fleet.n * 280.0)
        assert np.all(alloc.caps_w <= fleet.power_cap_w() + 1e-9)

    def test_bigger_budget_higher_target(self, fleet):
        low = allocate_equal_frequency(fleet, sgemm(), fleet.n * 220.0)
        high = allocate_equal_frequency(fleet, sgemm(), fleet.n * 280.0)
        assert high.target_frequency_mhz > low.target_frequency_mhz

    def test_starvation_budget_rejected(self, fleet):
        with pytest.raises(AnalysisError):
            allocate_equal_frequency(fleet, sgemm(), fleet.n * 10.0)


class TestPowerGridOracle:
    """``allocate_equal_frequency`` is the one production caller of
    ``power_grid``: its answer must not change when the grid comes from
    the dense-settle oracle instead of the masked-convergence kernel."""

    @pytest.mark.parametrize("per_gpu_w", [220.0, 250.0, 280.0, 400.0])
    def test_same_allocation_on_the_dense_grid(self, fleet, per_gpu_w):
        # The quarter Longhorn keeps cabinet c002's SICK_SLOW ceilings and
        # throughput defects, so ceiling-bound and slowed dies both occur.
        assert (fleet.frequency_cap_mhz() < fleet.spec.f_max_mhz).any()
        assert (fleet.throughput_efficiency() < 1.0).any()
        budget = fleet.n * per_gpu_w
        production = allocate_equal_frequency(fleet, sgemm(), budget)
        ctl = fleet.controller
        with mock.patch.object(ctl, "power_grid",
                               functools.partial(dense_grid, ctl)):
            reference = allocate_equal_frequency(fleet, sgemm(), budget)
        assert production.caps_w.dtype == reference.caps_w.dtype
        assert production.caps_w.tobytes() == reference.caps_w.tobytes()
        assert (production.target_frequency_mhz
                == reference.target_frequency_mhz)


class TestEvaluation:
    def test_equal_frequency_cuts_variation_at_same_power(self, fleet):
        """The Section VII claim, quantified."""
        budget = fleet.n * 280.0
        rng = np.random.default_rng(0)
        uniform = evaluate_allocation(
            fleet, sgemm(), allocate_uniform(fleet, budget), rng=rng
        )
        managed = evaluate_allocation(
            fleet, sgemm(),
            allocate_equal_frequency(fleet, sgemm(), budget),
            rng=np.random.default_rng(0),
        )
        assert managed["variation"] < 0.5 * uniform["variation"]
        # Comparable median performance and total power.
        assert managed["median_ms"] < uniform["median_ms"] * 1.05
        assert managed["total_power_w"] <= budget * 1.01

    def test_frequency_spread_collapses(self, fleet):
        budget = fleet.n * 280.0
        managed = evaluate_allocation(
            fleet, sgemm(),
            allocate_equal_frequency(fleet, sgemm(), budget),
            rng=np.random.default_rng(0),
        )
        uniform = evaluate_allocation(
            fleet, sgemm(), allocate_uniform(fleet, budget),
            rng=np.random.default_rng(0),
        )
        assert (managed["frequency_spread_mhz"]
                < uniform["frequency_spread_mhz"])

    def test_metrics_keys(self, fleet):
        result = evaluate_allocation(
            fleet, sgemm(), allocate_uniform(fleet, fleet.n * 300.0)
        )
        assert {"variation", "median_ms", "worst_ms", "total_power_w",
                "frequency_spread_mhz", "median_frequency_mhz"} <= set(result)
