"""Production steady-state solver vs the dense-scan oracle.

The fleet search's entire value proposition is that it is *bit-identical*
to the dense scan (``tests/gpu/dvfs_oracle.py``) while evaluating a
fraction of its cells — every assertion here is exact equality, not
allclose.  Cases concentrate on the boundaries where a search along the
p-state ladder could plausibly diverge from an explicit scan: caps below
the ladder bottom, caps above the ladder top, per-GPU boost ceilings at
the extremes, severe defect combinations, and AMD dithering (which must
consume identical RNG draws on both sides).
"""

import numpy as np
import pytest

from repro.gpu.dvfs import DvfsController, SolverStats
from repro.gpu.power import PowerModel
from repro.gpu.silicon import SiliconConfig, sample_population
from repro.gpu.specs import MI60, RTX5000, V100
from repro.gpu.thermal import ThermalModel

from tests.gpu.dvfs_oracle import assert_ops_identical, dense_grid, solve_dense


def make_controller(n=48, spec=V100, r=0.1, coolant=25.0, seed=0,
                    policy=None):
    silicon = sample_population(
        n, SiliconConfig(), np.random.default_rng(seed)
    )
    power = PowerModel(spec, silicon)
    thermal = ThermalModel(spec, np.full(n, r), np.full(n, coolant))
    return DvfsController(spec, power, thermal, policy)


class TestLadderMatchesDense:
    """The production search along the ladder equals the dense scan."""

    @pytest.mark.parametrize("spec", [V100, RTX5000, MI60],
                             ids=lambda s: s.name)
    def test_randomized_operating_points(self, spec):
        ctl = make_controller(spec=spec, n=64, seed=3)
        rng = np.random.default_rng(7)
        for trial in range(4):
            act = rng.uniform(0.1, 1.0, ctl.n)
            dram = rng.uniform(0.0, 0.9, ctl.n)
            eff = rng.uniform(0.6, 1.05, ctl.n)
            cap = rng.uniform(0.5, 1.2, ctl.n) * spec.tdp_w
            f_cap = rng.uniform(0.5, 1.0, ctl.n) * spec.f_max_mhz
            kwargs = dict(power_cap_w=cap, f_cap_mhz=f_cap)
            if ctl.policy.dither:
                dense = solve_dense(
                    ctl, act, dram, eff, rng=np.random.default_rng(trial),
                    **kwargs)
                fleet = ctl.solve_steady(
                    act, dram, eff, rng=np.random.default_rng(trial),
                    **kwargs)
            else:
                dense = solve_dense(ctl, act, dram, eff, **kwargs)
                fleet = ctl.solve_steady(act, dram, eff, **kwargs)
            assert_ops_identical(dense, fleet)

    def test_scalar_inputs(self):
        ctl = make_controller()
        assert_ops_identical(solve_dense(ctl, 1.0, 0.35),
                             ctl.solve_steady(1.0, 0.35))

    def test_power_cap_below_ladder_bottom(self):
        # Nothing is feasible: both sides must settle on index 0.
        ctl = make_controller(n=16)
        dense = solve_dense(ctl, 1.0, 0.35, power_cap_w=1.0)
        fleet = ctl.solve_steady(1.0, 0.35, power_cap_w=1.0)
        assert np.all(fleet.pstate_index == 0)
        assert_ops_identical(dense, fleet)

    def test_power_cap_above_everything(self):
        ctl = make_controller(n=16)
        dense = solve_dense(ctl, 0.05, 0.05, power_cap_w=1e6)
        fleet = ctl.solve_steady(0.05, 0.05, power_cap_w=1e6)
        assert np.all(fleet.pstate_index == V100.n_pstates - 1)
        assert_ops_identical(dense, fleet)

    def test_extreme_boost_ceilings(self):
        # f_cap below the ladder bottom, between rungs, and above the top —
        # all in one population.
        ctl = make_controller(n=6)
        steps = ctl.pstates()
        f_cap = np.array([
            steps[0] * 0.5,            # below the bottom rung
            steps[0],                  # exactly the bottom rung
            (steps[3] + steps[4]) / 2,  # between rungs
            steps[-1] * 0.5,
            steps[-1],                 # exactly the top
            steps[-1] * 2.0,           # above the top
        ])
        assert_ops_identical(
            solve_dense(ctl, 0.4, 0.2, f_cap_mhz=f_cap),
            ctl.solve_steady(0.4, 0.2, f_cap_mhz=f_cap))

    def test_severe_defect_combination(self):
        # Mimic a POWER_DELIVERY + SICK_SLOW pileup: tiny per-GPU caps,
        # tiny ceilings, degraded efficiency, hot coolant.
        ctl = make_controller(n=32, r=0.22, coolant=45.0, seed=9)
        rng = np.random.default_rng(11)
        cap = np.where(rng.random(ctl.n) < 0.3,
                       rng.uniform(0.3, 0.6, ctl.n) * V100.tdp_w,
                       V100.tdp_w)
        f_cap = np.where(rng.random(ctl.n) < 0.3,
                         rng.uniform(0.4, 0.8, ctl.n) * V100.f_max_mhz,
                         V100.f_max_mhz)
        eff = rng.uniform(0.5, 1.0, ctl.n)
        kwargs = dict(power_cap_w=cap, f_cap_mhz=f_cap)
        assert_ops_identical(solve_dense(ctl, 1.0, 0.5, eff, **kwargs),
                             ctl.solve_steady(1.0, 0.5, eff, **kwargs))

    def test_dither_consumes_identical_rng(self):
        # AMD dithering draws from the caller's rng; the search itself must
        # consume none, so both sides leave the stream in the same state.
        ctl = make_controller(spec=MI60, n=40, r=0.16, coolant=30.0)
        assert ctl.policy.dither
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        dense = solve_dense(ctl, 1.0, 0.45, rng=rng_a)
        fleet = ctl.solve_steady(1.0, 0.45, rng=rng_b)
        assert_ops_identical(dense, fleet)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestColumnEvaluator:
    """The fleet search's masked column evaluator equals the dense grid."""

    def test_columns_match_grid_bitwise(self):
        ctl = make_controller(n=24)
        rng = np.random.default_rng(2)
        act = rng.uniform(0.2, 1.0, ctl.n)
        dram = rng.uniform(0.0, 0.8, ctl.n)
        eff = np.ones(ctl.n)
        p_grid, t_grid = dense_grid(ctl, act, dram)
        idx = rng.integers(0, V100.n_pstates, size=ctl.n)
        rows = np.arange(ctl.n)
        p_col, t_col = ctl._settle_cols(rows, idx, act, dram, eff)
        assert np.array_equal(p_col.astype(np.float64), p_grid[rows, idx])
        assert np.array_equal(t_col.astype(np.float64), t_grid[rows, idx])
        # A row subset in scrambled order gathers the same cells.
        sub = rng.permutation(ctl.n)[:9]
        p_sub, t_sub = ctl._settle_cols(sub, idx[sub], act, dram, eff)
        assert np.array_equal(p_sub.astype(np.float64), p_grid[sub, idx[sub]])
        assert np.array_equal(t_sub.astype(np.float64), t_grid[sub, idx[sub]])

    def test_two_dimensional_indices(self):
        ctl = make_controller(n=8)
        act, dram, eff = (np.full(ctl.n, v) for v in (0.7, 0.3, 1.0))
        p_grid, t_grid = dense_grid(ctl, 0.7, 0.3)
        idx = np.tile(np.array([0, 50, 186]), (ctl.n, 1))
        p_col, t_col = ctl._settle_cols(None, idx, act, dram, eff)
        assert p_col.shape == (ctl.n, 3)
        rows = np.arange(ctl.n)[:, None]
        assert np.array_equal(p_col.astype(np.float64), p_grid[rows, idx])
        assert np.array_equal(t_col.astype(np.float64), t_grid[rows, idx])
        picked = np.array([1, 4, 6])
        p_rows, _ = ctl._settle_cols(picked, idx[picked], act, dram, eff)
        assert np.array_equal(p_rows.astype(np.float64),
                              p_grid[picked[:, None], idx[picked]])

    def test_rejects_wrong_shape(self):
        ctl = make_controller(n=8)
        with pytest.raises(ValueError):
            ctl.power_grid(np.zeros(4), 0.2)
        with pytest.raises(ValueError):
            ctl.solve_steady(np.zeros(4), 0.2)


class TestSolverStats:
    def test_ladder_avoids_most_of_the_grid(self):
        ctl = make_controller(n=128)
        ctl.solve_steady(1.0, 0.35)
        stats = ctl.stats
        # One batched call = n per-GPU solves (invariant across shard
        # plans) grouped into a single batch.
        assert stats.solves == 128
        assert stats.batches == 1
        assert stats.dense_cells == 128 * V100.n_pstates
        assert stats.columns_evaluated < stats.dense_cells / 5
        assert stats.dense_fraction_avoided > 0.8
        assert stats.fixed_point_iterations <= 7 * stats.columns_evaluated

    def test_grid_avoids_nothing(self):
        ctl = make_controller(n=16)
        solve_dense(ctl, 1.0, 0.35)
        assert ctl.stats.columns_evaluated >= ctl.stats.dense_cells
        assert ctl.stats.dense_fraction_avoided == 0.0
        assert ctl.stats.fixed_point_iterations == \
            7 * ctl.stats.columns_evaluated

    def test_merge_and_copy(self):
        a = SolverStats(solves=1, columns_evaluated=10, dense_cells=100,
                        fixed_point_iterations=70)
        b = a.copy()
        b.merge(a)
        assert b.solves == 2 and b.columns_evaluated == 20
        assert a.solves == 1  # copy is independent
        assert "avoided" in a.describe()


class TestSolverSelection:
    """There is one solver: no per-controller or per-call selection."""

    def test_bad_solver_argument_rejected(self):
        # The ``solver`` keyword is gone from both signatures, so any
        # value — a real mode name or not — is a TypeError.
        ctl = make_controller(n=4)
        for solver in ("nope", "fleet"):
            with pytest.raises(TypeError):
                ctl.solve_steady(1.0, 0.35, solver=solver)
            with pytest.raises(TypeError):
                DvfsController(ctl.spec, ctl.power, ctl.thermal,
                               solver=solver)

    def test_env_var_is_ignored(self, monkeypatch):
        # REPRO_DVFS_SOLVER used to switch the process-wide default; the
        # production solve must not read it.
        plain = make_controller(n=32)
        expected = plain.solve_steady(1.0, 0.35)
        for value in ("grid", "ladder", "quantum"):
            monkeypatch.setenv("REPRO_DVFS_SOLVER", value)
            ctl = make_controller(n=32)
            assert_ops_identical(ctl.solve_steady(1.0, 0.35), expected)
            assert ctl.stats == plain.stats
