"""Differential equivalence harness for the fleet-wide vectorized solver.

The production solver batches every GPU's ladder search into fleet-wide
float32 array ops (estimate-guided pair probe, masked-convergence fixed
point, galloping bisection).  Its contract: *bit-identical* outputs to
the dense grid scan (``tests/gpu/dvfs_oracle.py``), never allclose.  This
suite drives the two differentially across every registered preset,
defect-injected fleets, power-cap and boost-ceiling edge cases, and the
degenerate fleets (one GPU, one p-state, converged-at-entry) where a
batched implementation could plausibly diverge from the scan.

Masked-convergence behaviour gets its own section: a fleet whose members
freeze at different fixed-point iteration counts must produce exactly
the bits of solving each GPU alone, while the iteration counters prove
the early-dropout machinery actually engaged.
"""

import numpy as np
import pytest

from repro.gpu.dvfs import DvfsController
from repro.gpu.power import PowerModel
from repro.gpu.silicon import SiliconConfig, sample_population
from repro.gpu.specs import MI60, V100, GPUSpec, get_spec, list_specs
from repro.gpu.thermal import ThermalModel

from tests.gpu.dvfs_oracle import (
    OP_FIELDS,
    assert_ops_identical,
    overshoot_columns,
    solve_dense,
)

#: The two sides of every differential: production and oracle.
SOLVES = {
    "fleet": lambda ctl, *args, **kwargs: ctl.solve_steady(*args, **kwargs),
    "dense": solve_dense,
}


def build_controller(n=48, spec=V100, r=0.1, coolant=25.0, seed=0,
                     policy=None, silicon=None):
    """Controller over a sampled population; ``r`` may be per-GPU."""
    if silicon is None:
        silicon = sample_population(
            n, SiliconConfig(), np.random.default_rng(seed)
        )
    power = PowerModel(spec, silicon)
    r_arr = np.broadcast_to(np.asarray(r, dtype=float), (n,)).copy()
    thermal = ThermalModel(spec, r_arr, np.full(n, coolant))
    return DvfsController(spec, power, thermal, policy)


def assert_all_solvers_identical(ctl, *args, rng_seed=None, **kwargs):
    """Production == oracle, with identically-seeded RNGs when dithering.

    Returns the ops keyed ``"fleet"`` / ``"dense"``; the RNG streams must
    end in the same state too.
    """
    ops, states = {}, {}
    for name, solve in SOLVES.items():
        rng = (np.random.default_rng(rng_seed)
               if rng_seed is not None else None)
        ops[name] = solve(ctl, *args, rng=rng, **kwargs)
        states[name] = rng.bit_generator.state if rng is not None else None
    assert_ops_identical(ops["dense"], ops["fleet"], "fleet-vs-dense")
    assert states["dense"] == states["fleet"]
    return ops


class TestAllPresets:
    """Fleet == dense scan on every registered SKU."""

    @pytest.mark.parametrize("name", list_specs())
    def test_randomized_operating_points(self, name):
        spec = get_spec(name)
        ctl = build_controller(spec=spec, n=64, seed=3)
        rng_in = np.random.default_rng(17)
        for trial in range(4):
            act = rng_in.uniform(0.1, 1.0, ctl.n)
            dram = rng_in.uniform(0.0, 0.9, ctl.n)
            eff = rng_in.uniform(0.6, 1.05, ctl.n)
            cap = rng_in.uniform(0.5, 1.2, ctl.n) * spec.tdp_w
            f_cap = rng_in.uniform(0.5, 1.0, ctl.n) * spec.f_max_mhz
            assert_all_solvers_identical(
                ctl, act, dram, eff, power_cap_w=cap, f_cap_mhz=f_cap,
                rng_seed=trial if ctl.policy.dither else None)

    @pytest.mark.parametrize("name", list_specs())
    def test_scalar_inputs(self, name):
        ctl = build_controller(spec=get_spec(name), n=12)
        assert_all_solvers_identical(
            ctl, 1.0, 0.35, rng_seed=0 if ctl.policy.dither else None)

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_fleet_sizes(self, n):
        ctl = build_controller(n=n, seed=n)
        assert_all_solvers_identical(ctl, 0.9, 0.4)


class TestDefectInjectedFleets:
    """Populations carrying the paper's defect classes (Section VI)."""

    def test_severe_defect_pileup(self):
        # POWER_DELIVERY + SICK_SLOW: tiny caps, tiny ceilings, degraded
        # efficiency, hot coolant — everything at once.
        ctl = build_controller(n=32, r=0.22, coolant=45.0, seed=9)
        rng = np.random.default_rng(11)
        cap = np.where(rng.random(ctl.n) < 0.3,
                       rng.uniform(0.3, 0.6, ctl.n) * V100.tdp_w,
                       V100.tdp_w)
        f_cap = np.where(rng.random(ctl.n) < 0.3,
                         rng.uniform(0.4, 0.8, ctl.n) * V100.f_max_mhz,
                         V100.f_max_mhz)
        eff = rng.uniform(0.5, 1.0, ctl.n)
        assert_all_solvers_identical(ctl, 1.0, 0.5, eff,
                                     power_cap_w=cap, f_cap_mhz=f_cap)

    def test_efficiency_extremes(self):
        # Near-dead dies next to golden samples in one batch: the widest
        # spread of per-GPU boundary levels a real fleet can show.
        ctl = build_controller(n=16, seed=21)
        eff = np.concatenate([
            np.full(4, 0.05), np.full(4, 0.5),
            np.full(4, 1.0), np.full(4, 1.3),
        ])
        assert_all_solvers_identical(ctl, 1.0, 0.35, eff)

    def test_heterogeneous_thermal_environment(self):
        # Per-GPU thermal resistance (air vs water rows) and a defect mix.
        n = 24
        rng = np.random.default_rng(5)
        r = rng.uniform(0.05, 0.30, n)
        ctl = build_controller(n=n, r=r, coolant=38.0, seed=5)
        eff = rng.uniform(0.55, 1.1, n)
        assert_all_solvers_identical(ctl, 0.95, 0.45, eff)


class TestPowerCapEdgeCases:
    def test_cap_below_ladder_bottom(self):
        # Nothing feasible: everyone pins to index 0 on both sides.
        ctl = build_controller(n=16)
        ops = assert_all_solvers_identical(ctl, 1.0, 0.35, power_cap_w=1.0)
        assert np.all(ops["fleet"].pstate_index == 0)

    def test_cap_above_everything(self):
        ctl = build_controller(n=16)
        ops = assert_all_solvers_identical(ctl, 0.05, 0.05,
                                           power_cap_w=1e6)
        assert np.all(
            ops["fleet"].pstate_index == V100.n_pstates - 1)

    def test_cap_exactly_ties_settled_power(self):
        # Feasibility is `power <= cap`; a cap that *equals* the settled
        # power at the boundary level bitwise is the sharpest tie
        # possible.  The settled float32 widens exactly to float64, so
        # feeding the dense answer back as the cap constructs it.
        ctl = build_controller(n=24, seed=13)
        base = solve_dense(ctl, 1.0, 0.35)
        ops = assert_all_solvers_identical(ctl, 1.0, 0.35,
                                           power_cap_w=base.power_w)
        assert np.array_equal(ops["fleet"].pstate_index,
                              base.pstate_index)

    def test_cap_ties_at_the_probe_pairs_lower_cell(self):
        # Where the analytic boundary estimate lands one rung high, the
        # first probe pair is (j, j + 1) and a cap tied to column j's
        # settled power decides the pair's *lower* cell — a tie the
        # uniform fleets above never place there.
        rng = np.random.default_rng(3)
        n = 64
        ctl = build_controller(n=n, r=rng.uniform(0.04, 0.35, n),
                               coolant=30.0, seed=1)
        act = rng.uniform(0.0, 1.0, n)
        dram = rng.uniform(0.0, 1.0, n)
        eff = rng.uniform(0.05, 1.3, n)
        p_grid, _ = ctl.power_grid(act, dram, eff)
        cols = overshoot_columns(ctl, act, dram, eff, p_grid)
        tied = cols < V100.n_pstates - 1
        assert tied.any()
        cap = p_grid[np.arange(n), cols]
        ops = assert_all_solvers_identical(ctl, act, dram, eff,
                                           power_cap_w=cap)
        assert np.array_equal(ops["fleet"].pstate_index[tied], cols[tied])

    def test_cap_mix_spanning_the_ladder(self):
        # One batch mixing infeasible, mid-ladder, and unconstrained caps
        # exercises the -1/hi_top index extremes inside a single solve.
        ctl = build_controller(n=9, seed=2)
        cap = np.array([1.0, 1.0, 120.0, 180.0, 240.0,
                        300.0, 1e4, 1e6, np.inf])
        assert_all_solvers_identical(ctl, 1.0, 0.4, power_cap_w=cap)

    def test_boost_ceiling_extremes(self):
        # f_cap below the bottom rung forces hi_top < 2 (the pair probe
        # is skipped fleet-wide); exactly-on-rung and +inf ride along.
        ctl = build_controller(n=6)
        steps = ctl.pstates()
        f_cap = np.array([
            steps[0] * 0.5,             # below the bottom rung
            steps[0],                   # exactly the bottom rung
            (steps[3] + steps[4]) / 2,  # between rungs
            steps[-1] * 0.5,
            steps[-1],                  # exactly the top
            np.inf,                     # unconstrained
        ])
        assert_all_solvers_identical(ctl, 0.4, 0.2, f_cap_mhz=f_cap)

    def test_all_ceilings_below_bottom(self):
        # hi_top == 1 everywhere: the fleet solver's non-pair fallback
        # path must still match the scan bit for bit.
        ctl = build_controller(n=8)
        f_cap = np.full(8, ctl.pstates()[0] * 0.25)
        assert_all_solvers_identical(ctl, 0.8, 0.3, f_cap_mhz=f_cap)


def _single_pstate_spec():
    return GPUSpec(
        name="SOLO", vendor="NVIDIA", sm_count=10, tdp_w=100.0,
        pstates_mhz=(900.0,), v_min=0.75, v_max=1.0, vf_gamma=1.5,
        c_eff_w_per_v2mhz=0.10, idle_power_w=12.0,
        mem_bandwidth_gbs=500.0, mem_power_max_w=30.0,
        leakage_nominal_w=10.0, leakage_temp_coeff=0.018,
        compute_throughput=1e6, t_shutdown_c=92.0, t_slowdown_c=87.0,
        t_max_operating_c=83.0,
    )


class TestDegenerateFleets:
    def test_single_gpu(self):
        ctl = build_controller(n=1, seed=4)
        assert_all_solvers_identical(ctl, 1.0, 0.35)
        assert_all_solvers_identical(ctl, 1.0, 0.35, power_cap_w=50.0)

    def test_single_pstate_ladder(self):
        # A one-rung ladder collapses the search entirely; both sides
        # must agree on the only level there is, capped or not.
        spec = _single_pstate_spec()
        ctl = build_controller(n=8, spec=spec, seed=6)
        assert_all_solvers_identical(ctl, 1.0, 0.4)
        assert_all_solvers_identical(ctl, 1.0, 0.4, power_cap_w=1.0)
        assert_all_solvers_identical(ctl, 1.0, 0.4,
                                     f_cap_mhz=spec.f_max_mhz / 2)

    def test_single_gpu_single_pstate(self):
        ctl = build_controller(n=1, spec=_single_pstate_spec(), seed=6)
        assert_all_solvers_identical(ctl, 0.7, 0.2)

    def test_converged_at_entry(self):
        # Near-zero thermal resistance pins the junction at coolant
        # temperature: the fixed point is bit-stable at iteration zero,
        # so the masked loop drops every cell immediately.
        ctl = build_controller(n=16, r=1e-12, seed=8)
        assert_all_solvers_identical(ctl, 1.0, 0.35)
        stats = ctl.stats
        assert stats.fixed_point_iterations < \
            7 * stats.columns_evaluated


class TestDither:
    def test_dither_bits_and_rng_stream(self):
        # AMD dithering draws duty cycles from the caller's RNG *after*
        # the search; both sides must consume identical draws and leave
        # the stream in the same state.
        ctl = build_controller(spec=MI60, n=40, r=0.16, coolant=30.0)
        assert ctl.policy.dither
        rngs = {name: np.random.default_rng(5) for name in SOLVES}
        ops = {name: solve(ctl, 1.0, 0.45, rng=rngs[name])
               for name, solve in SOLVES.items()}
        assert_ops_identical(ops["dense"], ops["fleet"])
        assert (rngs["dense"].bit_generator.state
                == rngs["fleet"].bit_generator.state)
        assert rngs["fleet"].bit_generator.state \
            != np.random.default_rng(5).bit_generator.state

    def test_dither_with_defects(self):
        ctl = build_controller(spec=MI60, n=24, r=0.2, coolant=42.0,
                               seed=3)
        rng = np.random.default_rng(1)
        eff = rng.uniform(0.5, 1.05, ctl.n)
        cap = rng.uniform(0.4, 1.1, ctl.n) * MI60.tdp_w
        assert_all_solvers_identical(ctl, 1.0, 0.5, eff, power_cap_w=cap,
                                     rng_seed=9)


class TestMaskedConvergence:
    """The fleet batch must behave as if each GPU were solved alone."""

    def test_fleet_equals_each_gpu_solved_alone(self):
        # Heterogeneous thermal resistance makes members freeze at
        # different iteration counts; the masked loop's compaction and
        # early exit must not leak between lanes.
        n = 12
        spec = V100
        rng = np.random.default_rng(7)
        r = np.concatenate([
            np.full(4, 1e-12),               # converged at entry
            rng.uniform(0.05, 0.12, 4),      # quick to freeze
            rng.uniform(0.25, 0.35, 4),      # slow, hot lanes
        ])
        coolant = 30.0
        silicon = sample_population(n, SiliconConfig(),
                                    np.random.default_rng(7))
        eff = rng.uniform(0.6, 1.1, n)
        cap = rng.uniform(0.6, 1.1, n) * spec.tdp_w
        fleet_ctl = build_controller(n=n, spec=spec, r=r, coolant=coolant,
                                     silicon=silicon)
        batched = fleet_ctl.solve_steady(1.0, 0.4, eff, power_cap_w=cap)
        for i in range(n):
            solo_ctl = build_controller(
                n=1, spec=spec, r=r[i], coolant=coolant,
                silicon=silicon.take(np.array([i])))
            solo = solo_ctl.solve_steady(
                1.0, 0.4, eff[i:i + 1], power_cap_w=cap[i:i + 1])
            for field in OP_FIELDS:
                lhs = getattr(batched, field)[i:i + 1]
                rhs = getattr(solo, field)
                assert np.array_equal(lhs, rhs), f"{field} gpu={i}"

    def test_early_dropout_engages(self):
        # Half the fleet converges at entry: the iteration counter must
        # land strictly below the no-dropout bound (7 per column) while
        # the answers stay bit-identical to the dense scan's.
        n = 32
        r = np.where(np.arange(n) < n // 2, 1e-12, 0.1)
        ctl = build_controller(n=n, r=r, seed=15)
        dense = solve_dense(ctl, 1.0, 0.35)
        ctl.stats = type(ctl.stats)()
        fleet = ctl.solve_steady(1.0, 0.35)
        assert_ops_identical(dense, fleet)
        stats = ctl.stats
        assert stats.columns_evaluated > 0
        assert stats.fixed_point_iterations < \
            7 * stats.columns_evaluated

    def test_uniform_fleet_runs_full_depth(self):
        # Control case: identical lanes freeze together, so per-cell
        # iteration depth stays at the fixed-point budget and nothing is
        # dropped early — guards against the masked loop *under*-running.
        ctl = build_controller(n=16)
        ctl.solve_steady(1.0, 0.35)
        stats = ctl.stats
        assert stats.fixed_point_iterations <= \
            7 * stats.columns_evaluated


class TestCounterInvariance:
    """Batched solves must count as n per-GPU solves in one batch."""

    @pytest.mark.parametrize("solver", sorted(SOLVES))
    def test_one_call_counts_n_solves_one_batch(self, solver):
        ctl = build_controller(n=32)
        solve = SOLVES[solver]
        solve(ctl, 1.0, 0.35)
        assert ctl.stats.solves == 32
        assert ctl.stats.batches == 1
        solve(ctl, 0.5, 0.2)
        assert ctl.stats.solves == 64
        assert ctl.stats.batches == 2

    def test_solve_and_batch_totals_invariant_across_solvers(self):
        totals = {}
        for name, solve in SOLVES.items():
            ctl = build_controller(n=24)
            for trial in range(3):
                solve(ctl, 1.0, 0.35)
            totals[name] = (ctl.stats.solves, ctl.stats.batches,
                            ctl.stats.dense_cells)
        assert totals["fleet"] == totals["dense"] \
            == (72, 3, 72 * V100.n_pstates)

    def test_fleet_evaluates_fewer_columns_than_dense_grid(self):
        # The point of the estimate-guided pair probe: a few settled
        # cells per GPU, not one per rung.  V100's 187-rung ladder makes
        # the dense grid ~90x the pair probe's two cells per GPU; allow
        # gallop stragglers but stay far under a binary search's
        # ceil(log2(k + 1)) + 2 columns per GPU.
        n = 128
        ctl = build_controller(n=n)
        ctl.solve_steady(1.0, 0.35)
        stats = ctl.stats
        assert stats.dense_cells == n * V100.n_pstates
        bisection_columns = n * (int(np.ceil(np.log2(V100.n_pstates + 1)))
                                 + 2)
        assert stats.columns_evaluated < bisection_columns / 2
        assert stats.columns_evaluated <= stats.dense_cells / 20
        assert stats.dense_fraction_avoided >= 0.95
