"""Property search: production ``solve_steady`` vs the dense-scan oracle.

Hypothesis hunts for a population where the fleet search and the dense
scan (``tests/gpu/dvfs_oracle.py``) disagree on any bit of any
:class:`~repro.gpu.dvfs.SteadyOperatingPoint` array.  The search space
covers every registered SKU at 1-64 GPUs, per-GPU thermal resistance and
coolant (down to the converged-at-entry extreme), efficiency extremes,
and the cap shapes where a search can plausibly diverge from a scan:

* power caps drawn from the oracle's own settled-power grid, so the
  ``power <= cap`` comparison ties exactly, optionally nudged one ulp
  either side of the tie — including ties on the rare columns where the
  fleet search's analytic boundary estimate lands one rung high, so its
  first probe pair has the tie as its *lower* cell;
* caps below the bottom rung and above the top (including ``inf``);
* boost ceilings below the bottom rung, on a rung, between rungs, and
  unbounded;
* dithering policies (AMD, or forced on an NVIDIA ladder), where the RNG
  stream's state after the solve must match as well as the outputs.

A second property holds production
:meth:`~repro.gpu.dvfs.DvfsController.power_grid` — every cell through the
masked-convergence kernel — to the oracle's dense seven-iteration
:func:`~tests.gpu.dvfs_oracle.dense_grid`, including hot cells where the
``t_shutdown + 40`` temperature clamp binds.

The fixed cases in ``test_dvfs_fleet_equivalence.py`` and
``test_solver_equivalence.py`` pin the named edge cases; this module
searches between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import hypothesis.extra.numpy as hnp
import numpy as np
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from repro.gpu.dvfs import DvfsController, DvfsPolicy
from repro.gpu.power import PowerModel
from repro.gpu.silicon import SiliconConfig, sample_population
from repro.gpu.specs import get_spec, list_specs
from repro.gpu.thermal import ThermalModel

from tests.gpu.dvfs_oracle import (
    assert_ops_identical,
    dense_grid,
    overshoot_columns,
    solve_dense,
)

#: Cap code meanings (besides a ladder column 0..k-1, which ties the cap
#: to that column's settled power): far below the bottom rung,
#: unconstrained, and tied on a column the boundary estimate overshoots
#: (see :func:`overshoot_columns`; the top column when a GPU has none).
CAP_BELOW = -1
CAP_INF = -2
CAP_OVERSHOOT = -3
#: Ceiling code for "below the bottom rung" (k means unbounded).
CEIL_BELOW = -1


@dataclass(frozen=True)
class Case:
    """One drawn population plus its load, caps, and ceilings."""

    spec: str
    seed: int
    r: tuple[float, ...]
    coolant: tuple[float, ...]
    activity: tuple[float, ...]
    dram: tuple[float, ...]
    efficiency: tuple[float, ...]
    cap_codes: tuple[int, ...]
    cap_ulps: tuple[int, ...]
    ceil_codes: tuple[int, ...] | None
    ceil_between: tuple[bool, ...]
    force_dither: bool
    rng_seed: int

    @property
    def n(self) -> int:
        return len(self.r)


def _array(dtype, n, elements):
    # fill=nothing(): draw every element, so each GPU gets its own value
    # instead of a mostly-constant array with a few outliers.
    return hnp.arrays(dtype, n, elements=elements, fill=st.nothing()).map(
        lambda a: tuple(a.tolist())
    )


def _floats(n, lo, hi):
    return _array(np.float64, n, st.floats(lo, hi, allow_nan=False,
                                             allow_infinity=False))


def _ints(n, lo, hi):
    return _array(np.int64, n, st.integers(lo, hi))


@st.composite
def cases(draw) -> Case:
    name = draw(st.sampled_from(list_specs()))
    k = get_spec(name).n_pstates
    n = draw(st.integers(1, 64))
    return Case(
        spec=name,
        seed=draw(st.integers(0, 2**16)),
        r=draw(st.one_of(_floats(n, 0.04, 0.35),
                         _floats(n, 1e-12, 1e-9))),
        coolant=draw(_floats(n, 10.0, 50.0)),
        activity=draw(_floats(n, 0.0, 1.0)),
        dram=draw(_floats(n, 0.0, 1.0)),
        efficiency=draw(_floats(n, 0.05, 1.3)),
        cap_codes=draw(_array(np.int64, n, st.one_of(
            st.sampled_from((CAP_BELOW, CAP_INF, CAP_OVERSHOOT)),
            st.integers(0, k - 1),
        ))),
        cap_ulps=draw(_ints(n, -1, 1)),
        ceil_codes=draw(st.none() | _ints(n, CEIL_BELOW, k)),
        ceil_between=draw(_array(np.bool_, n, st.booleans())),
        force_dither=draw(st.booleans()),
        rng_seed=draw(st.integers(0, 2**16)),
    )


def build(case: Case) -> DvfsController:
    spec = get_spec(case.spec)
    silicon = sample_population(
        case.n, SiliconConfig(), np.random.default_rng(case.seed)
    )
    thermal = ThermalModel(spec, np.array(case.r), np.array(case.coolant))
    policy = DvfsPolicy.for_spec(spec)
    if case.force_dither and not policy.dither:
        policy = DvfsPolicy(dither=True, dither_max_duty=0.5)
    return DvfsController(spec, PowerModel(spec, silicon), thermal, policy)


def caps_for(case: Case, ctl: DvfsController, act, dram, eff, p_grid):
    """Per-GPU caps: exact settled-power ties, nudged ties, extremes."""
    codes = np.array(case.cap_codes)
    rows = np.arange(case.n)
    cols = np.clip(codes, 0, None)
    if (codes == CAP_OVERSHOOT).any():
        cols = np.where(codes == CAP_OVERSHOOT,
                        overshoot_columns(ctl, act, dram, eff, p_grid), cols)
    cap = p_grid[rows, cols].copy()
    # Overshoot ties stay exact: the tie itself is the point.
    ulps = np.where(codes == CAP_OVERSHOOT, 0, np.array(case.cap_ulps))
    cap = np.where(ulps < 0, np.nextafter(cap, -np.inf), cap)
    cap = np.where(ulps > 0, np.nextafter(cap, np.inf), cap)
    cap[codes == CAP_BELOW] = p_grid[codes == CAP_BELOW, 0] * 0.5
    cap[codes == CAP_INF] = np.inf
    return cap


def ceilings_for(case: Case, ctl: DvfsController):
    if case.ceil_codes is None:
        return None
    steps = ctl.pstates()
    k = steps.shape[0]
    codes = np.array(case.ceil_codes)
    on_rung = steps[np.clip(codes, 0, k - 1)]
    upper = steps[np.clip(codes + 1, 0, k - 1)]
    f_cap = np.where(np.array(case.ceil_between), (on_rung + upper) / 2,
                     on_rung)
    f_cap[codes == CEIL_BELOW] = steps[0] * 0.5
    f_cap[codes == k] = np.inf
    return f_cap


def _case(spec, n, **over):
    """An explicit example: spec defaults with per-field overrides."""
    k = get_spec(spec).n_pstates
    base = dict(
        spec=spec, seed=0, r=(0.1,) * n, coolant=(25.0,) * n,
        activity=(1.0,) * n, dram=(0.35,) * n, efficiency=(1.0,) * n,
        cap_codes=(k - 1,) * n, cap_ulps=(0,) * n, ceil_codes=None,
        ceil_between=(False,) * n, force_dither=False, rng_seed=0,
    )
    base.update(over)
    return Case(**base)


# No shrink phase: a failing case is reported as drawn (its repr names
# every per-GPU value), because shrinking dozens of per-GPU arrays takes
# minutes.
@settings(max_examples=40, deadline=None, database=None,
          phases=(Phase.explicit, Phase.generate),
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(cases())
@example(_case("V100", 16, cap_codes=(CAP_BELOW,) * 16))
@example(_case("V100", 16, activity=(0.05,) * 16, dram=(0.05,) * 16,
               cap_codes=(CAP_INF,) * 16))
@example(_case("V100", 8, ceil_codes=(CEIL_BELOW,) * 8))
@example(_case("V100", 6, ceil_codes=(CEIL_BELOW, 0, 3, 93, 186, 187),
               ceil_between=(False, False, True, False, False, False)))
@example(_case("V100", 16, r=(1e-12,) * 16))
@example(_case("V100", 16, efficiency=(0.05,) * 4 + (0.5,) * 4
               + (1.0,) * 4 + (1.3,) * 4))
@example(_case("MI60", 40, r=(0.16,) * 40, coolant=(30.0,) * 40,
               dram=(0.45,) * 40, cap_codes=(8,) * 40, rng_seed=5))
@example(_case("MI60", 1, cap_codes=(3,), cap_ulps=(-1,)))
def test_fleet_search_matches_dense_scan(case):
    ctl = build(case)
    act, dram, eff = (np.array(v) for v in
                      (case.activity, case.dram, case.efficiency))
    p_grid, _ = ctl.power_grid(act, dram, eff)
    kwargs = dict(power_cap_w=caps_for(case, ctl, act, dram, eff, p_grid),
                  f_cap_mhz=ceilings_for(case, ctl))
    rng_dense = np.random.default_rng(case.rng_seed)
    rng_fleet = np.random.default_rng(case.rng_seed)
    dense = solve_dense(ctl, act, dram, eff, rng=rng_dense, **kwargs)
    fleet = ctl.solve_steady(act, dram, eff, rng=rng_fleet, **kwargs)
    assert_ops_identical(dense, fleet, repr(case))
    assert rng_dense.bit_generator.state == rng_fleet.bit_generator.state


def _hot_case(spec, n):
    """Hot, loaded GPUs: many cells settle at the temperature clamp."""
    return _case(spec, n, r=(0.35,) * n, coolant=(50.0,) * n,
                 dram=(1.0,) * n, efficiency=(1.3,) * n)


@settings(max_examples=40, deadline=None, database=None,
          phases=(Phase.explicit, Phase.generate),
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(cases())
@example(_case("V100", 8, ceil_codes=(CEIL_BELOW,) * 8))
@example(_case("V100", 6, ceil_codes=(0,) * 6))
@example(_case("V100", 16, r=(1e-12,) * 16))
@example(_case("V100", 16, activity=(0.0,) * 16, dram=(0.0,) * 16))
@example(_hot_case("V100", 8))
@example(_hot_case("MI60", 8))
@example(_hot_case("RTX5000", 3))
def test_power_grid_matches_dense_grid(case):
    ctl = build(case)
    act, dram, eff = (np.array(v) for v in
                      (case.activity, case.dram, case.efficiency))
    p, t = ctl.power_grid(act, dram, eff)
    p_ref, t_ref = dense_grid(ctl, act, dram, eff)
    for got, want in ((p, p_ref), (t, t_ref)):
        assert got.dtype == want.dtype == np.float64, repr(case)
        assert got.shape == want.shape == (case.n, ctl.spec.n_pstates)
        assert np.array_equal(got, want), repr(case)


def test_hot_cases_bind_the_temperature_clamp():
    # The hot examples above only exercise the clamp if cells reach it.
    for spec in ("V100", "MI60", "RTX5000"):
        case = _hot_case(spec, 3)
        ctl = build(case)
        _, t = dense_grid(ctl, *(np.array(v) for v in
                                 (case.activity, case.dram, case.efficiency)))
        assert (t == np.float32(ctl.spec.t_shutdown_c + 40.0)).any(), spec
