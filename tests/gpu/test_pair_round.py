"""The fleet search's pair round, and the cells no output reads.

``DvfsController._search_fleet`` returns straight from its pair round
when the pair resolves every row: the row brackets its boundary, or both
probed cells are feasible and the upper one is the row's last rung (the
ladder top, or a SICK_SLOW boost ceiling).  ``solve_steady`` reads nothing
above the top or a ceiling (both capped flags and the dither mask exclude
those rows), so the search never settles a cell above a ceiling after the
pair round either.  A row whose probe pair is rungs (0, 1) with both
infeasible settles at rung 0, and the probed rung 1 is its above cell, so
it settles nothing after the pair round.

Both hold on a defective fleet under NVIDIA's policy and a dithering one:
a solve the pair round resolves evaluates exactly ``2n`` cells, no later
settle touches a cell above a ceiling, and every
:class:`~repro.gpu.dvfs.SteadyOperatingPoint` field, the capped flags
included, equals the dense oracle's bit for bit, with the dither stream
left in the same state.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.gpu.defects import DefectConfig, DefectType, assign_defects
from repro.gpu.device import GPUFleet
from repro.gpu.dvfs import DvfsPolicy
from repro.gpu.silicon import SiliconConfig, sample_population
from repro.gpu.specs import V100

from tests.gpu.dvfs_oracle import assert_ops_identical, solve_dense

POLICIES = {
    "nvidia": None,
    "dithering": DvfsPolicy(dither=True, dither_max_duty=0.5),
}


def _fleet(policy, n=64, seed=7):
    rng = np.random.default_rng(seed)
    silicon = sample_population(n, SiliconConfig(), rng)
    defects = assign_defects(
        n,
        DefectConfig(
            power_delivery_rate=0.0, sick_slow_rate=0.3, hot_runner_rate=0.0
        ),
        rng,
    )
    return GPUFleet(
        V100, silicon, defects, np.full(n, 0.1), np.full(n, 25.0),
        policy=policy,
    )


def _solve_both(fleet, cap):
    """Production and oracle solves of a light load under ``cap``, and
    the cells the production search settled after its pair round.

    No limit but ``cap`` binds at this load, so every healthy GPU under
    its board cap runs at the top rung and every SICK_SLOW one at its
    ceiling.
    """
    ctl = fleet.controller
    args = (0.3, 0.2, fleet.throughput_efficiency())
    kwargs = dict(power_cap_w=cap, f_cap_mhz=fleet.frequency_cap_mhz())
    settled = []
    settle_cols = ctl._settle_cols

    def recording(rows, cols, *rest):
        settled.append((rows, cols))
        return settle_cols(rows, cols, *rest)

    columns_before = ctl.stats.columns_evaluated
    rng = np.random.default_rng(0)
    with mock.patch.object(ctl, "_settle_cols", recording):
        op = ctl.solve_steady(*args, rng=rng, **kwargs)
    columns = ctl.stats.columns_evaluated - columns_before
    oracle_rng = np.random.default_rng(0)
    dense = solve_dense(ctl, *args, rng=oracle_rng, **kwargs)
    assert_ops_identical(dense, op)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    return op, columns, settled


def _pinned(fleet, op):
    """GPUs whose level is the last rung under their boost ceiling."""
    steps = fleet.controller.pstates()
    above = np.minimum(op.pstate_index + 1, steps.shape[0] - 1)
    return (op.pstate_index < steps.shape[0] - 1) & (
        steps[above] > fleet.frequency_cap_mhz()
    )


@pytest.mark.parametrize("policy", POLICIES.values(), ids=POLICIES)
def test_pair_round_resolves_top_and_ceiling_rows(policy):
    fleet = _fleet(policy)
    op, columns, settled = _solve_both(fleet, fleet.power_cap_w(None))
    sick = fleet.defects.kind == int(DefectType.SICK_SLOW)
    assert sick.any() and (~sick).any()
    assert (op.pstate_index[~sick] == fleet.spec.n_pstates - 1).all()
    assert (_pinned(fleet, op) == sick).all()
    assert not op.power_capped.any() and not op.thermally_capped.any()
    assert columns == 2 * fleet.n
    assert settled == []


@pytest.mark.parametrize("policy", POLICIES.values(), ids=POLICIES)
def test_no_cell_above_a_ceiling_settles_after_the_pair_round(policy):
    # One healthy GPU capped below the bottom rung's power leaves the
    # pair round unresolved, so the search runs its epilogue beside the
    # GPUs pinned at their ceilings; that epilogue reuses the pair.
    fleet = _fleet(policy)
    sick = fleet.defects.kind == int(DefectType.SICK_SLOW)
    starved = int(np.flatnonzero(~sick)[0])
    cap = fleet.power_cap_w(None).copy()
    cap[starved] = 1.0
    op, columns, settled = _solve_both(fleet, cap)
    assert op.pstate_index[starved] == 0 and op.power_capped[starved]
    assert (_pinned(fleet, op) == sick).all()
    # The starved GPU's pair was rungs (0, 1): rung 0 is its level and
    # the probed rung 1 its above cell, so nothing settles again.
    assert columns == 2 * fleet.n
    assert settled == []
