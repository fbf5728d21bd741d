"""Dense-scan oracle for the steady-state DVFS solver.

The semantic definition of a settled operating point (Section II-B): the
firmware sits on the highest p-state whose settled power is under the
cap, whose settled temperature is under the slowdown threshold, and whose
clock is under the boost ceiling.  :func:`scan_dense` computes exactly
that — it settles every (GPU, p-state) cell with :func:`dense_grid`, a
fixed seven iterations per cell, and scans for the top feasible level —
and is the reference the production fleet search must reproduce bit for
bit.  :func:`dense_grid` is also the reference for production
:meth:`~repro.gpu.dvfs.DvfsController.power_grid`, which settles the same
cells through the masked-convergence kernel.

:func:`solve_dense` and :func:`dense_solver` swap the scan in for the
production search core (``DvfsController._search_fleet``), so the shared
epilogue (cap classification, AMD dither draws, counters, observation
hooks) runs unchanged on top of the oracle's answer.

:func:`overshoot_columns` builds adversarial inputs for the differential
tests: cap ties placed where the fleet search's first probe is most
likely to mis-handle them.
"""

from __future__ import annotations

import contextlib
import functools
from unittest import mock

import numpy as np

from repro.gpu.dvfs import _FIXED_POINT_ITERS, DvfsController, _as_vec

#: Every array field of :class:`~repro.gpu.dvfs.SteadyOperatingPoint`.
OP_FIELDS = ("pstate_index", "f_effective_mhz", "f_reported_mhz",
             "power_w", "temperature_c", "power_capped", "thermally_capped")


def dense_grid(ctl, activity, dram_utilization, efficiency=1.0):
    """Dense fixed-point settled (power, temperature) at every cell.

    Two float64 ``(n, k)`` arrays.  Every cell runs exactly
    ``_FIXED_POINT_ITERS`` iterations of ``T = min(Tc + R * P, clamp)``,
    ``P = P_base + P_leak(T)`` in float32, with no early exit — the
    literal definition the production kernel's early freeze must match.
    Counts ``columns_evaluated += cells`` and
    ``fixed_point_iterations += 7 * cells`` on ``ctl.stats``.
    """
    n = ctl.n
    steps = ctl.pstates()
    f_grid = np.broadcast_to(steps, (n, steps.shape[0]))
    p_base = ctl.power.settle_base_power_w(
        f_grid,
        _as_vec(activity, n)[:, None],
        _as_vec(dram_utilization, n)[:, None],
        _as_vec(efficiency, n)[:, None],
    ).astype(np.float32)
    leak_scale = ctl.power.leakage_scale_w_f32()[:, None]
    r, tc = (a[:, None] for a in ctl.thermal.fixed_point_params_f32())
    k_t = np.float32(ctl.spec.leakage_temp_coeff)
    t_clamp = np.float32(ctl.spec.t_shutdown_c + 40.0)
    t, p, scratch = (np.empty(p_base.shape, dtype=np.float32)
                     for _ in range(3))

    def leakage_step():
        # p = p_base + leak_scale * exp(k_t * (t - 25)), decomposed into
        # the same correctly-rounded elementwise ops, no temporaries.
        np.subtract(t, np.float32(25.0), out=scratch)
        np.multiply(scratch, k_t, out=scratch)
        np.exp(scratch, out=scratch)
        np.multiply(leak_scale, scratch, out=scratch)
        np.add(p_base, scratch, out=p)

    np.copyto(t, np.broadcast_to(tc, p_base.shape))
    leakage_step()
    for _ in range(_FIXED_POINT_ITERS):
        np.multiply(r, p, out=scratch)
        np.add(tc, scratch, out=scratch)
        np.minimum(scratch, t_clamp, out=t)
        leakage_step()
    ctl.stats.columns_evaluated += int(p_base.size)
    ctl.stats.fixed_point_iterations += _FIXED_POINT_ITERS * int(p_base.size)
    return p.astype(np.float64), t.astype(np.float64)


def scan_dense(ctl, activity, dram_utilization, efficiency, cap, f_cap,
               t_limit):
    """Dense solver core: materialize the grid, scan for the top level.

    Drop-in for ``DvfsController._search_fleet``: returns
    ``(idx, p_level, t_level, p_above, t_above)``.
    """
    steps = ctl.pstates()
    k = steps.shape[0]
    p_grid, t_grid = dense_grid(ctl, activity, dram_utilization, efficiency)

    feasible = (p_grid <= cap[:, None]) & (t_grid <= t_limit)
    if f_cap is not None:
        feasible &= steps[None, :] <= f_cap[:, None]

    # Highest feasible ladder index per GPU.  The ladder is monotone in
    # power and temperature so feasibility is a prefix — but scan
    # explicitly, which is what makes this the reference definition.
    rev = feasible[:, ::-1]
    first_true = np.argmax(rev, axis=1)
    any_true = rev.any(axis=1)
    idx = np.where(any_true, k - 1 - first_true, 0)

    rows = np.arange(ctl.n)
    above = np.minimum(idx + 1, k - 1)
    return (
        idx,
        p_grid[rows, idx],
        t_grid[rows, idx],
        p_grid[rows, above],
        t_grid[rows, above],
    )


def solve_dense(ctl, *args, **kwargs):
    """``ctl.solve_steady(*args, **kwargs)`` with the dense scan as core."""
    with mock.patch.object(ctl, "_search_fleet",
                           functools.partial(scan_dense, ctl)):
        return ctl.solve_steady(*args, **kwargs)


@contextlib.contextmanager
def dense_solver():
    """Run every controller in this process on the dense scan.

    For campaign-level differentials: serial (in-process) campaigns,
    job pricing, and scorecards computed inside the block solve through
    the oracle.
    """
    with mock.patch.object(DvfsController, "_search_fleet", scan_dense):
        yield


def assert_ops_identical(a, b, context=""):
    """Every SteadyOperatingPoint array must match bit for bit."""
    for field in OP_FIELDS:
        lhs, rhs = getattr(a, field), getattr(b, field)
        assert lhs.dtype == rhs.dtype, f"{field} dtype {context}"
        assert lhs.shape == rhs.shape, f"{field} shape {context}"
        assert np.array_equal(lhs, rhs), f"{field} {context}"


def overshoot_columns(ctl, act, dram, eff, p_grid):
    """Per GPU, the first column j > 0 whose exactly-tied cap the fleet
    search's analytic estimate places one rung high (its probe pair is
    then ``(j, j + 1)``, so the tie decides the pair's lower cell); the
    top column for GPUs without one.  White-box: it mirrors the estimate
    the search seeds itself with.
    """
    n, k = p_grid.shape
    t_limit = ctl.spec.t_slowdown_c - ctl.policy.thermal_headroom_c
    ae, mem_w = act * eff, ctl.power.memory_power(dram)
    _, t_grid = dense_grid(ctl, act, dram, eff)
    found = np.full(n, k - 1)
    for j in range(k - 2, 0, -1):
        est = ctl._estimate_boundary(ae, mem_w, p_grid[:, j].copy(), t_limit)
        hit = (np.clip(est, 1, k - 1) - 1 == j) & (t_grid[:, j] <= t_limit)
        found = np.where(hit, j, found)
    return found
