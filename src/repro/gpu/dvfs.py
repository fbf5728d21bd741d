"""Vendor DVFS (dynamic voltage & frequency scaling) controller.

GPU power management is local and reactive (Section II-B): firmware walks
the discrete p-state ladder to keep board power under the TDP and junction
temperature under the slowdown threshold.  We provide two views of the same
policy:

* :meth:`DvfsController.solve_steady` — the settled operating point a long,
  stationary kernel reaches (the regime the paper measures: SGEMM kernels
  are sized so "the DVFS controller [reaches] a stable state").  Solved as a
  vectorized fixed point over the whole population at once.
* :meth:`DvfsController.control_step` — one reactive controller tick for the
  time-stepped engine, reproducing the rise-overshoot-settle transients of
  Fig. 11.

The AMD MI60's coarse DPM ladder cannot sit exactly at the cap, so the
controller *dithers* between two adjacent levels; the effective frequency is
a duty-cycle blend while the reported (sampled) frequency snaps to a level.
This is what makes Corona's per-run repeatability much worse (Fig. 8, median
6.06% vs 0.12–0.44% on NVIDIA clusters) and weakens its perf/frequency
correlation (-0.76 vs -0.97/-0.99) despite identical physics.

Steady-state solver
-------------------
:meth:`DvfsController.solve_steady` finds each GPU's settled ladder level
with the batched fleet search (see ``docs/PERFORMANCE.md`` for the full
argument and measurements): one vectorized solve over the whole
(n_gpus, n_pstates) feasibility matrix with a masked-convergence loop.  An
analytic per-row boundary estimate (a ``searchsorted`` against the
dynamic-power ladder basis, refined by a few O(n) leakage passes) seeds one
batched pair evaluation of each GPU's estimated level and the level above;
where the pair brackets the boundary — almost the whole fleet — that GPU
is done and the pair *is* the epilogue's (level, above) output.  Stragglers
gallop outward from their estimates, and converged GPUs drop out of every
subsequent array operation — both out of the ladder search and out of the
leakage/temperature fixed point (a cell whose float32 iterate repeats
bit-for-bit is frozen, because every further iteration would reproduce it
exactly).  Boost ceilings are pre-clamped analytically.

The semantic definition is the dense scan: settle every (GPU, p-state)
cell by seven iterations of the leakage/temperature fixed point and take
the highest feasible level.  Because every cell depends on nothing but its
own inputs, *any* evaluation order, subset, or masking produces
bit-identical cells, so the fleet search returns exactly the dense scan's
answer while evaluating ~2 cells per GPU instead of k.  The dense scan and
its dense seven-iteration settle live in the test suite as the
differential oracle (``tests/gpu/dvfs_oracle.py``).  In production,
:meth:`DvfsController._settle_masked` is the one fixed-point kernel:
the fleet search and :meth:`DvfsController.power_grid` both run through
it.  The work each solve performs is counted in :class:`SolverStats`.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from ..config import require
from ..obs.observer import active_observer
from .power import PowerModel
from .specs import GPUSpec, VENDOR_AMD
from .thermal import ThermalModel

__all__ = [
    "DvfsPolicy",
    "SteadyOperatingPoint",
    "SolverStats",
    "DvfsController",
    "LadderTables",
    "ladder_tables",
    "default_solver",
]

#: Fixed-point iterations for the leakage/temperature coupling.  The
#: contraction factor is R * dP_leak/dT ~ 0.05-0.1, so 7 iterations push the
#: error far below sensor resolution.
_FIXED_POINT_ITERS = 7

#: Bins in the fleet solver's inverse-basis lookup table (the analytic
#: boundary estimate's replacement for a per-row binary search).
_BASIS_LUT_SIZE = 4096


@dataclass(frozen=True)
class DvfsPolicy:
    """Tunable behaviour of the power-management firmware."""

    #: Degrees of headroom kept below the slowdown temperature.
    thermal_headroom_c: float = 1.0
    #: Watts of headroom kept below the power cap when stepping up.
    power_headroom_w: float = 2.0
    #: Whether the ladder is coarse enough that the controller dithers
    #: between adjacent levels (AMD DPM behaviour).
    dither: bool = False
    #: Maximum duty-cycle fraction spent at the level *above* the feasible
    #: one while dithering.
    dither_max_duty: float = 0.90
    #: p-states stepped per control tick when over the cap (reactive mode).
    down_step: int = 2
    #: p-states stepped per control tick when under the cap (reactive mode).
    up_step: int = 1

    def __post_init__(self) -> None:
        require(self.thermal_headroom_c >= 0, "thermal_headroom_c must be >= 0")
        require(self.power_headroom_w >= 0, "power_headroom_w must be >= 0")
        require(0 <= self.dither_max_duty < 1, "dither_max_duty must be in [0, 1)")
        require(self.down_step >= 1 and self.up_step >= 1,
                "step sizes must be >= 1")

    @classmethod
    def for_spec(cls, spec: GPUSpec) -> "DvfsPolicy":
        """Default policy for a SKU (AMD ladders dither, NVIDIA's do not)."""
        if spec.vendor == VENDOR_AMD:
            return cls(dither=True, dither_max_duty=0.50, power_headroom_w=2.0,
                       down_step=1, up_step=1)
        return cls(dither=False)


@dataclass(frozen=True)
class SteadyOperatingPoint:
    """Settled operating point of every GPU in the population.

    All arrays have shape ``(n,)``.
    """

    pstate_index: np.ndarray      # int, feasible ladder level
    f_effective_mhz: np.ndarray   # duty-cycle-blended core clock
    f_reported_mhz: np.ndarray    # what the profiler would report
    power_w: np.ndarray           # settled board power
    temperature_c: np.ndarray     # settled junction temperature
    power_capped: np.ndarray      # bool: limited by power, not ladder top
    thermally_capped: np.ndarray  # bool: limited by the slowdown threshold

    @property
    def n(self) -> int:
        """Population size."""
        return int(self.pstate_index.shape[0])


@dataclass
class SolverStats:
    """Work counters for the steady-state solver (mutable, additive).

    One instance lives on each :class:`DvfsController` and accumulates over
    its :meth:`~DvfsController.solve_steady` calls; the campaign executor
    carries per-shard copies through
    :class:`repro.telemetry.progress.ShardTiming` so operators can see how
    much of the dense grid the fleet search skipped.
    """

    #: Per-GPU steady states solved: every ``solve_steady`` call counts its
    #: whole population, so one batched fleet solve over n GPUs adds n — the
    #: same n the GPUs would add if solved alone.  This is what keeps the
    #: total invariant across shard plans (a worker's shard solves its GPU
    #: subset).
    solves: int = 0
    #: ``solve_steady`` invocations (batches), regardless of population size.
    batches: int = 0
    #: (GPU, p-state) cells whose fixed point was actually evaluated.
    columns_evaluated: int = 0
    #: Cells the dense (n, k) grid would have evaluated for the same solves.
    dense_cells: int = 0
    #: Elementwise fixed-point iterations executed, summed over cells.
    #: Cells that converge early stop iterating, so this is at most (and
    #: usually well under) ``7 * columns_evaluated`` — for
    #: :meth:`DvfsController.power_grid` as for the fleet search.
    fixed_point_iterations: int = 0

    @property
    def cells_avoided(self) -> int:
        """Dense-equivalent fixed-point cells the solver never touched."""
        return max(0, self.dense_cells - self.columns_evaluated)

    @property
    def dense_fraction_avoided(self) -> float:
        """Fraction of the dense grid's work avoided."""
        if self.dense_cells <= 0:
            return 0.0
        return self.cells_avoided / self.dense_cells

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Accumulate another counter set into this one (returns ``self``)."""
        self.solves += other.solves
        self.batches += other.batches
        self.columns_evaluated += other.columns_evaluated
        self.dense_cells += other.dense_cells
        self.fixed_point_iterations += other.fixed_point_iterations
        return self

    def copy(self) -> "SolverStats":
        """An independent snapshot of the current counters."""
        return SolverStats(
            solves=self.solves,
            batches=self.batches,
            columns_evaluated=self.columns_evaluated,
            dense_cells=self.dense_cells,
            fixed_point_iterations=self.fixed_point_iterations,
        )

    def describe(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"{self.solves} GPU solves in {self.batches} batches: "
            f"{self.columns_evaluated} cells evaluated, "
            f"{self.cells_avoided} of {self.dense_cells} dense cells avoided "
            f"({self.dense_fraction_avoided:.1%})"
        )


class LadderTables:
    """Read-only p-state tables of one SKU, shared by all its controllers.

    Every table is a pure function of the :class:`GPUSpec`, so one set is
    built per spec (:func:`ladder_tables`) instead of once per controller —
    job pricing builds hundreds of small controllers per schedule.

    * ``pstates`` — the ladder (ascending MHz);
    * ``basis`` — the per-column dynamic-power basis ``C_eff * V(f)^2 * f``.
      Dynamic power factors into ``(activity * eff * (1 + v_off)^2)`` per
      GPU times this strictly rising basis, which is what lets the fleet
      solver invert the power cap into a ladder index per row;
    * ``vsq`` — squared nominal voltage per column.  ``voltage_at`` is
      elementwise, so gathering ``V(steps)**2`` by column index is
      bit-identical to evaluating it at the gathered frequencies (see
      :meth:`PowerModel.dynamic_power`'s ``v_sq`` contract);
    * the inverse-basis lookup table behind :meth:`basis_lookup`.
    """

    def __init__(self, spec: GPUSpec) -> None:
        steps = spec.pstate_array()
        vsq = spec.voltage_at(steps) ** 2
        basis = spec.c_eff_w_per_v2mhz * vsq * steps
        self.pstates = steps
        self.basis = basis
        self.vsq = vsq
        b0 = float(basis[0])
        span = float(basis[-1]) - b0
        self._lut: np.ndarray | None = None
        self._lut_b0 = b0
        self._lut_inv_step = 0.0
        if basis.shape[0] >= 8 and span > 0.0:
            edges = np.linspace(b0, float(basis[-1]), _BASIS_LUT_SIZE)
            self._lut = np.searchsorted(basis, edges)
            self._lut.setflags(write=False)
            self._lut_inv_step = (_BASIS_LUT_SIZE - 1) / span
        for table in (steps, basis, vsq):
            table.setflags(write=False)

    def basis_lookup(self, q: np.ndarray) -> np.ndarray:
        """Approximate ``searchsorted(basis, q)`` via a uniform LUT.

        A 4096-bin table over the basis range replaces the per-row binary
        search with one subtract/multiply/gather.  The table quantizes bin
        edges downward, so dense low-frequency basis regions can return an
        index a few rungs low — harmless, because the result is only the
        fleet solver's starting hint and the gallop rounds correct any
        offset with exact evaluations.  Non-finite queries (idle rows
        divide by zero activity) clamp to the table ends.
        """
        if self._lut is None:
            return np.searchsorted(self.basis, q)
        j = np.clip(
            np.minimum(
                (q - self._lut_b0) * self._lut_inv_step, _BASIS_LUT_SIZE - 1.0
            ).astype(np.int64),
            0,
            _BASIS_LUT_SIZE - 1,
        )
        return self._lut[j]


@functools.cache
def ladder_tables(spec: GPUSpec) -> LadderTables:
    """The shared :class:`LadderTables` of ``spec`` (built on first use)."""
    return LadderTables(spec)


def default_solver() -> str:
    """Name of the steady-state solver: always ``"fleet"``.

    The manifest records it under ``solver.mode`` and benchmark
    environment records report it.
    """
    return "fleet"


class DvfsController:
    """Power-management firmware for a homogeneous-SKU population.

    Parameters
    ----------
    spec, power_model, thermal_model, policy:
        The SKU, its electrical and thermal models, and the firmware policy
        (vendor default when ``None``).
    """

    def __init__(
        self,
        spec: GPUSpec,
        power_model: PowerModel,
        thermal_model: ThermalModel,
        policy: DvfsPolicy | None = None,
    ) -> None:
        if power_model.n != thermal_model.n:
            raise ValueError(
                f"power model covers {power_model.n} GPUs but thermal model "
                f"covers {thermal_model.n}"
            )
        self.spec = spec
        self.power = power_model
        self.thermal = thermal_model
        self.policy = policy if policy is not None else DvfsPolicy.for_spec(spec)
        self.stats = SolverStats()
        self.ladder = ladder_tables(spec)
        # Grow-only (float32, bool) scratch pair for the masked fixed
        # point: repeated solves reuse it instead of reallocating.
        self._masked_scratch: tuple[np.ndarray, np.ndarray] | None = None
        # Solve-invariant duplicated per-GPU parameters for the fleet
        # solver's flat (2n,) pair round, built once per controller.
        self._pair_params: tuple[np.ndarray, ...] | None = None
        self._vmult_sq32: np.ndarray | None = None
        # Thermal power ceiling per GPU, keyed by the t_limit it was
        # derived from (constant per policy, so one entry suffices).
        self._thermal_cap32: tuple[float, np.ndarray] | None = None

    @property
    def n(self) -> int:
        """Population size."""
        return self.power.n

    # ------------------------------------------------------------------
    # steady state
    # ------------------------------------------------------------------

    def pstates(self) -> np.ndarray:
        """The SKU ladder as a read-only float array (ascending MHz)."""
        return self.ladder.pstates

    def _estimate_boundary(
        self,
        act_eff: np.ndarray,
        mem_w: np.ndarray,
        cap: np.ndarray,
        t_limit: float,
    ) -> np.ndarray:
        """Analytic per-row estimate of the first infeasible ladder column.

        One exp and one ``searchsorted`` per GPU, no settles: the thermal
        limit becomes a power bound through the RC model, and — the key
        closed form — a GPU *at* its feasibility boundary dissipates the
        effective cap (to within one rung), so its steady temperature and
        hence its leakage term are known without iterating.  Subtracting
        the temperature-independent terms leaves the dynamic budget, which
        the rising ladder basis inverts into a column index.  Purely a
        search hint — every returned index is verified by exact cell
        evaluations — so the float32 shortcuts here cannot affect the
        solved operating points.  ``act_eff`` is the folded per-GPU
        ``activity * efficiency`` factor and ``mem_w`` the memory power,
        both shared with the pair round's base-power prep.
        """
        f32 = np.float32
        if self._vmult_sq32 is None:
            vm32 = self.power.v_mult_sq.astype(f32)
            vm32.setflags(write=False)
            self._vmult_sq32 = vm32
        a = act_eff.astype(f32) * self._vmult_sq32
        mem_idle = mem_w.astype(f32) + f32(self.spec.idle_power_w)
        leak = self.power.leakage_scale_w_f32()
        # The thermal limit is equivalent to a power cap through T = Tc+R*P;
        # that per-GPU ceiling is policy-constant, so it is cached.
        cached = self._thermal_cap32
        if cached is None or cached[0] != t_limit:
            p_t = self.thermal.power_at_temperature(t_limit).astype(f32)
            p_t.setflags(write=False)
            cached = (t_limit, p_t)
            self._thermal_cap32 = cached
        cap_eff = np.minimum(cap, cached[1]).astype(f32)
        r32, tc32 = self.thermal.fixed_point_params_f32()
        t_bound = tc32 + r32 * cap_eff
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            c0 = mem_idle + leak * np.exp(
                f32(self.spec.leakage_temp_coeff) * (t_bound - f32(25.0))
            )
            return self.ladder.basis_lookup((cap_eff - c0) / a)

    def _settle_cols(
        self,
        rows: np.ndarray | None,
        cols: np.ndarray,
        activity: np.ndarray,
        dram_utilization: np.ndarray,
        efficiency: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Masked-convergence settle of the ladder cells ``cols`` selects.

        ``cols`` holds ladder indices for population rows ``rows``
        (``rows=None`` means the whole population, in order): one cell per
        row when 1-D, a ``(m, c)`` block when 2-D, each GPU's parameters
        broadcast across its row so the full-population case runs without
        any per-row gathers.  ``activity``/``dram_utilization``/
        ``efficiency`` are full ``(n,)`` vectors.  Returns float32
        ``(p, t)`` of ``cols``'s shape, every cell bit-identical to the
        dense grid's; float32→float64 widening is exact, so callers may
        compare against float64 caps without changing any outcome.
        """
        f = self.pstates()[cols]
        if rows is None:
            act, util, eff = activity, dram_utilization, efficiency
            leak = self.power.leakage_scale_w_f32()
            r, tc = self.thermal.fixed_point_params_f32()
        else:
            act = activity[rows]
            util = dram_utilization[rows]
            eff = efficiency[rows]
            leak = self.power.leakage_scale_w_f32()[rows]
            r, tc = self.thermal.fixed_point_params_f32(indices=rows)
        if cols.ndim == 2:
            act, util, eff = act[:, None], util[:, None], eff[:, None]
            leak, r, tc = (np.repeat(a, cols.shape[1]) for a in (leak, r, tc))
        p_base = self.power.settle_base_power_w(
            f, act, util, eff, indices=rows
        ).astype(np.float32)
        p, t = self._settle_masked(p_base.ravel(), leak, r, tc)
        return p.reshape(p_base.shape), t.reshape(p_base.shape)

    def _settle_masked(
        self,
        p_base: np.ndarray,
        leak: np.ndarray,
        r: np.ndarray,
        tc: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat masked-convergence fixed point over pre-gathered cells.

        The one fixed-point kernel of the solver: the pair round calls it
        directly, and the gallop rounds, the endpoint epilogue and
        :meth:`power_grid` through :meth:`_settle_cols`.  All four inputs
        are float32 ``(m,)`` arrays giving each cell's
        temperature-independent power, leakage scale, and thermal
        parameters.  It runs the dense settle's seven-iteration update
        (``tests/gpu/dvfs_oracle.py``) cell by cell, with the same
        decomposed op sequence, so each cell's bits match the dense
        grid's.  Iterations write into preallocated scratch (the hot loop
        allocates nothing); cells whose float32 temperature iterate
        repeats bit-for-bit stop changing, and once a majority have
        frozen the working set compacts so the stragglers iterate alone.
        The loop exits outright when every cell is stable.
        """
        m = int(p_base.shape[0])
        k_t = np.float32(self.spec.leakage_temp_coeff)
        # Clamp the iterate well above the shutdown threshold: operating
        # points that hot are rejected by the feasibility check regardless,
        # and the clamp keeps the exponential leakage term from blowing up
        # on cells that would physically thermally run away.
        t_clamp = np.float32(self.spec.t_shutdown_c + 40.0)
        c25 = np.float32(25.0)
        pool = self._masked_scratch
        if pool is None or pool[0].shape[0] < m:
            pool = (np.empty(m, dtype=np.float32), np.empty(m, dtype=bool))
            self._masked_scratch = pool
        scratch = pool[0][:m]
        moved_buf = pool[1][:m]

        def leakage(t_cur: np.ndarray, base: np.ndarray,
                    leak_w: np.ndarray, out: np.ndarray,
                    s: np.ndarray) -> None:
            # p = base + leak * exp(k_t * (t - 25)), decomposed into
            # correctly-rounded elementwise ops, no temporaries.
            np.subtract(t_cur, c25, out=s)
            np.multiply(s, k_t, out=s)
            np.exp(s, out=s)
            np.multiply(leak_w, s, out=s)
            np.add(base, s, out=out)

        out_t = tc.astype(np.float32, copy=True)
        out_p = np.empty(m, dtype=np.float32)
        leakage(out_t, p_base, leak, out_p, scratch)
        self.stats.columns_evaluated += m
        # Work on contiguous arrays, compacting only when cells actually
        # freeze: the common all-cells-still-moving iteration costs one
        # extra elementwise compare, nothing more.
        sel = None  # positions of the working set in the output; None = all
        tc_w, r_w, base_w, leak_w = tc, r, p_base, leak
        t_w, p_w = out_t, out_p
        for it in range(_FIXED_POINT_ITERS):
            m_a = int(t_w.shape[0])
            if m_a == 0:
                break
            self.stats.fixed_point_iterations += m_a
            s = scratch[:m_a]
            np.multiply(r_w, p_w, out=s)
            np.add(tc_w, s, out=s)
            np.minimum(s, t_clamp, out=s)  # s is now t_new
            if it & 1 or it == _FIXED_POINT_ITERS - 1:
                # Odd rounds skip the freeze check: re-iterating a
                # bit-stable cell reproduces the same bits, so checking
                # every other round halves the bookkeeping while at most
                # deferring a compaction by one iteration.  The final
                # round skips it too — a compaction there has no
                # iterations left to save, only gather/scatter cost.
                np.copyto(t_w, s)
                leakage(t_w, base_w, leak_w, p_w, scratch[: t_w.shape[0]])
                continue
            mv = moved_buf[:m_a]
            np.not_equal(s, t_w, out=mv)
            n_moved = int(np.count_nonzero(mv))
            if n_moved == 0:
                break
            if n_moved * 2 <= m_a:
                # A majority of cells froze: park their (t, p) — iterating
                # a bit-stable cell would reproduce identical bits — and
                # compact the working set.  Below that threshold the
                # compaction gathers cost more than the iterations they
                # save, so frozen cells simply ride along unchanged.
                frozen = np.flatnonzero(~mv) if sel is None else sel[~mv]
                out_t[frozen] = t_w[~mv]
                out_p[frozen] = p_w[~mv]
                sel = np.flatnonzero(mv) if sel is None else sel[mv]
                t_w = s[mv]
                tc_w = tc_w[mv]
                r_w = r_w[mv]
                base_w = base_w[mv]
                leak_w = leak_w[mv]
                p_w = np.empty(n_moved, dtype=np.float32)
            else:
                np.copyto(t_w, s)
            leakage(t_w, base_w, leak_w, p_w, scratch[: t_w.shape[0]])
        if sel is None:
            # Nothing froze: the working arrays cover every cell.
            return p_w, t_w
        out_t[sel] = t_w
        out_p[sel] = p_w
        return out_p, out_t

    def power_grid(
        self,
        activity: np.ndarray | float,
        dram_utilization: np.ndarray | float,
        efficiency: np.ndarray | float = 1.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fixed-point settled (power, temperature) at every (GPU, p-state).

        Returns two float64 ``(n, k)`` arrays.  Solves the
        leakage/temperature coupling ``P = P0(f) + P_leak(T)``,
        ``T = Tc + R * P`` for every ladder cell through the solver's one
        fixed-point kernel (:meth:`_settle_masked`), so cells that converge
        early stop iterating; every cell is bit-identical to the dense
        seven-iteration settle of the test oracle.
        """
        n, k = self.n, self.pstates().shape[0]
        p, t = self._settle_cols(
            None,
            np.broadcast_to(np.arange(k), (n, k)),
            _as_vec(activity, n),
            _as_vec(dram_utilization, n),
            _as_vec(efficiency, n),
        )
        return p.astype(np.float64), t.astype(np.float64)

    def solve_steady(
        self,
        activity: np.ndarray | float,
        dram_utilization: np.ndarray | float,
        efficiency: np.ndarray | float = 1.0,
        power_cap_w: np.ndarray | float | None = None,
        f_cap_mhz: np.ndarray | float | None = None,
        rng: np.random.Generator | None = None,
    ) -> SteadyOperatingPoint:
        """Settled operating point of every GPU under a stationary load.

        Parameters
        ----------
        activity, dram_utilization, efficiency:
            Workload switching activity, DRAM utilization, and (defect)
            throughput multiplier; scalars or ``(n,)`` arrays.
        power_cap_w:
            Effective per-GPU power cap.  ``None`` uses the SKU TDP.  Pass
            ``min(TDP * defect_cap, power_limit)`` to combine board defects
            with ``nvidia-smi``-style administrative limits (Section VI-B).
        f_cap_mhz:
            Per-GPU boost ceiling; SICK_SLOW defects cannot clock past it.
            ``None`` allows the full ladder.
        rng:
            Required when the policy dithers (AMD); supplies the per-call
            duty cycles.
        """
        if power_cap_w is None:
            cap = np.full(self.n, self.spec.tdp_w)
        else:
            cap = np.broadcast_to(
                np.asarray(power_cap_w, dtype=float), (self.n,)
            ).copy()
        f_cap = None
        if f_cap_mhz is not None:
            f_cap = np.broadcast_to(
                np.asarray(f_cap_mhz, dtype=float), (self.n,)
            )

        steps = self.pstates()
        k = steps.shape[0]
        t_limit = self.spec.t_slowdown_c - self.policy.thermal_headroom_c
        # A batched call solves every GPU in the population: count n per-GPU
        # solves (and one batch) so totals are invariant across shard plans.
        self.stats.solves += self.n
        self.stats.batches += 1
        self.stats.dense_cells += self.n * k
        obs = active_observer()
        tracer = obs.tracer
        if tracer is not None:
            # Counter deltas come from SolverStats at the end of the solve:
            # one batch of adds per solve keeps the hot settle loop clean.
            columns_before = self.stats.columns_evaluated
            fixed_point_before = self.stats.fixed_point_iterations
            span_start = time.time()
            span_t0 = time.perf_counter()

        idx, p_level, t_level, p_above, t_above = self._search_fleet(
            activity, dram_utilization, efficiency, cap, f_cap, t_limit
        )

        above = np.minimum(idx + 1, k - 1)
        f_level = steps[idx]
        at_top = idx == k - 1
        # Why is the GPU not at the top of the ladder?
        power_capped = (~at_top) & (p_above > cap)
        thermally_capped = (~at_top) & (t_above > t_limit) & ~power_capped
        if f_cap is not None:
            # A GPU pinned by its boost ceiling is not (necessarily) at a
            # power or thermal limit; exclude it from both categories so it
            # does not dither past the ceiling.
            at_ceiling = (~at_top) & (steps[above] > f_cap)
            power_capped &= ~at_ceiling
            thermally_capped &= ~at_ceiling

        f_eff = f_level.astype(float).copy()
        f_rep = f_level.astype(float).copy()
        p_out = p_level.copy()
        t_out = t_level.copy()

        if self.policy.dither:
            if rng is None:
                raise ValueError("a dithering policy requires an rng")
            dither_mask = (~at_top) & (power_capped | thermally_capped)
            n_d = int(dither_mask.sum())
            if n_d:
                # The controller may only spend time at the level above to
                # the extent the time-averaged power and temperature stay
                # under their limits; the realized duty cycle is a noisy
                # fraction of that headroom (run-to-run DPM nondeterminism).
                p_lo = p_level[dither_mask]
                p_hi = p_above[dither_mask]
                t_lo = t_level[dither_mask]
                t_hi = t_above[dither_mask]
                with np.errstate(divide="ignore", invalid="ignore"):
                    duty_p = (
                        cap[dither_mask] - self.policy.power_headroom_w - p_lo
                    ) / (p_hi - p_lo)
                    duty_t = (t_limit - t_lo) / (t_hi - t_lo)
                duty_limit = np.clip(
                    np.nan_to_num(np.minimum(duty_p, duty_t), nan=0.0), 0.0, 1.0
                )
                duty_limit = np.minimum(duty_limit, self.policy.dither_max_duty)
                duty = duty_limit * rng.uniform(0.3, 1.0, size=n_d)
                f_hi = steps[above[dither_mask]]
                f_lo = f_level[dither_mask]
                f_eff[dither_mask] = f_lo + duty * (f_hi - f_lo)
                f_rep[dither_mask] = np.where(duty >= 0.5, f_hi, f_lo)
                p_out[dither_mask] = (
                    p_level[dither_mask]
                    + duty * (p_above[dither_mask] - p_level[dither_mask])
                )
                t_out[dither_mask] = (
                    t_level[dither_mask]
                    + duty * (t_above[dither_mask] - t_level[dither_mask])
                )

        if tracer is not None:
            tracer.add("solver.solves", self.n)
            tracer.add("solver.batches", 1)
            tracer.add("solver.dense_cells", self.n * k)
            tracer.add("solver.columns_evaluated",
                       self.stats.columns_evaluated - columns_before)
            tracer.add("solver.fixed_point_iterations",
                       self.stats.fixed_point_iterations - fixed_point_before)
            tracer.record_span(
                "solve",
                category="solver",
                track=tracer.track,
                start_s=span_start,
                duration_s=time.perf_counter() - span_t0,
                n=self.n,
            )
        monitor = obs.monitor
        if monitor is not None:
            # Throttle outcome of the settled operating point: which GPUs
            # ended the solve capped.  Counts of already-computed booleans
            # only, so the hook is execution-invariant and perturbation-free.
            monitor.observe_solve(power_capped, thermally_capped)
        return SteadyOperatingPoint(
            pstate_index=idx.astype(np.int32),
            f_effective_mhz=f_eff,
            f_reported_mhz=f_rep,
            power_w=p_out,
            temperature_c=t_out,
            power_capped=power_capped,
            thermally_capped=thermally_capped,
        )

    def _pair_invariants(self) -> tuple[np.ndarray, ...]:
        """Duplicated per-GPU parameters for the flat (2n,) pair round.

        The pair round lays its two probe columns out as ``[all c_lo |
        all c_hi]``, so every per-GPU parameter enters twice in sequence.
        These duplicates are solve-invariant (they depend only on the
        silicon and thermal models), so they are concatenated once per
        controller and shared read-only by every fleet solve.
        """
        if self._pair_params is None:
            leak32 = self.power.leakage_scale_w_f32()
            r32, tc32 = self.thermal.fixed_point_params_f32()
            params = tuple(
                np.concatenate([a, a])
                for a in (leak32, r32, tc32, self.power.v_mult_sq)
            )
            for a in params:
                a.setflags(write=False)
            self._pair_params = params
        return self._pair_params

    def _search_fleet(
        self,
        activity: np.ndarray | float,
        dram_utilization: np.ndarray | float,
        efficiency: np.ndarray | float,
        cap: np.ndarray,
        f_cap: np.ndarray | None,
        t_limit: float,
    ) -> tuple[np.ndarray, ...]:
        """Fleet solver core: estimate-guided batched search, endpoint caching.

        Finds the feasibility boundary the dense scan finds (the highest
        ladder level under the power cap, the thermal limit, and the boost
        ceiling) with ~2 cell evaluations per GPU instead of k:

        * Boost ceilings are cut analytically before any settle runs —
          ``steps[j] <= f_cap`` is a pure comparison, so ``searchsorted``
          pre-clamps the infeasible bracket top for free.
        * An analytic per-row boundary estimate seeds the search: dynamic
          power separates into a per-GPU factor times a rising
          ladder-column basis, a GPU at its boundary dissipates its
          effective cap (fixing the leakage term in closed form), and
          inverting ``power <= cap`` is then one ``searchsorted`` per row
          — no settles, one exp per GPU (:meth:`_estimate_boundary`).
        * One batched pair evaluation settles each GPU's estimated level
          and the level above it.  Where the pair brackets the boundary —
          the common case — that GPU is done, and the pair *is* the
          (level, above) output the epilogue needs.  The rest gallop
          outward from their estimate, converged GPUs dropping out of
          every subsequent round.
        * Inside each evaluation, converged fixed-point cells freeze early
          (:meth:`_settle_masked`); only cells never probed (mostly the
          level above rows with an empty feasible set) run in one final
          masked batch.

        Every cell is settled by the one elementwise float32 fixed point
        :meth:`power_grid` also runs, so the outputs are bit-identical to
        the dense scan's.
        """
        steps = self.pstates()
        k = steps.shape[0]
        n = self.n
        act = _as_vec(activity, n)
        util = _as_vec(dram_utilization, n)
        eff = _as_vec(efficiency, n)

        # Per-GPU factors shared between the boundary estimate and the
        # pair round's base-power prep.  Both are elementwise, so folding
        # them once per GPU and duplicating is bit-identical to the
        # per-cell products the dense grid computes.
        ae = act * eff
        mem_w = self.power.memory_power(util)

        if f_cap is not None:
            # Columns at steps[j] > f_cap are infeasible by the ceiling
            # alone; feasibility is a prefix, so clamp the bracket top to
            # the first such column without settling anything.
            hi_top: np.ndarray | int = np.minimum(
                k, np.searchsorted(steps, f_cap, side="right")
            )
        else:
            hi_top = k

        # Estimated first-infeasible column, clamped so the probe pair
        # (c_hi - 1, c_hi) sits inside the pre-clamped bracket wherever
        # the bracket holds two rungs; rows clamped below that probe
        # (0, 1) and mask the cells above their ceiling.
        est = self._estimate_boundary(ae, mem_w, cap, t_limit)
        c_hi = np.clip(est, 1, np.maximum(hi_top - 1, 1))
        c_lo = c_hi - 1

        if k < 2:
            # A one-rung ladder has no pair to probe: every bracket starts
            # open and the gallop round settles rung 0.
            lo = np.full(n, -1, dtype=np.int64)
            hi = np.broadcast_to(hi_top, (n,)).astype(np.int64)
            p_lo = np.empty(n, dtype=np.float32)
            t_lo = np.empty(n, dtype=np.float32)
            p_hi = np.empty(n, dtype=np.float32)
            t_hi = np.empty(n, dtype=np.float32)
            hi_eval = np.zeros(n, dtype=bool)
        else:
            # Pair round: one batched settle of (estimated level, level
            # above) for every row, in a flat [all c_lo | all c_hi]
            # layout: per-GPU parameters enter by contiguous duplication
            # (concatenate, not fancy gathers), per-column quantities by
            # small-table gathers, and every elementwise op runs one
            # full-length inner loop — the same per-cell float64/float32
            # op sequence as the dense grid.
            cols_flat = np.concatenate([c_lo, c_hi])
            leak2, r2, tc2, vmult2 = self._pair_invariants()
            p_base = self.power.settle_base_power_w(
                steps[cols_flat],
                np.concatenate([ae, ae]),
                util,  # unused: mem_w below already carries the memory term
                v_sq=self.ladder.vsq[cols_flat] * vmult2,
                mem_w=np.concatenate([mem_w, mem_w]),
            ).astype(np.float32)
            p_flat, t_flat = self._settle_masked(p_base, leak2, r2, tc2)
            pv_lo, pv_hi = p_flat[:n], p_flat[n:]
            tv_lo, tv_hi = t_flat[:n], t_flat[n:]
            f_lo2 = (pv_lo <= cap) & (tv_lo <= t_limit)
            f_hi2 = (pv_hi <= cap) & (tv_hi <= t_limit)
            if f_cap is not None:
                # Only rows whose ceiling leaves fewer than two rungs can
                # probe a cell above it; that cell is infeasible.
                f_lo2 &= c_lo < hi_top
                f_hi2 &= c_hi < hi_top
            if int(np.count_nonzero(f_lo2)) == n and not f_hi2.any():
                # Every row bracketed the boundary at its estimate — the
                # common case when the analytic estimate is exact.  The
                # probed pair already is the (level, above) answer, so the
                # gallop rounds and the endpoint epilogue have nothing to
                # do; return the pair directly (float32 widens exactly).
                return (
                    c_lo,
                    pv_lo.astype(np.float64),
                    tv_lo.astype(np.float64),
                    pv_hi.astype(np.float64),
                    tv_hi.astype(np.float64),
                )
            # Feasibility is a prefix of the ladder and the settle is
            # monotone along it, so f_hi2 implies f_lo2 and each bracket
            # collapses to one select: feasible rows land at c_lo + f_hi2
            # (c_hi when both cells passed), rows with an infeasible pair
            # cell pull hi onto it while the rest keep the untouched top.
            lo = np.where(f_lo2, c_lo + f_hi2, -1)
            hi = np.where(f_hi2, hi_top, c_lo + f_lo2)
            # Endpoint caches: wherever the selects above moved a bracket
            # end onto a probed cell, the matching cache entry holds that
            # cell's settled values (unset slots are never read — lo
            # stayed -1 or hi_eval stays False there).
            p_lo = np.where(f_hi2, pv_hi, pv_lo)
            t_lo = np.where(f_hi2, tv_hi, tv_lo)
            p_hi = np.where(f_lo2, pv_hi, pv_lo)
            t_hi = np.where(f_lo2, tv_hi, tv_lo)
            hi_eval = ~f_hi2
        state = (lo, hi, p_lo, t_lo, p_hi, t_hi, hi_eval)
        self._fleet_bisect(state, act, util, eff, cap, t_limit, c_hi)

        idx = np.where(lo >= 0, lo, 0)
        above = np.minimum(idx + 1, k - 1)
        at_top = idx == k - 1
        has_lo = lo >= 0

        # Level values: any lo >= 0 came from a feasible evaluation, which
        # cached (p, t).  A row stuck at lo == -1 ended with hi == 0; if the
        # bottom rung was ever probed its values sit on the hi endpoint.
        p_level = np.where(has_lo, p_lo, p_hi)
        t_level = np.where(has_lo, t_lo, t_hi)
        need_level = ~has_lo & ~hi_eval

        # Above values: at the ladder top, above == idx; for found rows the
        # bracket ends at gap 1, so above == hi and the cached infeasible
        # endpoint is exactly the above cell.
        hi_is_above = hi_eval & (hi == above) & ~at_top
        need_above = ~at_top & ~hi_is_above

        rows_l = np.flatnonzero(need_level)
        rows_a = np.flatnonzero(need_above)
        p_m = t_m = None
        if rows_l.size or rows_a.size:
            rows = np.concatenate([rows_l, rows_a])
            cols = np.concatenate([idx[rows_l], above[rows_a]])
            p_m, t_m = self._settle_cols(rows, cols, act, util, eff)
            p_level[rows_l] = p_m[: rows_l.size]
            t_level[rows_l] = t_m[: rows_l.size]

        p_above = np.where(hi_is_above, p_hi, p_level)
        t_above = np.where(hi_is_above, t_hi, t_level)
        if rows_a.size:
            p_above[rows_a] = p_m[rows_l.size :]
            t_above[rows_a] = t_m[rows_l.size :]
        return (
            idx,
            p_level.astype(np.float64),
            t_level.astype(np.float64),
            p_above.astype(np.float64),
            t_above.astype(np.float64),
        )

    def _fleet_bisect(
        self,
        state: tuple[np.ndarray, ...],
        act: np.ndarray,
        util: np.ndarray,
        eff: np.ndarray,
        cap: np.ndarray,
        t_limit: float,
        center: np.ndarray,
    ) -> None:
        """Drive every row's bracket to ``hi - lo <= 1``, caching endpoints.

        The rounds gallop outward from each row's center (the analytic
        boundary estimate, already probed by the pair round) — the offset
        doubles per round and is capped by the bisection midpoint, so a
        GPU settling d rungs from its estimate converges in O(log d)
        evaluations while the worst case keeps the bisection bound.  Only
        open rows are evaluated; the brackets and endpoint caches in
        ``state`` are updated in place.
        """
        lo, hi, p_lo, t_lo, p_hi, t_hi, hi_eval = state
        g = 1
        # Brackets only shrink, so a row that converges never re-enters:
        # the candidate set contracts monotonically round over round.
        active = np.flatnonzero(hi - lo > 1)
        while active.size:
            lo_a = lo[active]
            hi_a = hi[active]
            # Gallop away from each row's center: rows whose bracket
            # bottom reached their center search upward, the rest
            # downward.  The clamp against the bisection midpoint keeps
            # mid strictly inside (lo, hi) and degrades to bisection once
            # g is large.
            mid_b = (lo_a + hi_a) >> 1
            up = lo_a >= center[active]
            mid = np.where(up, np.minimum(lo_a + g, mid_b),
                           np.maximum(hi_a - g, mid_b))
            g *= 2
            p_m, t_m = self._settle_cols(active, mid, act, util, eff)
            # mid < hi <= the pre-clamped ceiling bracket, so the boost
            # ceiling needs no re-check here; float32 operands widen
            # exactly against the float64 cap, matching the dense scan's
            # comparisons bit for bit.
            feas = (p_m <= cap[active]) & (t_m <= t_limit)
            f_rows = active[feas]
            i_rows = active[~feas]
            lo[f_rows] = mid[feas]
            p_lo[f_rows] = p_m[feas]
            t_lo[f_rows] = t_m[feas]
            hi[i_rows] = mid[~feas]
            p_hi[i_rows] = p_m[~feas]
            t_hi[i_rows] = t_m[~feas]
            hi_eval[i_rows] = True
            active = active[hi[active] - lo[active] > 1]

    # ------------------------------------------------------------------
    # reactive control (time-stepped engine)
    # ------------------------------------------------------------------

    def control_step(
        self,
        pstate_index: np.ndarray,
        power_w: np.ndarray,
        temperature_c: np.ndarray,
        power_cap_w: np.ndarray,
    ) -> np.ndarray:
        """One firmware tick: step the ladder based on instantaneous P and T.

        Over the cap (or over the slowdown threshold) steps down by
        ``policy.down_step``; comfortably under the cap steps up by
        ``policy.up_step``.  Returns the new p-state indices.
        """
        idx = np.asarray(pstate_index, dtype=np.int64).copy()
        t_limit = self.spec.t_slowdown_c - self.policy.thermal_headroom_c
        over = (power_w > power_cap_w) | (temperature_c > t_limit)
        under = (power_w < power_cap_w - self.policy.power_headroom_w) & (
            temperature_c < t_limit - 1.0
        )
        idx[over] -= self.policy.down_step
        idx[under & ~over] += self.policy.up_step
        return np.clip(idx, 0, self.spec.n_pstates - 1)


def _as_vec(value: np.ndarray | float, n: int) -> np.ndarray:
    """Broadcast a scalar or (n,) array to an (n,) vector."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"expected scalar or shape ({n},), got {arr.shape}")
    return arr
