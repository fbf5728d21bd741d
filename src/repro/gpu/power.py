"""Board power model.

Total board power is the sum of four contributions::

    P = activity * eff * C_eff * (V(f) * (1 + v_off))**2 * f   (core dynamic)
      + dram_util * P_mem_max                                   (memory)
      + leak_scale * P_leak0 * exp(k * (T - 25))                 (leakage)
      + P_idle                                                   (baseboard)

The dynamic term carries the manufacturing voltage offset — the lever through
which process spread becomes a per-GPU power difference and, under a fixed
TDP, a per-GPU frequency and performance difference.  The leakage term grows
exponentially with junction temperature, which couples cooling quality into
the power budget (and therefore performance) on air-cooled clusters.

All methods are vectorized: per-GPU parameter arrays of shape ``(n,)``
broadcast against frequency grids of shape ``(n,)`` or ``(n, k)``.
"""

from __future__ import annotations

import numpy as np

from .silicon import SiliconPopulation
from .specs import GPUSpec

__all__ = ["PowerModel"]


class PowerModel:
    """Vectorized power evaluation for a homogeneous-SKU GPU population.

    Parameters
    ----------
    spec:
        The SKU electrical specification.
    silicon:
        Per-die manufacturing parameters; ``silicon.n`` defines the
        population size all evaluations broadcast over.
    """

    def __init__(self, spec: GPUSpec, silicon: SiliconPopulation) -> None:
        self.spec = spec
        self.silicon = silicon
        self._leakage_scale = silicon.leakage_scale
        # Pre-square the per-die voltage multiplier once.
        self._v_mult_sq = (1.0 + silicon.voltage_offset) ** 2
        self._leak_f32: np.ndarray | None = None

    @property
    def n(self) -> int:
        """Population size."""
        return int(self._v_mult_sq.shape[0])

    def take(
        self,
        indices: np.ndarray,
        silicon: SiliconPopulation | None = None,
    ) -> "PowerModel":
        """The model of the dies at ``indices``, gathered, not re-derived.

        Every per-die array here is an elementwise function of the silicon
        sample, so gathering the cached arrays gives the same bits as
        deriving them on ``silicon.take(indices)``.  ``silicon`` is that
        gathered sample when the caller has one (a sub-fleet); solver-only
        callers (job pricing) omit it.
        """
        sub = object.__new__(PowerModel)
        sub.spec = self.spec
        sub.silicon = silicon
        sub._leakage_scale = self._leakage_scale[indices]
        sub._v_mult_sq = self._v_mult_sq[indices]
        leak = self.leakage_scale_w_f32()[indices]
        leak.setflags(write=False)
        sub._leak_f32 = leak
        return sub

    @property
    def v_mult_sq(self) -> np.ndarray:
        """Per-die squared voltage multiplier ``(1 + v_offset)**2``.

        The per-GPU factor the dynamic-power term scales with; exposed for
        the fleet solver's analytic boundary estimate, which separates
        dynamic power into this row factor times a ladder-column basis.
        """
        return self._v_mult_sq

    def leakage_scale_w_f32(self) -> np.ndarray:
        """Per-die leakage at the reference temperature, cached float32.

        ``leakage_scale * leakage_nominal_w`` is loop-invariant across every
        fixed-point solve the DVFS controller runs, so it is computed once
        per model and shared (read-only) by every fixed-point solve.
        """
        if self._leak_f32 is None:
            leak = (
                self._leakage_scale * self.spec.leakage_nominal_w
            ).astype(np.float32)
            leak.setflags(write=False)
            self._leak_f32 = leak
        return self._leak_f32

    # -- components ---------------------------------------------------------

    def dynamic_power(
        self,
        f_mhz: np.ndarray,
        activity: np.ndarray | float,
        efficiency: np.ndarray | float = 1.0,
        indices: np.ndarray | None = None,
        v_sq: np.ndarray | None = None,
    ) -> np.ndarray:
        """Core switching power at frequency ``f_mhz``.

        ``activity`` is the workload's switching-activity factor in [0, 1];
        ``efficiency`` is the defect throughput multiplier (sick GPUs stall,
        switching less and burning less power — the 76 W stragglers of
        Fig. 15b fall out of this coupling).  ``indices`` restricts the
        per-die parameters to a population subset, for callers evaluating
        only the GPUs whose state changed (the engine's fast-cap clamp).

        ``v_sq`` optionally supplies the per-cell effective squared voltage
        ``V(f)**2 * (1 + v_off)**2`` precomputed by the caller.  The fleet
        solver uses this to gather squared ladder voltages from a cached
        per-column table instead of re-evaluating the V/F curve per cell;
        since every element must equal the expression above bit-for-bit,
        only cached values produced by the same ops may be passed.
        """
        f = np.asarray(f_mhz, dtype=float)
        if v_sq is None:
            v_nom = self.spec.voltage_at(f)
            v_mult_sq = (
                self._v_mult_sq if indices is None else self._v_mult_sq[indices]
            )
            v_sq = v_nom**2 * _col(v_mult_sq, f.ndim)
        if isinstance(efficiency, float) and efficiency == 1.0:
            # x * 1.0 is an exact float identity, so callers that fold the
            # efficiency factor into ``activity`` beforehand skip the
            # full-width multiply without changing a bit.
            act = np.asarray(activity, dtype=float)
        else:
            act = np.asarray(activity, dtype=float) * np.asarray(
                efficiency, dtype=float
            )
        return act * self.spec.c_eff_w_per_v2mhz * v_sq * f

    def memory_power(self, dram_utilization: np.ndarray | float) -> np.ndarray:
        """DRAM + memory-controller power at the given utilization."""
        util = np.clip(np.asarray(dram_utilization, dtype=float), 0.0, 1.0)
        return util * self.spec.mem_power_max_w

    def leakage_power(
        self,
        temperature_c: np.ndarray | float,
        indices: np.ndarray | None = None,
    ) -> np.ndarray:
        """Static power of each die at junction temperature ``temperature_c``."""
        t = np.asarray(temperature_c, dtype=float)
        base = self.spec.leakage_nominal_w * np.exp(
            self.spec.leakage_temp_coeff * (t - 25.0)
        )
        scale = (
            self._leakage_scale
            if indices is None
            else self._leakage_scale[indices]
        )
        return _col(scale, t.ndim) * base

    def settle_base_power_w(
        self,
        f_mhz: np.ndarray,
        activity: np.ndarray | float,
        dram_utilization: np.ndarray | float,
        efficiency: np.ndarray | float = 1.0,
        indices: np.ndarray | None = None,
        v_sq: np.ndarray | None = None,
        mem_w: np.ndarray | None = None,
    ) -> np.ndarray:
        """Temperature-independent board power: dynamic + memory + idle.

        This is the loop-invariant part of the DVFS fixed point (leakage is
        the only temperature-coupled term).  Both the full-population settle
        and the fleet solver's masked row-subset settle call this one
        expression, so their float64 base powers are bit-identical by
        construction; ``indices`` restricts the per-die parameters to the
        rows being evaluated, and ``v_sq`` is forwarded to
        :meth:`dynamic_power` (same bit-exactness contract).  ``mem_w``
        optionally supplies a precomputed :meth:`memory_power` result —
        the memory term is per-GPU only, so callers evaluating several
        ladder columns per GPU compute it once and duplicate it; the sum
        keeps the exact ``(dynamic + memory) + idle`` association either
        way.
        """
        if mem_w is None:
            mem_w = self.memory_power(dram_utilization)
        return (
            self.dynamic_power(
                f_mhz, activity, efficiency, indices=indices, v_sq=v_sq
            )
            + mem_w
            + self.spec.idle_power_w
        )

    # -- totals ---------------------------------------------------------------

    def total_power(
        self,
        f_mhz: np.ndarray,
        temperature_c: np.ndarray,
        activity: np.ndarray | float,
        dram_utilization: np.ndarray | float,
        efficiency: np.ndarray | float = 1.0,
        indices: np.ndarray | None = None,
    ) -> np.ndarray:
        """Board power at an operating point (vectorized, broadcasting).

        With ``indices``, the inputs cover only that population subset and
        the per-die parameters are sliced to match.
        """
        return (
            self.dynamic_power(f_mhz, activity, efficiency, indices=indices)
            + self.memory_power(dram_utilization)
            + self.leakage_power(temperature_c, indices=indices)
            + self.spec.idle_power_w
        )

    def idle_power(self, temperature_c: np.ndarray | float) -> np.ndarray:
        """Board power with clocks parked (leakage + baseboard only)."""
        return self.leakage_power(temperature_c) + self.spec.idle_power_w


def _col(per_gpu: np.ndarray, target_ndim: int) -> np.ndarray:
    """Reshape a per-GPU (n,) array to broadcast against (n, k) grids."""
    if target_ndim <= 1:
        return per_gpu
    return per_gpu.reshape(per_gpu.shape[0], *([1] * (target_ndim - 1)))
