"""The :class:`GPUFleet` — a population of simulated GPUs ready to run.

A fleet bundles everything hardware-side: the SKU spec, the silicon sample,
the defect assignment, and the thermal environment (per-GPU base thermal
resistance and coolant temperature supplied by the cluster's cooling model).
From those it derives the power model, thermal model, and DVFS controller.

Fleets are cheap, immutable views: per-day facility conditions produce a new
fleet via :meth:`GPUFleet.with_coolant` without resampling silicon.  A
fleet derives its per-GPU solver inputs (:class:`FleetArrays`) at most
once, on first use; a sub-population — :meth:`GPUFleet.take` for a sub-fleet,
:meth:`GPUFleet.solver_at` for a bare DVFS controller — gathers them by
index instead of deriving them again.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .defects import DefectAssignment, DefectType
from .dvfs import DvfsController, DvfsPolicy
from .power import PowerModel
from .silicon import SiliconPopulation
from .specs import GPUSpec
from .thermal import ThermalModel

__all__ = ["GPUFleet", "FleetArrays"]


@dataclass(frozen=True)
class FleetArrays:
    """Per-GPU quantities a fleet derives from its spec, silicon and defects.

    Each field is an elementwise function of per-GPU inputs, so
    :meth:`take` (a gather) returns the same bits as deriving the field on
    the gathered sub-population.  Coolant is not here: it changes per run.
    """

    efficiency: np.ndarray         # GPUFleet.throughput_efficiency()
    power_cap_w: np.ndarray        # GPUFleet.power_cap_w(None)
    f_cap_mhz: np.ndarray          # GPUFleet.frequency_cap_mhz()
    mem_bandwidth_gbs: np.ndarray  # GPUFleet.memory_bandwidth_gbs()
    r_theta: np.ndarray            # GPUFleet.effective_r_theta()

    def take(self, indices: np.ndarray) -> "FleetArrays":
        """The arrays of the GPUs at ``indices``."""
        return FleetArrays(
            *(getattr(self, f.name)[indices] for f in fields(self))
        )


class GPUFleet:
    """A homogeneous-SKU population of simulated GPUs.

    Parameters
    ----------
    spec:
        SKU specification.
    silicon:
        Manufacturing sample, one entry per GPU.
    defects:
        Defect assignment, one entry per GPU.
    r_theta_base_c_per_w:
        Cooling-technology base junction-to-coolant resistance per GPU
        (shape ``(n,)``); multiplied by the silicon TIM-quality and any
        HOT_RUNNER defect factor to form the effective resistance.
    coolant_c:
        Per-GPU coolant temperature (shape ``(n,)``).
    policy:
        DVFS policy; defaults to the vendor-appropriate one.
    power_model:
        Pre-built power model to reuse.  The power model depends only on
        (spec, silicon), so :meth:`with_coolant` passes the existing one
        instead of rebuilding per-die electrical state for every per-run
        thermal environment; must have been built from the same ``silicon``.
    arrays:
        Pre-derived :class:`FleetArrays` to reuse; must match ``spec``,
        ``silicon``, ``defects`` and ``r_theta_base_c_per_w``
        (:meth:`with_coolant` and :meth:`take` pass them on).  Without
        them, :attr:`arrays` derives its own on first use.
    """

    def __init__(
        self,
        spec: GPUSpec,
        silicon: SiliconPopulation,
        defects: DefectAssignment,
        r_theta_base_c_per_w: np.ndarray,
        coolant_c: np.ndarray,
        policy: DvfsPolicy | None = None,
        power_model: PowerModel | None = None,
        arrays: FleetArrays | None = None,
    ) -> None:
        n = silicon.n
        if defects.n != n:
            raise ValueError(f"defects cover {defects.n} GPUs, silicon covers {n}")
        r_base = np.asarray(r_theta_base_c_per_w, dtype=float)
        coolant = np.asarray(coolant_c, dtype=float)
        if r_base.shape != (n,) or coolant.shape != (n,):
            raise ValueError(
                f"r_theta_base and coolant_c must have shape ({n},), got "
                f"{r_base.shape} and {coolant.shape}"
            )
        if power_model is not None and power_model.silicon is not silicon:
            raise ValueError(
                "power_model was built from a different silicon population"
            )
        self.spec = spec
        self.silicon = silicon
        self.defects = defects
        self.r_theta_base = r_base
        self.coolant_c = coolant
        self.policy = policy if policy is not None else DvfsPolicy.for_spec(spec)

        self.power_model = (
            power_model if power_model is not None else PowerModel(spec, silicon)
        )
        self._arrays = arrays
        self.thermal_model = ThermalModel(
            spec,
            self.effective_r_theta() if arrays is None else arrays.r_theta,
            coolant,
        )
        self.controller = DvfsController(
            spec, self.power_model, self.thermal_model, self.policy
        )

    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of GPUs in the fleet."""
        return self.silicon.n

    def effective_r_theta(self) -> np.ndarray:
        """Effective junction-to-coolant thermal resistance per GPU."""
        return (
            self.r_theta_base
            * self.silicon.thermal_resistance_scale
            * self.defects.extra_thermal_resistance
        )

    def power_cap_w(
        self, power_limit_w: float | np.ndarray | None = None
    ) -> np.ndarray:
        """Effective per-GPU power cap.

        Board-level POWER_DELIVERY defects cap a GPU at a fraction of TDP;
        an administrative power limit (``nvidia-smi -pl``, Section VI-B)
        caps everything below that.  The effective cap is the minimum.
        """
        cap = np.full(self.n, self.spec.tdp_w)
        if power_limit_w is not None:
            cap = np.minimum(cap, np.broadcast_to(
                np.asarray(power_limit_w, dtype=float), (self.n,)
            ))
        return cap * self.defects.power_cap_frac

    def throughput_efficiency(self) -> np.ndarray:
        """Per-GPU work-throughput multiplier (silicon IPC x defect)."""
        return self.silicon.compute_efficiency * self.defects.efficiency

    def frequency_cap_mhz(self) -> np.ndarray:
        """Per-GPU boost ceiling (SICK_SLOW defects clock below f_max)."""
        return self.spec.f_max_mhz * self.defects.frequency_cap_frac

    def memory_bandwidth_gbs(self) -> np.ndarray:
        """Per-GPU achieved DRAM bandwidth."""
        return self.spec.mem_bandwidth_gbs * self.silicon.bandwidth_efficiency

    @property
    def arrays(self) -> FleetArrays:
        """The fleet's :class:`FleetArrays` (derived on first use)."""
        if self._arrays is None:
            self._arrays = FleetArrays(
                efficiency=self.throughput_efficiency(),
                power_cap_w=self.power_cap_w(None),
                f_cap_mhz=self.frequency_cap_mhz(),
                mem_bandwidth_gbs=self.memory_bandwidth_gbs(),
                r_theta=self.thermal_model.r_theta,
            )
        return self._arrays

    # ------------------------------------------------------------------

    def with_coolant(self, coolant_c: np.ndarray) -> "GPUFleet":
        """A fleet identical to this one but in a new thermal environment.

        The electrical side (spec, silicon) is unchanged, so the power
        model — including its cached per-die solver parameters — and the
        derived :class:`FleetArrays` are shared with the new fleet rather
        than rebuilt.
        """
        return GPUFleet(
            spec=self.spec,
            silicon=self.silicon,
            defects=self.defects,
            r_theta_base_c_per_w=self.r_theta_base,
            coolant_c=coolant_c,
            policy=self.policy,
            power_model=self.power_model,
            arrays=self._arrays,
        )

    def take(self, indices: np.ndarray) -> "GPUFleet":
        """Sub-fleet at ``indices`` (e.g. the GPUs of one allocation).

        Gathers this fleet's derived state (power model caches,
        :class:`FleetArrays`) — the same gather :meth:`solver_at` uses.
        """
        indices = np.asarray(indices)
        silicon = self.silicon.take(indices)
        return GPUFleet(
            spec=self.spec,
            silicon=silicon,
            defects=self.defects.take(indices),
            r_theta_base_c_per_w=self.r_theta_base[indices],
            coolant_c=self.coolant_c[indices],
            policy=self.policy,
            power_model=self.power_model.take(indices, silicon),
            arrays=None if self._arrays is None else self._arrays.take(indices),
        )

    def solver_at(
        self, indices: np.ndarray, coolant_c: np.ndarray
    ) -> tuple[DvfsController, FleetArrays]:
        """A DVFS controller for the GPUs at ``indices``, by gather alone.

        Returns the controller — in the thermal environment ``coolant_c``
        — and the gathered :class:`FleetArrays` that feed its solve.  Its
        solves equal ``self.take(indices).with_coolant(coolant_c)``'s bit
        for bit, without building a sub-fleet, silicon sample or defect
        assignment; job pricing calls this once per batch.
        """
        arrays = self.arrays.take(indices)
        thermal = ThermalModel(self.spec, arrays.r_theta, coolant_c)
        controller = DvfsController(
            self.spec, self.power_model.take(indices), thermal, self.policy
        )
        return controller, arrays

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n_def = self.defects.defective_indices().shape[0]
        return f"GPUFleet(spec={self.spec.name}, n={self.n}, defective={n_def})"
