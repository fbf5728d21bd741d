"""Rare defect / degradation modes observed as outliers in the paper.

The paper's outliers are not explained by the bulk process spread: they are
specific pathologies concentrated in specific locations.  We model the three
recurring signatures:

``POWER_DELIVERY``
    Board power delivery limits the GPU below its nominal TDP (255–290 W on
    Summit row H, Appendix B).  The GPU settles at a *fixed low frequency*
    (e.g. the flat 1312 MHz trace in Fig. 25), runs cool, and shows up as a
    string of power outliers at a common slow runtime (~2510 ms, Fig. 5b) —
    uncorrelated with temperature.

``SICK_SLOW``
    A stuck-low boost ceiling (degraded VRM phase, firmware fallback, ECC
    retirement pressure): the GPU cannot clock past a fraction of its boost
    ladder, so it is simultaneously *slow*, *cool*, and *low-power* — the
    signature of the two Frontera c197 GPUs (1100-1600 ms slower, 16 degC
    cooler, 59 W below median, Section IV-F) and the Longhorn c002
    stragglers.  Under bulk-synchronous multi-GPU training the *healthy
    neighbours* of a sick GPU spend most of each iteration waiting at max
    frequency and near-idle power, which is exactly the paradoxical
    "1530 MHz yet slow and 76 W" cloud of Fig. 15.

``HOT_RUNNER``
    Degraded thermal interface: the GPU runs far hotter than its neighbours
    at the same power (Summit rowh-col36-node2, which had *only* temperature
    outliers, Appendix B-B; Corona's c115 when combined with a cooling fault).

Defects are assigned per GPU with *spatially correlated* hazards — the
paper's outliers cluster by row/column/cabinet (rows D & F, columns 13, 14,
28, 33, 36, 50 on Summit; single cabinets elsewhere), so each location group
carries a hazard multiplier drawn from a Gamma distribution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

from ..config import require

__all__ = ["DefectType", "DefectConfig", "DefectAssignment", "assign_defects"]


class DefectType(enum.IntEnum):
    """Defect categories; ``NONE`` is a healthy die."""

    NONE = 0
    POWER_DELIVERY = 1
    SICK_SLOW = 2
    HOT_RUNNER = 3


@dataclass(frozen=True)
class DefectConfig:
    """Fleet-level defect incidence and severity distribution.

    Rates are per-GPU probabilities *before* spatial concentration; the
    Gamma hazard redistributes incidents toward unlucky location groups
    while preserving the expected count.
    """

    #: Probability a GPU has a power-delivery cap.
    power_delivery_rate: float = 0.004
    #: Power cap range as a fraction of TDP (uniform), e.g. 255–290 W / 300 W.
    power_delivery_cap_frac: tuple[float, float] = (0.85, 0.97)
    #: Probability a GPU is sick-slow.
    sick_slow_rate: float = 0.003
    #: Boost-ceiling range for sick GPUs as a fraction of f_max (uniform).
    sick_slow_frequency_cap: tuple[float, float] = (0.55, 0.85)
    #: Probability a GPU is a hot runner.
    hot_runner_rate: float = 0.004
    #: Extra thermal-resistance multiplier range for hot runners (uniform).
    hot_runner_resistance: tuple[float, float] = (1.5, 2.2)
    #: Shape of the Gamma hazard shared by GPUs in one location group.
    #: Smaller shape => more concentrated outlier clusters (mean fixed at 1).
    spatial_concentration_shape: float = 0.35

    def __post_init__(self) -> None:
        for name in ("power_delivery_rate", "sick_slow_rate", "hot_runner_rate"):
            rate = getattr(self, name)
            require(0.0 <= rate <= 0.5, f"{name} must be in [0, 0.5]")
        for name in ("power_delivery_cap_frac", "sick_slow_frequency_cap",
                     "hot_runner_resistance"):
            bounds = getattr(self, name)
            require(len(bounds) == 2,
                    f"{name} must be a (lo, hi) pair, got {bounds!r}")
            lo, hi = bounds
            require(0 < lo <= hi, f"{name} must satisfy 0 < lo <= hi")
        # Cap fractions are multipliers on TDP / f_max: above 1 they would
        # silently *overclock* the defective GPUs.
        for name in ("power_delivery_cap_frac", "sick_slow_frequency_cap"):
            require(getattr(self, name)[1] <= 1.0,
                    f"{name} is a fraction of nominal and must be <= 1")
        # Hot runners add thermal resistance; a multiplier below 1 would
        # model a defect that *improves* cooling.
        require(self.hot_runner_resistance[0] >= 1.0,
                "hot_runner_resistance must be >= 1")
        require(self.spatial_concentration_shape > 0,
                "spatial_concentration_shape must be positive")

    @classmethod
    def none(cls) -> "DefectConfig":
        """A defect-free fleet (for ablations)."""
        return cls(power_delivery_rate=0.0, sick_slow_rate=0.0, hot_runner_rate=0.0)

    @property
    def total_rate(self) -> float:
        """Expected fraction of GPUs with any defect."""
        return self.power_delivery_rate + self.sick_slow_rate + self.hot_runner_rate


@dataclass(frozen=True)
class DefectAssignment:
    """Per-GPU defect outcome (parallel arrays of length ``n``).

    All severity arrays are 1.0 for healthy GPUs, so they can be applied
    unconditionally as multipliers.
    """

    kind: np.ndarray                     # DefectType values, int8
    power_cap_frac: np.ndarray           # fraction of TDP available
    frequency_cap_frac: np.ndarray       # fraction of f_max reachable
    efficiency: np.ndarray               # work-throughput multiplier
    extra_thermal_resistance: np.ndarray  # multiplier on R_theta

    def __post_init__(self) -> None:
        n = self.kind.shape[0] if self.kind.ndim == 1 else -1
        arrays = {
            "kind": self.kind,
            "power_cap_frac": self.power_cap_frac,
            "frequency_cap_frac": self.frequency_cap_frac,
            "efficiency": self.efficiency,
            "extra_thermal_resistance": self.extra_thermal_resistance,
        }
        for name, arr in arrays.items():
            require(arr.ndim == 1 and arr.shape[0] == n,
                    f"{name} must be a 1-D array of length {n}, "
                    f"got shape {arr.shape}")
        valid_kinds = {int(k) for k in DefectType}
        require(set(np.unique(self.kind)).issubset(valid_kinds),
                "kind must contain only DefectType values")
        # Severities are unconditional multipliers: negative or zero
        # values would silently invert / zero the physics downstream.
        for name in ("power_cap_frac", "frequency_cap_frac", "efficiency"):
            arr = arrays[name]
            require(bool(np.isfinite(arr).all())
                    and bool((arr > 0.0).all()) and bool((arr <= 1.0).all()),
                    f"{name} must be finite and in (0, 1]")
        res = self.extra_thermal_resistance
        require(bool(np.isfinite(res).all()) and bool((res >= 1.0).all()),
                "extra_thermal_resistance must be finite and >= 1")

    @property
    def n(self) -> int:
        """Number of GPUs covered by this assignment."""
        return int(self.kind.shape[0])

    def defective_indices(self) -> np.ndarray:
        """Indices of GPUs with any defect."""
        return np.flatnonzero(self.kind != int(DefectType.NONE))

    def count(self, kind: DefectType) -> int:
        """Number of GPUs with defect ``kind``."""
        return int(np.count_nonzero(self.kind == int(kind)))

    def take(self, indices: np.ndarray) -> "DefectAssignment":
        """Sub-assignment at ``indices`` (a 1-D index array).

        Validation happens where data enters — :func:`assign_defects`,
        forced defects, chaos-scaled caps.  Every check is per element or
        per length, so a 1-D gather of a validated assignment is valid by
        construction and skips ``__post_init__``.
        """
        indices = np.asarray(indices)
        if indices.ndim != 1:
            raise ValueError(
                f"indices must be 1-D, got shape {indices.shape}"
            )
        sub = object.__new__(DefectAssignment)
        for field in fields(self):
            object.__setattr__(
                sub, field.name, getattr(self, field.name)[indices]
            )
        return sub


def assign_defects(
    n: int,
    config: DefectConfig,
    rng: np.random.Generator,
    location_group: np.ndarray | None = None,
) -> DefectAssignment:
    """Assign defects to ``n`` GPUs.

    Parameters
    ----------
    n:
        Fleet size.
    config:
        Incidence and severity distribution.
    rng:
        Source of randomness.
    location_group:
        Optional integer array of shape ``(n,)`` mapping each GPU to a
        location group (cabinet, or row-column pair).  GPUs in the same
        group share a hazard multiplier, concentrating defects spatially
        the way the paper observed.  ``None`` assigns defects i.i.d.
    """
    if n <= 0:
        raise ValueError(f"fleet size must be positive, got {n}")
    if location_group is not None and location_group.shape != (n,):
        raise ValueError(
            f"location_group must have shape ({n},), got {location_group.shape}"
        )

    if location_group is None or config.total_rate == 0.0:
        hazard = np.ones(n)
    else:
        groups, inverse = np.unique(location_group, return_inverse=True)
        shape = config.spatial_concentration_shape
        group_hazard = rng.gamma(shape, 1.0 / shape, size=groups.shape[0])
        hazard = group_hazard[inverse]

    kind = np.zeros(n, dtype=np.int8)
    power_cap_frac = np.ones(n)
    frequency_cap_frac = np.ones(n)
    efficiency = np.ones(n)
    extra_thermal_resistance = np.ones(n)

    u = rng.random(n)
    # Stacked thresholds: each GPU gets at most one defect; the hazard
    # multiplier scales all three rates for its location group.
    p_pd = np.clip(config.power_delivery_rate * hazard, 0.0, 1.0)
    p_ss = np.clip(config.sick_slow_rate * hazard, 0.0, 1.0)
    p_hr = np.clip(config.hot_runner_rate * hazard, 0.0, 1.0)

    is_pd = u < p_pd
    is_ss = (~is_pd) & (u < p_pd + p_ss)
    is_hr = (~is_pd) & (~is_ss) & (u < p_pd + p_ss + p_hr)

    if np.any(is_pd):
        lo, hi = config.power_delivery_cap_frac
        kind[is_pd] = int(DefectType.POWER_DELIVERY)
        power_cap_frac[is_pd] = rng.uniform(lo, hi, size=int(is_pd.sum()))
    if np.any(is_ss):
        lo, hi = config.sick_slow_frequency_cap
        kind[is_ss] = int(DefectType.SICK_SLOW)
        frequency_cap_frac[is_ss] = rng.uniform(lo, hi, size=int(is_ss.sum()))
    if np.any(is_hr):
        lo, hi = config.hot_runner_resistance
        kind[is_hr] = int(DefectType.HOT_RUNNER)
        extra_thermal_resistance[is_hr] = rng.uniform(lo, hi, size=int(is_hr.sum()))

    return DefectAssignment(
        kind=kind,
        power_cap_frac=power_cap_frac,
        frequency_cap_frac=frequency_cap_frac,
        efficiency=efficiency,
        extra_thermal_resistance=extra_thermal_resistance,
    )
