"""Box-and-whisker statistics with the paper's exact definitions.

Section III ("IQR & Variability"): the box spans Q1..Q3, whiskers sit at
Q1 - 1.5 IQR and Q3 + 1.5 IQR, *range* is the difference between the most
extreme observations inside the whisker fences, *variation* is
``range / median``, and points outside the fences are outliers — excluded
from the variance calculation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError

__all__ = ["BoxStats", "WHISKER_FACTOR", "tukey_fences"]

#: Tukey whisker multiplier used throughout the paper.
WHISKER_FACTOR = 1.5


def tukey_fences(values: np.ndarray, axis: int | None = None) -> tuple:
    """Quartiles and whisker fences of a finite sample.

    Returns ``(q1, median, q3, fence_lo, fence_hi)`` with the fences at
    ``q1 - 1.5 IQR`` / ``q3 + 1.5 IQR``.  With ``axis=None`` the sample is
    ``values`` flattened and each entry is a float; with an ``axis`` every
    slice along it is one sample and each entry is an array over the other
    axes, equal bit for bit to the flattened call on that slice.  This is
    the single home of the paper's fence arithmetic; :class:`BoxStats`, the
    outlier flaggers, the Monte Carlo projection, and the streaming health
    monitor all call it rather than re-deriving the expression.
    """
    x = np.asarray(values, dtype=float)
    if axis is None:
        x = x.ravel()
    if x.shape[0 if axis is None else axis] == 0:
        raise AnalysisError("cannot compute fences of an empty sample")
    q1, median, q3 = np.percentile(x, [25, 50, 75], axis=axis)
    if axis is None:
        q1, median, q3 = float(q1), float(median), float(q3)
    iqr = q3 - q1
    return q1, median, q3, q1 - WHISKER_FACTOR * iqr, q3 + WHISKER_FACTOR * iqr


@dataclass(frozen=True)
class BoxStats:
    """Summary of one metric's distribution, the paper's way.

    Attributes
    ----------
    q1, median, q3:
        Quartiles.
    iqr:
        ``q3 - q1``.
    fence_lo, fence_hi:
        Theoretical whisker positions ``q1 - 1.5 IQR`` / ``q3 + 1.5 IQR``.
    whisker_lo, whisker_hi:
        Most extreme observations inside the fences (where a box plot
        actually draws its whiskers).
    range:
        ``whisker_hi - whisker_lo``.
    variation:
        ``range / median`` — the paper's headline variability number.
    n, n_outliers:
        Total observations and how many fall outside the fences.
    """

    q1: float
    median: float
    q3: float
    iqr: float
    fence_lo: float
    fence_hi: float
    whisker_lo: float
    whisker_hi: float
    range: float
    variation: float
    n: int
    n_outliers: int

    @classmethod
    def from_values(cls, values: np.ndarray) -> "BoxStats":
        """Compute box statistics over a 1-D sample."""
        x = np.asarray(values, dtype=float).ravel()
        x = x[np.isfinite(x)]
        if x.shape[0] == 0:
            raise AnalysisError("cannot compute box statistics of an empty sample")
        q1, median, q3, fence_lo, fence_hi = tukey_fences(x)
        iqr = q3 - q1
        inside = x[(x >= fence_lo) & (x <= fence_hi)]
        # At least the quartiles are always inside the fences.
        whisker_lo = float(inside.min())
        whisker_hi = float(inside.max())
        span = whisker_hi - whisker_lo
        if median == 0.0:
            raise AnalysisError(
                "variation is undefined for a zero median; check the metric"
            )
        return cls(
            q1=q1,
            median=median,
            q3=q3,
            iqr=iqr,
            fence_lo=fence_lo,
            fence_hi=fence_hi,
            whisker_lo=whisker_lo,
            whisker_hi=whisker_hi,
            range=span,
            variation=span / median,
            n=int(x.shape[0]),
            n_outliers=int(x.shape[0] - inside.shape[0]),
        )

    def outlier_mask(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of observations outside this box's fences."""
        x = np.asarray(values, dtype=float)
        return (x < self.fence_lo) | (x > self.fence_hi)

    def contains(self, value: float) -> bool:
        """Whether a value falls inside the whisker fences."""
        return self.fence_lo <= value <= self.fence_hi

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (for reports and serialization)."""
        return {
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "iqr": self.iqr,
            "whisker_lo": self.whisker_lo,
            "whisker_hi": self.whisker_hi,
            "range": self.range,
            "variation": self.variation,
            "n": float(self.n),
            "n_outliers": float(self.n_outliers),
        }
