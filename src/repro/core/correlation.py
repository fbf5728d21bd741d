"""Correlation analysis between the study's metrics (the scatter figures).

The paper quotes Pearson coefficients between metric pairs on every
cluster (Figs. 3, 5, 7, 10, 13, 15): performance/frequency is strongly
negative on NVIDIA clusters under compute loads, performance/temperature is
weakly positive only on air-cooled machines, and power decouples entirely
on Summit.  Spearman rank correlation is provided as well because several
relationships (thermal throttling onsets) are monotone but not linear.

Ranks are average ranks for ties, from one stable sort of the column
(:class:`~repro.telemetry.dataset.GroupIndex`), with each tie group's
ranks summed in row order.  :func:`correlation_matrix` converts each
metric column to float once and ranks a column once when every value in
it is finite: then no pair drops a row, and every pair's Spearman
coefficient is the Pearson coefficient of the two columns' ranks.  A
pair with a NaN or infinity in either column drops its own rows, so it
ranks the pair afresh through :func:`spearman`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..telemetry.dataset import GroupIndex, MeasurementDataset
from ..telemetry.sample import PAPER_METRICS

__all__ = ["pearson", "spearman", "CorrelationPair", "correlation_matrix",
           "paper_correlation_pairs"]


def _check(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise AnalysisError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 3:
        raise AnalysisError("need at least 3 points for a correlation")
    finite = np.isfinite(x) & np.isfinite(y)
    x, y = x[finite], y[finite]
    if x.shape[0] < 3:
        raise AnalysisError("fewer than 3 finite point pairs")
    return x, y


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient (the paper's rho)."""
    x, y = _check(x, y)
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation (average ranks for ties)."""
    x, y = _check(x, y)
    return pearson(_rank(x), _rank(y))


def _rank(values: np.ndarray) -> np.ndarray:
    groups = GroupIndex.of(values)
    ranks = np.empty(values.shape[0])
    ranks[groups.order] = np.arange(1, values.shape[0] + 1, dtype=float)
    # Average tied ranks; bincount sums each group in row order.
    if groups.n_groups != values.shape[0]:
        sums = np.bincount(groups.inverse, weights=ranks)
        ranks = (sums / groups.counts)[groups.inverse]
    return ranks


@dataclass(frozen=True)
class CorrelationPair:
    """One metric pair's correlation, as quoted in the paper's captions."""

    metric_x: str
    metric_y: str
    rho: float
    rho_spearman: float
    n: int

    def describe(self) -> str:
        """Qualitative strength label used in reports."""
        a = abs(self.rho)
        if a >= 0.8:
            strength = "strong"
        elif a >= 0.5:
            strength = "moderate"
        elif a >= 0.25:
            strength = "weak"
        else:
            strength = "negligible"
        sign = "negative" if self.rho < 0 else "positive"
        return f"{strength} {sign}"


def correlation_matrix(
    dataset: MeasurementDataset,
    metrics: tuple[str, ...] = PAPER_METRICS,
) -> dict[tuple[str, str], CorrelationPair]:
    """All pairwise correlations between the given metric columns.

    Computed over run-level rows (the scatter plots use every observation,
    not per-GPU medians).
    """
    present = [m for m in metrics if m in dataset]
    if len(present) < 2:
        raise AnalysisError(
            f"need at least two metric columns, found {present}"
        )
    columns = {m: np.asarray(dataset.column(m), dtype=float).ravel()
               for m in present}
    # A column with no NaN or infinity ranks the same in every pair.
    ranks = {m: _rank(column) for m, column in columns.items()
             if np.isfinite(column).all()}
    out: dict[tuple[str, str], CorrelationPair] = {}
    for i, mx in enumerate(present):
        for my in present[i + 1:]:
            x = columns[mx]
            y = columns[my]
            rho = pearson(x, y)
            if mx in ranks and my in ranks:
                rho_spearman = pearson(ranks[mx], ranks[my])
            else:
                rho_spearman = spearman(x, y)
            out[(mx, my)] = CorrelationPair(
                metric_x=mx,
                metric_y=my,
                rho=rho,
                rho_spearman=rho_spearman,
                n=x.shape[0],
            )
    return out


def paper_correlation_pairs(
    dataset: MeasurementDataset,
) -> dict[str, CorrelationPair]:
    """The four pairings the paper's scatter figures report, by short name."""
    matrix = correlation_matrix(dataset)

    def get(a: str, b: str) -> CorrelationPair:
        return matrix.get((a, b)) or matrix[(b, a)]

    return {
        "perf_vs_frequency": get("performance_ms", "frequency_mhz"),
        "perf_vs_power": get("performance_ms", "power_w"),
        "perf_vs_temperature": get("performance_ms", "temperature_c"),
        "power_vs_temperature": get("power_w", "temperature_c"),
    }
