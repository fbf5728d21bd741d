"""Per-pair Spearman oracle for :mod:`repro.core.correlation`.

The rank and matrix code as it stood before the matrix ranked each column
once: every pair drops its own non-finite rows and ranks both columns
afresh, and ties are averaged from :func:`numpy.unique`'s groups with
:func:`numpy.add.at`.  :func:`~repro.core.correlation.correlation_matrix`
must reproduce its coefficients bit for bit, and raise the same errors.
"""

from __future__ import annotations

import numpy as np

from repro.core.correlation import CorrelationPair, _check, pearson
from repro.errors import AnalysisError
from repro.telemetry.dataset import MeasurementDataset
from repro.telemetry.sample import PAPER_METRICS


def rank(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0])
    ranks[order] = np.arange(1, values.shape[0] + 1, dtype=float)
    # Average tied ranks.
    uniq, inverse, counts = np.unique(
        values, return_inverse=True, return_counts=True
    )
    if uniq.shape[0] != values.shape[0]:
        sums = np.zeros(uniq.shape[0])
        np.add.at(sums, inverse, ranks)
        ranks = (sums / counts)[inverse]
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    x, y = _check(x, y)
    return pearson(rank(x), rank(y))


def correlation_matrix(
    dataset: MeasurementDataset,
    metrics: tuple[str, ...] = PAPER_METRICS,
) -> dict[tuple[str, str], CorrelationPair]:
    present = [m for m in metrics if m in dataset]
    if len(present) < 2:
        raise AnalysisError(
            f"need at least two metric columns, found {present}"
        )
    out: dict[tuple[str, str], CorrelationPair] = {}
    for i, mx in enumerate(present):
        for my in present[i + 1:]:
            x = dataset.column(mx)
            y = dataset.column(my)
            out[(mx, my)] = CorrelationPair(
                metric_x=mx,
                metric_y=my,
                rho=pearson(x, y),
                rho_spearman=spearman(x, y),
                n=x.shape[0],
            )
    return out
