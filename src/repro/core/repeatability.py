"""Per-GPU repeatability across independent runs (Fig. 8).

The paper validates that its fleet-level findings are not transient by
measuring how much a *single* GPU varies across runs: the median per-GPU
variation is 0.44% on Longhorn, 0.12% on Summit, and 6.06% on Corona —
so "ill-performing GPUs are consistently ill-performing".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..telemetry.dataset import MeasurementDataset
from ..telemetry.sample import METRIC_PERFORMANCE
from .boxstats import BoxStats

__all__ = ["per_gpu_repeatability", "repeatability_summary", "RepeatabilitySummary"]


def per_gpu_repeatability(
    dataset: MeasurementDataset,
    metric: str = METRIC_PERFORMANCE,
    gpu_key: str = "gpu_index",
    min_runs: int = 2,
) -> MeasurementDataset:
    """Across-run variation per GPU: ``(max - min) / median`` of its runs.

    Returns a dataset with one row per GPU carrying ``gpu_label`` (when
    present), ``n_runs``, and ``repeat_variation``.  GPUs with fewer than
    ``min_runs`` observations are dropped.
    """
    if min_runs < 2:
        raise AnalysisError("min_runs must be >= 2")
    groups = dataset.group_index(gpu_key)
    values = dataset.column(metric)
    kept = groups.counts >= min_runs
    if not kept.any():
        raise AnalysisError(
            f"no GPU had at least {min_runs} runs of {metric!r}"
        )
    medians = groups.medians(values)[kept]
    if bool(np.any(medians == 0)):
        raise AnalysisError("zero median makes repeat variation undefined")
    # Each group's runs in ascending order: the spread is last minus first.
    ordered = groups.sorted_values(values)
    starts = groups.starts[kept]
    n_runs = groups.counts[kept]
    spread = ordered[starts + n_runs - 1] - ordered[starts]
    rows_idx = groups.first[kept]

    columns: dict[str, np.ndarray] = {
        gpu_key: dataset.column(gpu_key)[rows_idx],
        "n_runs": n_runs.astype(np.int64),
        "repeat_variation": (spread / medians).astype(np.float64),
    }
    for carry in ("gpu_label", "node_label", "cabinet", "cluster", "workload"):
        if carry in dataset:
            columns[carry] = dataset.column(carry)[rows_idx]
    return MeasurementDataset(columns)


@dataclass(frozen=True)
class RepeatabilitySummary:
    """Fleet distribution of per-GPU across-run variation."""

    stats: BoxStats
    median_variation: float
    worst_gpu_label: str
    worst_variation: float
    #: Whether the worst repeat-variation GPUs coincide with the slowest
    #: GPUs (the paper found they do *not* — Section IV-D).
    worst_overlaps_slowest: bool


def repeatability_summary(
    dataset: MeasurementDataset,
    metric: str = METRIC_PERFORMANCE,
    top_k: int = 10,
) -> RepeatabilitySummary:
    """Summarize per-GPU repeatability and its relation to slowness."""
    rep = per_gpu_repeatability(dataset, metric)
    variation = rep.column("repeat_variation")
    stats = BoxStats.from_values(variation)
    worst_idx = int(np.argmax(variation))
    labels = (
        rep.column("gpu_label")
        if "gpu_label" in rep
        else rep.column("gpu_index").astype(str)
    )

    med = dataset.per_gpu_median(metric)
    slow_order = np.argsort(med.column(metric))[::-1][:top_k]
    slow_labels = set(
        (med.column("gpu_label") if "gpu_label" in med
         else med.column("gpu_index").astype(str))[slow_order]
    )
    noisy_order = np.argsort(variation)[::-1][:top_k]
    noisy_labels = set(labels[noisy_order])

    return RepeatabilitySummary(
        stats=stats,
        median_variation=stats.median,
        worst_gpu_label=str(labels[worst_idx]),
        worst_variation=float(variation[worst_idx]),
        worst_overlaps_slowest=bool(noisy_labels & slow_labels),
    )
