"""Variability-aware scheduling (the mitigation the paper calls for).

Two capabilities from Section VII:

* **User impact**: the probability a batch job is handed a slow GPU — 18%
  for single-GPU jobs on Longhorn, 9% on Summit, and 40-50% for 4-GPU jobs
  on Longhorn, because one slow member drags a bulk-synchronous job.
* **Application-aware placement**: "assign medium- and high-compute
  intensity workloads on nodes with less variation [while] memory-bound
  applications can be run on higher-variation nodes without incurring
  significant performance loss."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..telemetry.dataset import MeasurementDataset
from ..telemetry.sample import METRIC_PERFORMANCE
from ..workloads.base import Workload
from .classify import classify_workload, expected_performance_sensitivity

__all__ = [
    "slow_assignment_probability",
    "node_variability_scores",
    "PlacementPlan",
    "plan_placements",
]


def slow_assignment_probability(
    dataset: MeasurementDataset,
    n_gpus: int = 1,
    slow_threshold: float = 0.06,
    metric: str = METRIC_PERFORMANCE,
    fast_percentile: float = 2.0,
) -> float:
    """Probability a random job draws at least one slow GPU.

    A GPU is *slow* when its per-GPU median runtime exceeds the fast
    baseline (a low percentile of the fleet, approximating "the fastest
    GPUs") by more than ``slow_threshold`` — the paper's "6-7% slower than
    the fastest GPUs".  Single-GPU jobs draw one GPU uniformly; multi-GPU
    jobs draw ``n_gpus`` co-located GPUs from one node, so the per-node
    composition matters.
    """
    if n_gpus < 1:
        raise AnalysisError("n_gpus must be >= 1")
    if not 0.0 <= fast_percentile <= 50.0:
        raise AnalysisError("fast_percentile must be in [0, 50]")
    med = dataset.per_gpu_median(metric)
    values = med.column(metric)
    fast = np.percentile(values, fast_percentile)
    slow = values > fast * (1.0 + slow_threshold)
    if n_gpus == 1:
        return float(slow.mean())

    if "node_label" not in med:
        raise AnalysisError("multi-GPU impact needs a node_label column")
    groups = med.group_index("node_label")
    wide = groups.counts >= n_gpus
    if not wide.any():
        raise AnalysisError(
            f"no node is wide enough for {n_gpus}-GPU jobs"
        )
    width = groups.counts[wide]
    n_slow = np.bincount(groups.inverse[slow], minlength=groups.n_groups)
    n_fast = width - n_slow[wide]
    # Hypergeometric: P(no slow GPU among n_gpus of width), node by node in
    # sorted node order.  On a node exactly n_gpus wide the product is
    # exactly 1.0 (no slow member) or 0.0 (any slow member).
    p_clean = np.ones(width.shape[0])
    for j in range(n_gpus):
        p_clean *= np.maximum(0, n_fast - j) / (width - j)
    return float(np.mean(1.0 - p_clean))


def node_variability_scores(
    dataset: MeasurementDataset,
    metric: str = METRIC_PERFORMANCE,
) -> dict[str, float]:
    """Per-node variability score: worst member median over node median.

    A score of 1.0 means the node's GPUs perform identically; larger means
    a bulk-synchronous job on this node pays the difference.
    """
    med = dataset.per_gpu_median(metric)
    if "node_label" not in med:
        raise AnalysisError("dataset needs node_label for node scoring")
    values = med.column(metric)
    groups = med.group_index("node_label")
    worst = groups.sorted_values(values)[groups.starts + groups.counts - 1]
    scores = worst / np.median(values)
    nodes = med.column("node_label")[groups.first]
    return {str(node): float(score) for node, score in zip(nodes, scores)}


@dataclass(frozen=True)
class PlacementPlan:
    """Assignment of workloads to nodes plus the expected benefit."""

    assignments: dict[str, str]          # workload name -> node label
    expected_slowdowns: dict[str, float]  # vs a fleet-median node
    baseline_slowdowns: dict[str, float]  # random placement expectation


def plan_placements(
    dataset: MeasurementDataset,
    workloads: list[Workload],
    metric: str = METRIC_PERFORMANCE,
) -> PlacementPlan:
    """Place workloads on nodes, variability-aware (Section VII).

    Greedy by performance sensitivity: the most variability-sensitive
    workload gets the lowest-variability node.  The expected slowdown of a
    placement is ``1 + sensitivity * (score - 1)``; the baseline is random
    placement (the mean score).
    """
    if not workloads:
        raise AnalysisError("need at least one workload to place")
    scores = node_variability_scores(dataset, metric)
    if len(scores) < len(workloads):
        raise AnalysisError(
            f"{len(workloads)} workloads but only {len(scores)} nodes"
        )
    nodes_sorted = sorted(scores, key=scores.get)
    mean_score = float(np.mean(list(scores.values())))

    ranked = sorted(
        workloads,
        key=lambda w: expected_performance_sensitivity(classify_workload(w)),
        reverse=True,
    )
    assignments: dict[str, str] = {}
    expected: dict[str, float] = {}
    baseline: dict[str, float] = {}
    for workload, node in zip(ranked, nodes_sorted):
        sens = expected_performance_sensitivity(classify_workload(workload))
        assignments[workload.name] = node
        expected[workload.name] = 1.0 + sens * (scores[node] - 1.0)
        baseline[workload.name] = 1.0 + sens * (mean_score - 1.0)
    return PlacementPlan(
        assignments=assignments,
        expected_slowdowns=expected,
        baseline_slowdowns=baseline,
    )
