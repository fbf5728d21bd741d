"""Per-group loop oracles for the analysis layer.

The semantic definition of every per-GPU and per-node reduction the
analysis suite performs, kept verbatim from the original implementations:
one boolean mask over every row per group (``inverse == gi``,
``nodes == node``) and one ``np.median`` / ``max`` call per group, and a
CSV writer that emits one ``csv.writer`` row per dataset row with a numpy
scalar per cell.  They are O(groups × rows), which is what makes them a
useful yardstick: the production sort-once implementations
(:meth:`~repro.telemetry.dataset.MeasurementDataset.per_gpu_median`,
:func:`~repro.core.scheduler.slow_assignment_probability`,
:func:`~repro.core.scheduler.node_variability_scores`,
:func:`~repro.core.repeatability.per_gpu_repeatability`, and
:func:`~repro.telemetry.io.dataset_to_csv_text`) must reproduce their
output byte for byte, dtype included.
"""

from __future__ import annotations

import csv
import io
from typing import IO

import numpy as np

from repro.errors import AnalysisError
from repro.telemetry.dataset import MeasurementDataset
from repro.telemetry.io import _kind_of
from repro.telemetry.sample import METRIC_PERFORMANCE


def per_gpu_median(
    dataset: MeasurementDataset, value: str, gpu_key: str = "gpu_index"
) -> MeasurementDataset:
    """One ``np.median`` per GPU over an ``inverse == gi`` mask."""
    keys = dataset.column(gpu_key)
    uniq, first_index, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    values = dataset.column(value)

    medians = np.array([
        np.median(values[inverse == gi]) for gi in range(uniq.shape[0])
    ])
    out: dict[str, np.ndarray] = {}
    for name in dataset.column_names:
        if name == value:
            continue
        col = dataset.column(name)
        representative = col[first_index]
        # Keep the column only if it is constant within every group.
        if bool(np.all(col == representative[inverse])):
            out[name] = representative
    out[value] = medians
    return MeasurementDataset(out)


def slow_assignment_probability(
    dataset: MeasurementDataset,
    n_gpus: int = 1,
    slow_threshold: float = 0.06,
    metric: str = METRIC_PERFORMANCE,
    fast_percentile: float = 2.0,
) -> float:
    """Per-node mask loop with a Python hypergeometric product per node."""
    if n_gpus < 1:
        raise AnalysisError("n_gpus must be >= 1")
    if not 0.0 <= fast_percentile <= 50.0:
        raise AnalysisError("fast_percentile must be in [0, 50]")
    med = per_gpu_median(dataset, metric)
    values = med.column(metric)
    fast = np.percentile(values, fast_percentile)
    slow = values > fast * (1.0 + slow_threshold)
    if n_gpus == 1:
        return float(slow.mean())

    if "node_label" not in med:
        raise AnalysisError("multi-GPU impact needs a node_label column")
    nodes = med.column("node_label")
    probs: list[float] = []
    for node in np.unique(nodes):
        members = slow[nodes == node]
        width = members.shape[0]
        if width < n_gpus:
            continue
        if n_gpus == width:
            probs.append(float(members.any()))
        else:
            # Hypergeometric: P(no slow GPU among n_gpus of width).
            n_fast = int((~members).sum())
            p_clean = 1.0
            for j in range(n_gpus):
                p_clean *= max(0, n_fast - j) / (width - j)
            probs.append(1.0 - p_clean)
    if not probs:
        raise AnalysisError(
            f"no node is wide enough for {n_gpus}-GPU jobs"
        )
    return float(np.mean(probs))


def node_variability_scores(
    dataset: MeasurementDataset,
    metric: str = METRIC_PERFORMANCE,
) -> dict[str, float]:
    """Per-node mask loop: worst member median over the fleet median."""
    med = per_gpu_median(dataset, metric)
    if "node_label" not in med:
        raise AnalysisError("dataset needs node_label for node scoring")
    values = med.column(metric)
    nodes = med.column("node_label")
    fleet_median = np.median(values)
    scores: dict[str, float] = {}
    for node in np.unique(nodes):
        member_values = values[nodes == node]
        scores[str(node)] = float(member_values.max() / fleet_median)
    return scores


def per_gpu_repeatability(
    dataset: MeasurementDataset,
    metric: str = METRIC_PERFORMANCE,
    gpu_key: str = "gpu_index",
    min_runs: int = 2,
) -> MeasurementDataset:
    """Per-GPU mask loop: ``(max - min) / median`` of each GPU's runs."""
    if min_runs < 2:
        raise AnalysisError("min_runs must be >= 2")
    keys = dataset.column(gpu_key)
    values = dataset.column(metric)
    uniq, first_index, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )

    rows_idx: list[int] = []
    variation: list[float] = []
    n_runs: list[int] = []
    for gi in range(uniq.shape[0]):
        v = values[inverse == gi]
        if v.shape[0] < min_runs:
            continue
        med = np.median(v)
        if med == 0:
            raise AnalysisError("zero median makes repeat variation undefined")
        rows_idx.append(int(first_index[gi]))
        variation.append(float((v.max() - v.min()) / med))
        n_runs.append(int(v.shape[0]))
    if not variation:
        raise AnalysisError(
            f"no GPU had at least {min_runs} runs of {metric!r}"
        )

    columns: dict[str, np.ndarray] = {
        gpu_key: keys[rows_idx],
        "n_runs": np.asarray(n_runs, dtype=np.int64),
        "repeat_variation": np.asarray(variation),
    }
    for carry in ("gpu_label", "node_label", "cabinet", "cluster", "workload"):
        if carry in dataset:
            columns[carry] = dataset.column(carry)[rows_idx]
    return MeasurementDataset(columns)


def write_csv_to(dataset: MeasurementDataset, fh: IO) -> None:
    """One ``csv.writer`` row per dataset row, one numpy scalar per cell."""
    names = dataset.column_names
    kinds = {name: _kind_of(dataset.column(name)) for name in names}
    writer = csv.writer(fh)
    writer.writerow([f"{name}:{kinds[name]}" for name in names])
    columns = [dataset.column(name) for name in names]
    for i in range(dataset.n_rows):
        writer.writerow([col[i] for col in columns])


def dataset_to_csv_text(dataset: MeasurementDataset) -> str:
    """:func:`write_csv_to` into a string."""
    buffer = io.StringIO(newline="")
    write_csv_to(dataset, buffer)
    return buffer.getvalue()
