"""The one-stop :class:`VariabilitySuite` — periodic fleet benchmarking.

Section VII: "our results motivate systematic benchmarking across nodes to
provide an early-warning for system administrators".  The suite packages the
whole workflow: run a campaign, compute every analysis the paper performs,
and produce a report an operator can act on.  On a real cluster the
campaign step would be replaced by ingesting real profiler output into a
:class:`~repro.telemetry.dataset.MeasurementDataset`; everything downstream
is measurement-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.cluster import Cluster
from ..errors import AnalysisError
from ..sim.campaign import CampaignConfig, run_campaign
from ..telemetry.dataset import MeasurementDataset
from ..telemetry.sample import (
    METRIC_PERFORMANCE,
    METRIC_POWER,
)
from ..workloads.base import Workload
from .boxstats import BoxStats
from .correlation import CorrelationPair, paper_correlation_pairs
from .outliers import OutlierReport, flag_outlier_gpus, worst_performers
from .report import render_cluster_report
from .sampling import coverage_margin, required_sample_size
from .scheduler import slow_assignment_probability
from .variability import variability_table

__all__ = ["ClusterReport", "VariabilitySuite"]


@dataclass(frozen=True)
class ClusterReport:
    """Everything the paper reports for one (cluster, workload) pair."""

    cluster_name: str
    workload_name: str
    n_gpus_observed: int
    n_runs: int
    metrics: dict[str, BoxStats]
    correlations: dict[str, CorrelationPair]
    performance_outliers: OutlierReport
    maintenance_candidates: list[tuple[str, float]]
    slow_assignment_single: float
    slow_assignment_node: float
    power_cv: float
    recommended_sample_size: int
    sampling_margin: float

    @property
    def performance_variation(self) -> float:
        """The headline number: fleet performance variation."""
        return self.metrics[METRIC_PERFORMANCE].variation

    def render(self) -> str:
        """Plain-text rendering (see :mod:`repro.core.report`)."""
        return render_cluster_report(self)


class VariabilitySuite:
    """Run-and-analyze harness for one cluster.

    Parameters
    ----------
    cluster:
        The machine to characterize.
    campaign:
        Measurement-campaign shape (days, coverage, runs per day).
    workers:
        Campaign worker processes (``None`` = serial).  Measurement
        results are bit-identical either way; see
        :mod:`repro.sim.parallel`.
    """

    def __init__(
        self,
        cluster: Cluster,
        campaign: CampaignConfig | None = None,
        workers: int | None = None,
    ) -> None:
        self.cluster = cluster
        self.campaign = campaign if campaign is not None else CampaignConfig()
        self.workers = workers

    def measure(self, workload: Workload) -> MeasurementDataset:
        """Run the measurement campaign for one workload."""
        return run_campaign(
            self.cluster, workload, self.campaign, workers=self.workers
        )

    def analyze(
        self,
        dataset: MeasurementDataset,
        maintenance_k: int = 5,
    ) -> ClusterReport:
        """Compute the full analysis over a measurement table."""
        if dataset.n_rows == 0:
            raise AnalysisError("empty dataset")
        metrics = variability_table(dataset)
        correlations = paper_correlation_pairs(dataset)
        perf_outliers = flag_outlier_gpus(dataset, METRIC_PERFORMANCE)
        candidates = worst_performers(
            dataset, METRIC_PERFORMANCE, k=maintenance_k
        )
        single = slow_assignment_probability(dataset, n_gpus=1)
        node_width = self.cluster.topology.gpus_per_node
        node = slow_assignment_probability(dataset, n_gpus=node_width)

        power = dataset.column(METRIC_POWER)
        cv = float(power.std() / power.mean())
        n_observed = dataset.group_index("gpu_index").n_groups
        recommended = required_sample_size(
            cv, population=self.cluster.n_gpus
        )
        margin = coverage_margin(
            cv, n_observed, population=self.cluster.n_gpus
        )

        workload_name = str(dataset.column("workload")[0])
        # Distinct (day, run) pairs: sort by both, count where either changes.
        order = np.lexsort((dataset.column("run"), dataset.column("day")))
        day = dataset.column("day")[order]
        run = dataset.column("run")[order]
        n_runs = 1 + int(np.count_nonzero(
            (day[1:] != day[:-1]) | (run[1:] != run[:-1])
        ))
        return ClusterReport(
            cluster_name=self.cluster.name,
            workload_name=workload_name,
            n_gpus_observed=n_observed,
            n_runs=n_runs,
            metrics=metrics,
            correlations=correlations,
            performance_outliers=perf_outliers,
            maintenance_candidates=candidates,
            slow_assignment_single=single,
            slow_assignment_node=node,
            power_cv=cv,
            recommended_sample_size=recommended,
            sampling_margin=margin,
        )

    def characterize(self, workload: Workload) -> ClusterReport:
        """Measure and analyze in one step."""
        return self.analyze(self.measure(workload))
