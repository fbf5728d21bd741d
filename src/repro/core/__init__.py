"""The variability characterization suite — the paper's methodology.

Everything in this subpackage operates on plain measurement tables
(:class:`~repro.telemetry.dataset.MeasurementDataset`), so it applies
unchanged to *real* cluster telemetry: box/IQR statistics with the paper's
variability definition, correlation analysis, outlier flagging and
cross-application persistence, per-GPU repeatability, statistical sample
sizing, cluster-size projection, application classification, scheduling
recommendations, day-of-week analysis, and plain-text reporting.

Every name below loads its home module on first access
(:mod:`repro._lazy`), so an analysis loads only the steps it runs.
"""

from .._lazy import lazy_exports

_LAZY_EXPORTS = {
    **dict.fromkeys(("BoxStats", "tukey_fences"), "repro.core.boxstats"),
    **dict.fromkeys(
        (
            "grouped_boxstats",
            "metric_boxstats",
            "normalized_performance",
            "variability_table",
        ),
        "repro.core.variability",
    ),
    **dict.fromkeys(
        ("CorrelationPair", "correlation_matrix", "pearson", "spearman"),
        "repro.core.correlation",
    ),
    **dict.fromkeys(
        (
            "OutlierAccumulator",
            "OutlierReport",
            "flag_outlier_gpus",
            "flag_outlier_values",
            "node_outlier_counts",
            "persistent_outliers",
            "worst_performers",
        ),
        "repro.core.outliers",
    ),
    **dict.fromkeys(
        ("per_gpu_repeatability", "repeatability_summary"),
        "repro.core.repeatability",
    ),
    **dict.fromkeys(
        ("achieved_accuracy", "coverage_margin", "required_sample_size"),
        "repro.core.sampling",
    ),
    **dict.fromkeys(
        ("fit_normal", "project_variation"),
        "repro.core.projection",
    ),
    **dict.fromkeys(
        ("ApplicationClass", "classify_counters", "classify_workload"),
        "repro.core.classify",
    ),
    **dict.fromkeys(
        (
            "PlacementPlan",
            "node_variability_scores",
            "plan_placements",
            "slow_assignment_probability",
        ),
        "repro.core.scheduler",
    ),
    **dict.fromkeys(
        ("day_of_week_stats", "weekday_consistency"),
        "repro.core.daily",
    ),
    **dict.fromkeys(
        ("ascii_box_row", "format_boxstats_table", "render_cluster_report"),
        "repro.core.report",
    ),
    **dict.fromkeys(("ClusterReport", "VariabilitySuite"), "repro.core.suite"),
}

__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = list(_LAZY_EXPORTS)
