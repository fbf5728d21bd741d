"""The stable public facade — ``import repro.api`` and stop there.

Everything a user of this package is supported in calling lives here, with
keyword-only signatures that can grow without breaking callers:

* :func:`load_preset` / :func:`load_workload` (+ the ``list_*`` helpers) —
  construct the paper's clusters and applications by name;
* :func:`run_campaign` — the measurement campaign, optionally parallel,
  traced, monitored, and manifest-audited (see :mod:`repro.obs`);
* :func:`characterize` — campaign + the paper's full analysis;
* :func:`monitor_fleet` — campaign with the streaming metrics pipeline and
  online health detection attached (grades, typed health events);
* :func:`screen` — maintenance triage across applications (Section VII);
* :func:`sweep` — the power-limit sweep on admin-access clusters (Fig. 22);
* :func:`project` — scaled-normal projection to larger fleets (Sec. IV-D);
* :func:`schedule` — the batch-queue simulator under a placement policy
  (Section VII end to end), plus the placement analyses
  :func:`slow_assignment_probability` / :func:`node_variability_scores` /
  :func:`plan_placements`;
* :func:`chaos` — declarative fault injection: run a named incident
  scenario end-to-end (injection → detection → scheduler reaction) and
  score the response against a no-fault baseline (:mod:`repro.chaos`).

Result types (:class:`CharacterizationResult`, :class:`ScreenReport`,
:class:`SweepReport`, :class:`ProjectionReport`, plus the re-exported
:class:`ClusterReport` et al.) are frozen dataclasses — inspect fields, do
not mutate.

Every verb also accepts a typed request object (:mod:`repro.api.requests`):
build a frozen :class:`CharacterizeRequest` (or Screen/Sweep/Schedule/
Monitor/Chaos variant), round-trip it through JSON, and pass it as
``characterize(request=...)`` or dispatch by kind via
:func:`execute_request`.  The HTTP service (:mod:`repro.service`) and the
CLI deserialize to these exact objects, so Python, CLI, and wire callers
share one validated surface; :func:`request_digest` is the coalescing and
cache key used throughout.

Anything importable from deeper modules (``repro.sim``, ``repro.core``, …)
remains reachable but is *not* covered by the facade's stability promise;
the legacy top-level re-exports (``from repro import longhorn``) were
removed in 2.0 and now raise :class:`ImportError` naming the replacement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from ..cluster.cluster import Cluster
from ..cluster.presets import get_preset, list_presets
from ..errors import ConfigError
from ..obs.observer import _attach, activate_recorder, active_monitor
from ..telemetry.sample import METRIC_PERFORMANCE
from ..workloads import get_workload, list_workloads
from ..workloads.base import Workload
from .requests import (
    EXECUTION_FIELDS,
    REQUEST_KINDS,
    REQUEST_SCHEMA_VERSION,
    ChaosRequest,
    CharacterizeRequest,
    MonitorRequest,
    ScheduleRequest,
    ScreenRequest,
    SweepRequest,
    request_digest,
    request_from_dict,
    request_from_json,
)

if TYPE_CHECKING:  # pragma: no cover - types only; see _LAZY_EXPORTS
    from ..chaos import ChaosRunResult, Scenario
    from ..core.boxstats import BoxStats
    from ..core.outliers import OutlierReport
    from ..core.scheduler import PlacementPlan
    from ..core.suite import ClusterReport
    from ..obs.health import (
        FleetHealthReport,
        HealthEvent,
        HealthPolicy,
        HealthTracker,
    )
    from ..obs.manifest import Manifest
    from ..obs.metrics import FleetMonitor, MonitorConfig
    from ..obs.timeline import TimelineRecorder
    from ..obs.tracer import Tracer
    from ..sched import (
        Job,
        JobRecord,
        PlacementPolicy,
        ScheduleOutcome,
        SchedulingReport,
        TraceConfig,
    )
    from ..sim.campaign import CampaignConfig
    from ..sim.parallel import ParallelConfig
    from ..telemetry.dataset import MeasurementDataset
    from ..telemetry.progress import CampaignProgress

#: Re-exports that ``import repro.api`` plus a preset do not need, by home
#: module.  Each loads on first access (PEP 562, through
#: :mod:`repro._lazy`), so ``import repro.api`` pays for none of them; each
#: verb imports the layers it runs when it is called.
_LAZY_EXPORTS = {
    "BoxStats": "repro.core.boxstats",
    "OutlierReport": "repro.core.outliers",
    "ClusterReport": "repro.core.suite",
    **dict.fromkeys(
        ("ApplicationClass", "classify_workload"), "repro.core.classify"
    ),
    "PlacementPlan": "repro.core.scheduler",
    "Tracer": "repro.obs.tracer",
    **dict.fromkeys(
        ("write_chrome_trace", "write_events_jsonl"), "repro.obs.export"
    ),
    **dict.fromkeys(
        ("Manifest", "read_manifest", "validate_manifest"),
        "repro.obs.manifest",
    ),
    **dict.fromkeys(
        ("FleetMonitor", "MonitorConfig", "render_prometheus"),
        "repro.obs.metrics",
    ),
    **dict.fromkeys(
        (
            "TimelineEvent",
            "TimelineRecorder",
            "canonical_digest",
            "read_timeline",
            "write_timeline",
        ),
        "repro.obs.timeline",
    ),
    **dict.fromkeys(
        (
            "FleetHealthReport",
            "HealthEvent",
            "HealthEventKind",
            "HealthPolicy",
            "HealthTracker",
            "analyze_fleet_health",
            "validate_health_report",
            "write_health_events",
        ),
        "repro.obs.health",
    ),
    "CampaignConfig": "repro.sim.campaign",
    "ParallelConfig": "repro.sim.parallel",
    "MeasurementDataset": "repro.telemetry.dataset",
    "CampaignProgress": "repro.telemetry.progress",
    **dict.fromkeys(
        (
            "ENGINE_MODES",
            "POLICY_NAMES",
            "BackfillPolicy",
            "EnergyCappedPolicy",
            "FifoPolicy",
            "HealthAwarePolicy",
            "Job",
            "JobRecord",
            "PlacementPolicy",
            "ScheduleOutcome",
            "SchedulingReport",
            "TraceConfig",
            "VariabilityAwarePolicy",
            "build_scheduling_report",
            "generate_trace",
            "node_grades_from_gpu_grades",
            "node_power_watts",
            "run_schedule",
            "validate_scheduling_report",
            "write_event_log",
        ),
        "repro.sched",
    ),
    **dict.fromkeys(
        (
            "CHAOS_SCORECARD_SCHEMA",
            "ChaosRunResult",
            "Scenario",
            "get_scenario",
            "list_scenarios",
            "render_scorecard",
            "validate_scorecard",
        ),
        "repro.chaos",
    ),
    **dict.fromkeys(
        ("ReplayCheck", "TimelineReplayer", "load_replayer"),
        "repro.obs.replay",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)


__all__ = [
    # constructors / registries
    "load_preset",
    "load_workload",
    "list_presets",
    "list_workloads",
    # verbs
    "run_campaign",
    "characterize",
    "monitor_fleet",
    "screen",
    "sweep",
    "project",
    "schedule",
    "chaos",
    # fault injection / incident scenarios
    "ChaosRunResult",
    "Scenario",
    "CHAOS_SCORECARD_SCHEMA",
    "get_scenario",
    "list_scenarios",
    "render_scorecard",
    "validate_scorecard",
    # scheduling analysis (Section VII)
    "slow_assignment_probability",
    "node_variability_scores",
    "plan_placements",
    "PlacementPlan",
    "classify_workload",
    "ApplicationClass",
    # batch-queue scheduling
    "SchedulingResult",
    "SchedulingReport",
    "ScheduleOutcome",
    "JobRecord",
    "Job",
    "TraceConfig",
    "generate_trace",
    "PlacementPolicy",
    "FifoPolicy",
    "BackfillPolicy",
    "VariabilityAwarePolicy",
    "HealthAwarePolicy",
    "EnergyCappedPolicy",
    "node_power_watts",
    "POLICY_NAMES",
    "ENGINE_MODES",
    "validate_scheduling_report",
    "write_event_log",
    # domain types
    "Cluster",
    "Workload",
    # result types
    "CharacterizationResult",
    "MonitoringResult",
    "ScreenReport",
    "WorkloadScreen",
    "SweepPoint",
    "SweepReport",
    "ProjectionReport",
    "ClusterReport",
    "OutlierReport",
    "BoxStats",
    "MeasurementDataset",
    # configuration
    "CampaignConfig",
    "ParallelConfig",
    "CampaignProgress",
    # observability
    "Tracer",
    "Manifest",
    "read_manifest",
    "validate_manifest",
    "write_chrome_trace",
    "write_events_jsonl",
    # flight recorder / replay
    "TimelineEvent",
    "TimelineRecorder",
    "TimelineReplayer",
    "ReplayCheck",
    "activate_recorder",
    "canonical_digest",
    "load_replayer",
    "read_timeline",
    "write_timeline",
    # monitoring / fleet health
    "FleetMonitor",
    "MonitorConfig",
    "active_monitor",
    "render_prometheus",
    "FleetHealthReport",
    "HealthEvent",
    "HealthEventKind",
    "HealthPolicy",
    "HealthTracker",
    "analyze_fleet_health",
    "validate_health_report",
    "write_health_events",
    # typed request objects (one validated surface: CLI, Python, HTTP)
    "REQUEST_SCHEMA_VERSION",
    "REQUEST_KINDS",
    "EXECUTION_FIELDS",
    "CharacterizeRequest",
    "ScreenRequest",
    "SweepRequest",
    "ScheduleRequest",
    "MonitorRequest",
    "ChaosRequest",
    "request_from_dict",
    "request_from_json",
    "request_digest",
    "execute_request",
]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def load_preset(name: str, *, seed: int = 0, scale: float = 1.0) -> Cluster:
    """Build one of the paper's cluster presets by (case-insensitive) name.

    See :func:`list_presets` for the available names.  ``scale`` shrinks
    the machine proportionally for quick looks; ``seed`` selects the
    silicon lottery / defect draw (the same seed is the same machine,
    always).
    """
    return get_preset(name, seed=seed, scale=scale)


def load_workload(name: str) -> Workload:
    """Look up one of the paper's workloads by name (see :func:`list_workloads`)."""
    return get_workload(name)


# ---------------------------------------------------------------------------
# request plumbing (shared by the verbs below)
# ---------------------------------------------------------------------------


def _require_request_only(verb: str, **built) -> None:
    """Reject mixing ``request=`` with already-constructed objects."""
    clashes = [name for name, value in built.items() if value is not None]
    if clashes:
        raise ConfigError(
            f"{verb}() takes either request= or the constructed "
            f"{'/'.join(sorted(built))} arguments, not both "
            f"(got request= plus {clashes})"
        )


def _require_built(verb: str, **built) -> None:
    """Reject calls that provided neither a request nor the built objects."""
    missing = [name for name, value in built.items() if value is None]
    if missing:
        raise ConfigError(
            f"{verb}() needs either request= or {'/'.join(sorted(built))}; "
            f"missing {missing}"
        )


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


def run_campaign(
    *,
    cluster: Cluster,
    workload: Workload,
    config: CampaignConfig | None = None,
    workers: int | None = None,
    parallel: ParallelConfig | None = None,
    progress: CampaignProgress | None = None,
    tracer: Tracer | None = None,
    manifest: Manifest | None = None,
    monitor: FleetMonitor | None = None,
    timeline: TimelineRecorder | None = None,
) -> MeasurementDataset:
    """Execute a measurement campaign; returns the long-form table.

    Identical to :func:`repro.sim.campaign.run_campaign` but fully
    keyword-only.  The result is bit-identical for any ``workers`` value
    and with or without ``tracer``/``manifest``/``monitor``/``timeline``
    attached.  Like every verb here, a sink keyword left ``None`` inherits
    the sink active on this thread (:func:`repro.obs.activate`), and the
    sinks see the same campaign at any worker count.
    """
    from ..sim.campaign import run_campaign as _run_campaign

    return _run_campaign(
        cluster,
        workload,
        config,
        workers=workers,
        parallel=parallel,
        progress=progress,
        tracer=tracer,
        manifest=manifest,
        monitor=monitor,
        timeline=timeline,
    )


# ---------------------------------------------------------------------------
# characterize
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacterizationResult:
    """A campaign and the paper's full analysis of it."""

    report: ClusterReport
    dataset: MeasurementDataset


def characterize(
    *,
    request: CharacterizeRequest | None = None,
    cluster: Cluster | None = None,
    workload: Workload | None = None,
    config: CampaignConfig | None = None,
    workers: int | None = None,
    tracer: Tracer | None = None,
    manifest: Manifest | None = None,
    timeline: TimelineRecorder | None = None,
) -> CharacterizationResult:
    """Measure a cluster and compute every analysis the paper performs.

    The report side is exactly :meth:`VariabilitySuite.characterize
    <repro.core.suite.VariabilitySuite.characterize>`; the raw dataset is
    returned alongside so callers can archive or re-analyze it.

    Pass either a :class:`~repro.api.requests.CharacterizeRequest` (the
    wire surface shared with the CLI and :mod:`repro.service`) or the
    constructed ``cluster``/``workload``/``config`` objects — not both.
    """
    from ..core.suite import VariabilitySuite
    from ..sim.campaign import CampaignConfig

    if request is not None:
        _require_request_only(
            "characterize", cluster=cluster, workload=workload,
            config=config, workers=workers,
        )
        cluster = load_preset(
            request.cluster, seed=request.seed, scale=request.scale
        )
        workload = load_workload(request.workload)
        config = CampaignConfig(
            days=request.days,
            runs_per_day=request.runs_per_day,
            coverage=request.coverage,
            power_limit_w=request.power_limit_w,
        )
        workers = request.workers
    _require_built("characterize", cluster=cluster, workload=workload)
    config = config if config is not None else CampaignConfig()
    dataset = run_campaign(
        cluster=cluster,
        workload=workload,
        config=config,
        workers=workers,
        tracer=tracer,
        manifest=manifest,
        timeline=timeline,
    )
    suite = VariabilitySuite(cluster, config, workers=workers)
    return CharacterizationResult(
        report=suite.analyze(dataset), dataset=dataset
    )


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonitoringResult:
    """A monitored campaign: the measurement plus its health analysis.

    ``dataset`` is byte-identical to the same campaign run unmonitored.
    ``monitor`` holds the merged metrics stream (gauges, histograms,
    counters — render with :func:`render_prometheus`); ``tracker`` carries
    the per-GPU detector state and the full ordered ``events`` stream;
    ``report`` is the fleet-health rollup (per-GPU grades, node/row
    aggregation, schema-validated ``to_dict()``).
    """

    dataset: MeasurementDataset
    monitor: FleetMonitor
    tracker: HealthTracker
    report: FleetHealthReport

    @property
    def events(self) -> tuple[HealthEvent, ...]:
        """The ordered health-event stream (invariant to ``workers=``)."""
        return tuple(self.tracker.events)


def monitor_fleet(
    *,
    request: MonitorRequest | None = None,
    cluster: Cluster | None = None,
    workload: Workload | None = None,
    config: CampaignConfig | None = None,
    workers: int | None = None,
    parallel: ParallelConfig | None = None,
    policy: HealthPolicy | None = None,
    monitor_config: MonitorConfig | None = None,
    progress: CampaignProgress | None = None,
    tracer: Tracer | None = None,
    manifest: Manifest | None = None,
    timeline: TimelineRecorder | None = None,
) -> MonitoringResult:
    """Run a campaign with the streaming metrics + health pipeline attached.

    The campaign executes exactly as :func:`run_campaign` — the monitor
    hooks only read values already computed, so the returned dataset is
    byte-identical to an unmonitored run.  Shard metric payloads are merged
    in canonical plan order, then the online health detector replays the
    merged run stream: the event sequence and registry totals are therefore
    identical for any ``workers`` value.

    Pass either a :class:`~repro.api.requests.MonitorRequest` (its
    ``window`` feeds the health detector) or the constructed objects — not
    both.
    """
    from ..obs.health import HealthPolicy, analyze_fleet_health
    from ..obs.metrics import FleetMonitor
    from ..obs.timeline import canonical_digest
    from ..sim.campaign import CampaignConfig

    if request is not None:
        _require_request_only(
            "monitor_fleet", cluster=cluster, workload=workload,
            config=config, workers=workers, policy=policy,
            monitor_config=monitor_config,
        )
        cluster = load_preset(
            request.cluster, seed=request.seed, scale=request.scale
        )
        workload = load_workload(request.workload)
        config = CampaignConfig(
            days=request.days,
            runs_per_day=request.runs_per_day,
            coverage=request.coverage,
        )
        workers = request.workers
        policy = HealthPolicy(window_runs=request.window)
    _require_built("monitor_fleet", cluster=cluster, workload=workload)
    monitor = FleetMonitor(monitor_config)
    dataset = run_campaign(
        cluster=cluster,
        workload=workload,
        config=config,
        workers=workers,
        parallel=parallel,
        progress=progress,
        tracer=tracer,
        manifest=manifest,
        monitor=monitor,
        timeline=timeline,
    )
    # Health analysis replays the merged monitor stream on this thread, so
    # the recorder active here captures every transition in the same
    # deterministic order the tracker emits them — after the campaign's own
    # events, independent of worker count.
    with _attach(recorder=timeline) as observer:
        tracker, report = analyze_fleet_health(
            monitor, cluster.topology, policy=policy
        )
    timeline = observer.recorder
    if timeline is not None:
        report_doc = report.to_dict()
        timeline.record(
            "health",
            "health_report",
            cluster.name,
            fleet_gpus=cluster.topology.n_gpus,
            runs_observed=tracker.runs_observed,
            events_total=len(tracker.events),
            grade_counts=report.grade_counts(),
            digest=canonical_digest(
                json.dumps(report_doc, sort_keys=True, separators=(",", ":"))
            ),
        )
    return MonitoringResult(
        dataset=dataset, monitor=monitor, tracker=tracker, report=report
    )


# ---------------------------------------------------------------------------
# screen
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadScreen:
    """Outlier flags for one application."""

    workload: str
    outliers: OutlierReport


@dataclass(frozen=True)
class ScreenReport:
    """Cross-application maintenance triage (the paper's Takeaway 6).

    ``confirmed`` holds the node labels flagged by at least
    ``min_confirmations`` applications — the actionable maintenance list.
    """

    screens: tuple[WorkloadScreen, ...]
    confirmed: tuple[str, ...]
    min_confirmations: int


def screen(
    *,
    request: ScreenRequest | None = None,
    cluster: Cluster | None = None,
    workloads: tuple[Workload, ...] | list[Workload] | None = None,
    config: CampaignConfig | None = None,
    min_confirmations: int = 2,
    workers: int | None = None,
    tracer: Tracer | None = None,
    manifest: Manifest | None = None,
    timeline: TimelineRecorder | None = None,
) -> ScreenReport:
    """Flag outlier GPUs per application, confirm across applications.

    Pass either a :class:`~repro.api.requests.ScreenRequest` (workloads by
    name) or the constructed objects — not both.
    """
    from ..core.outliers import flag_outlier_gpus, persistent_outliers
    from ..sim.campaign import CampaignConfig

    if request is not None:
        _require_request_only(
            "screen", cluster=cluster, workloads=workloads, config=config,
            workers=workers,
        )
        cluster = load_preset(
            request.cluster, seed=request.seed, scale=request.scale
        )
        workloads = [load_workload(name) for name in request.workloads]
        config = CampaignConfig(days=request.days)
        min_confirmations = request.min_confirmations
        workers = request.workers
    _require_built("screen", cluster=cluster, workloads=workloads)
    config = config if config is not None else CampaignConfig(days=3)
    screens: list[WorkloadScreen] = []
    reports: list[OutlierReport] = []
    for workload in workloads:
        dataset = run_campaign(
            cluster=cluster,
            workload=workload,
            config=config,
            workers=workers,
            tracer=tracer,
            manifest=manifest,
            timeline=timeline,
        )
        report = flag_outlier_gpus(dataset, METRIC_PERFORMANCE)
        screens.append(
            WorkloadScreen(workload=workload.name, outliers=report)
        )
        reports.append(report)
    confirmed = persistent_outliers(
        reports, min_occurrences=min(min_confirmations, len(reports))
    )
    return ScreenReport(
        screens=tuple(screens),
        confirmed=tuple(sorted(confirmed)),
        min_confirmations=min_confirmations,
    )


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One power limit's distribution over (GPU, run) measurements."""

    power_limit_w: float
    stats: BoxStats


@dataclass(frozen=True)
class SweepReport:
    """The Fig.-22 power-limit sweep: one :class:`SweepPoint` per limit."""

    cluster: str
    workload: str
    runs_per_limit: int
    points: tuple[SweepPoint, ...]


def sweep(
    *,
    request: SweepRequest | None = None,
    cluster: Cluster | None = None,
    power_limits_w: tuple[float, ...] | list[float] | None = None,
    workload: Workload | None = None,
    runs: int = 6,
    workers: int | None = None,
    tracer: Tracer | None = None,
    manifest: Manifest | None = None,
    timeline: TimelineRecorder | None = None,
) -> SweepReport:
    """Sweep administrative power limits and report the spread at each.

    Requires an admin-access cluster (only CloudLab in the paper).  Each
    limit runs a one-day, ``runs``-per-day campaign — one manifest entry
    per limit when ``manifest`` is attached.

    Pass either a :class:`~repro.api.requests.SweepRequest` or the
    constructed objects — not both.
    """
    from ..core.boxstats import BoxStats
    from ..sim.campaign import CampaignConfig

    if request is not None:
        _require_request_only(
            "sweep", cluster=cluster, power_limits_w=power_limits_w,
            workload=workload, workers=workers,
        )
        cluster = load_preset(
            request.cluster, seed=request.seed, scale=request.scale
        )
        power_limits_w = request.power_limits_w
        workload = load_workload(request.workload)
        runs = request.runs
        workers = request.workers
    _require_built("sweep", cluster=cluster, power_limits_w=power_limits_w)
    workload = workload if workload is not None else get_workload("sgemm")
    points: list[SweepPoint] = []
    for limit in power_limits_w:
        dataset = run_campaign(
            cluster=cluster,
            workload=workload,
            config=CampaignConfig(
                days=1, runs_per_day=runs, power_limit_w=float(limit)
            ),
            workers=workers,
            tracer=tracer,
            manifest=manifest,
            timeline=timeline,
        )
        stats = BoxStats.from_values(dataset.column(METRIC_PERFORMANCE))
        points.append(SweepPoint(power_limit_w=float(limit), stats=stats))
    return SweepReport(
        cluster=cluster.name,
        workload=workload.name,
        runs_per_limit=runs,
        points=tuple(points),
    )


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionReport:
    """Measured variation plus its scaled-normal projection (Section IV-D)."""

    cluster: str
    n_gpus_measured: int
    target_n_gpus: int
    measured_variation: float
    projected_variation: float


def project(
    *,
    cluster: Cluster,
    target_n_gpus: int,
    workload: Workload | None = None,
    config: CampaignConfig | None = None,
    workers: int | None = None,
    tracer: Tracer | None = None,
    manifest: Manifest | None = None,
    timeline: TimelineRecorder | None = None,
) -> ProjectionReport:
    """Measure a cluster, then project its variation to a larger fleet."""
    from ..core.projection import project_variation
    from ..core.variability import metric_boxstats
    from ..sim.campaign import CampaignConfig

    workload = workload if workload is not None else get_workload("sgemm")
    config = config if config is not None else CampaignConfig(days=5)
    dataset = run_campaign(
        cluster=cluster,
        workload=workload,
        config=config,
        workers=workers,
        tracer=tracer,
        manifest=manifest,
        timeline=timeline,
    )
    measured = metric_boxstats(dataset, METRIC_PERFORMANCE)
    med = dataset.per_gpu_median(METRIC_PERFORMANCE)
    projected = project_variation(med[METRIC_PERFORMANCE], target_n_gpus)
    return ProjectionReport(
        cluster=cluster.name,
        n_gpus_measured=cluster.n_gpus,
        target_n_gpus=target_n_gpus,
        measured_variation=measured.variation,
        projected_variation=projected,
    )


# ---------------------------------------------------------------------------
# scheduling analysis (Section VII)
# ---------------------------------------------------------------------------


def slow_assignment_probability(
    *,
    dataset: MeasurementDataset,
    n_gpus: int = 1,
    slow_threshold: float = 0.06,
    metric: str = METRIC_PERFORMANCE,
    fast_percentile: float = 2.0,
) -> float:
    """Probability a random batch job draws at least one slow GPU.

    Keyword-only facade over
    :func:`repro.core.scheduler.slow_assignment_probability` — the paper's
    18% (single-GPU, Longhorn) / 40-50% (4-GPU) user-impact numbers.
    """
    from ..core.scheduler import (
        slow_assignment_probability as _slow_assignment_probability,
    )

    return _slow_assignment_probability(
        dataset,
        n_gpus=n_gpus,
        slow_threshold=slow_threshold,
        metric=metric,
        fast_percentile=fast_percentile,
    )


def node_variability_scores(
    *,
    dataset: MeasurementDataset,
    metric: str = METRIC_PERFORMANCE,
) -> dict[str, float]:
    """Per-node variability score (worst member median over fleet median).

    Keyword-only facade over
    :func:`repro.core.scheduler.node_variability_scores`.
    """
    from ..core.scheduler import (
        node_variability_scores as _node_variability_scores,
    )

    return _node_variability_scores(dataset, metric=metric)


def plan_placements(
    *,
    dataset: MeasurementDataset,
    workloads: tuple[Workload, ...] | list[Workload],
    metric: str = METRIC_PERFORMANCE,
) -> PlacementPlan:
    """Variability-aware workload-to-node assignment (Section VII).

    Keyword-only facade over
    :func:`repro.core.scheduler.plan_placements`.
    """
    from ..core.scheduler import plan_placements as _plan_placements

    return _plan_placements(dataset, list(workloads), metric=metric)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchedulingResult:
    """A batch-queue scheduling run: report, records, and event log.

    ``report`` is the schema-validated summary
    (:class:`~repro.sched.SchedulingReport`); ``outcome`` carries the
    per-job :class:`~repro.sched.JobRecord` tuple and the canonical event
    stream; ``profile`` is the characterization dataset behind a
    variability- or health-aware policy (``None`` for the naive ones).
    """

    report: SchedulingReport
    outcome: ScheduleOutcome
    profile: MeasurementDataset | None

    @property
    def records(self) -> tuple[JobRecord, ...]:
        """Per-job records in job-id order."""
        return self.outcome.records

    @property
    def events(self) -> tuple[dict[str, object], ...]:
        """The run's event stream, in processing order."""
        return self.outcome.events


#: Default fraction of the fleet's total power-cap budget granted to the
#: energy-capped policy when no explicit ``power_budget_w`` is given —
#: the middle of the paper's §VII power-limit sweep.
DEFAULT_POWER_BUDGET_FRACTION = 0.6


def _build_policy(
    policy: str | PlacementPolicy,
    cluster: Cluster,
    *,
    profile_workload: Workload | None,
    profile_config: CampaignConfig | None,
    workers: int | None,
    tracer: Tracer | None,
    manifest: Manifest | None,
    power_budget_w: float | None = None,
) -> tuple[PlacementPolicy, MeasurementDataset | None]:
    """Construct a named policy, profiling the fleet when the policy needs it."""
    from ..sched import (
        POLICY_NAMES,
        BackfillPolicy,
        EnergyCappedPolicy,
        FifoPolicy,
        HealthAwarePolicy,
        PlacementPolicy,
        VariabilityAwarePolicy,
        node_grades_from_gpu_grades,
        node_power_watts,
    )
    from ..core.scheduler import node_variability_scores as _scores
    from ..sim.campaign import CampaignConfig

    if isinstance(policy, PlacementPolicy):
        return policy, None
    name = str(policy).lower()
    if name == "fifo":
        return FifoPolicy(), None
    if name == "backfill":
        return BackfillPolicy(), None
    if name == "energy-capped":
        fleet = cluster.fleet_for_day(0)
        node_power = node_power_watts(
            fleet.power_cap_w(None),
            cluster.topology.node_of_gpu,
            cluster.topology.n_nodes,
        )
        budget = (
            float(power_budget_w)
            if power_budget_w is not None
            else float(node_power.sum()) * DEFAULT_POWER_BUDGET_FRACTION
        )
        return (
            EnergyCappedPolicy(
                node_power,
                power_budget_w=budget,
                gpus_per_node=cluster.topology.gpus_per_node,
            ),
            None,
        )
    workload = (
        profile_workload
        if profile_workload is not None
        else get_workload("sgemm")
    )
    config = (
        profile_config if profile_config is not None else CampaignConfig(days=3)
    )
    if name == "variability-aware":
        dataset = run_campaign(
            cluster=cluster,
            workload=workload,
            config=config,
            workers=workers,
            tracer=tracer,
            manifest=manifest,
        )
        scores = _scores(dataset)
        # Nodes the campaign never reached (coverage < 1) carry no
        # information; rank them with the worst profiled node.
        fallback = max(scores.values())
        ordered = [
            scores.get(label, fallback)
            for label in cluster.topology.node_labels
        ]
        return VariabilityAwarePolicy(ordered), dataset
    if name == "health-aware":
        monitored = monitor_fleet(
            cluster=cluster,
            workload=workload,
            config=config,
            workers=workers,
            tracer=tracer,
            manifest=manifest,
        )
        grades = node_grades_from_gpu_grades(
            monitored.tracker.grades(),
            cluster.topology.node_of_gpu,
            cluster.topology.n_nodes,
        )
        return HealthAwarePolicy(grades), monitored.dataset
    raise ConfigError(
        f"unknown policy {policy!r}; known: {list(POLICY_NAMES)}"
    )


def schedule(
    *,
    request: ScheduleRequest | None = None,
    cluster: Cluster | None = None,
    policy: str | PlacementPolicy = "fifo",
    trace: TraceConfig | tuple[Job, ...] | list[Job] | None = None,
    power_budget_w: float | None = None,
    profile_workload: Workload | None = None,
    profile_config: CampaignConfig | None = None,
    workers: int | None = None,
    tracer: Tracer | None = None,
    manifest: Manifest | None = None,
    timeline: TimelineRecorder | None = None,
) -> SchedulingResult:
    """Run a job trace through the batch-queue simulator under one policy.

    Parameters
    ----------
    request:
        A :class:`~repro.api.requests.ScheduleRequest` carrying every
        field below in wire-primitive form (trace parameters instead of a
        :class:`~repro.sched.TraceConfig`, preset name instead of a
        :class:`Cluster`).  Mutually exclusive with the constructed
        arguments.
    cluster:
        The simulated machine.
    policy:
        A name from :data:`~repro.sched.POLICY_NAMES` or a constructed
        :class:`~repro.sched.PlacementPolicy`.  The variability- and
        health-aware policies first profile the fleet with a
        characterization campaign (``profile_workload`` /
        ``profile_config``, defaulting to a 3-day sgemm campaign).  The
        ``"energy-capped"`` policy needs no profiling: it ranks nodes by
        their day-0 power-cap draw and admits jobs against
        ``power_budget_w``.
    trace:
        A :class:`~repro.sched.TraceConfig` (generated deterministically),
        an explicit job tuple, or ``None`` for the default trace.
    power_budget_w:
        Fleet-wide power budget for the ``"energy-capped"`` policy, in
        watts.  ``None`` defaults to 60% of the fleet's summed power-cap
        draw (the middle of the paper's power-limit sweep).  Ignored for
        other policies.
    workers:
        Worker processes for the profiling campaign only — the queue
        engine itself is serial.  The event log and report are
        byte-identical for every value.
    tracer, manifest:
        Optional observability sinks: ``sched.*`` counters and a run span
        land on the tracer; the profiling campaign (when any) appends its
        usual manifest entry.
    timeline:
        Optional :class:`~repro.obs.TimelineRecorder`: the dispatch
        sequence (submit/start/finish per job, with exact record floats)
        plus a ``sched_report`` digest event land on the unified flight
        recorder — enough for ``repro replay --check`` to re-derive the
        report from the log alone.  The profiling campaign is never
        recorded.

    Same ``cluster`` seed + same ``trace`` + same ``policy`` ⇒
    byte-identical event log and report.  Every policy, built-in or a
    custom :class:`~repro.sched.PlacementPolicy` subclass, runs through
    the one dispatch loop of :func:`~repro.sched.run_schedule`; a
    request's ``engine`` field is validated and ignored.
    """
    from ..sched import TraceConfig
    from ..sim.campaign import CampaignConfig

    if request is not None:
        _require_request_only(
            "schedule", cluster=cluster, trace=trace,
            profile_workload=profile_workload, profile_config=profile_config,
            workers=workers, power_budget_w=power_budget_w,
        )
        cluster = load_preset(
            request.cluster, seed=request.seed, scale=request.scale
        )
        policy = request.policy
        trace = TraceConfig(
            n_jobs=request.n_jobs,
            arrival_rate_per_hour=request.arrival_rate_per_hour,
            seed=request.trace_seed,
            diurnal_amplitude=request.diurnal_amplitude,
            peak_hour=request.peak_hour,
            day_of_week_weights=request.day_of_week_weights,
        )
        power_budget_w = request.power_budget_w
        profile_config = CampaignConfig(days=request.profile_days)
        workers = request.workers
    _require_built("schedule", cluster=cluster)
    return _schedule_built(
        cluster=cluster, policy=policy, trace=trace,
        power_budget_w=power_budget_w, profile_workload=profile_workload,
        profile_config=profile_config, workers=workers, tracer=tracer,
        manifest=manifest, timeline=timeline,
    )


def _schedule_built(
    *,
    cluster: Cluster,
    policy: str | PlacementPolicy,
    trace: TraceConfig | tuple[Job, ...] | list[Job] | None,
    power_budget_w: float | None,
    profile_workload: Workload | None,
    profile_config: CampaignConfig | None,
    workers: int | None,
    tracer: Tracer | None,
    manifest: Manifest | None,
    timeline: TimelineRecorder | None = None,
) -> SchedulingResult:
    """The constructed-objects body of :func:`schedule`."""
    from ..sched import (
        TraceConfig,
        build_scheduling_report,
        generate_trace,
        run_schedule,
    )
    from ..obs.timeline import canonical_digest

    if trace is None:
        trace = TraceConfig()
    if isinstance(trace, TraceConfig):
        trace_seed: int | None = trace.seed
        jobs = generate_trace(trace)
    else:
        trace_seed = None
        jobs = tuple(trace)
    with activate_recorder(None):
        built, profile = _build_policy(
            policy,
            cluster,
            profile_workload=profile_workload,
            profile_config=profile_config,
            workers=workers,
            tracer=tracer,
            manifest=manifest,
            power_budget_w=power_budget_w,
        )
    with _attach(tracer, recorder=timeline) as observer:
        outcome = run_schedule(cluster, jobs, built)
    timeline = observer.recorder
    report = build_scheduling_report(
        cluster.name,
        outcome,
        built.describe(),
        cluster.topology.n_gpus,
        trace_seed=trace_seed,
    )
    if timeline is not None:
        # The claim the replayer's --check verifies: rebuilt records must
        # reproduce this exact canonical-JSON digest.
        timeline.record(
            "sched",
            "sched_report",
            cluster.name,
            cluster=cluster.name,
            policy=built.describe(),
            fleet_gpus=cluster.topology.n_gpus,
            trace_seed=trace_seed,
            n_jobs=len(jobs),
            digest=canonical_digest(report.to_json()),
        )
    return SchedulingResult(report=report, outcome=outcome, profile=profile)


# ---------------------------------------------------------------------------
# chaos (fault injection + mitigation scorecards)
# ---------------------------------------------------------------------------


def chaos(
    *,
    request: ChaosRequest | None = None,
    scenario: Scenario | str | None = None,
    cluster: str = "longhorn",
    workload: str = "sgemm",
    seed: int = 0,
    scale: float = 1.0,
    days: int = 10,
    runs_per_day: int = 2,
    n_jobs: int = 40,
    trace_seed: int = 0,
    workers: int | None = None,
    tracer: Tracer | None = None,
    manifest: Manifest | None = None,
    timeline: TimelineRecorder | None = None,
) -> ChaosRunResult:
    """Run one incident scenario end-to-end and score the response.

    Injects the scenario's faults into a fresh preset cluster, runs a
    monitored campaign (online health detection included), reacts with a
    health-aware scheduling pass, and runs an identical *no-fault twin*
    as the baseline — the returned
    :class:`~repro.chaos.ChaosRunResult.scorecard` quantifies detection
    latency, misses, false positives, and the scheduling/energy cost of
    the incident, validated against
    :data:`~repro.chaos.CHAOS_SCORECARD_SCHEMA`.

    Parameters
    ----------
    request:
        A :class:`~repro.api.requests.ChaosRequest` carrying every field
        below in wire-primitive form.  Mutually exclusive with the
        constructed arguments.
    scenario:
        A catalog name (see :func:`list_scenarios`) or a constructed
        :class:`~repro.chaos.Scenario`.
    cluster, workload, seed, scale:
        Preset machine and application, as everywhere on the facade.
    days, runs_per_day:
        Campaign shape for both the faulted run and the baseline twin.
    n_jobs, trace_seed:
        Job trace for the health-aware scheduling reaction.
    workers:
        Execution-only knob; the scorecard is byte-identical for every
        worker count (same guarantee as every campaign output).
    tracer, manifest, timeline:
        Observability sinks.  The timeline receives the *faulted* run's
        flight log — scenario/fault declarations, campaign, health,
        scheduling, and the final ``chaos_scorecard`` claims — which
        ``repro replay --check`` can re-verify from the log alone.  The
        baseline twin is never recorded.
    """
    if request is not None:
        _require_request_only("chaos", scenario=scenario, workers=workers)
        scenario = request.scenario
        cluster = request.cluster
        workload = request.workload
        seed = request.seed
        scale = request.scale
        days = request.days
        runs_per_day = request.runs_per_day
        n_jobs = request.n_jobs
        trace_seed = request.trace_seed
        workers = request.workers
    from ..chaos import get_scenario, score_scenario

    _require_built("chaos", scenario=scenario)
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    return score_scenario(
        scenario,
        cluster_name=cluster,
        seed=seed,
        scale=scale,
        workload_name=workload,
        days=days,
        runs_per_day=runs_per_day,
        n_jobs=n_jobs,
        trace_seed=trace_seed,
        workers=workers,
        tracer=tracer,
        manifest=manifest,
        timeline=timeline,
    )


# ---------------------------------------------------------------------------
# request execution (the service layer's single entry point)
# ---------------------------------------------------------------------------


def execute_request(
    request,
    *,
    tracer: Tracer | None = None,
    manifest: Manifest | None = None,
    timeline: TimelineRecorder | None = None,
):
    """Execute any typed request and return its verb's result object.

    The dispatch table behind the HTTP service and any batch driver: a
    :class:`~repro.api.requests.CharacterizeRequest` yields a
    :class:`CharacterizationResult`, a ``ScreenRequest`` a
    :class:`ScreenReport`, a ``SweepRequest`` a :class:`SweepReport`, a
    ``ScheduleRequest`` a :class:`SchedulingResult`, a ``MonitorRequest``
    a :class:`MonitoringResult`, and a ``ChaosRequest`` a
    :class:`~repro.chaos.ChaosRunResult` — exactly what the
    corresponding facade verb returns for the same parameters, bit for
    bit.  Unknown request types raise :class:`~repro.errors.ConfigError`.
    """
    kind = getattr(request, "kind", None)
    verb = _REQUEST_VERBS.get(kind)
    if verb is None or not isinstance(request, REQUEST_KINDS.get(kind, ())):
        raise ConfigError(
            f"execute_request() needs one of the repro.api request types, "
            f"got {type(request).__name__!r}"
        )
    return verb(
        request=request, tracer=tracer, manifest=manifest, timeline=timeline
    )


#: kind -> facade verb, resolved after all verbs are defined.
_REQUEST_VERBS = {
    "characterize": characterize,
    "screen": screen,
    "sweep": sweep,
    "schedule": schedule,
    "monitor": monitor_fleet,
    "chaos": chaos,
}
