"""The scoring harness: injection → detection → reaction → scorecard.

``score_scenario`` runs one catalog scenario end-to-end on a preset:

1. **Injection** — compile the scenario (:mod:`repro.chaos.plan`), attach
   it to a fresh cluster, and run a monitored campaign; an identical
   no-fault twin runs as the baseline.
2. **Detection** — the online :class:`~repro.obs.health.HealthTracker`
   sees the faulted measurements; per-fault detection latency, miss
   counts, and off-target (false-positive) detections are derived from
   its event stream.
3. **Reaction** — a health-aware scheduler placed a job trace using each
   run's fleet grades; misrouted-job, slow-assignment, JCT, and energy
   deltas quantify what the incident cost downstream.

The result is one schema-validated **scorecard** dict, plus ``chaos``
timeline events that let ``repro replay --check`` re-derive the detection
claims from the log alone (:func:`derive_detection` is shared with the
replayer for exactly that purpose).

Determinism: both campaigns, the trace, and the scheduler are bit-exact
at any worker count, so a scorecard — and the
chaos timeline behind it — is a pure function of
(scenario, cluster, seed, scale, workload, campaign shape).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from ..config import require
from ..obs.manifest import validate_manifest
from ..obs.observer import activate, active_observer
from ..obs.timeline import TimelineRecorder, canonical_digest, canonical_json
from .plan import ChaosPlan, compile_plan
from .scenarios import Scenario, scenario_to_dict

__all__ = [
    "SCORECARD_SCHEMA_VERSION",
    "CHAOS_SCORECARD_SCHEMA",
    "ChaosRunResult",
    "derive_detection",
    "validate_scorecard",
    "score_scenario",
    "render_scorecard",
]

SCORECARD_SCHEMA_VERSION = 1

#: Health event kinds that open a condition (everything but RECOVERED).
_OPEN_KINDS = frozenset(
    ("THERMAL_RUNAWAY", "STUCK_THROTTLE", "CHRONIC_SLOW_OUTLIER",
     "DEFECT_DRIFT")
)

#: Schema of the scorecard document (validate_manifest subset).
CHAOS_SCORECARD_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version", "scenario", "cluster", "seed", "scale",
        "workload", "days", "runs_per_day", "faults", "detection",
        "scheduling", "campaign",
    ],
    "properties": {
        "schema_version": {
            "type": "integer", "enum": [SCORECARD_SCHEMA_VERSION],
        },
        "scenario": {"type": "string"},
        "cluster": {"type": "string"},
        "seed": {"type": "integer"},
        "scale": {"type": "number"},
        "workload": {"type": "string"},
        "days": {"type": "integer"},
        "runs_per_day": {"type": "integer"},
        "faults": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "label", "kind", "detectable", "onset_day",
                    "ramp_days", "recovery_day", "nodes",
                ],
                "properties": {
                    "label": {"type": "string"},
                    "kind": {"type": "string"},
                    "detectable": {"type": "boolean"},
                    "onset_day": {"type": "integer"},
                    "ramp_days": {"type": "integer"},
                    "recovery_day": {"type": ["integer", "null"]},
                    "nodes": {"type": ["array", "null"]},
                },
            },
        },
        "detection": {
            "type": "object",
            "required": [
                "detected", "missed", "false_positives", "latency_days",
                "events_total", "baseline_events_total",
            ],
            "properties": {
                "detected": {"type": "integer"},
                "missed": {"type": "integer"},
                "false_positives": {"type": "integer"},
                "latency_days": {"type": "object"},
                "events_total": {"type": "integer"},
                "baseline_events_total": {"type": "integer"},
            },
        },
        "scheduling": {
            "type": "object",
            "required": [
                "policy", "n_jobs", "misrouted_jobs",
                "misrouted_jobs_baseline", "slow_assigned_jobs",
                "slow_assigned_jobs_baseline", "jct_p50_s",
                "jct_p50_baseline_s", "energy_total_j",
                "energy_total_baseline_j",
            ],
        },
        "campaign": {
            "type": "object",
            "required": [
                "rows", "rows_baseline", "perf_p50_ms",
                "perf_p50_baseline_ms", "perf_delta_frac",
                "energy_per_measurement_j", "energy_per_measurement_baseline_j",
                "energy_delta_frac",
            ],
        },
    },
}


def validate_scorecard(doc: dict) -> None:
    """Validate a scorecard document; raises ``ConfigError`` on mismatch."""
    validate_manifest(doc, CHAOS_SCORECARD_SCHEMA)


def _node_of_gpu_label(gpu_label: str) -> str:
    """GPU labels are ``<node_label>-<slot>``; recover the node label."""
    return gpu_label.rsplit("-", 1)[0]


def derive_detection(
    faults_meta: Sequence[dict],
    observations: Iterable[tuple[int, str]],
) -> dict[str, Any]:
    """Detection scoring from fault metadata and health observations.

    ``observations`` are ``(day, gpu_label)`` pairs for every *opened*
    health condition.  The same function scores a live run (observations
    from ``HealthTracker.events``) and a replayed log (observations from
    the timeline's ``health`` layer) — which is what lets
    ``repro replay --check`` re-derive a scorecard's detection claims.

    Per detectable fault, detection is the first open event on a targeted
    GPU at or after the onset day; latency is in days.  Faults with
    ``nodes = None`` target the whole fleet.  Off-target events — opens
    on GPUs no fault targets — count as false positives (detections not
    attributable to the injected incident; on a fleet with background
    defects these include the genuine static outliers).
    """
    obs = sorted(observations)
    targeted_nodes: set[str] = set()
    fleet_wide = False
    for meta in faults_meta:
        if meta["nodes"] is None:
            fleet_wide = True
        else:
            targeted_nodes |= set(meta["nodes"])

    latency_days: dict[str, int | None] = {}
    detected = missed = 0
    for meta in faults_meta:
        if not meta["detectable"]:
            latency_days[meta["label"]] = None
            continue
        nodes = None if meta["nodes"] is None else set(meta["nodes"])
        hits = [
            day
            for day, gpu_label in obs
            if day >= meta["onset_day"]
            and (nodes is None or _node_of_gpu_label(gpu_label) in nodes)
        ]
        if hits:
            latency_days[meta["label"]] = int(hits[0] - meta["onset_day"])
            detected += 1
        else:
            latency_days[meta["label"]] = None
            missed += 1

    if fleet_wide:
        false_positives = 0
    else:
        false_positives = sum(
            1
            for _, gpu_label in obs
            if _node_of_gpu_label(gpu_label) not in targeted_nodes
        )
    return {
        "detected": detected,
        "missed": missed,
        "false_positives": false_positives,
        "latency_days": latency_days,
    }


@dataclass(frozen=True)
class ChaosRunResult:
    """Everything one scenario run produced.

    ``scorecard`` is the schema-validated summary dict; the monitored
    campaign results and scheduling runs are kept for drill-down.
    """

    scenario: Scenario
    plan: ChaosPlan
    scorecard: dict
    faulted: Any          # MonitoringResult
    baseline: Any         # MonitoringResult
    sched_faulted: Any    # SchedulingResult
    sched_baseline: Any   # SchedulingResult

    def render(self) -> str:
        """Human-readable scorecard for the CLI."""
        return render_scorecard(self.scorecard)


def _record_plan_events(
    timeline: TimelineRecorder,
    scenario: Scenario,
    plan: ChaosPlan,
    *,
    cluster: str,
    seed: int,
    scale: float,
    days: int,
    runs_per_day: int,
) -> None:
    timeline.record(
        "chaos",
        "scenario_begin",
        scenario.name,
        cluster=cluster,
        seed=seed,
        scale=scale,
        days=days,
        runs_per_day=runs_per_day,
        n_faults=len(plan.faults),
        scenario_digest=canonical_digest(
            canonical_json(scenario_to_dict(scenario))
        ),
    )
    for meta in plan.faults_meta():
        timeline.record(
            "chaos",
            "fault_onset",
            meta["label"],
            fault_kind=meta["kind"],
            detectable=meta["detectable"],
            onset_day=meta["onset_day"],
            ramp_days=meta["ramp_days"],
            recovery_day=meta["recovery_day"],
            nodes=meta["nodes"],
        )
        if meta["recovery_day"] is not None:
            timeline.record(
                "chaos",
                "fault_recovery",
                meta["label"],
                fault_kind=meta["kind"],
                day=meta["recovery_day"],
            )


def _sched_reaction(cluster, tracker, *, n_jobs: int, trace_seed: int,
                    timeline: TimelineRecorder | None, tracer=None):
    """Health-aware scheduling run driven by one run's fleet grades."""
    from ..api import schedule
    from ..sched import (
        HealthAwarePolicy,
        TraceConfig,
        node_grades_from_gpu_grades,
    )

    node_grades = node_grades_from_gpu_grades(
        tracker.grades(), cluster.topology.node_of_gpu,
        cluster.topology.n_nodes,
    )
    result = schedule(
        cluster=cluster,
        policy=HealthAwarePolicy(node_grades),
        trace=TraceConfig(n_jobs=n_jobs, seed=trace_seed),
        timeline=timeline,
        tracer=tracer,
    )
    bad_nodes = {
        i for i, grade in enumerate(node_grades)
        if grade in ("degraded", "critical")
    }
    misrouted = sum(
        1 for record in result.records
        if any(node in bad_nodes for node in record.node_indices)
    )
    slow_assigned = sum(1 for record in result.records if record.slow_assigned)
    return result, misrouted, slow_assigned


def _campaign_metrics(dataset) -> tuple[int, float, float]:
    """(rows, median performance_ms, mean per-measurement energy J)."""
    perf = dataset.column("performance_ms")
    power = dataset.column("power_w")
    energy_j = power * perf / 1e3
    return int(dataset.n_rows), float(np.median(perf)), float(energy_j.mean())


def _delta_frac(value: float, baseline: float) -> float:
    return float((value - baseline) / baseline) if baseline else 0.0


def score_scenario(
    scenario: Scenario,
    *,
    cluster_name: str = "longhorn",
    seed: int = 0,
    scale: float = 1.0,
    workload_name: str = "sgemm",
    days: int = 10,
    runs_per_day: int = 2,
    n_jobs: int = 40,
    trace_seed: int = 0,
    workers: int | None = None,
    tracer: Any = None,
    manifest: Any = None,
    timeline: TimelineRecorder | None = None,
) -> ChaosRunResult:
    """Run ``scenario`` end-to-end against an automatically-run baseline.

    Returns a :class:`ChaosRunResult` whose ``scorecard`` validates
    against :data:`CHAOS_SCORECARD_SCHEMA`.  When ``timeline`` is given
    (``None`` inherits the active recorder), the faulted run's events —
    scenario/fault declarations, campaign, health, scheduling, and the
    final scorecard claims — land on it in a deterministic order (the
    baseline run is never recorded: the timeline is the faulted
    machine's flight log).
    """
    # Deferred: the facade imports this module's result types.
    from ..api import load_preset, load_workload, monitor_fleet
    from ..sim import CampaignConfig

    require(days >= 1, f"days must be >= 1, got {days}")
    require(runs_per_day >= 1,
            f"runs_per_day must be >= 1, got {runs_per_day}")
    require(n_jobs >= 1, f"n_jobs must be >= 1, got {n_jobs}")
    # Like every sink keyword, a ``None`` timeline inherits the active
    # recorder, which then receives the whole flight log.
    if timeline is None:
        timeline = active_observer().recorder

    faulted_cluster = load_preset(cluster_name, seed=seed, scale=scale)
    plan = compile_plan(scenario, faulted_cluster)
    faulted_cluster.set_fault_plan(plan)
    baseline_cluster = load_preset(cluster_name, seed=seed, scale=scale)
    workload = load_workload(workload_name)
    config = CampaignConfig(days=days, runs_per_day=runs_per_day)

    if timeline is not None:
        _record_plan_events(
            timeline, scenario, plan,
            cluster=faulted_cluster.name, seed=seed, scale=scale,
            days=days, runs_per_day=runs_per_day,
        )

    faulted = monitor_fleet(
        cluster=faulted_cluster, workload=workload, config=config,
        workers=workers, timeline=timeline, tracer=tracer,
        manifest=manifest,
    )
    # Mask every outer active sink: the baseline twin must never appear
    # on the faulted machine's flight log, spans or metrics.
    with activate(None, monitor=None, recorder=None):
        baseline = monitor_fleet(
            cluster=baseline_cluster, workload=workload, config=config,
            workers=workers,
        )
    sched_f, misrouted_f, slow_f = _sched_reaction(
        faulted_cluster, faulted.tracker,
        n_jobs=n_jobs, trace_seed=trace_seed, timeline=timeline,
        tracer=tracer,
    )
    with activate(None, monitor=None, recorder=None):
        sched_b, misrouted_b, slow_b = _sched_reaction(
            baseline_cluster, baseline.tracker,
            n_jobs=n_jobs, trace_seed=trace_seed, timeline=None,
        )

    observations = [
        (event.day, event.gpu_label)
        for event in faulted.tracker.events
        if event.kind.value in _OPEN_KINDS
    ]
    faults_meta = plan.faults_meta()
    detection = derive_detection(faults_meta, observations)
    detection["events_total"] = len(faulted.tracker.events)
    detection["baseline_events_total"] = len(baseline.tracker.events)

    rows_f, perf_f, energy_f = _campaign_metrics(faulted.dataset)
    rows_b, perf_b, energy_b = _campaign_metrics(baseline.dataset)

    scorecard = {
        "schema_version": SCORECARD_SCHEMA_VERSION,
        "scenario": scenario.name,
        "cluster": faulted_cluster.name,
        "seed": seed,
        "scale": scale,
        "workload": workload.name,
        "days": days,
        "runs_per_day": runs_per_day,
        "faults": faults_meta,
        "detection": detection,
        "scheduling": {
            "policy": "health-aware",
            "n_jobs": n_jobs,
            "misrouted_jobs": misrouted_f,
            "misrouted_jobs_baseline": misrouted_b,
            "slow_assigned_jobs": slow_f,
            "slow_assigned_jobs_baseline": slow_b,
            "jct_p50_s": float(sched_f.report.metrics["jct_p50_s"]),
            "jct_p50_baseline_s": float(sched_b.report.metrics["jct_p50_s"]),
            "energy_total_j": float(sched_f.report.metrics["energy_total_j"]),
            "energy_total_baseline_j": float(
                sched_b.report.metrics["energy_total_j"]
            ),
        },
        "campaign": {
            "rows": rows_f,
            "rows_baseline": rows_b,
            "perf_p50_ms": perf_f,
            "perf_p50_baseline_ms": perf_b,
            "perf_delta_frac": _delta_frac(perf_f, perf_b),
            "energy_per_measurement_j": energy_f,
            "energy_per_measurement_baseline_j": energy_b,
            "energy_delta_frac": _delta_frac(energy_f, energy_b),
        },
    }
    validate_scorecard(scorecard)

    if timeline is not None:
        timeline.record(
            "chaos",
            "chaos_scorecard",
            scenario.name,
            detected=detection["detected"],
            missed=detection["missed"],
            false_positives=detection["false_positives"],
            latency_days=detection["latency_days"],
            digest=canonical_digest(canonical_json(scorecard)),
        )

    return ChaosRunResult(
        scenario=scenario,
        plan=plan,
        scorecard=scorecard,
        faulted=faulted,
        baseline=baseline,
        sched_faulted=sched_f,
        sched_baseline=sched_b,
    )


def render_scorecard(scorecard: dict) -> str:
    """Terminal summary of one scorecard."""
    det = scorecard["detection"]
    sched = scorecard["scheduling"]
    camp = scorecard["campaign"]
    lines = [
        f"chaos scorecard: {scorecard['scenario']}  "
        f"cluster={scorecard['cluster']}  seed={scorecard['seed']}  "
        f"days={scorecard['days']}",
        f"  faults: {len(scorecard['faults'])}  "
        f"detected={det['detected']}  missed={det['missed']}  "
        f"false_positives={det['false_positives']}",
    ]
    for label, latency in sorted(det["latency_days"].items()):
        shown = "not detected" if latency is None else f"{latency} d latency"
        lines.append(f"    {label}: {shown}")
    lines.append(
        f"  scheduling ({sched['policy']}, {sched['n_jobs']} jobs): "
        f"misrouted {sched['misrouted_jobs_baseline']} -> "
        f"{sched['misrouted_jobs']}, slow-assigned "
        f"{sched['slow_assigned_jobs_baseline']} -> "
        f"{sched['slow_assigned_jobs']}"
    )
    lines.append(
        f"    jct p50 {sched['jct_p50_baseline_s']:.1f} s -> "
        f"{sched['jct_p50_s']:.1f} s, energy "
        f"{sched['energy_total_baseline_j'] / 1e6:.2f} MJ -> "
        f"{sched['energy_total_j'] / 1e6:.2f} MJ"
    )
    lines.append(
        f"  campaign: perf p50 {camp['perf_p50_baseline_ms']:.1f} ms -> "
        f"{camp['perf_p50_ms']:.1f} ms ({camp['perf_delta_frac']:+.2%}), "
        f"energy/measurement {camp['energy_delta_frac']:+.2%}, "
        f"rows {camp['rows_baseline']} -> {camp['rows']}"
    )
    return "\n".join(lines)
