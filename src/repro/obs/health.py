"""Online fleet health classification: typed events, grades, reports.

The anomaly-detection half of the monitoring pipeline.  A
:class:`HealthTracker` consumes the merged run stream of a
:class:`~repro.obs.metrics.FleetMonitor` (or synthetic runs in tests) and
classifies every GPU against the fleet, using the exact statistics the
paper's operators used — Tukey fences over per-GPU medians
(:func:`~repro.core.outliers.flag_outlier_values`,
:func:`~repro.core.boxstats.tukey_fences`) — applied *incrementally* over
ring-buffer sliding windows instead of a finished dataset.

Event semantics (all computed over the last ``window_runs`` runs):

* ``CHRONIC_SLOW_OUTLIER`` — the GPU's window-median perf deviation sits
  above the fleet's upper Tukey fence (the paper's "sick but not dead"
  slow GPUs, Section V).
* ``THERMAL_RUNAWAY`` — the GPU's window-median temperature *residual*
  (vs the run's fleet median) is both a fence outlier and above an
  absolute margin (hot-runner defects, Fig. 22).
* ``STUCK_THROTTLE`` — near-permanent cap residency *and* a window-median
  frequency materially below the fleet's (a healthy fleet is routinely
  power-capped, so residency alone is not a defect signal).
* ``DEFECT_DRIFT`` — the GPU's deviation drifted a ratio above its own
  first-window baseline without (yet) crossing the fleet fence.
* ``RECOVERED`` — an open condition cleared and stayed clear.

Hysteresis: a condition must hold for ``open_after`` consecutive evaluated
runs to open (emit), and be absent for ``close_after`` consecutive runs to
close — transient throttles and single noisy runs do not flap events.

Determinism: runs are evaluated in campaign order and, within a run,
conditions in a fixed order and GPUs in ascending index order — the event
stream is bit-identical for any executor layout (pinned by
``tests/obs/test_monitor_equivalence.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from ..config import require, require_in_range
from ..errors import AnalysisError
from ..core.boxstats import tukey_fences
from ..core.outliers import OutlierAccumulator, flag_outlier_values
from .manifest import validate_manifest
from .metrics import FleetMonitor, SlidingWindow
from .observer import active_observer

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..cluster.topology import Topology

__all__ = [
    "GRADES",
    "HEALTH_REPORT_SCHEMA",
    "FleetHealthReport",
    "HealthEvent",
    "HealthEventKind",
    "HealthPolicy",
    "HealthTracker",
    "analyze_fleet_health",
    "build_health_report",
    "validate_health_report",
    "write_health_events",
]


class HealthEventKind(str, Enum):
    """Typed health-event kinds emitted by the tracker."""

    THERMAL_RUNAWAY = "THERMAL_RUNAWAY"
    STUCK_THROTTLE = "STUCK_THROTTLE"
    CHRONIC_SLOW_OUTLIER = "CHRONIC_SLOW_OUTLIER"
    DEFECT_DRIFT = "DEFECT_DRIFT"
    RECOVERED = "RECOVERED"


#: Condition kinds, in the fixed order they are evaluated each run (the
#: event stream's determinism depends on this order never varying).
_CONDITION_KINDS = (
    HealthEventKind.THERMAL_RUNAWAY,
    HealthEventKind.STUCK_THROTTLE,
    HealthEventKind.CHRONIC_SLOW_OUTLIER,
    HealthEventKind.DEFECT_DRIFT,
)

#: Health grades, worst-last; rollups report the worst grade per group.
GRADES = ("ok", "watch", "degraded", "critical")

#: Grade while a condition of this kind is open.
_GRADE_OF_OPEN = {
    HealthEventKind.THERMAL_RUNAWAY: "critical",
    HealthEventKind.STUCK_THROTTLE: "degraded",
    HealthEventKind.CHRONIC_SLOW_OUTLIER: "degraded",
    HealthEventKind.DEFECT_DRIFT: "watch",
}


@dataclass(frozen=True)
class HealthEvent:
    """One emitted health transition.

    ``value`` is the offending window statistic, ``threshold`` the limit
    it crossed (for ``RECOVERED``: the statistic and threshold of the
    condition that cleared, with the kind in ``details``).
    """

    kind: HealthEventKind
    gpu_index: int
    gpu_label: str
    day: int
    run_index: int
    value: float
    threshold: float
    details: tuple[tuple[str, Any], ...] = ()

    def as_dict(self) -> dict[str, Any]:
        """JSON-able view (one line of the event log)."""
        return {
            "kind": self.kind.value,
            "gpu_index": self.gpu_index,
            "gpu_label": self.gpu_label,
            "day": self.day,
            "run_index": self.run_index,
            "value": self.value,
            "threshold": self.threshold,
            "details": dict(self.details),
        }


@dataclass(frozen=True)
class HealthPolicy:
    """Detection thresholds and hysteresis of the health tracker.

    Parameters
    ----------
    window_runs:
        Sliding-window depth in runs.
    min_window_runs:
        Runs a GPU must have in its window before it is evaluated.
    min_fleet:
        Minimum evaluable GPUs before fleet fences are computed at all.
    open_after, close_after:
        Hysteresis: consecutive condition-true runs to open an event,
        consecutive condition-false runs to close (``RECOVERED``).
    thermal_min_residual_c:
        Absolute floor (degC above the fleet median) for
        ``THERMAL_RUNAWAY`` — fence outliers within this margin are noise.
    stuck_residency:
        Window cap-residency at or above which a GPU is throttle-stuck...
    stuck_frequency_margin:
        ...provided its window-median frequency is also this fraction
        below the fleet's window median.
    drift_ratio:
        ``DEFECT_DRIFT`` when window-median deviation exceeds the GPU's
        own baseline times this ratio.
    """

    window_runs: int = 4
    min_window_runs: int = 2
    min_fleet: int = 8
    open_after: int = 2
    close_after: int = 2
    thermal_min_residual_c: float = 5.0
    stuck_residency: float = 0.9
    stuck_frequency_margin: float = 0.04
    drift_ratio: float = 1.05

    def __post_init__(self) -> None:
        require(
            isinstance(self.window_runs, int) and self.window_runs >= 1,
            f"window_runs must be an int >= 1, got {self.window_runs!r}",
        )
        require(
            isinstance(self.min_window_runs, int)
            and 1 <= self.min_window_runs <= self.window_runs,
            "min_window_runs must be an int in [1, window_runs], "
            f"got {self.min_window_runs!r}",
        )
        require(self.min_fleet >= 4, "min_fleet must be >= 4")
        require(self.open_after >= 1, "open_after must be >= 1")
        require(self.close_after >= 1, "close_after must be >= 1")
        require(
            self.thermal_min_residual_c >= 0.0,
            "thermal_min_residual_c must be >= 0",
        )
        require_in_range(self.stuck_residency, 0.0, 1.0, "stuck_residency")
        require_in_range(
            self.stuck_frequency_margin, 0.0, 1.0, "stuck_frequency_margin"
        )
        require(self.drift_ratio > 1.0, "drift_ratio must be > 1")

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for reports."""
        return {
            "window_runs": self.window_runs,
            "min_window_runs": self.min_window_runs,
            "min_fleet": self.min_fleet,
            "open_after": self.open_after,
            "close_after": self.close_after,
            "thermal_min_residual_c": self.thermal_min_residual_c,
            "stuck_residency": self.stuck_residency,
            "stuck_frequency_margin": self.stuck_frequency_margin,
            "drift_ratio": self.drift_ratio,
        }


class HealthTracker:
    """Incremental per-GPU health classifier over a run stream.

    Feed :meth:`observe_run` one complete run at a time (campaign order).
    Events accumulate in :attr:`events`; :meth:`grades` gives the current
    per-GPU classification.  All state lives in fixed-size ring buffers
    and integer streak arrays — memory is O(n_gpus * window_runs)
    regardless of campaign length.
    """

    def __init__(
        self,
        gpu_labels: Iterable[str],
        policy: HealthPolicy | None = None,
    ) -> None:
        self.gpu_labels = tuple(str(label) for label in gpu_labels)
        n = len(self.gpu_labels)
        require(n >= 1, "HealthTracker needs at least one GPU label")
        self._label_array = np.asarray(self.gpu_labels, dtype=object)
        self.policy = policy if policy is not None else HealthPolicy()
        w = self.policy.window_runs
        self._dev = SlidingWindow(n, w)
        self._resid = SlidingWindow(n, w)
        self._freq = SlidingWindow(n, w)
        self._throttle = SlidingWindow(n, w)
        self._baseline = np.full(n, np.nan)
        self._streak_true = {
            kind: np.zeros(n, dtype=np.int64) for kind in _CONDITION_KINDS
        }
        self._streak_false = {
            kind: np.zeros(n, dtype=np.int64) for kind in _CONDITION_KINDS
        }
        self._open = {
            kind: np.zeros(n, dtype=bool) for kind in _CONDITION_KINDS
        }
        self._ever_flagged = np.zeros(n, dtype=bool)
        #: Fleet outlier reports accumulated window-by-window — the
        #: streaming twin of :func:`~repro.core.outliers.persistent_outliers`.
        self.outlier_accumulator = OutlierAccumulator()
        self.events: list[HealthEvent] = []
        self.runs_observed = 0

    @property
    def n_gpus(self) -> int:
        """GPUs tracked."""
        return len(self.gpu_labels)

    # -- ingestion -----------------------------------------------------------

    def observe_run(
        self,
        *,
        day: int,
        run_index: int,
        gpu_indices: np.ndarray,
        performance_ms: np.ndarray,
        frequency_mhz: np.ndarray,
        temperature_c: np.ndarray,
        power_capped: np.ndarray,
        thermally_capped: np.ndarray,
    ) -> list[HealthEvent]:
        """Ingest one complete run and return the events it emitted."""
        idx = np.asarray(gpu_indices).ravel()
        if idx.shape[0] == 0:
            return []
        if int(idx.max()) >= self.n_gpus:
            raise AnalysisError(
                f"run references GPU {int(idx.max())} but tracker has "
                f"{self.n_gpus} labels"
            )
        perf = np.asarray(performance_ms, dtype=float).ravel()
        med = float(np.median(perf))
        if med <= 0.0:
            raise AnalysisError("run median performance must be positive")
        temp = np.asarray(temperature_c, dtype=float).ravel()
        capped = (
            np.asarray(power_capped, dtype=bool)
            | np.asarray(thermally_capped, dtype=bool)
        )
        self._dev.push(perf / med, idx)
        self._resid.push(temp - float(np.median(temp)), idx)
        self._freq.push(np.asarray(frequency_mhz, dtype=float).ravel(), idx)
        self._throttle.push(capped.astype(float), idx)
        self.runs_observed += 1
        return self._evaluate(int(day), int(run_index), idx)

    def observe_monitor(self, monitor: FleetMonitor) -> list[HealthEvent]:
        """Ingest every complete run of a merged monitor, in order."""
        emitted: list[HealthEvent] = []
        for run in monitor.iter_runs():
            emitted.extend(
                self.observe_run(
                    day=run.day,
                    run_index=run.run_index,
                    gpu_indices=run.gpu_indices,
                    performance_ms=run.performance_ms,
                    frequency_mhz=run.frequency_mhz,
                    temperature_c=run.temperature_c,
                    power_capped=run.power_capped,
                    thermally_capped=run.thermally_capped,
                )
            )
        return emitted

    # -- detection -----------------------------------------------------------

    def _evaluate(
        self, day: int, run_index: int, idx: np.ndarray
    ) -> list[HealthEvent]:
        p = self.policy
        n = self.n_gpus
        counts = self._dev.counts
        valid = counts >= p.min_window_runs
        if int(valid.sum()) < p.min_fleet:
            return []

        dev_med = self._dev.median()
        resid_med = self._resid.median()
        freq_med = self._freq.median()
        residency = self._throttle.mean()

        # Chronic slow: fleet Tukey fence over window-median deviations —
        # the streaming form of flag_outlier_gpus, window by window.
        report = flag_outlier_values(
            dev_med[valid], self._label_array[valid], metric="perf_deviation"
        )
        self.outlier_accumulator.add(report)
        chronic = valid & (dev_med > report.stats.fence_hi)

        # Thermal runaway: residual fence + absolute margin.
        _, _, _, _, resid_hi = tukey_fences(resid_med[valid])
        thermal_floor = max(resid_hi, p.thermal_min_residual_c)
        thermal = valid & (resid_med > thermal_floor)

        # Stuck throttle: capped nearly always *and* materially slow clocks.
        fleet_freq = float(np.median(freq_med[valid]))
        freq_floor = fleet_freq * (1.0 - p.stuck_frequency_margin)
        stuck = valid & (residency >= p.stuck_residency) & (freq_med < freq_floor)

        # Drift vs own baseline (first full window), short of the fence.
        full = counts >= p.window_runs
        fresh = full & np.isnan(self._baseline)
        self._baseline[fresh] = dev_med[fresh]
        has_base = ~np.isnan(self._baseline)
        drift_limit = np.where(has_base, self._baseline * p.drift_ratio, np.inf)
        drift = valid & has_base & (dev_med > drift_limit) & ~chronic

        observed = np.zeros(n, dtype=bool)
        observed[idx] = True
        conditions = {
            HealthEventKind.THERMAL_RUNAWAY: (
                thermal, resid_med, np.full(n, thermal_floor)
            ),
            HealthEventKind.STUCK_THROTTLE: (
                stuck, residency, np.full(n, p.stuck_residency)
            ),
            HealthEventKind.CHRONIC_SLOW_OUTLIER: (
                chronic, dev_med, np.full(n, report.stats.fence_hi)
            ),
            HealthEventKind.DEFECT_DRIFT: (drift, dev_med, drift_limit),
        }
        emitted: list[HealthEvent] = []
        for kind in _CONDITION_KINDS:
            mask, values, thresholds = conditions[kind]
            s_true = self._streak_true[kind]
            s_false = self._streak_false[kind]
            hit = observed & mask
            miss = observed & ~mask
            s_true[hit] += 1
            s_false[hit] = 0
            s_false[miss] += 1
            s_true[miss] = 0
            is_open = self._open[kind]
            opening = np.flatnonzero(
                hit & ~is_open & (s_true >= p.open_after)
            )
            for g in opening:
                is_open[g] = True
                self._ever_flagged[g] = True
                emitted.append(
                    HealthEvent(
                        kind=kind,
                        gpu_index=int(g),
                        gpu_label=self.gpu_labels[g],
                        day=day,
                        run_index=run_index,
                        value=float(values[g]),
                        threshold=float(thresholds[g]),
                        details=(("streak", int(s_true[g])),),
                    )
                )
            closing = np.flatnonzero(
                miss & is_open & (s_false >= p.close_after)
            )
            for g in closing:
                is_open[g] = False
                emitted.append(
                    HealthEvent(
                        kind=HealthEventKind.RECOVERED,
                        gpu_index=int(g),
                        gpu_label=self.gpu_labels[g],
                        day=day,
                        run_index=run_index,
                        value=float(values[g]),
                        threshold=float(thresholds[g]),
                        details=(("cleared", kind.value),),
                    )
                )
        self.events.extend(emitted)
        recorder = active_observer().recorder
        if recorder is not None:
            for event in emitted:
                recorder.record(
                    "health",
                    event.kind.value,
                    event.gpu_label,
                    gpu_index=event.gpu_index,
                    day=event.day,
                    run_index=event.run_index,
                    value=event.value,
                    threshold=event.threshold,
                    **dict(event.details),
                )
        return emitted

    # -- classification ------------------------------------------------------

    def open_conditions(self, gpu_index: int) -> tuple[HealthEventKind, ...]:
        """Conditions currently open for one GPU, in evaluation order."""
        return tuple(
            kind for kind in _CONDITION_KINDS if self._open[kind][gpu_index]
        )

    def grades(self) -> tuple[str, ...]:
        """Current per-GPU health grade (see :data:`GRADES`)."""
        out = []
        for g in range(self.n_gpus):
            grade = "ok"
            for kind in _CONDITION_KINDS:
                if self._open[kind][g]:
                    candidate = _GRADE_OF_OPEN[kind]
                    if GRADES.index(candidate) > GRADES.index(grade):
                        grade = candidate
            if grade == "ok" and self._ever_flagged[g]:
                grade = "watch"  # recovered once: keep an eye on it
            out.append(grade)
        return tuple(out)


# ---------------------------------------------------------------------------
# fleet health report
# ---------------------------------------------------------------------------

#: JSON schema of :meth:`FleetHealthReport.to_dict`, validated with the
#: same dependency-free validator the campaign manifests use.
HEALTH_REPORT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": [
        "schema_version", "cluster", "n_gpus", "runs_observed", "policy",
        "grade_counts", "gpus", "nodes", "events_total", "events_by_kind",
    ],
    "properties": {
        "schema_version": {"type": "integer"},
        "cluster": {"type": "string"},
        "n_gpus": {"type": "integer"},
        "runs_observed": {"type": "integer"},
        "policy": {"type": "object"},
        "grade_counts": {
            "type": "object",
            "required": list(GRADES),
            "properties": {grade: {"type": "integer"} for grade in GRADES},
        },
        "gpus": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "gpu_label", "gpu_index", "node_label", "grade",
                    "open_conditions", "events",
                ],
                "properties": {
                    "gpu_label": {"type": "string"},
                    "gpu_index": {"type": "integer"},
                    "node_label": {"type": "string"},
                    "grade": {"type": "string", "enum": list(GRADES)},
                    "open_conditions": {
                        "type": "array", "items": {"type": "string"},
                    },
                    "events": {"type": "integer"},
                },
            },
        },
        "nodes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["node_label", "worst", "grade_counts"],
                "properties": {
                    "node_label": {"type": "string"},
                    "worst": {"type": "string", "enum": list(GRADES)},
                    "grade_counts": {"type": "object"},
                },
            },
        },
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["row_label", "worst", "grade_counts"],
            },
        },
        "events_total": {"type": "integer"},
        "events_by_kind": {"type": "object"},
    },
}


def validate_health_report(doc: dict[str, Any]) -> None:
    """Validate a health-report document against its schema (raises)."""
    validate_manifest(doc, HEALTH_REPORT_SCHEMA)


@dataclass(frozen=True)
class FleetHealthReport:
    """Fleet health snapshot: per-GPU grades plus topology rollups.

    ``gpus`` lists only non-``ok`` GPUs (a Summit-scale fleet is mostly
    healthy; the report stays proportional to the *problem*, not the
    fleet).  ``nodes`` and ``rows`` roll grades up by
    :class:`~repro.cluster.topology.Topology` groups, again only where
    something is wrong.
    """

    cluster: str
    n_gpus: int
    runs_observed: int
    policy: HealthPolicy
    grades: tuple[str, ...]
    gpu_entries: tuple[dict[str, Any], ...]
    node_entries: tuple[dict[str, Any], ...]
    row_entries: tuple[dict[str, Any], ...]
    events_total: int
    events_by_kind: dict[str, int]

    def grade_counts(self) -> dict[str, int]:
        """Fleet-wide GPU count per grade."""
        counts = {grade: 0 for grade in GRADES}
        for grade in self.grades:
            counts[grade] += 1
        return counts

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable view conforming to :data:`HEALTH_REPORT_SCHEMA`."""
        doc = {
            "schema_version": 1,
            "cluster": self.cluster,
            "n_gpus": self.n_gpus,
            "runs_observed": self.runs_observed,
            "policy": self.policy.as_dict(),
            "grade_counts": self.grade_counts(),
            "gpus": [dict(entry) for entry in self.gpu_entries],
            "nodes": [dict(entry) for entry in self.node_entries],
            "events_total": self.events_total,
            "events_by_kind": dict(self.events_by_kind),
        }
        if self.row_entries:
            doc["rows"] = [dict(entry) for entry in self.row_entries]
        return doc

    def write_json(self, path: str | Path) -> None:
        """Write the validated JSON document."""
        doc = self.to_dict()
        validate_health_report(doc)
        Path(path).write_text(json.dumps(doc, indent=2) + "\n")

    def render(self) -> str:
        """Terminal table: grade summary, then one row per unhealthy GPU."""
        counts = self.grade_counts()
        lines = [
            f"fleet health: {self.cluster} — {self.n_gpus} GPUs, "
            f"{self.runs_observed} runs",
            "  " + "  ".join(
                f"{grade}={counts[grade]}" for grade in GRADES
            ),
        ]
        if self.events_total:
            by_kind = ", ".join(
                f"{kind}: {count}"
                for kind, count in sorted(self.events_by_kind.items())
            )
            lines.append(f"  events: {self.events_total} ({by_kind})")
        if not self.gpu_entries:
            lines.append("  all GPUs healthy")
            return "\n".join(lines) + "\n"
        header = f"  {'gpu':<20} {'node':<14} {'grade':<9} conditions"
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for entry in self.gpu_entries:
            conds = ",".join(entry["open_conditions"]) or "-"
            lines.append(
                f"  {entry['gpu_label']:<20} {entry['node_label']:<14} "
                f"{entry['grade']:<9} {conds}"
            )
        return "\n".join(lines) + "\n"


def _rollup(
    group_of_gpu: np.ndarray,
    group_labels: tuple[str, ...],
    grades: tuple[str, ...],
    label_key: str,
) -> tuple[dict[str, Any], ...]:
    """Worst-grade + counts per topology group, unhealthy groups only."""
    entries = []
    for group_index, group_label in enumerate(group_labels):
        member_grades = [
            grades[g] for g in np.flatnonzero(group_of_gpu == group_index)
        ]
        if not member_grades or all(g == "ok" for g in member_grades):
            continue
        counts: dict[str, int] = {}
        for grade in member_grades:
            counts[grade] = counts.get(grade, 0) + 1
        worst = max(member_grades, key=GRADES.index)
        entries.append(
            {label_key: group_label, "worst": worst, "grade_counts": counts}
        )
    return tuple(entries)


def build_health_report(
    tracker: HealthTracker,
    topology: "Topology",
) -> FleetHealthReport:
    """Assemble the fleet report from a tracker and the machine topology."""
    if tracker.n_gpus != topology.n_gpus:
        raise AnalysisError(
            f"tracker has {tracker.n_gpus} GPUs, topology {topology.n_gpus}"
        )
    grades = tracker.grades()
    node_of_gpu = topology.node_of_gpu
    events_per_gpu: dict[int, int] = {}
    events_by_kind: dict[str, int] = {}
    for event in tracker.events:
        events_per_gpu[event.gpu_index] = (
            events_per_gpu.get(event.gpu_index, 0) + 1
        )
        events_by_kind[event.kind.value] = (
            events_by_kind.get(event.kind.value, 0) + 1
        )
    gpu_entries = tuple(
        {
            "gpu_label": tracker.gpu_labels[g],
            "gpu_index": int(g),
            "node_label": topology.node_labels[node_of_gpu[g]],
            "grade": grades[g],
            "open_conditions": [
                kind.value for kind in tracker.open_conditions(g)
            ],
            "events": events_per_gpu.get(g, 0),
        }
        for g in range(tracker.n_gpus)
        if grades[g] != "ok"
    )
    node_entries = _rollup(
        node_of_gpu, topology.node_labels, grades, "node_label"
    )
    row_entries: tuple[dict[str, Any], ...] = ()
    if topology.has_grid and topology.row_labels is not None:
        row_entries = _rollup(
            topology.row_of_gpu, topology.row_labels, grades, "row_label"
        )
    return FleetHealthReport(
        cluster=topology.cluster_name,
        n_gpus=tracker.n_gpus,
        runs_observed=tracker.runs_observed,
        policy=tracker.policy,
        grades=grades,
        gpu_entries=gpu_entries,
        node_entries=node_entries,
        row_entries=row_entries,
        events_total=len(tracker.events),
        events_by_kind=events_by_kind,
    )


def analyze_fleet_health(
    monitor: FleetMonitor,
    topology: "Topology",
    policy: HealthPolicy | None = None,
) -> tuple[HealthTracker, FleetHealthReport]:
    """Run the health tracker over a merged monitor's run stream.

    The one-call entry point behind ``repro monitor`` and
    :func:`repro.api.monitor_fleet`: builds a tracker for the topology,
    replays the monitor's complete runs in campaign order, and returns
    the tracker (events, open conditions) plus the assembled report.
    """
    tracker = HealthTracker(topology.gpu_labels, policy=policy)
    tracker.observe_monitor(monitor)
    return tracker, build_health_report(tracker, topology)


def write_health_events(
    events: Iterable[HealthEvent], path: str | Path
) -> None:
    """Write health events as JSON Lines (one event object per line)."""
    with open(path, "w", encoding="utf-8") as sink:
        for event in events:
            json.dump(event.as_dict(), sink, separators=(",", ":"))
            sink.write("\n")
