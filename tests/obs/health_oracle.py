"""Per-run oracle for :mod:`repro.obs.health`.

The semantic definition of :class:`~repro.obs.health.HealthTracker` and
:func:`~repro.obs.health.build_health_report`, kept from the original
implementations: the tracker evaluates one run per call, in campaign order,
with its own ring buffers (the original ``SlidingWindow.push``) read through
``np.nanmedian`` / ``np.nanmean``, one ``flag_outlier_values`` and one
``tukey_fences`` per evaluated run, and the hysteresis one run at a time;
the report builder scans every topology group and grades GPUs one by one.

The production tracker evaluates whole blocks of runs at once; events,
grades, open conditions, outlier counts and reports must equal these bit
for bit.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.core.boxstats import tukey_fences
from repro.core.outliers import OutlierAccumulator, flag_outlier_values
from repro.errors import AnalysisError
from repro.obs.health import (
    GRADES,
    FleetHealthReport,
    HealthEvent,
    HealthEventKind,
    HealthPolicy,
)
from repro.obs.metrics import FleetMonitor
from repro.obs.observer import active_observer

_CONDITION_KINDS = (
    HealthEventKind.THERMAL_RUNAWAY,
    HealthEventKind.STUCK_THROTTLE,
    HealthEventKind.CHRONIC_SLOW_OUTLIER,
    HealthEventKind.DEFECT_DRIFT,
)

_GRADE_OF_OPEN = {
    HealthEventKind.THERMAL_RUNAWAY: "critical",
    HealthEventKind.STUCK_THROTTLE: "degraded",
    HealthEventKind.CHRONIC_SLOW_OUTLIER: "degraded",
    HealthEventKind.DEFECT_DRIFT: "watch",
}


class Window:
    """The original one-push-at-a-time ring buffer, nan-function statistics."""

    def __init__(self, n_series: int, capacity: int) -> None:
        self.capacity = capacity
        self.buffer = np.full((n_series, capacity), np.nan)
        self.pos = np.zeros(n_series, dtype=np.int64)
        self.count = np.zeros(n_series, dtype=np.int64)

    def push(self, values: np.ndarray, indices: np.ndarray) -> None:
        values = np.asarray(values, dtype=float).ravel()
        indices = np.asarray(indices).ravel()
        if values.shape[0] != indices.shape[0]:
            raise AnalysisError(
                f"push got {values.shape[0]} values for {indices.shape[0]} series"
            )
        pos = self.pos[indices]
        self.buffer[indices, pos] = values
        self.pos[indices] = (pos + 1) % self.capacity
        self.count[indices] = np.minimum(self.count[indices] + 1, self.capacity)

    def _reduce(self, fn) -> np.ndarray:
        out = np.full(self.buffer.shape[0], np.nan)
        rows = np.flatnonzero(self.count > 0)
        if rows.size:
            out[rows] = fn(self.buffer[rows], axis=1)
        return out

    def median(self) -> np.ndarray:
        return self._reduce(np.nanmedian)

    def mean(self) -> np.ndarray:
        return self._reduce(np.nanmean)


class HealthTracker:
    """The original per-run tracker."""

    def __init__(
        self,
        gpu_labels: Iterable[str],
        policy: HealthPolicy | None = None,
    ) -> None:
        self.gpu_labels = tuple(str(label) for label in gpu_labels)
        n = len(self.gpu_labels)
        self._label_array = np.asarray(self.gpu_labels, dtype=object)
        self.policy = policy if policy is not None else HealthPolicy()
        w = self.policy.window_runs
        self._dev = Window(n, w)
        self._resid = Window(n, w)
        self._freq = Window(n, w)
        self._throttle = Window(n, w)
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
        self.outlier_accumulator = OutlierAccumulator()
        self.events: list[HealthEvent] = []
        self.runs_observed = 0

    @property
    def n_gpus(self) -> int:
        return len(self.gpu_labels)

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

    def _evaluate(
        self, day: int, run_index: int, idx: np.ndarray
    ) -> list[HealthEvent]:
        p = self.policy
        n = self.n_gpus
        counts = self._dev.count.copy()
        valid = counts >= p.min_window_runs
        if int(valid.sum()) < p.min_fleet:
            return []

        dev_med = self._dev.median()
        resid_med = self._resid.median()
        freq_med = self._freq.median()
        residency = self._throttle.mean()

        report = flag_outlier_values(
            dev_med[valid], self._label_array[valid], metric="perf_deviation"
        )
        self.outlier_accumulator.add(report)
        chronic = valid & (dev_med > report.stats.fence_hi)

        _, _, _, _, resid_hi = tukey_fences(resid_med[valid])
        thermal_floor = max(resid_hi, p.thermal_min_residual_c)
        thermal = valid & (resid_med > thermal_floor)

        fleet_freq = float(np.median(freq_med[valid]))
        freq_floor = fleet_freq * (1.0 - p.stuck_frequency_margin)
        stuck = valid & (residency >= p.stuck_residency) & (freq_med < freq_floor)

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

    def open_conditions(self, gpu_index: int) -> tuple[HealthEventKind, ...]:
        return tuple(
            kind for kind in _CONDITION_KINDS if self._open[kind][gpu_index]
        )

    def grades(self) -> tuple[str, ...]:
        out = []
        for g in range(self.n_gpus):
            grade = "ok"
            for kind in _CONDITION_KINDS:
                if self._open[kind][g]:
                    candidate = _GRADE_OF_OPEN[kind]
                    if GRADES.index(candidate) > GRADES.index(grade):
                        grade = candidate
            if grade == "ok" and self._ever_flagged[g]:
                grade = "watch"
            out.append(grade)
        return tuple(out)


def _rollup(
    group_of_gpu: np.ndarray,
    group_labels: tuple[str, ...],
    grades: tuple[str, ...],
    label_key: str,
) -> tuple[dict[str, Any], ...]:
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


def build_health_report(tracker, topology) -> FleetHealthReport:
    """The original report builder over any tracker with the public API."""
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
