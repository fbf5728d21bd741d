"""Online fleet health classification: typed events, grades, reports.

The anomaly-detection half of the monitoring pipeline.  A
:class:`HealthTracker` consumes the merged run stream of a
:class:`~repro.obs.metrics.FleetMonitor` (or synthetic runs in tests) and
classifies every GPU against the fleet, using the exact statistics the
paper's operators used — Tukey fences over per-GPU medians
(:func:`~repro.core.boxstats.tukey_fences`, with
:class:`~repro.core.boxstats.BoxStats`' finite-values rule for the
deviation fence) — over ring-buffer sliding windows of the last
``window_runs`` runs instead of a finished dataset.

Evaluation is by blocks of runs, with the result of one run at a time:
the block's runs are stacked into (runs x GPUs) matrices, one scan of the
ring buffers gives every run's windows, their medians and means come
from those windows at once, and each fence is one ``np.percentile(...,
axis=1)`` over the runs; only the hysteresis steps through the runs.

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
``tests/obs/test_monitor_equivalence.py``), for any block size and any
split of the stream between :meth:`HealthTracker.observe_run` and
:meth:`HealthTracker.observe_monitor`, and to the one-run-per-call
tracker kept in ``tests/obs/health_oracle.py`` (pinned by
``tests/obs/test_health_differential.py``).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Iterable, Iterator, NamedTuple

import numpy as np

from ..config import require, require_in_range
from ..errors import AnalysisError
from ..core.boxstats import BoxStats, tukey_fences
from ..core.outliers import OutlierAccumulator
from .manifest import validate_manifest
from .metrics import (
    FleetMonitor,
    _medians,
    _Ring,
    _window_mean,
    _window_median,
)
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

#: :data:`GRADES` index of each condition kind's open grade.
_OPEN_RANKS = np.array(
    [GRADES.index(_GRADE_OF_OPEN[kind]) for kind in _CONDITION_KINDS]
)


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


#: Window cells (runs x GPUs x window slots) one block of runs may hold.
#: Bounds the tracker's working memory at any fleet size and campaign
#: length: one signal's windows are 256 KB of float64 and each (runs x
#: GPUs) matrix at most ``_BLOCK_CELLS / window_runs`` entries, small
#: enough to stay in cache.  At ``window_runs=4`` a 416-GPU Longhorn is
#: evaluated 19 runs at a time, a 27,648-GPU Summit one run at a time.
_BLOCK_CELLS = 1 << 15


class _Run(NamedTuple):
    """One validated, non-empty run: GPU indices and equal-length signals."""

    day: int
    run_index: int
    gpu_indices: np.ndarray
    performance_ms: np.ndarray
    frequency_mhz: np.ndarray
    temperature_c: np.ndarray
    capped: np.ndarray


def _prepare(run: Any, n_gpus: int) -> _Run | None:
    """Validate one run's arrays; ``None`` for a run that covers no GPU."""
    idx = np.asarray(run.gpu_indices).ravel()
    if idx.shape[0] == 0:
        return None
    if int(idx.max()) >= n_gpus:
        raise AnalysisError(
            f"run references GPU {int(idx.max())} but tracker has "
            f"{n_gpus} labels"
        )
    capped = (
        np.asarray(run.power_capped, dtype=bool)
        | np.asarray(run.thermally_capped, dtype=bool)
    )
    prepared = _Run(
        int(run.day),
        int(run.run_index),
        idx,
        np.asarray(run.performance_ms, dtype=float).ravel(),
        np.asarray(run.frequency_mhz, dtype=float).ravel(),
        np.asarray(run.temperature_c, dtype=float).ravel(),
        capped.ravel(),
    )
    for values in prepared[3:]:
        if values.shape[0] != idx.shape[0]:
            raise AnalysisError(
                f"run has {values.shape[0]} values for {idx.shape[0]} GPUs"
            )
    return prepared


def _masked_rows(
    values: np.ndarray, mask: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(rows, sample)`` per distinct count ``k`` of masked entries per row.

    ``sample`` is ``(len(rows), k)``: each row's masked values in column
    order, as ``values[row][mask[row]]`` gives them.
    """
    sizes = mask.sum(axis=1)
    for k in np.unique(sizes):
        rows = np.flatnonzero(sizes == k)
        yield rows, values[rows][mask[rows]].reshape(rows.shape[0], k)


class HealthTracker:
    """Per-GPU health classifier over a run stream, in blocks of runs.

    Feed :meth:`observe_monitor` a merged monitor, or :meth:`observe_run`
    one run at a time, in campaign order; both go through the same block
    evaluation, so any split of a stream between them gives the same
    events.  Events accumulate in :attr:`events`; :meth:`grades` gives the
    current per-GPU classification.  Between calls the state is one ring
    buffer of ``n_gpus * window_runs`` per signal plus per-GPU streak, open
    and baseline arrays, whatever the campaign length; while a block is
    evaluated, each signal's windows take at most ``_BLOCK_CELLS`` cells.
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
        #: Windows of perf deviation, temperature residual, frequency and
        #: cap residency, in that order.
        self._ring = _Ring(4, n, w)
        self._baseline = np.full(n, np.nan)
        # One row per condition kind, in _CONDITION_KINDS order.
        shape = (len(_CONDITION_KINDS), n)
        self._streak_true = np.zeros(shape, dtype=np.int64)
        self._streak_false = np.zeros(shape, dtype=np.int64)
        self._open = np.zeros(shape, dtype=bool)
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
        """Ingest one complete run and return the events it emitted.

        A one-run :meth:`observe_monitor`; a run with no GPU is ignored.
        """
        return self._observe([SimpleNamespace(
            day=day,
            run_index=run_index,
            gpu_indices=gpu_indices,
            performance_ms=performance_ms,
            frequency_mhz=frequency_mhz,
            temperature_c=temperature_c,
            power_capped=power_capped,
            thermally_capped=thermally_capped,
        )])

    def observe_monitor(self, monitor: FleetMonitor) -> list[HealthEvent]:
        """Ingest every complete run of a merged monitor, in order.

        A malformed run raises :class:`AnalysisError` after the runs
        before it are evaluated, as when they are fed one at a time.
        """
        return self._observe(monitor.iter_runs())

    def _observe(self, runs: Iterable[Any]) -> list[HealthEvent]:
        """Evaluate ``runs`` in blocks of at most ``_BLOCK_CELLS`` cells.

        A malformed run (a GPU index beyond the labels, signals of another
        length than its indices, a median performance <= 0) raises
        :class:`AnalysisError` after the runs before it are evaluated; it
        is checked whole before anything is pushed, so it changes nothing.
        """
        size = max(1, _BLOCK_CELLS // (self.n_gpus * self.policy.window_runs))
        emitted: list[HealthEvent] = []
        block: list[_Run] = []
        for run in runs:
            try:
                prepared = _prepare(run, self.n_gpus)
            except AnalysisError:
                self._evaluate_block(block)
                raise
            if prepared is not None:
                block.append(prepared)
            if len(block) == size:
                emitted.extend(self._evaluate_block(block))
                block = []
        return emitted + self._evaluate_block(block)

    # -- detection -----------------------------------------------------------

    def _evaluate_block(self, block: list[_Run]) -> list[HealthEvent]:
        """Push a block of runs and evaluate each, as one call per run would.

        Window statistics and fleet fences of all runs come from (runs x
        GPUs) matrices; only the streaks and open/close hysteresis step
        through the runs.  A run is evaluated once at least ``min_fleet``
        GPUs have ``min_window_runs`` runs in their window; unobserved GPUs
        enter its fences but keep their streaks.
        """
        if not block:
            return []
        perf_median = _medians([run.performance_ms for run in block])
        bad = np.flatnonzero(perf_median <= 0.0)
        if bad.shape[0]:
            self._evaluate_block(block[:bad[0]])
            raise AnalysisError("run median performance must be positive")
        p = self.policy
        n = self.n_gpus
        lengths = [run.gpu_indices.shape[0] for run in block]
        bounds = [0, *itertools.accumulate(lengths)]
        gpus = np.concatenate([run.gpu_indices for run in block])
        temperature = [run.temperature_c for run in block]
        signals = np.stack([
            np.concatenate([run.performance_ms for run in block])
            / np.repeat(perf_median, lengths),
            np.concatenate(temperature)
            - np.repeat(_medians(temperature), lengths),
            np.concatenate([run.frequency_mhz for run in block]),
            np.concatenate([run.capped for run in block]),
        ])
        before = self._ring.snapshot()
        counts, contents = self._ring.push_runs(bounds, gpus, signals)
        observed = np.zeros((len(block), n), dtype=bool)
        observed[np.repeat(np.arange(len(block)), lengths), gpus] = True
        self.runs_observed += len(block)
        valid = counts >= p.min_window_runs
        evaluated = valid.sum(axis=1) >= p.min_fleet
        if not evaluated[-1]:
            return []
        # Fill counts never fall, so the evaluated runs are a suffix.
        first = int(np.argmax(evaluated))
        valid, counts, observed = valid[first:], counts[first:], observed[first:]
        dev_med, resid_med, freq_med = (
            _window_median(buffers[first:], counts)
            for buffers in contents[:3]
        )
        residency = _window_mean(contents[3][first:], counts)
        del contents
        runs = counts.shape[0]

        # Chronic slow: fleet Tukey fence over window-median deviations —
        # BoxStats over each run's finite values, one np.percentile for all.
        finite = valid & np.isfinite(dev_med)
        fences = np.full((5, runs), np.nan)
        for rows, sample in _masked_rows(dev_med, finite):
            if sample.shape[1]:
                fences[:, rows] = tukey_fences(sample, axis=1)
        _, fleet_dev, _, lo, hi = fences[:, :, None]
        inside = finite & (dev_med >= lo) & (dev_med <= hi)
        degenerate = ~inside.any(axis=1) | (fleet_dev[:, 0] == 0.0)
        if degenerate.any():
            # As run by run: the runs before it count, it is pushed, then
            # BoxStats raises on its sample.
            e = int(np.argmax(degenerate))
            sample = dev_med[e, valid[e]]
            self._ring.restore(before)
            self.runs_observed -= len(block)
            self._evaluate_block(block[:first + e])
            start, stop = bounds[first + e], bounds[first + e + 1]
            self._ring.push_runs(
                [0, stop - start], gpus[start:stop], signals[:, start:stop],
                contents=False,
            )
            self.runs_observed += 1
            BoxStats.from_values(sample)
        chronic = valid & (dev_med > hi)
        flagged = valid & ((dev_med < lo) | (dev_med > hi))

        # Thermal runaway: residual fence + absolute margin.
        resid_hi = np.empty(runs)
        for rows, sample in _masked_rows(resid_med, valid):
            resid_hi[rows] = tukey_fences(sample, axis=1)[4]
        margin = p.thermal_min_residual_c
        thermal_floor = np.where(margin > resid_hi, margin, resid_hi)[:, None]
        thermal = valid & (resid_med > thermal_floor)

        # Stuck throttle: capped nearly always *and* materially slow clocks.
        fleet_freq = np.empty(runs)
        for rows, sample in _masked_rows(freq_med, valid):
            fleet_freq[rows] = np.median(sample, axis=1)
        freq_floor = fleet_freq[:, None] * (1.0 - p.stuck_frequency_margin)
        stuck = valid & (residency >= p.stuck_residency) & (freq_med < freq_floor)

        # Drift vs own baseline, set at the first evaluated run with a full
        # window (and a non-NaN median), short of the fence.
        fresh = (counts >= p.window_runs) & ~np.isnan(dev_med)
        baseline = np.where(
            np.isnan(self._baseline),
            np.where(
                np.logical_or.accumulate(fresh, axis=0),
                dev_med[np.argmax(fresh, axis=0), np.arange(n)],
                np.nan,
            ),
            self._baseline,
        )
        self._baseline = baseline[-1].copy()
        has_base = ~np.isnan(baseline)
        drift_limit = np.where(has_base, baseline * p.drift_ratio, np.inf)
        drift = valid & has_base & (dev_med > drift_limit) & ~chronic

        flagged_run, flagged_gpu = np.nonzero(flagged)
        labels = self._label_array[flagged_gpu]
        cuts = np.searchsorted(flagged_run, np.arange(runs + 1))
        for e in range(runs):
            self.outlier_accumulator.add(sorted(labels[cuts[e]:cuts[e + 1]]))

        # Hysteresis, run by run over the (kind, GPU) condition matrices;
        # a GPU's streaks move only on runs that observe it.
        condition = np.stack([thermal, stuck, chronic, drift], axis=1)
        values = (resid_med, residency, dev_med, dev_med)
        thresholds = tuple(
            np.broadcast_to(limit, (runs, n))
            for limit in (thermal_floor, p.stuck_residency, hi, drift_limit)
        )
        seen = observed[:, None, :]
        hit = condition & seen
        miss = seen & ~condition
        keep_true, keep_false = ~miss, ~hit
        s_true, s_false, is_open = (
            self._streak_true, self._streak_false, self._open
        )
        emitted: list[HealthEvent] = []
        for e in range(runs):
            s_true += hit[e]
            s_true *= keep_true[e]
            s_false += miss[e]
            s_false *= keep_false[e]
            opening = hit[e] & (s_true >= p.open_after) & ~is_open
            closing = miss[e] & (s_false >= p.close_after) & is_open
            if not (opening.any() or closing.any()):
                continue
            is_open |= opening
            is_open &= ~closing
            self._ever_flagged |= opening.any(axis=0)
            run = block[first + e]
            # Kinds in order; per kind, openings before closings.
            for k, closes, g in zip(
                *np.nonzero(np.stack([opening, closing], axis=1))
            ):
                kind = _CONDITION_KINDS[k]
                emitted.append(
                    HealthEvent(
                        kind=HealthEventKind.RECOVERED if closes else kind,
                        gpu_index=int(g),
                        gpu_label=self.gpu_labels[g],
                        day=run.day,
                        run_index=run.run_index,
                        value=float(values[k][e, g]),
                        threshold=float(thresholds[k][e, g]),
                        details=(
                            (("cleared", kind.value),) if closes
                            else (("streak", int(s_true[k, g])),)
                        ),
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
        opened = self._open[:, gpu_index]
        return tuple(
            kind for kind, is_open in zip(_CONDITION_KINDS, opened) if is_open
        )

    def _grade_ranks(self) -> np.ndarray:
        """Per-GPU index into :data:`GRADES`: the worst open condition's
        grade, else ``watch`` for a GPU that recovered, else ``ok`` (0)."""
        worst = np.where(self._open, _OPEN_RANKS[:, None], 0).max(axis=0)
        return np.maximum(worst, self._ever_flagged * GRADES.index("watch"))

    def grades(self) -> tuple[str, ...]:
        """Current per-GPU health grade (see :data:`GRADES`)."""
        return tuple(np.asarray(GRADES)[self._grade_ranks()].tolist())


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
    unhealthy: np.ndarray,
    label_key: str,
) -> tuple[dict[str, Any], ...]:
    """Worst-grade + counts per topology group holding an ``unhealthy`` GPU."""
    entries = []
    for group_index in np.unique(group_of_gpu[unhealthy]).tolist():
        member_grades = [
            grades[g] for g in np.flatnonzero(group_of_gpu == group_index)
        ]
        counts: dict[str, int] = {}
        for grade in member_grades:
            counts[grade] = counts.get(grade, 0) + 1
        worst = max(member_grades, key=GRADES.index)
        entries.append(
            {label_key: group_labels[group_index], "worst": worst,
             "grade_counts": counts}
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
    unhealthy = np.flatnonzero(tracker._grade_ranks())
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
            "gpu_index": g,
            "node_label": topology.node_labels[node_of_gpu[g]],
            "grade": grades[g],
            "open_conditions": [
                kind.value for kind in tracker.open_conditions(g)
            ],
            "events": events_per_gpu.get(g, 0),
        }
        for g in unhealthy.tolist()
    )
    node_entries = _rollup(
        node_of_gpu, topology.node_labels, grades, unhealthy, "node_label"
    )
    row_entries: tuple[dict[str, Any], ...] = ()
    if topology.has_grid and topology.row_labels is not None:
        row_entries = _rollup(
            topology.row_of_gpu, topology.row_labels, grades, unhealthy,
            "row_label",
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
