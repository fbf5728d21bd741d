"""Streaming fleet metrics: typed registry, ring windows, and the monitor.

This is the DCGM-shaped half of the observability layer.  Where
:mod:`repro.obs.tracer` answers "where did the *wall clock* go",
:mod:`repro.obs.metrics` answers "what did the *fleet* do over simulated
time": per-GPU gauges (last frequency / power / temperature / perf
deviation / throttle residency), fleet-wide histograms, and ring-buffer
sliding-window aggregates — everything a dashboard scrapes from a real
cluster's telemetry daemon.

The design constraints are the tracer's, verbatim:

* **Zero perturbation.**  Hooks only *read* already-computed arrays; no
  RNG draws, no float that feeds a measurement.  Golden campaign fixtures
  pass byte-for-byte with monitoring on.
* **Unmeasurable overhead when disabled.**  Hook sites read
  :func:`~repro.obs.observer.active_observer` once and branch on its
  ``monitor`` being ``None``.
* **Deterministic merging.**  The campaign executors give every shard its
  own :class:`FleetMonitor` and fold the payloads back in canonical plan
  order, so the merged sample stream, counter totals, and every derived
  statistic are invariant to worker count and backend.

Fleet-level aggregation (perf deviation from the fleet median, sliding
windows, gauges) deliberately happens in :meth:`FleetMonitor.finalize`
over the *merged* stream: a shard only sees its slice of a run, and a
"fleet median" computed per shard would depend on the shard shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from ..config import require
from ..errors import AnalysisError

__all__ = [
    "DEFAULT_HISTOGRAM_EDGES",
    "FleetMonitor",
    "FleetRun",
    "MetricsRegistry",
    "MonitorConfig",
    "RunSample",
    "SlidingWindow",
    "render_prometheus",
]

#: Default histogram bucket upper bounds (``le``) per metric family.  Fixed
#: and config-independent so histograms from any two monitors of the same
#: campaign merge bucket-for-bucket.  Values beyond the last bound land in
#: the implicit ``+Inf`` bucket.
DEFAULT_HISTOGRAM_EDGES: dict[str, tuple[float, ...]] = {
    "frequency_mhz": tuple(float(v) for v in range(600, 2401, 60)),
    "power_w": tuple(float(v) for v in range(40, 561, 20)),
    "temperature_c": tuple(float(v) for v in range(20, 111, 3)),
    "perf_deviation": tuple(round(0.80 + 0.025 * i, 3) for i in range(33)),
    # Service request latency: roughly-geometric bounds from 1 ms to 60 s,
    # wide enough to cover a cache hit and a cold full-fleet campaign.
    "latency_s": (
        0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
        0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
    ),
}


def _edges_for(name: str) -> tuple[float, ...]:
    """Bucket bounds for a metric name, matched by family suffix."""
    for family, edges in DEFAULT_HISTOGRAM_EDGES.items():
        if name == family or name.endswith(f"_{family}") or name.endswith(family):
            return edges
    raise AnalysisError(
        f"no default histogram edges for {name!r}; pass edges= explicitly"
    )


@dataclass(frozen=True)
class MonitorConfig:
    """Tunables of the metrics pipeline.

    Parameters
    ----------
    window_runs:
        Ring-buffer depth (in completed runs) of the sliding-window
        aggregators.  Part of the *analysis*, not of the execution: any
        value produces byte-identical campaign outputs.
    """

    window_runs: int = 4

    def __post_init__(self) -> None:
        require(
            isinstance(self.window_runs, int) and self.window_runs >= 1,
            f"window_runs must be an int >= 1, got {self.window_runs!r}",
        )


@dataclass(frozen=True)
class RunSample:
    """What one :func:`~repro.sim.run.simulate_run` call reported.

    One sample per executed shard; shards of the same (day, run) are
    re-assembled into a :class:`FleetRun` by :meth:`FleetMonitor.iter_runs`
    after the canonical-order merge.  Arrays are the run's *reported*
    measurements — the exact values that land in the result dataset.
    """

    day: int
    run_index: int
    gpu_indices: np.ndarray = field(repr=False)
    performance_ms: np.ndarray = field(repr=False)
    frequency_mhz: np.ndarray = field(repr=False)
    power_w: np.ndarray = field(repr=False)
    temperature_c: np.ndarray = field(repr=False)
    power_capped: np.ndarray = field(repr=False)
    thermally_capped: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        """GPUs covered by this sample."""
        return int(self.gpu_indices.shape[0])


@dataclass(frozen=True)
class FleetRun:
    """One complete (day, run) with every shard's GPUs concatenated.

    ``gpu_indices`` ascends (plan order is node-ascending within a run),
    so fleet-level statistics — the run median, deviation fences — are
    well-defined and identical for every executor layout.
    """

    day: int
    run_index: int
    gpu_indices: np.ndarray = field(repr=False)
    performance_ms: np.ndarray = field(repr=False)
    frequency_mhz: np.ndarray = field(repr=False)
    power_w: np.ndarray = field(repr=False)
    temperature_c: np.ndarray = field(repr=False)
    power_capped: np.ndarray = field(repr=False)
    thermally_capped: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        """GPUs measured in this run."""
        return int(self.gpu_indices.shape[0])


# ---------------------------------------------------------------------------
# sliding windows
# ---------------------------------------------------------------------------


def _observed(
    windows: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, block, missing, k)`` over the windows holding an observation.

    ``windows`` is ``(..., capacity)`` with fill counts ``counts`` shaped
    like its leading axes; ``rows`` index the flattened leading axes,
    ``block`` is a copy of those windows, ``(len(rows), capacity)``,
    ``missing`` its NaN mask and ``k`` the non-NaN count of each window.
    Unfilled slots hold NaN, so a window with no NaN observation has
    ``k == count``; a NaN observation is skipped as the nan-functions skip
    it.
    """
    rows = np.flatnonzero(counts > 0)
    block = windows.reshape(-1, windows.shape[-1])
    block = block[rows] if rows.shape[0] < block.shape[0] else block.copy()
    missing = np.isnan(block)
    m, width = block.shape
    k = width - missing.sum(axis=1) if missing.any() else np.full(m, width)
    return rows, block, missing, k


def _place(values: np.ndarray, rows: np.ndarray, shape: tuple) -> np.ndarray:
    """``values`` of the windows at flat ``rows``, over ``shape``, NaN elsewhere."""
    if rows.shape[0] == values.shape[0] == math.prod(shape):
        return values.reshape(shape)
    out = np.full(shape, np.nan)
    np.put(out, rows, values)
    return out


def _window_median(windows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Median of each window, shaped like ``counts`` (NaN if empty).

    Bit for bit ``np.nanmedian``, whose short-row path sorts (NaN last),
    takes the low and high middle values of the ``k`` non-NaN ones (the
    middle value twice for odd ``k``), sums them from ``+0.0`` and halves
    the sum.  Here too NaN sorts last, so the first ``k`` sorted slots are
    the same values, and ``(lo + hi) + 0.0`` is that sum: which of
    ``-0.0``/``+0.0`` sorts first cannot change it.  A window of NaN
    observations only is NaN.
    """
    rows, ranked, _, k = _observed(windows, counts)
    ranked.sort(axis=1)
    at = np.arange(ranked.shape[0])
    middle = ranked[at, np.maximum(k - 1, 0) // 2] + ranked[at, k // 2]
    middle += 0.0
    middle /= 2.0
    middle[k == 0] = np.nan
    return _place(middle, rows, counts.shape)


def _window_mean(windows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of each window, shaped like ``counts`` (NaN if empty).

    Bit for bit ``np.nanmean``: each window is summed whole, in slot
    order, with its NaN slots as +0.0, so numpy's pairwise summation
    groups the terms as it does there at any capacity, then divided by
    the non-NaN count.
    """
    rows, terms, missing, k = _observed(windows, counts)
    np.copyto(terms, 0.0, where=missing)
    return _place(terms.sum(axis=1) / k, rows, counts.shape)


class _Ring:
    """Parallel ring buffers that are always pushed together.

    ``buffer`` is ``(n_windows, n_series, capacity)``; the windows share
    one write position and fill count per series, so pushing a block of
    runs is one scan whatever the number of windows.
    """

    def __init__(self, n_windows: int, n_series: int, capacity: int) -> None:
        self.buffer = np.full((n_windows, n_series, capacity), np.nan)
        self.pos = np.zeros(n_series, dtype=np.int64)
        self.count = np.zeros(n_series, dtype=np.int64)

    def push_runs(
        self,
        bounds: list[int],
        series: np.ndarray,
        values: np.ndarray,
        *,
        contents: bool = True,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Scan a block of runs through the ring.

        Run ``r`` pushes ``values[j, bounds[r]:bounds[r + 1]]`` onto series
        ``series[bounds[r]:bounds[r + 1]]`` of window ``j``, exactly as
        one push per run and window would.  Returns ``(counts, contents)``:
        the fill counts ``(runs, n_series)`` after each run and every
        window's buffer after each run, ``(n_windows, runs, n_series,
        capacity)``, or ``None`` for ``contents=False``.

        Write positions and fill counts of the whole block come from one
        cumulative count of each series' pushes, so the run-by-run part is
        one scatter of each run's values (a series listed twice in a run
        lands in one cell, the later value kept) and, when ``contents``
        is asked for, a copy of the buffer.
        """
        k, n, w = self.buffer.shape
        runs = len(bounds) - 1
        run_of = np.repeat(np.arange(runs), np.diff(bounds))
        observed = np.zeros((runs, n), dtype=bool)
        observed[run_of, series] = True
        pushes = np.cumsum(observed, axis=0)
        cell = series * w + (self.pos[series] + pushes[run_of, series] - 1) % w
        cells = cell + n * w * np.arange(k)[:, None]
        kept = np.empty((k, runs, n, w)) if contents else None
        for r in range(runs):
            lo, hi = bounds[r], bounds[r + 1]
            np.put(self.buffer, cells[:, lo:hi], values[:, lo:hi])
            if kept is not None:
                kept[:, r] = self.buffer
        counts = np.minimum(self.count + pushes, w)
        self.pos[...] = (self.pos + pushes[-1]) % w
        self.count[...] = counts[-1]
        return counts, kept

    def snapshot(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A copy of the ring state, for :meth:`restore`."""
        return self.buffer.copy(), self.pos.copy(), self.count.copy()

    def restore(self, state: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        """Return to a :meth:`snapshot`."""
        for now, then in zip((self.buffer, self.pos, self.count), state):
            now[...] = then


class SlidingWindow:
    """Ring buffer over the last ``capacity`` pushes of ``n_series`` series.

    Backing store is a one-window :class:`_Ring`: one ``(n_series,
    capacity)`` array, and per series its own write position and fill
    count, so partially-covered fleets (``coverage < 1``) advance only the
    GPUs a run actually observed.
    Statistics are NaN for series with no observations yet.
    """

    def __init__(self, n_series: int, capacity: int) -> None:
        require(n_series >= 1, f"n_series must be >= 1, got {n_series}")
        require(capacity >= 1, f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._ring = _Ring(1, int(n_series), self.capacity)
        # Views of the ring's arrays.
        self._buffer = self._ring.buffer[0]
        self._count = self._ring.count

    @property
    def n_series(self) -> int:
        """Number of parallel series."""
        return self._buffer.shape[0]

    @property
    def counts(self) -> np.ndarray:
        """Observations currently buffered per series (<= capacity)."""
        return self._count.copy()

    def push(self, values: np.ndarray, indices: np.ndarray | None = None) -> None:
        """Append one observation per (selected) series.

        The one-run case of :meth:`_Ring.push_runs`.
        """
        values = np.asarray(values, dtype=float).ravel()
        if indices is None:
            indices = np.arange(self.n_series)
        else:
            indices = np.asarray(indices).ravel()
        if values.shape[0] != indices.shape[0]:
            raise AnalysisError(
                f"push got {values.shape[0]} values for {indices.shape[0]} series"
            )
        self._ring.push_runs(
            [0, indices.shape[0]], indices, values[None], contents=False
        )

    def median(self) -> np.ndarray:
        """Per-series median over the buffered window (NaN if empty)."""
        return _window_median(self._buffer, self._count)

    def mean(self) -> np.ndarray:
        """Per-series mean over the buffered window (NaN if empty)."""
        return _window_mean(self._buffer, self._count)

    def series_stats(self) -> dict[str, np.ndarray]:
        """Per-series window statistics: mean/p5/p50/p95/iqr arrays.

        Percentiles run ``np.percentile`` once per non-NaN count ``k`` on
        the NaN-free rows ``np.nanpercentile`` extracts: the first ``k``
        slots, with any NaN among them replaced, in order, by the non-NaN
        values after them.
        """
        n = self.n_series
        out = {"mean": self.mean()}
        for key in ("p5", "p50", "p95", "iqr"):
            out[key] = np.full(n, np.nan)
        rows, block, _, valid = _observed(self._buffer, self._count)
        for k in np.unique(valid[valid > 0]):
            group = valid == k
            head, tail = block[group, :k], block[group, k:]
            head[np.isnan(head)] = tail[~np.isnan(tail)]
            p5, q1, p50, q3, p95 = np.percentile(
                head, (5, 25, 50, 75, 95), axis=1
            )
            at = rows[group]
            out["p5"][at] = p5
            out["p50"][at] = p50
            out["p95"][at] = p95
            out["iqr"][at] = q3 - q1
        return out

    def pooled_stats(self) -> dict[str, float]:
        """Statistics over *all* buffered observations of every series.

        The fleet-wide "per window" aggregate: mean, p5/p50/p95, IQR, and
        the pooled observation count.  NaN statistics with nothing
        buffered.
        """
        pooled = self._buffer[np.isfinite(self._buffer)]
        if pooled.size == 0:
            return {
                "mean": float("nan"), "p5": float("nan"), "p50": float("nan"),
                "p95": float("nan"), "iqr": float("nan"), "n": 0.0,
            }
        p5, q1, p50, q3, p95 = (
            float(v) for v in np.percentile(pooled, [5, 25, 50, 75, 95])
        )
        return {
            "mean": float(pooled.mean()),
            "p5": p5,
            "p50": p50,
            "p95": p95,
            "iqr": q3 - q1,
            "n": float(pooled.size),
        }


# ---------------------------------------------------------------------------
# typed metric registry
# ---------------------------------------------------------------------------


class _Histogram:
    """Fixed-bucket histogram with an implicit ``+Inf`` overflow bucket."""

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        if len(bounds) == 0 or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise AnalysisError("histogram bounds must be strictly increasing")
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = np.zeros(len(bounds) + 1, dtype=np.int64)
        self.count = 0
        self.sum = 0.0

    def observe(self, runs: list[np.ndarray]) -> None:
        """Fold in each array of ``runs``, in order, with one bucket count.

        ``sum`` adds each array's own total in turn, so it is the float
        that observing the arrays one call at a time gives.
        """
        parts = [np.asarray(values, dtype=float).ravel() for values in runs]
        x = parts[0] if len(parts) == 1 else np.concatenate(parts)
        # bucket i holds values <= bounds[i]; past-the-end is +Inf.
        idx = np.searchsorted(self.bounds, x, side="left")
        self.bucket_counts += np.bincount(
            idx, minlength=self.bucket_counts.shape[0]
        )
        self.count += int(x.shape[0])
        for part in parts:
            self.sum += float(part.sum())


class MetricsRegistry:
    """Typed metric store: counters, per-GPU gauge vectors, histograms.

    Counters accumulate (ints stay exact under any merge order); gauges
    are set whole-vector at finalize time (last write wins); histograms
    have fixed, name-derived bucket bounds so any two registries observing
    the same campaign merge bucket-for-bucket.  ``help`` strings ride
    along for the Prometheus exposition.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int | float] = {}
        self._gauges: dict[str, tuple[np.ndarray, tuple[str, ...] | None]] = {}
        self._histograms: dict[str, _Histogram] = {}
        self._help: dict[str, str] = {}

    # -- writing -------------------------------------------------------------

    def inc(self, name: str, value: int | float = 1, help: str = "") -> None:
        """Increment a counter."""
        self._counters[name] = self._counters.get(name, 0) + value
        if help:
            self._help.setdefault(name, help)

    def set_gauge(
        self,
        name: str,
        values: np.ndarray | float,
        labels: tuple[str, ...] | None = None,
        help: str = "",
    ) -> None:
        """Set a gauge: a scalar, or one value per GPU with ``labels``."""
        arr = np.atleast_1d(np.asarray(values, dtype=float))
        if labels is not None and len(labels) != arr.shape[0]:
            raise AnalysisError(
                f"gauge {name!r}: {arr.shape[0]} values, {len(labels)} labels"
            )
        self._gauges[name] = (arr, tuple(labels) if labels is not None else None)
        if help:
            self._help.setdefault(name, help)

    def observe(
        self,
        name: str,
        values: np.ndarray,
        edges: tuple[float, ...] | None = None,
        help: str = "",
    ) -> None:
        """Fold observations into the named histogram."""
        self._observe_runs(name, [values], edges, help)

    def _observe_runs(
        self,
        name: str,
        runs: list[np.ndarray],
        edges: tuple[float, ...] | None = None,
        help: str = "",
    ) -> None:
        """Fold several arrays into the named histogram at once, as
        :meth:`observe` would one after another."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = _Histogram(
                edges if edges is not None else _edges_for(name)
            )
            if help:
                self._help.setdefault(name, help)
        hist.observe(runs)

    # -- reading -------------------------------------------------------------

    def counter(self, name: str) -> int | float:
        """Current value of a counter (0 if never incremented)."""
        return self._counters.get(name, 0)

    def counters(self) -> dict[str, int | float]:
        """All counters, sorted by name."""
        return dict(sorted(self._counters.items()))

    def gauge(self, name: str) -> np.ndarray:
        """Value array of a gauge."""
        try:
            return self._gauges[name][0]
        except KeyError:
            raise AnalysisError(f"unknown gauge {name!r}") from None

    def gauge_labels(self, name: str) -> tuple[str, ...] | None:
        """Per-entry labels of a gauge (None for scalar gauges)."""
        return self._gauges[name][1]

    def histogram(self, name: str) -> dict[str, Any]:
        """Histogram snapshot: bounds, per-bucket counts, count, sum."""
        try:
            hist = self._histograms[name]
        except KeyError:
            raise AnalysisError(f"unknown histogram {name!r}") from None
        return {
            "bounds": hist.bounds,
            "bucket_counts": tuple(int(c) for c in hist.bucket_counts),
            "count": hist.count,
            "sum": hist.sum,
        }

    def metric_names(self) -> dict[str, str]:
        """Every registered metric name -> kind (counter/gauge/histogram)."""
        names: dict[str, str] = {}
        for name in self._counters:
            names[name] = "counter"
        for name in self._gauges:
            names[name] = "gauge"
        for name in self._histograms:
            names[name] = "histogram"
        return dict(sorted(names.items()))

    # -- merging -------------------------------------------------------------

    def to_payload(self) -> tuple[dict, dict, dict]:
        """Picklable snapshot of counters + histograms (+ help strings).

        Gauges are deliberately absent: they are derived at finalize time
        on the merged stream, never inside shards.
        """
        histograms = {
            name: (hist.bounds, tuple(int(c) for c in hist.bucket_counts),
                   hist.count, hist.sum)
            for name, hist in self._histograms.items()
        }
        return dict(self._counters), histograms, dict(self._help)

    def merge_payload(self, payload: tuple[dict, dict, dict]) -> None:
        """Fold a shard registry payload in: counters and buckets sum."""
        counters, histograms, help_strings = payload
        for name, value in sorted(counters.items()):
            self.inc(name, value)
        for name in sorted(histograms):
            bounds, bucket_counts, count, total = histograms[name]
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = _Histogram(bounds)
            elif hist.bounds != tuple(bounds):
                raise AnalysisError(
                    f"histogram {name!r} bucket bounds differ across shards"
                )
            hist.bucket_counts += np.asarray(bucket_counts, dtype=np.int64)
            hist.count += count
            hist.sum += total
        for name, text in help_strings.items():
            self._help.setdefault(name, text)

    def help_for(self, name: str) -> str:
        """Help string registered for a metric ("" if none)."""
        return self._help.get(name, "")


# ---------------------------------------------------------------------------
# the monitor
# ---------------------------------------------------------------------------


#: Per-GPU streams the monitor derives from each run, in gauge order.
_FLEET_STREAMS = ("frequency_mhz", "power_w", "temperature_c", "perf_deviation")


def _medians(arrays: list[np.ndarray]) -> np.ndarray:
    """``np.median`` of each array: one ``axis=1`` call per distinct length."""
    lengths = np.array([values.shape[0] for values in arrays])
    out = np.empty(len(arrays))
    for length in np.unique(lengths):
        at = np.flatnonzero(lengths == length)
        out[at] = np.median(np.stack([arrays[i] for i in at]), axis=1)
    return out


class FleetMonitor:
    """Collects fleet telemetry for one observed execution.

    Mirrors :class:`~repro.obs.tracer.Tracer`'s lifecycle: passive until
    code runs under :func:`~repro.obs.observer.activate`; campaign
    executors create one short-lived monitor per shard and fold the
    payloads into the campaign monitor in canonical plan order, after which
    :meth:`finalize` derives the fleet-level registry (gauges, deviation
    histograms) from the merged sample stream, and :attr:`window_series`
    derives the sliding-window series from it when first read.

    Not thread-safe by design — activation is per-thread and each
    concurrently-executing shard gets its own instance.
    """

    def __init__(self, config: MonitorConfig | None = None) -> None:
        self.config = config if config is not None else MonitorConfig()
        self.registry = MetricsRegistry()
        self.samples: list[RunSample] = []
        self.gpu_labels: tuple[str, ...] | None = None
        self._finalized = False
        self._window_series: dict[str, list[dict[str, float]]] | None = None

    # -- hook-facing API (called from instrumented simulator code) ----------

    def observe_run(
        self,
        *,
        day: int,
        run_index: int,
        gpu_indices: np.ndarray,
        performance_ms: np.ndarray,
        frequency_mhz: np.ndarray,
        power_w: np.ndarray,
        temperature_c: np.ndarray,
        power_capped: np.ndarray,
        thermally_capped: np.ndarray,
    ) -> None:
        """Record one finished run (shard): the reported measurement arrays."""
        self.samples.append(
            RunSample(
                day=int(day),
                run_index=int(run_index),
                gpu_indices=np.asarray(gpu_indices).copy(),
                performance_ms=performance_ms,
                frequency_mhz=frequency_mhz,
                power_w=power_w,
                temperature_c=temperature_c,
                power_capped=power_capped,
                thermally_capped=thermally_capped,
            )
        )
        n = int(np.asarray(gpu_indices).shape[0])
        self.registry.inc(
            "monitor_run_samples_total", 1,
            help="simulate_run calls observed (one per executed shard)",
        )
        self.registry.inc(
            "monitor_gpu_samples_total", n,
            help="per-GPU measurement samples observed",
        )

    def observe_solve(
        self, power_capped: np.ndarray, thermally_capped: np.ndarray
    ) -> None:
        """Record one DVFS steady-state solve's throttle outcome."""
        self.registry.inc(
            "solver_solves_total", 1,
            help="DVFS steady-state solves observed",
        )
        self.registry.inc(
            "solver_gpus_power_capped_total",
            int(np.count_nonzero(power_capped)),
            help="per-solve GPU count that settled power-capped",
        )
        self.registry.inc(
            "solver_gpus_thermally_capped_total",
            int(np.count_nonzero(thermally_capped)),
            help="per-solve GPU count that settled thermally capped",
        )

    def observe_engine_step(
        self,
        frequency_mhz: np.ndarray,
        power_w: np.ndarray,
        temperature_c: np.ndarray,
    ) -> None:
        """Record one transient-engine integration step's instantaneous state."""
        self.registry.inc(
            "engine_steps_total", 1, help="transient engine steps observed"
        )
        self.registry.observe(
            "engine_frequency_mhz", frequency_mhz,
            help="instantaneous SM frequency at engine steps",
        )
        self.registry.observe(
            "engine_power_w", power_w,
            help="instantaneous board power at engine steps",
        )
        self.registry.observe(
            "engine_temperature_c", temperature_c,
            help="instantaneous GPU temperature at engine steps",
        )

    # -- merging ------------------------------------------------------------

    def to_payload(self) -> tuple[tuple[RunSample, ...], tuple]:
        """Picklable snapshot: ``(samples, registry payload)``."""
        return tuple(self.samples), self.registry.to_payload()

    def merge_payload(
        self, payload: tuple[tuple[RunSample, ...], tuple]
    ) -> None:
        """Fold a shard payload in.

        Samples are appended in the order given — callers iterate payloads
        in canonical plan order, which is what makes every statistic
        derived from the stream independent of the worker layout.
        """
        samples, registry_payload = payload
        self.samples.extend(samples)
        self.registry.merge_payload(registry_payload)

    # -- the merged run stream ----------------------------------------------

    def iter_runs(self) -> Iterator[FleetRun]:
        """Complete runs, in campaign order, shards concatenated.

        Consecutive samples sharing (day, run_index) are one run split
        across shards; plan order guarantees they are adjacent and in
        ascending GPU order.
        """
        group: list[RunSample] = []
        for sample in self.samples:
            if group and (
                sample.day != group[0].day
                or sample.run_index != group[0].run_index
            ):
                yield self._assemble(group)
                group = []
            group.append(sample)
        if group:
            yield self._assemble(group)

    @staticmethod
    def _assemble(group: list[RunSample]) -> FleetRun:
        if len(group) == 1:
            s = group[0]
            return FleetRun(
                day=s.day, run_index=s.run_index, gpu_indices=s.gpu_indices,
                performance_ms=s.performance_ms, frequency_mhz=s.frequency_mhz,
                power_w=s.power_w, temperature_c=s.temperature_c,
                power_capped=s.power_capped,
                thermally_capped=s.thermally_capped,
            )
        return FleetRun(
            day=group[0].day,
            run_index=group[0].run_index,
            gpu_indices=np.concatenate([s.gpu_indices for s in group]),
            performance_ms=np.concatenate([s.performance_ms for s in group]),
            frequency_mhz=np.concatenate([s.frequency_mhz for s in group]),
            power_w=np.concatenate([s.power_w for s in group]),
            temperature_c=np.concatenate([s.temperature_c for s in group]),
            power_capped=np.concatenate([s.power_capped for s in group]),
            thermally_capped=np.concatenate(
                [s.thermally_capped for s in group]
            ),
        )

    @property
    def n_runs(self) -> int:
        """Complete runs in the merged stream."""
        return sum(1 for _ in self.iter_runs())

    # -- finalize ------------------------------------------------------------

    def _fleet_values(
        self, n: int
    ) -> tuple[list[FleetRun], np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """The complete runs and their per-GPU streams, checked against ``n``.

        Returns ``(runs, bounds, gpus, streams)``: ``gpus`` and each
        stream concatenate the runs in order, run ``r`` at
        ``bounds[r]:bounds[r + 1]``.  The streams, keyed as
        :data:`_FLEET_STREAMS`, are the reported frequency, power and
        temperature plus the perf deviation from the run's fleet median.
        Raises at the first run, in stream order, that references a GPU
        past ``n`` or has a non-positive median.
        """
        runs = list(self.iter_runs())
        bounds = np.zeros(len(runs) + 1, dtype=np.int64)
        np.cumsum([run.gpu_indices.shape[0] for run in runs], out=bounds[1:])
        if not runs:
            empty = np.empty(0)
            return runs, bounds, empty.astype(np.int64), {
                name: empty for name in _FLEET_STREAMS
            }
        gpus = np.concatenate([run.gpu_indices for run in runs])
        perf = [run.performance_ms for run in runs]
        med = _medians(perf)
        past = np.flatnonzero(gpus >= n)
        bad_index = (
            int(np.searchsorted(bounds, past[0], side="right")) - 1
            if past.shape[0] else len(runs)
        )
        bad_median = np.flatnonzero(med <= 0.0)
        if bad_median.shape[0] and bad_median[0] < bad_index:
            raise AnalysisError(
                "cannot normalize perf deviation: non-positive run median"
            )
        if bad_index < len(runs):
            run = runs[bad_index]
            raise AnalysisError(
                f"run day={run.day} references GPU "
                f"{int(run.gpu_indices.max())} but only {n} labels were "
                "given to finalize()"
            )
        return runs, bounds, gpus, {
            "frequency_mhz": np.concatenate(
                [run.frequency_mhz for run in runs]
            ),
            "power_w": np.concatenate([run.power_w for run in runs]),
            "temperature_c": np.concatenate(
                [run.temperature_c for run in runs]
            ),
            "perf_deviation": np.concatenate(perf)
            / np.repeat(med, np.diff(bounds)),
        }

    def finalize(self, gpu_labels: tuple[str, ...]) -> None:
        """Derive the fleet-level registry from the merged sample stream.

        Called once by the campaign executor after the canonical-order
        merge (idempotent; a call that raises changes nothing, so it can be
        retried).  Populates per-GPU gauges (last observed value and
        throttle residency) and fleet histograms (including perf deviation
        from each run's fleet median); :attr:`window_series` is derived
        from the same stream when first read.
        """
        if self._finalized:
            return
        labels = tuple(gpu_labels)
        n = len(labels)
        # Validate the whole stream before the registry changes, so a
        # finalize that raises leaves the monitor unfinalized and retryable.
        runs, bounds, gpus, streams = self._fleet_values(n)
        self._finalized = True
        self.gpu_labels = labels

        # Each GPU's gauges hold its value from the last run that saw it:
        # positions ascend with run order, so the last one is the maximum.
        last_at = np.full(n, -1)
        np.maximum.at(last_at, gpus, np.arange(gpus.shape[0]))
        seen = last_at >= 0
        last = {}
        for name, values in streams.items():
            last[name] = np.full(n, np.nan)
            last[name][seen] = values[last_at[seen]]
        observed = np.bincount(gpus, minlength=n)
        capped = np.concatenate(
            [run.power_capped | run.thermally_capped for run in runs]
        ) if runs else np.empty(0, dtype=bool)
        throttled = np.bincount(gpus[capped], minlength=n)
        if runs:
            for name in _FLEET_STREAMS:
                self.registry._observe_runs(
                    f"fleet_{name}", np.split(streams[name], bounds[1:-1])
                )

        self.registry.inc(
            "monitor_runs_total", len(runs),
            help="complete runs in the stream",
        )
        gauge_help = {
            "frequency_mhz": "last reported SM frequency per GPU",
            "power_w": "last reported board power per GPU",
            "temperature_c": "last reported temperature per GPU",
            "perf_deviation": "last perf deviation from the run median per GPU",
        }
        for name, arr in last.items():
            self.registry.set_gauge(
                f"gpu_{name}", arr, labels=self.gpu_labels,
                help=gauge_help[name],
            )
        residency = np.full(n, np.nan)
        seen = observed > 0
        residency[seen] = throttled[seen] / observed[seen]
        self.registry.set_gauge(
            "gpu_throttle_residency", residency, labels=self.gpu_labels,
            help="fraction of observed runs the GPU settled capped "
                 "(power or thermal)",
        )

    @property
    def window_series(self) -> dict[str, list[dict[str, float]]]:
        """Per-metric list of one pooled-window statistics dict per run.

        ``{}`` before :meth:`finalize`.  After it, the first read replays
        :meth:`iter_runs` through one :class:`SlidingWindow` of
        ``window_runs`` per metric, appending each run's
        :meth:`~SlidingWindow.pooled_stats` plus its ``day`` and
        ``run_index``; later reads return the same cached dict.  No
        campaign output reads it, so a campaign does not pay for it.
        """
        if not self._finalized:
            return {}
        if self._window_series is None:
            n = len(self.gpu_labels)
            windows = {
                name: SlidingWindow(n, self.config.window_runs)
                for name in _FLEET_STREAMS
            }
            series: dict[str, list[dict[str, float]]] = {
                name: [] for name in _FLEET_STREAMS
            }
            runs, bounds, _, streams = self._fleet_values(n)
            for r, run in enumerate(runs):
                for name, values in streams.items():
                    arr = values[bounds[r]:bounds[r + 1]]
                    windows[name].push(arr, run.gpu_indices)
                    stats = windows[name].pooled_stats()
                    stats["day"] = float(run.day)
                    stats["run_index"] = float(run.run_index)
                    series[name].append(stats)
            self._window_series = series
        return self._window_series

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FleetMonitor({len(self.samples)} samples, "
            f"{len(self.registry.metric_names())} metrics)"
        )


# ---------------------------------------------------------------------------
# Prometheus-style text exposition
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Exposition float formatting: shortest exact round-trip."""
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(
    source: "MetricsRegistry | FleetMonitor", namespace: str = "repro"
) -> str:
    """Render a registry (or a monitor's registry) as Prometheus text.

    Counters become ``<ns>_<name>``; per-GPU gauges emit one sample per
    labelled GPU (NaN entries — never-observed GPUs — are skipped);
    histograms emit cumulative ``_bucket{le=...}`` samples plus ``_sum``
    and ``_count``, Prometheus-style.  Output ordering is the registry's
    sorted metric order, so two registries with equal contents render to
    equal text (the equivalence tests compare exactly this).

    The exposition always ends with a trailing newline — the text format
    requires a final line feed, including for a registry with no metrics
    (or counters only), where the old code returned an unterminated (or
    empty) string that some scrapers reject.
    """
    registry = source.registry if isinstance(source, FleetMonitor) else source
    lines: list[str] = []
    names = registry.metric_names()
    for name, kind in names.items():
        full = f"{namespace}_{name}"
        help_text = registry.help_for(name)
        if help_text:
            lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} {kind}")
        if kind == "counter":
            lines.append(f"{full} {_fmt(float(registry.counter(name)))}")
        elif kind == "gauge":
            values = registry.gauge(name)
            labels = registry.gauge_labels(name)
            if labels is None:
                lines.append(f"{full} {_fmt(float(values[0]))}")
            else:
                for label, value in zip(labels, values):
                    if value != value:  # NaN: GPU never observed
                        continue
                    lines.append(f'{full}{{gpu="{label}"}} {_fmt(float(value))}')
        else:
            hist = registry.histogram(name)
            cumulative = 0
            for bound, count in zip(hist["bounds"], hist["bucket_counts"]):
                cumulative += count
                lines.append(
                    f'{full}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
                )
            lines.append(f'{full}_bucket{{le="+Inf"}} {hist["count"]}')
            lines.append(f"{full}_sum {_fmt(hist['sum'])}")
            lines.append(f"{full}_count {hist['count']}")
    return "".join(f"{line}\n" for line in lines) or "\n"
