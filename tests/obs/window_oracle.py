"""Nan-function and eager-series oracles for the monitor's window statistics.

The semantic definition of :class:`~repro.obs.metrics.SlidingWindow`'s
per-series statistics and of :attr:`~repro.obs.metrics.FleetMonitor.window_series`,
kept verbatim from the original implementations:

* ``median`` / ``mean`` / ``series_stats`` hand every observed row of the
  ring buffer, unfilled NaN slots included, to ``np.nanmedian``,
  ``np.nanmean`` and ``np.nanpercentile``;
* ``window_series`` is the eager loop ``FleetMonitor.finalize`` ran: one
  fresh :class:`~repro.obs.metrics.SlidingWindow` per metric, pushed run by
  run, with one ``pooled_stats`` dict per run.

The production statistics and the lazy series must reproduce them bit for
bit.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import FleetMonitor, SlidingWindow


def median(window: SlidingWindow) -> np.ndarray:
    """Per-series median over the buffered window (NaN if empty)."""
    out = np.full(window.n_series, np.nan)
    rows = np.flatnonzero(window._count > 0)
    if rows.size:
        out[rows] = np.nanmedian(window._buffer[rows], axis=1)
    return out


def mean(window: SlidingWindow) -> np.ndarray:
    """Per-series mean over the buffered window (NaN if empty)."""
    out = np.full(window.n_series, np.nan)
    rows = np.flatnonzero(window._count > 0)
    if rows.size:
        out[rows] = np.nanmean(window._buffer[rows], axis=1)
    return out


def series_stats(window: SlidingWindow) -> dict[str, np.ndarray]:
    """Per-series window statistics: mean/p5/p50/p95/iqr arrays."""
    n = window.n_series
    out = {
        key: np.full(n, np.nan) for key in ("mean", "p5", "p50", "p95", "iqr")
    }
    rows = np.flatnonzero(window._count > 0)
    if rows.size:
        block = window._buffer[rows]
        out["mean"][rows] = np.nanmean(block, axis=1)
        p5, q1, p50, q3, p95 = np.nanpercentile(
            block, [5, 25, 50, 75, 95], axis=1
        )
        out["p5"][rows] = p5
        out["p50"][rows] = p50
        out["p95"][rows] = p95
        out["iqr"][rows] = q3 - q1
    return out


def window_series(
    monitor: FleetMonitor, gpu_labels: tuple[str, ...]
) -> dict[str, list[dict[str, float]]]:
    """The pooled-window series ``finalize`` used to build eagerly."""
    n = len(gpu_labels)
    window = monitor.config.window_runs
    names = ("frequency_mhz", "power_w", "temperature_c", "perf_deviation")
    windows = {name: SlidingWindow(n, window) for name in names}
    series: dict[str, list[dict[str, float]]] = {name: [] for name in names}
    for run in monitor.iter_runs():
        idx = run.gpu_indices
        med = float(np.median(run.performance_ms))
        values = {
            "frequency_mhz": run.frequency_mhz,
            "power_w": run.power_w,
            "temperature_c": run.temperature_c,
            "perf_deviation": run.performance_ms / med,
        }
        for name, arr in values.items():
            windows[name].push(arr, idx)
            stats = windows[name].pooled_stats()
            stats["day"] = float(run.day)
            stats["run_index"] = float(run.run_index)
            series[name].append(stats)
    return series
