"""Helpers shared by the figure-reproduction benchmarks."""

from __future__ import annotations

import os
import time
from typing import Any

import numpy as np

from repro.core import BoxStats, metric_boxstats
from repro.core.report import ascii_box_row, format_boxstats_table
from repro.obs.observer import active_observer
from repro.sim import run_campaign as _run_campaign
from repro.sim.parallel import default_worker_count
from repro.telemetry.dataset import MeasurementDataset
from repro.telemetry.sample import PAPER_METRICS

#: Campaign fan-out for the whole benchmark session.  Parallel execution is
#: bit-identical to serial (tests/sim/test_parallel_equivalence.py), so the
#: reproduced figures do not depend on this — only the wall clock does.
#: Override with REPRO_BENCH_WORKERS=1 to force the serial path.
BENCH_WORKERS = int(
    os.environ.get("REPRO_BENCH_WORKERS", default_worker_count())
)


def run_campaign(cluster, workload, config):
    """The session's campaign runner: run_campaign with the bench fan-out."""
    return _run_campaign(cluster, workload, config, workers=BENCH_WORKERS)


#: Column labels for a paper-vs-measured comparison table.
_HEADER = f"{'quantity':<44} {'paper':>12} {'measured':>12}"


def comparison_table(title: str, rows: list[tuple[str, str, str]]) -> str:
    """Render a paper-vs-measured comparison table."""
    lines = [f"--- {title} ---", _HEADER, "-" * len(_HEADER)]
    for name, paper, measured in rows:
        lines.append(f"{name:<44} {paper:>12} {measured:>12}")
    return "\n".join(lines)


def emit(benchmark, title: str, rows: list[tuple[str, str, str]]) -> None:
    """Print the comparison table and attach it to the benchmark record."""
    table = comparison_table(title, rows)
    print("\n" + table)
    if benchmark is not None:
        benchmark.extra_info["comparison"] = rows


def pct(value: float) -> str:
    """Format a fraction as a percentage string."""
    return f"{value:.1%}"


def metric_summary_lines(
    dataset: MeasurementDataset,
    per_gpu_median: bool = True,
) -> str:
    """The four-metric box table for one figure's dataset."""
    stats = {
        metric: metric_boxstats(dataset, metric, per_gpu_median)
        for metric in PAPER_METRICS
        if metric in dataset
    }
    return format_boxstats_table(stats, label_header="metric")


def grouped_box_art(
    grouped: dict[Any, BoxStats],
    width: int = 44,
    max_rows: int = 12,
) -> str:
    """ASCII box plots per group, on a shared axis (a text 'figure')."""
    lo = min(s.whisker_lo for s in grouped.values())
    hi = max(s.whisker_hi for s in grouped.values())
    if hi <= lo:
        hi = lo + 1.0
    lines = [f"axis: {lo:.1f} .. {hi:.1f}"]
    for label, stats in list(grouped.items())[:max_rows]:
        lines.append(f"{str(label):<14} {ascii_box_row(stats, lo, hi, width)}")
    if len(grouped) > max_rows:
        lines.append(f"... ({len(grouped) - max_rows} more groups)")
    return "\n".join(lines)


def boxvar(values: np.ndarray) -> float:
    """The paper's variation statistic of a raw sample."""
    return BoxStats.from_values(values).variation


def count_observer_reads(modules, run) -> int:
    """Call ``run()`` counting every hook read of the active observer.

    Every hook site reads :func:`repro.obs.observer.active_observer` once,
    so wrapping each instrumented module's reference to it counts the
    disabled-path hook executions of a real workload.
    """
    calls = 0

    def counting_active_observer():
        nonlocal calls
        calls += 1
        return active_observer()

    for module in modules:
        assert module.active_observer is active_observer, module.__name__
        module.active_observer = counting_active_observer
    try:
        run()
    finally:
        for module in modules:
            module.active_observer = active_observer
    return calls


def observer_read_cost(sink: str, n: int = 200_000) -> float:
    """Seconds per disabled hook read: ``active_observer().<sink>``."""
    started = time.perf_counter()
    for _ in range(n):
        getattr(active_observer(), sink)
    return (time.perf_counter() - started) / n


def interleaved_pairs(run_off, run_on, pairs):
    """Time ``pairs`` back-to-back (off, on) runs, alternating the order.

    ``run_off``/``run_on`` each return ``(result, seconds)``.  Returns the
    two lists of those tuples, one entry per pair.  Both sides of a pair
    run within one campaign's time of each other, so a host that speeds
    up or slows down between pairs moves both alike; alternating which
    side goes first cancels any warm-cache advantage of going second.
    """
    off, on = [], []
    for i in range(pairs):
        sides = [(run_off, off), (run_on, on)]
        for run, out in sides[::-1] if i % 2 else sides:
            out.append(run())
    return off, on


def median_pair_ratio(off, on) -> float:
    """Median of per-pair ``on / off`` wall-clock ratios.

    A noise burst lands in one pair and skews that pair's ratio only; the
    median over pairs discards it, where best-of-N per side compares two
    minima taken at different moments of a host whose speed drifts.
    """
    return float(np.median([b[1] / a[1] for a, b in zip(off, on)]))
