"""Monitoring overhead: the cost of the metrics hooks, on and off.

The monitoring pipeline (repro.obs.metrics, docs/OBSERVABILITY.md) makes
the tracer's promises for its own hook sites:

1. **Zero perturbation** — the monitored campaign's CSV text is
   byte-identical to the unmonitored one.  Asserted unconditionally.
2. **Unmeasurable overhead when disabled** — with no monitor active, each
   hook site is one ``active_observer()`` read (a thread-local attribute
   read) plus a ``None`` branch on its ``monitor``.  A wall-clock A/B cannot resolve that
   against scheduler noise, so this benchmark measures it directly:
   count the hook executions in a real unmonitored campaign (by wrapping
   each instrumented module's ``active_observer`` reference), microbench
   the per-call cost, and assert the product stays under
   ``MAX_DISABLED_OVERHEAD`` of the campaign wall clock.
3. **Bounded cost when enabled** — monitoring is explicit opt-in, so the
   ceiling is much looser (``MAX_MONITORED_OVERHEAD``); this guards
   against a regression in the per-run ``FleetMonitor.observe_run`` hook
   or in ``finalize`` (which folds each fleet histogram once over the
   whole run stream), not against the real price of collecting samples.

Timing assertions are skipped under ``REPRO_BENCH_CHECK_ONLY=1`` (CI
smoke on noisy shared runners); the equality assertion always runs.
Results land in ``BENCH_monitor.json`` for cross-commit tracking.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time

from _bench_util import (
    count_observer_reads,
    emit,
    interleaved_pairs,
    median_pair_ratio,
    observer_read_cost,
)
from repro.cluster import longhorn
from repro.gpu import dvfs as dvfs_mod
from repro.obs.metrics import FleetMonitor
from repro.sim import CampaignConfig, run_campaign
from repro.sim import campaign as campaign_mod
from repro.sim import engine as engine_mod
from repro.sim import run as run_mod
from repro.telemetry.io import dataset_to_csv_text
from repro.workloads import sgemm

#: Skip timing assertions (equality always asserts) — for CI smoke runs.
CHECK_ONLY = os.environ.get("REPRO_BENCH_CHECK_ONLY") == "1"

#: Ceiling for the disabled path: hook executions x per-call cost.
MAX_DISABLED_OVERHEAD = 0.02

#: Lenient regression guard for the opt-in enabled path.  Enabled
#: monitoring keeps every run's samples and, at finalize, sets the gauges
#: and folds each fleet histogram once over the stream, which against this
#: deliberately tiny baseline campaign is a noticeable fraction — the
#: guard only catches gross regressions (a histogram fold per run again,
#: say), not the honest price of the feature.
MAX_MONITORED_OVERHEAD = 0.60

#: Interleaved off/on pairs.  The opt-in overhead is the median of the
#: per-pair ratios, which stays put on a host whose speed drifts between
#: runs; the disabled-path denominator is the fastest untouched run.
PAIRS = 9

OUTPUT_PATH = pathlib.Path("BENCH_monitor.json")

CONFIG = CampaignConfig(days=10, runs_per_day=2)

#: Every module whose hook sites read ``active_observer()`` for the monitor.
HOOK_MODULES = (campaign_mod, run_mod, engine_mod, dvfs_mod)


def _timed_campaign(monitor=None):
    """One serial Longhorn campaign on a fresh cluster (cold fleet cache)."""
    cluster = longhorn(seed=2022)
    started = time.perf_counter()
    dataset = run_campaign(
        cluster, sgemm(), CONFIG, workers=1, monitor=monitor,
    )
    return dataset, time.perf_counter() - started


def test_monitoring_overhead():
    def monitored_campaign():
        monitor = FleetMonitor()
        dataset, elapsed = _timed_campaign(monitor=monitor)
        return (dataset, monitor), elapsed

    off, on = interleaved_pairs(_timed_campaign, monitored_campaign, PAIRS)
    baseline_ds, baseline_s = off[-1][0], min(s for _, s in off)
    monitored_ds, monitor = on[-1][0]
    monitored_s = statistics.median(s for _, s in on)

    # Guarantee 1: byte-identical output, monitored or not.
    baseline_csv = dataset_to_csv_text(baseline_ds)
    assert dataset_to_csv_text(monitored_ds) == baseline_csv
    # ... and the monitor did actually observe the campaign.
    assert monitor.n_runs == CONFIG.days * CONFIG.runs_per_day
    assert monitor.registry.counter("monitor_gpu_samples_total") \
        == monitored_ds.n_rows
    assert monitor.registry.counter("solver_solves_total") > 0

    # Guarantee 2: the disabled path, measured directly.
    hook_calls = count_observer_reads(HOOK_MODULES, _timed_campaign)
    assert hook_calls > 0, "no hook sites executed — instrumentation gone?"
    hook_cost_s = hook_calls * observer_read_cost("monitor")
    disabled_overhead = hook_cost_s / baseline_s

    monitored_overhead = median_pair_ratio(off, on) - 1.0
    emit(None, "Monitoring hooks: serial Longhorn campaign (10d x 2)", [
        (f"unmonitored fastest of {PAIRS}", "-",
         f"{baseline_s * 1e3:.1f} ms"),
        ("disabled hook executions", "-", f"{hook_calls}"),
        ("disabled-path cost", f"< {MAX_DISABLED_OVERHEAD:.0%}",
         f"{disabled_overhead:.3%}"),
        (f"monitored median of {PAIRS}", "-",
         f"{monitored_s * 1e3:.1f} ms"),
        ("monitored overhead (opt-in, median pair)",
         f"< {MAX_MONITORED_OVERHEAD:.0%}",
         f"{monitored_overhead:+.2%}"),
        ("run samples collected", "-", f"{len(monitor.samples)}"),
    ])

    existing = {}
    if OUTPUT_PATH.exists():
        existing = json.loads(OUTPUT_PATH.read_text())
    existing["campaign_serial_longhorn"] = {
        "days": CONFIG.days,
        "runs_per_day": CONFIG.runs_per_day,
        "pairs": PAIRS,
        "unmonitored_s": baseline_s,
        "monitored_s": monitored_s,
        "hook_calls": hook_calls,
        "disabled_overhead": disabled_overhead,
        "monitored_overhead": monitored_overhead,
        "n_samples": len(monitor.samples),
        "check_only": CHECK_ONLY,
    }
    OUTPUT_PATH.write_text(json.dumps(existing, indent=2) + "\n")

    if not CHECK_ONLY:
        assert disabled_overhead < MAX_DISABLED_OVERHEAD, (
            f"disabled hooks cost {disabled_overhead:.3%} of the campaign "
            f"(ceiling {MAX_DISABLED_OVERHEAD:.0%})"
        )
        assert monitored_overhead < MAX_MONITORED_OVERHEAD, (
            f"monitoring overhead {monitored_overhead:.2%} exceeds the "
            f"{MAX_MONITORED_OVERHEAD:.0%} regression guard"
        )
