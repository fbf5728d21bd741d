"""Observability overhead: the cost of the hooks, on and off.

The observability layer (docs/OBSERVABILITY.md) promises:

1. **Zero perturbation** — the traced campaign's CSV text is
   byte-identical to the untraced one.  Asserted unconditionally.
2. **Unmeasurable overhead when disabled** — with no tracer active, each
   hook site is one ``active_observer()`` read (a thread-local attribute
   read) plus a ``None`` branch on its ``tracer``.  A wall-clock A/B cannot resolve that
   against scheduler noise, so this benchmark measures it directly:
   count the hook executions in a real untraced campaign (by wrapping
   each instrumented module's ``active_observer`` reference), microbench
   the per-call cost, and assert the product stays under
   ``MAX_DISABLED_OVERHEAD`` of the campaign wall clock.
3. **Bounded cost when enabled** — tracing is explicit opt-in, so the
   ceiling is looser (``MAX_TRACED_OVERHEAD``); this guards against a
   hot-loop ``add``/``record_span`` regression, not against the price of
   the spans themselves.

Timing assertions are skipped under ``REPRO_BENCH_CHECK_ONLY=1`` (CI
smoke on noisy shared runners); the equality assertion always runs.
Results land in ``BENCH_obs.json`` for cross-commit tracking.
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
from repro.cluster import cluster as cluster_mod
from repro.cluster import longhorn
from repro.gpu import dvfs as dvfs_mod
from repro.obs import Manifest, Tracer
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

#: Lenient regression guard for the opt-in enabled path.
MAX_TRACED_OVERHEAD = 0.15

#: Interleaved off/on pairs.  The opt-in overhead is the median of the
#: per-pair ratios, which stays put on a host whose speed drifts between
#: runs; the disabled-path denominator is the fastest untouched run.
PAIRS = 9

OUTPUT_PATH = pathlib.Path("BENCH_obs.json")

CONFIG = CampaignConfig(days=10, runs_per_day=2)

#: Every module whose hook sites read ``active_observer()`` for the tracer
#: (``run_campaign`` reads it once per campaign).
HOOK_MODULES = (campaign_mod, run_mod, engine_mod, dvfs_mod, cluster_mod)


def _timed_campaign(tracer=None, manifest=None):
    """One serial Longhorn campaign on a fresh cluster (cold fleet cache)."""
    cluster = longhorn(seed=2022)
    started = time.perf_counter()
    dataset = run_campaign(
        cluster, sgemm(), CONFIG, workers=1,
        tracer=tracer, manifest=manifest,
    )
    return dataset, time.perf_counter() - started


def test_observability_overhead():
    tracer = Tracer()

    def traced_campaign():
        tracer.spans.clear()
        tracer.counters.clear()
        return _timed_campaign(tracer=tracer)

    off, on = interleaved_pairs(_timed_campaign, traced_campaign, PAIRS)
    baseline_ds, baseline_s = off[-1][0], min(s for _, s in off)
    traced_ds = on[-1][0]
    traced_s = statistics.median(s for _, s in on)
    manifest_ds, _ = _timed_campaign(tracer=Tracer(), manifest=Manifest())

    # Guarantee 1: byte-identical output, observed or not.
    baseline_csv = dataset_to_csv_text(baseline_ds)
    assert dataset_to_csv_text(traced_ds) == baseline_csv
    assert dataset_to_csv_text(manifest_ds) == baseline_csv
    # ... and the tracer did actually observe the campaign.
    counters = tracer.deterministic_counters()
    assert counters["run.count"] == CONFIG.days * CONFIG.runs_per_day
    assert counters["campaign.rows"] == traced_ds.n_rows

    # Guarantee 2: the disabled path, measured directly.
    hook_calls = count_observer_reads(HOOK_MODULES, _timed_campaign)
    assert hook_calls > 0, "no hook sites executed — instrumentation gone?"
    hook_cost_s = hook_calls * observer_read_cost("tracer")
    disabled_overhead = hook_cost_s / baseline_s

    traced_overhead = median_pair_ratio(off, on) - 1.0
    emit(None, "Observability hooks: serial Longhorn campaign (10d x 2)", [
        (f"untraced fastest of {PAIRS}", "-", f"{baseline_s * 1e3:.1f} ms"),
        ("disabled hook executions", "-", f"{hook_calls}"),
        ("disabled-path cost", f"< {MAX_DISABLED_OVERHEAD:.0%}",
         f"{disabled_overhead:.3%}"),
        (f"traced median of {PAIRS}", "-", f"{traced_s * 1e3:.1f} ms"),
        ("traced overhead (opt-in, median pair)",
         f"< {MAX_TRACED_OVERHEAD:.0%}",
         f"{traced_overhead:+.2%}"),
        ("spans recorded", "-", f"{len(tracer.spans)}"),
    ])

    existing = {}
    if OUTPUT_PATH.exists():
        existing = json.loads(OUTPUT_PATH.read_text())
    existing["campaign_serial_longhorn"] = {
        "days": CONFIG.days,
        "runs_per_day": CONFIG.runs_per_day,
        "pairs": PAIRS,
        "untraced_s": baseline_s,
        "traced_s": traced_s,
        "hook_calls": hook_calls,
        "disabled_overhead": disabled_overhead,
        "traced_overhead": traced_overhead,
        "n_spans": len(tracer.spans),
        "check_only": CHECK_ONLY,
    }
    OUTPUT_PATH.write_text(json.dumps(existing, indent=2) + "\n")

    if not CHECK_ONLY:
        assert disabled_overhead < MAX_DISABLED_OVERHEAD, (
            f"disabled hooks cost {disabled_overhead:.3%} of the campaign "
            f"(ceiling {MAX_DISABLED_OVERHEAD:.0%})"
        )
        assert traced_overhead < MAX_TRACED_OVERHEAD, (
            f"tracing overhead {traced_overhead:.2%} exceeds the "
            f"{MAX_TRACED_OVERHEAD:.0%} regression guard"
        )
