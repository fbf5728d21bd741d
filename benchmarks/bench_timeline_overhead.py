"""Flight-recorder overhead: the cost of the timeline hooks, on and off.

The timeline layer (docs/OBSERVABILITY.md, "Timeline & replay") makes the
same promises as the tracer and monitor, measured the same way as
``bench_obs_overhead.py``:

1. **Zero perturbation** — the recorded campaign's CSV text is
   byte-identical to the unrecorded one, and the recorded event stream
   is byte-identical across repeats.  Asserted unconditionally.
2. **Unmeasurable overhead when disabled** — with no recorder active,
   each hook site is one ``active_observer()`` read (a thread-local
   attribute read) plus a ``None`` branch on its ``recorder``.  A wall-clock A/B cannot
   resolve that against scheduler noise, so this benchmark measures it
   directly: count the hook executions in a real unrecorded campaign
   (by wrapping each instrumented module's ``active_observer``
   reference), microbench the per-call cost, and assert the product
   stays under ``MAX_DISABLED_OVERHEAD`` of the campaign wall clock.
3. **Bounded cost when enabled** — recording is explicit opt-in, so the
   ceiling is looser (``MAX_RECORDED_OVERHEAD``); this guards against a
   hot-loop ``record()`` regression, not the price of the events.

Timing assertions are skipped under ``REPRO_BENCH_CHECK_ONLY=1`` (CI
smoke on noisy shared runners); the equality assertions always run.
Results land in ``BENCH_timeline.json`` for cross-commit tracking.
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
from repro.obs import health as health_mod
from repro.obs.timeline import TimelineRecorder
from repro.sched import engine as sched_engine_mod
from repro.sim import CampaignConfig, run_campaign
from repro.sim import campaign as campaign_mod
from repro.sim import run as run_mod
from repro.telemetry.io import dataset_to_csv_text
from repro.workloads import sgemm

#: Skip timing assertions (equality always asserts) — for CI smoke runs.
CHECK_ONLY = os.environ.get("REPRO_BENCH_CHECK_ONLY") == "1"

#: Ceiling for the disabled path: hook executions x per-call cost.
MAX_DISABLED_OVERHEAD = 0.02

#: Lenient regression guard for the opt-in enabled path.
MAX_RECORDED_OVERHEAD = 0.15

#: Interleaved off/on pairs.  The opt-in overhead is the median of the
#: per-pair ratios, which stays put on a host whose speed drifts between
#: runs; the disabled-path denominator is the fastest untouched run.
PAIRS = 9

OUTPUT_PATH = pathlib.Path("BENCH_timeline.json")

CONFIG = CampaignConfig(days=10, runs_per_day=2)

#: Every module whose hook sites read ``active_observer()`` for the recorder.
HOOK_MODULES = (campaign_mod, run_mod, health_mod, sched_engine_mod)


def _timed_campaign(timeline=None):
    """One serial Longhorn campaign on a fresh cluster (cold fleet cache)."""
    cluster = longhorn(seed=2022)
    started = time.perf_counter()
    dataset = run_campaign(
        cluster, sgemm(), CONFIG, workers=1, timeline=timeline,
    )
    return dataset, time.perf_counter() - started


def test_timeline_overhead():
    def recorded_campaign():
        timeline = TimelineRecorder()
        dataset, elapsed = _timed_campaign(timeline=timeline)
        return (dataset, timeline), elapsed

    off, on = interleaved_pairs(_timed_campaign, recorded_campaign, PAIRS)
    baseline_ds, baseline_s = off[-1][0], min(s for _, s in off)
    recorded_ds, timeline = on[-1][0]
    recorded_s = statistics.median(s for _, s in on)
    digests = {recorder.digest() for (_, recorder), _ in on}

    # Guarantee 1: byte-identical output, recorded or not — and the
    # recorded stream itself is byte-stable across repeats.
    assert dataset_to_csv_text(recorded_ds) == dataset_to_csv_text(baseline_ds)
    assert len(digests) == 1, "timeline digest varied across repeats"
    # ... and the recorder did actually observe the campaign.
    run_events = [e for e in timeline.events() if e.kind == "run"]
    assert len(run_events) == CONFIG.days * CONFIG.runs_per_day
    assert timeline.events()[-1].kind == "campaign_end"

    # Guarantee 2: the disabled path, measured directly.
    hook_calls = count_observer_reads(HOOK_MODULES, _timed_campaign)
    assert hook_calls > 0, "no hook sites executed — instrumentation gone?"
    hook_cost_s = hook_calls * observer_read_cost("recorder")
    disabled_overhead = hook_cost_s / baseline_s

    recorded_overhead = median_pair_ratio(off, on) - 1.0
    emit(None, "Flight recorder hooks: serial Longhorn campaign (10d x 2)", [
        (f"unrecorded fastest of {PAIRS}", "-",
         f"{baseline_s * 1e3:.1f} ms"),
        ("disabled hook executions", "-", f"{hook_calls}"),
        ("disabled-path cost", f"< {MAX_DISABLED_OVERHEAD:.0%}",
         f"{disabled_overhead:.3%}"),
        (f"recorded median of {PAIRS}", "-", f"{recorded_s * 1e3:.1f} ms"),
        ("recorded overhead (opt-in, median pair)",
         f"< {MAX_RECORDED_OVERHEAD:.0%}",
         f"{recorded_overhead:+.2%}"),
        ("events recorded", "-", f"{timeline.n_events}"),
    ])

    existing = {}
    if OUTPUT_PATH.exists():
        existing = json.loads(OUTPUT_PATH.read_text())
    existing["campaign_serial_longhorn"] = {
        "days": CONFIG.days,
        "runs_per_day": CONFIG.runs_per_day,
        "pairs": PAIRS,
        "unrecorded_s": baseline_s,
        "recorded_s": recorded_s,
        "hook_calls": hook_calls,
        "disabled_overhead": disabled_overhead,
        "recorded_overhead": recorded_overhead,
        "n_events": timeline.n_events,
        "check_only": CHECK_ONLY,
    }
    OUTPUT_PATH.write_text(json.dumps(existing, indent=2) + "\n")

    if not CHECK_ONLY:
        assert disabled_overhead < MAX_DISABLED_OVERHEAD, (
            f"disabled hooks cost {disabled_overhead:.3%} of the campaign "
            f"(ceiling {MAX_DISABLED_OVERHEAD:.0%})"
        )
        assert recorded_overhead < MAX_RECORDED_OVERHEAD, (
            f"recording overhead {recorded_overhead:.2%} exceeds the "
            f"{MAX_RECORDED_OVERHEAD:.0%} regression guard"
        )
