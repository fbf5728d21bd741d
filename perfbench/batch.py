"""The three batch workloads: a closed loop of one CLI-style client.

Every op exists twice:

* the *facade op* — what a user runs: one ``repro.api`` verb plus the
  output text the CLI would write.  End-to-end runs time only these;
* the *decomposed op* — the same work spelled out as calls into each
  layer's public functions, each wrapped in a span, with the functions the
  facade calls internally wrapped from outside (:func:`internal_targets`).
  Traced runs make every op both ways, back to back; both must produce the
  same output bytes.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Iterator

import repro.api as api
from repro.core import VariabilitySuite
from repro.core import suite as core_suite
from repro.gpu.dvfs import DvfsController
from repro.obs import activate
from repro.sched import engine as sched_engine
from repro.sched.engine import event_log_lines
from repro.service import wire
from repro.telemetry.dataset import MeasurementDataset
from repro.telemetry.io import dataset_to_csv_text

from common import WORK_CPU, Calibration, digest, load_expected, measure_setup
from common import mean, median, peak_rss_mb_self, pin
from tracing import SpanRecorder

#: Tracer counters reported per op, by benchmark metric name.
TRACER_COUNTERS = {
    "sim.gpu_runs": "campaign.rows",
    "gpu.solver.solves": "solver.solves",
    "gpu.solver.batches": "solver.batches",
    "gpu.solver.columns_evaluated": "solver.columns_evaluated",
    "gpu.solver.fixed_point_iterations": "solver.fixed_point_iterations",
    "sched.dispatch_attempts": "sched.dispatch_attempts",
    "sched.price_batches": "sched.price_batches",
}


@dataclass
class OpOutput:
    """What one op produced: the output text and its size in work items."""

    parts: tuple[str, ...]
    work: int
    counts: dict[str, float] = field(default_factory=dict)


def internal_targets() -> list[tuple]:
    """Functions the facade calls internally, wrapped from outside."""
    return [
        (DvfsController, "solve_steady", "gpu.solve"),
        (MeasurementDataset, "per_gpu_median", "telemetry.per_gpu_median"),
        (api.FleetMonitor, "finalize", "obs.metrics"),
        (sched_engine, "sample_job_runtimes", "sim.job.price",
         lambda args, kwargs: len(args[1])),
        (core_suite, "variability_table", "core.variability_table"),
        (core_suite, "paper_correlation_pairs", "core.correlation"),
        (core_suite, "flag_outlier_gpus", "core.outliers"),
        (core_suite, "worst_performers", "core.worst_performers"),
        (core_suite, "slow_assignment_probability", "core.slow_assignment"),
        (core_suite, "render_cluster_report", "core.render"),
        (wire, "dataset_to_csv_text", "telemetry.csv"),
    ]


# ---------------------------------------------------------------------------
# characterize-summit
# ---------------------------------------------------------------------------


def characterize_request(seed: int) -> api.CharacterizeRequest:
    return api.CharacterizeRequest(
        cluster="Summit", scale=0.25, days=2, seed=seed
    )


def characterize_facade(request) -> OpOutput:
    result = api.characterize(request=request)
    return OpOutput(
        (result.report.render(), dataset_to_csv_text(result.dataset)),
        result.dataset.n_rows,
    )


def characterize_result(request, rec: SpanRecorder, tracer: api.Tracer):
    """``api.characterize(request=...)`` spelled out layer by layer."""
    with rec.span("cluster.load_preset"):
        cluster = api.load_preset(
            request.cluster, seed=request.seed, scale=request.scale
        )
    workload = api.load_workload(request.workload)
    config = api.CampaignConfig(
        days=request.days,
        runs_per_day=request.runs_per_day,
        coverage=request.coverage,
        power_limit_w=request.power_limit_w,
    )
    with rec.span("sim.campaign"):
        dataset = api.run_campaign(
            cluster=cluster, workload=workload, config=config,
            workers=request.workers, tracer=tracer,
        )
    with rec.span("core.analyze"):
        report = VariabilitySuite(
            cluster, config, workers=request.workers
        ).analyze(dataset)
    return api.CharacterizationResult(report=report, dataset=dataset)


def characterize_decomposed(request, rec, tracer) -> OpOutput:
    result = characterize_result(request, rec, tracer)
    report_text = result.report.render()
    with rec.span("telemetry.csv"):
        csv_text = dataset_to_csv_text(result.dataset)
    return OpOutput(
        (report_text, csv_text),
        result.dataset.n_rows,
        {"telemetry.csv_bytes": len(csv_text)},
    )


# ---------------------------------------------------------------------------
# monitor-longhorn
# ---------------------------------------------------------------------------


def monitor_request(seed: int) -> api.MonitorRequest:
    return api.MonitorRequest(
        cluster="longhorn", days=28, runs_per_day=4, seed=seed
    )


def _monitor_parts(report, monitor) -> tuple[str, str, str]:
    return (
        report.render(),
        json.dumps(report.to_dict(), sort_keys=True),
        api.render_prometheus(monitor),
    )


def monitor_facade(request) -> OpOutput:
    result = api.monitor_fleet(request=request)
    return OpOutput(
        _monitor_parts(result.report, result.monitor), result.dataset.n_rows
    )


def monitor_decomposed(request, rec, tracer) -> OpOutput:
    with rec.span("cluster.load_preset"):
        cluster = api.load_preset(
            request.cluster, seed=request.seed, scale=request.scale
        )
    workload = api.load_workload(request.workload)
    config = api.CampaignConfig(
        days=request.days,
        runs_per_day=request.runs_per_day,
        coverage=request.coverage,
    )
    policy = api.HealthPolicy(window_runs=request.window)
    monitor = api.FleetMonitor(api.MonitorConfig(window_runs=request.window))
    with rec.span("sim.campaign"):
        dataset = api.run_campaign(
            cluster=cluster, workload=workload, config=config,
            workers=request.workers, monitor=monitor, tracer=tracer,
        )
    with rec.span("obs.health"):
        tracker, report = api.analyze_fleet_health(
            monitor, cluster.topology, policy=policy
        )
        text = report.render()
        health_json = json.dumps(report.to_dict(), sort_keys=True)
    with rec.span("obs.prometheus"):
        prometheus = api.render_prometheus(monitor)
    return OpOutput(
        (text, health_json, prometheus),
        dataset.n_rows,
        {"obs.health_events": len(tracker.events)},
    )


# ---------------------------------------------------------------------------
# sched-summit
# ---------------------------------------------------------------------------


def sched_request(seed: int) -> api.ScheduleRequest:
    return api.ScheduleRequest(
        cluster="Summit", scale=0.25, policy="variability-aware",
        n_jobs=1500, arrival_rate_per_hour=2000, profile_days=1,
        seed=seed, trace_seed=seed,
    )


def _sched_parts(report, outcome) -> tuple[str, str]:
    return report.to_json(), "\n".join(event_log_lines(outcome.events))


def sched_facade(request) -> OpOutput:
    result = api.schedule(request=request)
    return OpOutput(
        _sched_parts(result.report, result.outcome), len(result.records)
    )


def sched_decomposed(request, rec, tracer) -> OpOutput:
    """``api.schedule`` for the variability-aware policy, layer by layer."""
    if request.policy != "variability-aware":
        raise ValueError("the decomposed op covers variability-aware only")
    with rec.span("cluster.load_preset"):
        cluster = api.load_preset(
            request.cluster, seed=request.seed, scale=request.scale
        )
    trace_config = api.TraceConfig(
        n_jobs=request.n_jobs,
        arrival_rate_per_hour=request.arrival_rate_per_hour,
        seed=request.trace_seed,
        diurnal_amplitude=request.diurnal_amplitude,
        peak_hour=request.peak_hour,
        day_of_week_weights=request.day_of_week_weights,
    )
    with rec.span("sched.generate_trace"):
        jobs = api.generate_trace(trace_config)
    with rec.span("sim.campaign"):
        profile = api.run_campaign(
            cluster=cluster,
            workload=api.load_workload("sgemm"),
            config=api.CampaignConfig(days=request.profile_days),
            workers=request.workers,
            tracer=tracer,
        )
    with rec.span("core.node_scores"):
        scores = api.node_variability_scores(dataset=profile)
    fallback = max(scores.values())
    policy = api.VariabilityAwarePolicy(
        [scores.get(label, fallback) for label in cluster.topology.node_labels]
    )
    with rec.span("sched.run_schedule"), activate(tracer):
        outcome = api.run_schedule(cluster, jobs, policy, engine=request.engine)
    with rec.span("sched.report"):
        report = api.build_scheduling_report(
            cluster.name, outcome, policy.describe(),
            cluster.topology.n_gpus, trace_seed=request.trace_seed,
        )
        parts = _sched_parts(report, outcome)
    return OpOutput(parts, len(outcome.records))


# ---------------------------------------------------------------------------
# workload table and runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    cluster: str
    scale: float
    #: Op seeds are ``range(pool)``, each with a recorded digest.  Ops of
    #: one workload differ in cost by up to half, so every run times the
    #: whole pool at least once: the pool is sized so that a run times
    #: each seed about twice.
    pool: int
    request: Callable
    facade: Callable
    decomposed: Callable


BATCH_WORKLOADS = {
    w.name: w
    for w in (
        BatchWorkload("characterize-summit", "Summit", 0.25, 4,
                      characterize_request, characterize_facade,
                      characterize_decomposed),
        BatchWorkload("monitor-longhorn", "longhorn", 1.0, 8,
                      monitor_request, monitor_facade, monitor_decomposed),
        BatchWorkload("sched-summit", "Summit", 0.25, 4,
                      sched_request, sched_facade, sched_decomposed),
    )
}


def op_seeds(workload: BatchWorkload, seed: int) -> Iterator[int]:
    """The run's fixed op sequence: a seeded permutation of the pool, cycled.

    The first op is the warm-up; a run then takes at least one whole cycle
    and goes on until its seconds are spent.
    """
    order = random.Random(seed).sample(range(workload.pool), workload.pool)
    return itertools.cycle(order)


def _timed(fn, *args) -> tuple[OpOutput | None, float]:
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception:  # an op failure is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        return None, time.perf_counter() - t0
    return out, time.perf_counter() - t0


def run_batch(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one batch workload; returns the benchmark result fields."""
    workload = BATCH_WORKLOADS[name]
    expected = load_expected()[name]
    pin(WORK_CPU)
    seeds = op_seeds(workload, seed)
    first = next(seeds)
    attempted = failed = 0

    def check(op_seed: int, out: OpOutput | None) -> bool:
        nonlocal attempted, failed
        attempted += 1
        ok = out is not None and digest(*out.parts) == expected.get(
            str(op_seed)
        )
        if not ok:
            failed += 1
            print(f"op seed {op_seed}: output mismatch", file=sys.stderr)
        return ok

    with Calibration() as calibration:
        setup = measure_setup(workload.cluster, first, workload.scale,
                              calibration)
        warm, _ = _timed(workload.facade, workload.request(first))
        check(first, warm)
        if trace:
            layer, rec = traced_cycle(workload, seeds, check)
            layer["setup.import_ms"] = setup["setup.import_ms"]
            layer["setup.preset_ms"] = setup["setup.preset_ms"]
            return {"attempted": attempted, "failed": failed,
                    "layers": layer, "spans": rec}
        timed = timed_loop(workload, seeds, seconds, calibration, check)

    times, scaled, work, best = timed
    latency = mean(list(best.values()))
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "latency_ms": (latency * 1e3, "ms"),
        "throughput_per_s": (sum(work) / sum(scaled) if scaled else 0.0,
                             "1/s"),
        "peak_rss_mb": (peak_rss_mb_self(), "MB"),
    }
    info = {
        "setup_raw_median_s": setup["setup_raw_median_s"],
        "setup_raw_min_s": setup["setup_raw_min_s"],
        "ops_timed": len(times),
        "work_per_op": mean(work),
        "latency_p50_raw_ms": median(times) * 1e3 if times else 0.0,
        "seed_best_ms": {k: round(v * 1e3, 3) for k, v in sorted(best.items())},
        "op_ms": [round(t * 1e3, 3) for t in times],
        "op_reference_ms": [round(t * 1e3, 3) for t in scaled],
    }
    return {"attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


def timed_loop(workload: BatchWorkload, seeds: Iterator[int], seconds: float,
               calibration: Calibration, check):
    """Facade ops until ``seconds`` are spent and every pool seed has run.

    Returns raw and scaled op times, work per op, and each seed's fastest
    scaled time: latency is their mean, so every input of the pool counts
    once whatever its cost, and a spike in one op is filtered out.
    """
    ops = []
    deadline = time.perf_counter() + seconds
    for index, op_seed in enumerate(seeds):
        if index >= workload.pool and time.perf_counter() >= deadline:
            break
        t0 = time.perf_counter()
        out, _ = _timed(workload.facade, workload.request(op_seed))
        t1 = time.perf_counter()
        if check(op_seed, out):
            ops.append((op_seed, t0, t1, out.work))
    times = [t1 - t0 for _, t0, t1, _ in ops]
    scaled = [calibration.scaled(t0, t1) for _, t0, t1, _ in ops]
    best: dict[int, float] = {}
    for (op_seed, *_), at_reference in zip(ops, scaled):
        best[op_seed] = min(best.get(op_seed, at_reference), at_reference)
    return times, scaled, [op[3] for op in ops], best


def traced_cycle(workload: BatchWorkload, seeds: Iterator[int], check):
    """One cycle of the pool, each op both as facade and decomposed.

    The two runs of an op are back to back, in alternating order, so the
    tracing overhead compares the same inputs at the same host speed.
    """
    rec = SpanRecorder()
    untraced, traced = [], []
    counts: dict[str, float] = {}
    for index, op_seed in enumerate(itertools.islice(seeds, workload.pool)):
        request = workload.request(op_seed)
        for traced_turn in ((False, True) if index % 2 else (True, False)):
            if not traced_turn:
                out, dt = _timed(workload.facade, request)
                if check(op_seed, out):
                    untraced.append(dt)
                continue
            out, dt, tracer = traced_op(rec, index, workload.decomposed,
                                        request)
            if check(op_seed, out):
                traced.append(dt)
                add_counts(counts, out, tracer)
    layer = layer_metrics(rec, counts, len(traced))
    layer.update(overhead_metrics(untraced, traced))
    return layer, rec


def traced_op(rec: SpanRecorder, op_id: int, decomposed, request):
    """Run one decomposed op under spans, patches and an active tracer."""
    tracer = api.Tracer()
    rec.op = op_id

    def run():
        with rec.patched(internal_targets()), rec.span("op"):
            return decomposed(request, rec, tracer)

    out, dt = _timed(run)
    rec.op = None
    return out, dt, tracer


def add_counts(counts: dict[str, float], out: OpOutput, tracer) -> None:
    """Accumulate one traced op's work counts."""
    for key, value in out.counts.items():
        counts[key] = counts.get(key, 0) + value
    for key, counter in TRACER_COUNTERS.items():
        counts[key] = counts.get(key, 0) + tracer.counters.get(counter, 0)


def overhead_metrics(untraced: list[float], traced: list[float]) -> dict:
    """Traced vs untraced mean op time over the same ops."""
    untraced_ms = mean(untraced) * 1e3
    traced_ms = mean(traced) * 1e3
    return {
        "trace.untraced_op_ms": untraced_ms,
        "trace.overhead_pct": (
            (traced_ms / untraced_ms - 1.0) * 100.0 if untraced_ms else 0.0
        ),
    }


def layer_metrics(
    rec: SpanRecorder, counts: dict[str, float], n_ops: int
) -> dict[str, float]:
    """Per-op means: self time of every span name, and every work count."""
    n_ops = max(1, n_ops)
    out = {key: value / n_ops for key, value in counts.items()}
    for name, value in rec.counts.items():
        out[f"{name}.items"] = value / n_ops
    for name, entry in rec.layer_totals().items():
        if name == "op":
            out["trace.op_ms"] = entry["total_s"] * 1e3 / n_ops
            out["trace.unattributed_ms"] = entry["self_s"] * 1e3 / n_ops
        else:
            out[f"{name}_ms"] = entry["self_s"] * 1e3 / n_ops
        out[f"{name}.calls"] = entry["calls"] / n_ops
    return out
