"""Command-line interface: ``python -m repro <command>``.

The operator-facing entry points, mirroring how the paper's artifact is
driven from the shell:

``list``
    Inventory of cluster presets and workloads.
``characterize``
    Run a measurement campaign and print the full variability report
    (optionally archiving the raw measurements to CSV).
``monitor``
    Run a campaign with the streaming metrics pipeline and online health
    detection attached; print the fleet-health report and optionally write
    the Prometheus-style metrics dump, the health-event stream (JSONL), and
    the machine-readable health report (JSON).
``screen``
    Maintenance triage: flag outliers across one or more applications and
    print confirmed offenders.
``sweep``
    The Fig.-22 power-limit sweep on an admin-access cluster.
``project``
    Scaled-normal projection of a campaign's variability to a larger
    cluster (Section IV-D).
``sched``
    Batch-queue simulation: run a seeded job trace through the
    discrete-event queue engine under a placement policy and print the
    scheduling report (Section VII); ``--report`` / ``--events`` write the
    schema-validated JSON report and the byte-stable JSONL event log.
``chaos``
    Declarative fault injection (:mod:`repro.chaos`): run a named incident
    scenario end to end — injection, online health detection, health-aware
    scheduler reaction — against an automatically-run no-fault baseline
    and print the mitigation scorecard; ``--list`` shows the scenario
    catalog and ``--score`` writes the schema-validated scorecard JSON.
``serve``
    Boot the long-lived fleet service (:mod:`repro.service`): asyncio
    HTTP endpoints for the request verbs with request coalescing, a
    bounded response cache, and worker-pool backpressure.
``loadgen``
    Drive a seeded closed- or open-loop request mix at a running service
    (or ``--self-host`` one on an ephemeral port) and print/write the
    schema-validated latency report (:mod:`repro.loadgen`).
``replay``
    Forensics over a recorded flight-recorder timeline
    (:mod:`repro.obs.replay`): summarize the event stream, reconstruct
    fleet state at a logical timestamp (``--at``), filter by entity
    (``--grep``) or by layer (``--layer``), or re-derive the report
    digests from the log alone (``--check``).

Every subcommand accepts the same execution options — ``--seed``,
``--workers``, ``--trace PATH``, ``--manifest PATH`` and
``--timeline PATH`` — through one shared builder, so observability is
uniformly available: ``--trace`` writes a Chrome-trace JSON
(Perfetto-loadable; ``.jsonl`` suffix switches to JSON Lines events),
``--manifest`` writes the reproducibility-audit document, and
``--timeline`` records the unified flight-recorder event stream for later
``repro replay`` (see :mod:`repro.obs` and docs/OBSERVABILITY.md).  None of these flags changes any computed output:
results are bit-identical with or without them.

All commands delegate to the stable :mod:`repro.api` facade.  The five
campaign verbs assemble a typed request object
(:mod:`repro.api.requests`) and hand it to the facade — the exact same
deserialized object the HTTP service executes, so the CLI, Python, and
wire paths share one validated surface.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Sequence

from . import api
from .errors import ReproError

__all__ = ["main", "build_parser"]


class _PolicyNames:
    """The ``sched --policy`` choices, read from :mod:`repro.sched` on use.

    argparse only tests membership and lists the names in help and error
    text, so building the parser for any other command loads no scheduler.
    """

    def __contains__(self, name: object) -> bool:
        return name in api.POLICY_NAMES

    def __iter__(self):
        return iter(api.POLICY_NAMES)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU fleet variability characterization "
                    "(SC'22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list cluster presets and workloads")
    _add_execution_args(p)

    p = sub.add_parser("characterize",
                       help="campaign + full variability report")
    _add_cluster_args(p)
    _add_execution_args(p)
    p.add_argument("--workload", default="sgemm",
                   help="workload name (see `repro list`)")
    p.add_argument("--days", type=int, default=7)
    p.add_argument("--runs-per-day", type=int, default=1)
    p.add_argument("--coverage", type=float, default=1.0)
    p.add_argument("--csv", metavar="PATH",
                   help="archive raw measurements to (gzipped) CSV")

    p = sub.add_parser("monitor",
                       help="campaign with streaming metrics + health "
                            "detection")
    _add_cluster_args(p)
    _add_execution_args(p)
    p.add_argument("--workload", default="sgemm",
                   help="workload name (see `repro list`)")
    p.add_argument("--days", type=int, default=7)
    p.add_argument("--runs-per-day", type=int, default=1)
    p.add_argument("--coverage", type=float, default=1.0)
    p.add_argument("--window", type=int, default=4, metavar="RUNS",
                   help="sliding-window length (runs) for the health "
                        "detector")
    p.add_argument("--metrics", metavar="PATH", default=None,
                   help="write the Prometheus-style text exposition")
    p.add_argument("--events", metavar="PATH", default=None,
                   help="write the health-event stream as JSON Lines")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write the machine-readable health report JSON")
    p.add_argument("--csv", metavar="PATH",
                   help="archive raw measurements to (gzipped) CSV")

    p = sub.add_parser("screen", help="outlier triage across applications")
    _add_cluster_args(p)
    _add_execution_args(p)
    p.add_argument("--workloads", default="sgemm,resnet50",
                   help="comma-separated workload names")
    p.add_argument("--days", type=int, default=3)
    p.add_argument("--min-confirmations", type=int, default=2)

    p = sub.add_parser("sweep", help="power-limit sweep (admin clusters)")
    _add_cluster_args(p, default_cluster="cloudlab")
    _add_execution_args(p)
    p.add_argument("--limits", default="300,250,200,150,100",
                   help="comma-separated watt limits")
    p.add_argument("--runs", type=int, default=6)

    p = sub.add_parser("project",
                       help="project variability to a larger cluster")
    _add_cluster_args(p)
    _add_execution_args(p)
    p.add_argument("--target-n", type=int, required=True,
                   help="hypothetical cluster size (GPUs)")
    p.add_argument("--days", type=int, default=5)

    p = sub.add_parser("sched",
                       help="batch-queue simulation under a placement "
                            "policy (Section VII)")
    _add_cluster_args(p)
    _add_execution_args(p)
    p.add_argument("--policy", default="fifo", choices=_PolicyNames(),
                   metavar="POLICY",
                   help="placement policy: %(choices)s (aware policies "
                        "profile the fleet first)")
    p.add_argument("--jobs", type=int, default=100,
                   help="jobs in the generated trace")
    p.add_argument("--trace-seed", type=int, default=0,
                   help="job-trace seed (same seed = same offered load)")
    p.add_argument("--arrival-per-hour", type=float, default=120.0,
                   help="Poisson arrival rate (jobs/hour)")
    p.add_argument("--diurnal-amplitude", type=float, default=0.0,
                   help="within-day arrival-rate swing in [0,1) "
                        "(0 = time-homogeneous)")
    p.add_argument("--peak-hour", type=float, default=14.0,
                   help="hour of day at which the diurnal rate peaks")
    p.add_argument("--day-weights", default=None, metavar="W0,...,W6",
                   help="7 comma-separated Monday-first weekday rate "
                        "multipliers (e.g. quieter weekends)")
    p.add_argument("--power-budget-w", type=float, default=None,
                   help="fleet power budget for the energy-capped policy "
                        "(default: 60%% of the summed power caps)")
    p.add_argument("--profile-days", type=int, default=3,
                   help="characterization days behind the aware policies")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write the machine-readable scheduling report JSON")
    p.add_argument("--events", metavar="PATH", default=None,
                   help="write the canonical event log as JSON Lines")

    p = sub.add_parser("chaos",
                       help="fault injection: run an incident scenario "
                            "and print the mitigation scorecard")
    _add_cluster_args(p)
    _add_execution_args(p)
    p.add_argument("--scenario", default=None, metavar="NAME",
                   help="incident scenario from the catalog "
                        "(see --list)")
    p.add_argument("--list", action="store_true", dest="list_scenarios",
                   help="list the incident scenario catalog and exit")
    p.add_argument("--workload", default="sgemm",
                   help="workload name (see `repro list`)")
    p.add_argument("--days", type=int, default=10)
    p.add_argument("--runs-per-day", type=int, default=2)
    p.add_argument("--jobs", type=int, default=40,
                   help="jobs in the health-aware reaction trace")
    p.add_argument("--trace-seed", type=int, default=0,
                   help="job-trace seed for the reaction run")
    p.add_argument("--score", metavar="PATH", default=None,
                   help="write the schema-validated scorecard JSON")

    p = sub.add_parser("serve",
                       help="run the long-lived fleet service (HTTP)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="listen port (0 binds an ephemeral port)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="concurrent campaign executions")
    p.add_argument("--max-pending", type=int, default=8,
                   help="admitted-but-unfinished request bound "
                        "(beyond it: HTTP 429)")
    p.add_argument("--cache-entries", type=int, default=64,
                   help="response-cache FIFO bound")
    p.add_argument("--backend", default="thread",
                   choices=("thread", "process"),
                   help="worker-pool backend (see docs/SERVICE.md)")
    p.add_argument("--timeline", metavar="PATH", default=None,
                   help="stream service admission events to a "
                        "flight-recorder timeline file (JSON Lines)")

    p = sub.add_parser("loadgen",
                       help="seeded load generator against the service")
    p.add_argument("--url", default=None, metavar="http://HOST:PORT",
                   help="target service (mutually exclusive with "
                        "--self-host)")
    p.add_argument("--self-host", action="store_true",
                   help="boot an in-process service on an ephemeral port "
                        "for the duration of the run")
    p.add_argument("--mode", default="closed", choices=("closed", "open"))
    p.add_argument("--requests", type=int, default=32,
                   help="total requests offered")
    p.add_argument("--concurrency", type=int, default=8,
                   help="closed-loop worker count")
    p.add_argument("--rate", type=float, default=20.0,
                   help="open-loop arrival rate (requests/second)")
    p.add_argument("--seed", type=int, default=0,
                   help="load-plan seed (same seed = same request stream)")
    p.add_argument("--duplicate-fraction", type=float, default=0.75,
                   help="fraction of requests sharing one digest "
                        "(coalescing/cache exercise)")
    p.add_argument("--distinct", type=int, default=4,
                   help="distinct variant seeds for the rest of the mix")
    p.add_argument("--mix", default="characterize",
                   help="comma-separated endpoint kinds to mix")
    p.add_argument("--cluster", default="cloudlab",
                   help="cluster preset behind the generated requests")
    p.add_argument("--scale", type=float, default=0.5,
                   help="cluster scale of the generated requests")
    p.add_argument("--days", type=int, default=1,
                   help="campaign days of the generated requests")
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="per-request service-side deadline (seconds)")
    p.add_argument("--timeout", type=float, default=120.0, metavar="S",
                   help="client-side transport timeout per request")
    p.add_argument("--sweep", default=None, metavar="C1,C2,...",
                   help="run a closed-loop saturation sweep at these "
                        "concurrencies after the main run")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write the latency report JSON")

    p = sub.add_parser("replay",
                       help="forensics over a recorded flight-recorder "
                            "timeline")
    p.add_argument("timeline", metavar="PATH",
                   help="timeline file written with --timeline")
    p.add_argument("--at", type=int, default=None, metavar="SEQ",
                   help="reconstruct fleet state at this logical "
                        "timestamp (inclusive)")
    p.add_argument("--grep", default=None, metavar="TEXT",
                   help="print events whose entity or kind contains TEXT")
    p.add_argument("--layer", default=None, metavar="NAME",
                   help="print events of one timeline layer (campaign, "
                        "sim, health, sched, service, chaos)")
    p.add_argument("--check", action="store_true",
                   help="re-derive the recorded report digests from the "
                        "log alone; exit 1 on any mismatch")

    return parser


def _add_cluster_args(p: argparse.ArgumentParser,
                      default_cluster: str = "longhorn") -> None:
    p.add_argument("--cluster", default=default_cluster,
                   help="cluster preset name")
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink the cluster for quick looks (0-1]")


def _add_execution_args(p: argparse.ArgumentParser) -> None:
    """The shared execution/observability options every subcommand accepts."""
    p.add_argument("--seed", type=int, default=0,
                   help="master seed (same seed = same machine)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="campaign worker processes (results are "
                        "bit-identical to serial; default serial)")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write a Chrome-trace JSON of the execution "
                        "(open in ui.perfetto.dev; a .jsonl suffix writes "
                        "JSON Lines events instead)")
    p.add_argument("--manifest", metavar="PATH", default=None,
                   help="write the reproducibility-audit manifest JSON")
    p.add_argument("--timeline", metavar="PATH", default=None,
                   help="record the unified flight-recorder event stream "
                        "as JSON Lines (byte-identical at any worker "
                        "count; inspect with `repro replay`)")


class _ObsSession:
    """Per-invocation observability sinks built from the shared CLI flags.

    Collects into in-memory :class:`~repro.obs.Tracer` /
    :class:`~repro.obs.Manifest` objects during the command and writes the
    requested files in :meth:`finish` — after the command's own output, so
    traces of failed commands are never half-written.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.trace_path: str | None = getattr(args, "trace", None)
        self.manifest_path: str | None = getattr(args, "manifest", None)
        self.timeline_path: str | None = getattr(args, "timeline", None)
        self.tracer = api.Tracer() if self.trace_path else None
        self.manifest = api.Manifest() if self.manifest_path else None
        self.timeline = (
            api.TimelineRecorder() if self.timeline_path else None
        )

    def finish(self) -> None:
        if self.tracer is not None and self.trace_path is not None:
            if self.trace_path.endswith(".jsonl"):
                api.write_events_jsonl(self.tracer, self.trace_path)
            else:
                api.write_chrome_trace(self.tracer, self.trace_path)
            print(f"trace written to {self.trace_path} "
                  f"({len(self.tracer.spans)} spans)")
        if self.manifest is not None and self.manifest_path is not None:
            self.manifest.write(self.manifest_path)
            print(f"manifest written to {self.manifest_path} "
                  f"({len(self.manifest.campaigns)} campaign(s))")
        if self.timeline is not None and self.timeline_path is not None:
            n_events = api.write_timeline(self.timeline, self.timeline_path)
            print(f"timeline written to {self.timeline_path} "
                  f"({n_events} events)")


def _build_cluster(args: argparse.Namespace) -> "api.Cluster":
    return api.load_preset(args.cluster, seed=args.seed, scale=args.scale)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_list(args: argparse.Namespace) -> int:
    print("cluster presets:")
    for name in api.list_presets():
        cluster = api.load_preset(
            name, seed=args.seed, scale=0.05 if name == "Summit" else 1.0
        )
        cfg = cluster.config()
        print(f"  {name:<10} {cfg.gpu_name:<8} {cfg.cooling:<6} "
              f"{'(scaled preview)' if name == 'Summit' else f'{cfg.n_gpus} GPUs'}")
    print("\nworkloads:")
    for name in api.list_workloads():
        wl = api.load_workload(name)
        print(f"  {name:<14} {wl.n_gpus} GPU(s), metric "
              f"{wl.performance_metric}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    obs = _ObsSession(args)
    result = api.characterize(
        request=api.CharacterizeRequest(
            cluster=args.cluster,
            seed=args.seed,
            scale=args.scale,
            workload=args.workload,
            days=args.days,
            runs_per_day=args.runs_per_day,
            coverage=args.coverage,
            workers=args.workers,
        ),
        tracer=obs.tracer,
        manifest=obs.manifest,
        timeline=obs.timeline,
    )
    print(result.report.render())
    if args.csv:
        from .telemetry.io import write_csv

        write_csv(result.dataset, args.csv)
        print(f"\nraw measurements written to {args.csv} "
              f"({result.dataset.n_rows} rows)")
    obs.finish()
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    obs = _ObsSession(args)
    result = api.monitor_fleet(
        request=api.MonitorRequest(
            cluster=args.cluster,
            seed=args.seed,
            scale=args.scale,
            workload=args.workload,
            days=args.days,
            runs_per_day=args.runs_per_day,
            coverage=args.coverage,
            window=args.window,
            workers=args.workers,
        ),
        tracer=obs.tracer,
        manifest=obs.manifest,
        timeline=obs.timeline,
    )
    print(result.report.render())
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as sink:
            sink.write(api.render_prometheus(result.monitor))
        print(f"\nmetrics written to {args.metrics} "
              f"({len(result.monitor.registry.metric_names())} metrics)")
    if args.events:
        api.write_health_events(result.events, args.events)
        print(f"health events written to {args.events} "
              f"({len(result.events)} events)")
    if args.report:
        result.report.write_json(args.report)
        print(f"health report written to {args.report}")
    if args.csv:
        from .telemetry.io import write_csv

        write_csv(result.dataset, args.csv)
        print(f"raw measurements written to {args.csv} "
              f"({result.dataset.n_rows} rows)")
    obs.finish()
    return 0


def _cmd_screen(args: argparse.Namespace) -> int:
    obs = _ObsSession(args)
    report = api.screen(
        request=api.ScreenRequest(
            cluster=args.cluster,
            seed=args.seed,
            scale=args.scale,
            workloads=tuple(
                name.strip() for name in args.workloads.split(",")
            ),
            days=args.days,
            min_confirmations=args.min_confirmations,
            workers=args.workers,
        ),
        tracer=obs.tracer,
        manifest=obs.manifest,
        timeline=obs.timeline,
    )
    for item in report.screens:
        print(f"{item.workload:<18} {item.outliers.n_outlier_gpus:>3} "
              f"outlier GPUs on nodes {list(item.outliers.node_labels)[:6]}")
    print(f"\nconfirmed outliers ({args.min_confirmations}+ apps): "
          f"{sorted(report.confirmed) or 'none'}")
    obs.finish()
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    obs = _ObsSession(args)
    report = api.sweep(
        request=api.SweepRequest(
            cluster=args.cluster,
            seed=args.seed,
            scale=args.scale,
            power_limits_w=tuple(
                float(x) for x in args.limits.split(",")
            ),
            runs=args.runs,
            workers=args.workers,
        ),
        tracer=obs.tracer,
        manifest=obs.manifest,
        timeline=obs.timeline,
    )
    print(f"{'limit':>8} {'median':>10} {'variation':>10}")
    for point in report.points:
        print(f"{point.power_limit_w:>6.0f} W {point.stats.median:>8.0f} ms "
              f"{point.stats.variation:>9.1%}")
    obs.finish()
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    obs = _ObsSession(args)
    report = api.project(
        cluster=_build_cluster(args),
        target_n_gpus=args.target_n,
        config=api.CampaignConfig(days=args.days),
        workers=args.workers,
        tracer=obs.tracer,
        manifest=obs.manifest,
        timeline=obs.timeline,
    )
    print(f"measured on {report.cluster} ({report.n_gpus_measured} GPUs): "
          f"{report.measured_variation:.1%}")
    print(f"projected at {report.target_n_gpus} GPUs: "
          f"{report.projected_variation:.1%}")
    obs.finish()
    return 0


def _cmd_sched(args: argparse.Namespace) -> int:
    obs = _ObsSession(args)
    day_weights = (
        tuple(float(w) for w in args.day_weights.split(","))
        if args.day_weights
        else None
    )
    result = api.schedule(
        request=api.ScheduleRequest(
            cluster=args.cluster,
            seed=args.seed,
            scale=args.scale,
            policy=args.policy,
            n_jobs=args.jobs,
            trace_seed=args.trace_seed,
            arrival_rate_per_hour=args.arrival_per_hour,
            diurnal_amplitude=args.diurnal_amplitude,
            peak_hour=args.peak_hour,
            day_of_week_weights=day_weights,
            power_budget_w=args.power_budget_w,
            profile_days=args.profile_days,
            workers=args.workers,
        ),
        tracer=obs.tracer,
        manifest=obs.manifest,
        timeline=obs.timeline,
    )
    print(result.report.render())
    if args.report:
        result.report.write_json(args.report)
        print(f"scheduling report written to {args.report}")
    if args.events:
        api.write_event_log(result.outcome, args.events)
        print(f"event log written to {args.events} "
              f"({len(result.events)} events)")
    obs.finish()
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.list_scenarios:
        from .chaos import SCENARIOS

        print("incident scenarios:")
        for name in api.list_scenarios():
            print(f"  {name:<22} {SCENARIOS[name].description}")
        return 0
    if not args.scenario:
        print("error: pass --scenario NAME (or --list to see the catalog)",
              file=sys.stderr)
        return 2
    obs = _ObsSession(args)
    result = api.chaos(
        request=api.ChaosRequest(
            scenario=args.scenario,
            cluster=args.cluster,
            seed=args.seed,
            scale=args.scale,
            workload=args.workload,
            days=args.days,
            runs_per_day=args.runs_per_day,
            n_jobs=args.jobs,
            trace_seed=args.trace_seed,
            workers=args.workers,
        ),
        tracer=obs.tracer,
        manifest=obs.manifest,
        timeline=obs.timeline,
    )
    print(result.render())
    if args.score:
        with open(args.score, "w", encoding="utf-8") as sink:
            json.dump(result.scorecard, sink, indent=2, sort_keys=True)
            sink.write("\n")
        print(f"scorecard written to {args.score}")
    obs.finish()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import FleetService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        backend=args.backend,
        max_pending=args.max_pending,
        cache_entries=args.cache_entries,
        timeline_path=args.timeline,
    )
    service = FleetService(config)

    async def _serve() -> None:
        await service.start()
        # Flush immediately: CI and scripts wait for this line to know
        # the (possibly ephemeral) port is bound.
        print(f"repro service listening on "
              f"http://{config.host}:{service.port}", flush=True)
        await service.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nservice stopped")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .loadgen import (
        LoadGenConfig,
        run_loadgen,
        run_selfhosted,
        validate_latency_report,
    )

    if bool(args.url) == bool(args.self_host):
        print("error: pass exactly one of --url or --self-host",
              file=sys.stderr)
        return 2
    config = LoadGenConfig(
        mode=args.mode,
        n_requests=args.requests,
        concurrency=args.concurrency,
        rate_rps=args.rate,
        seed=args.seed,
        duplicate_fraction=args.duplicate_fraction,
        distinct=args.distinct,
        mix=tuple(kind.strip() for kind in args.mix.split(",")),
        cluster=args.cluster,
        scale=args.scale,
        days=args.days,
        deadline_s=args.deadline,
        timeout_s=args.timeout,
    )
    sweep = (
        tuple(int(c) for c in args.sweep.split(",")) if args.sweep else ()
    )
    if args.self_host:
        report = run_selfhosted(config, sweep_concurrencies=sweep)
    else:
        host, port = _parse_service_url(args.url)
        report = run_loadgen(config, host, port, sweep_concurrencies=sweep)
    validate_latency_report(report)
    latency = report["latency_ms"]
    coalescing = report["coalescing"]
    print(f"{report['ok_requests']}/{report['n_requests']} ok in "
          f"{report['duration_s']:.2f}s "
          f"({report['throughput_rps']:.1f} req/s)")
    print(f"latency ms: p50={latency['p50']:.1f} p95={latency['p95']:.1f} "
          f"p99={latency['p99']:.1f}")
    print(f"coalescing: {coalescing['campaigns']} campaign(s) served "
          f"{report['ok_requests']} requests "
          f"(hit rate {coalescing['hit_rate']:.0%})")
    if report.get("saturation"):
        print(f"saturation concurrency: "
              f"{report['saturation']['saturation_concurrency']}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as sink:
            json.dump(report, sink, indent=2, sort_keys=True)
            sink.write("\n")
        print(f"latency report written to {args.report}")
    return 0


def _parse_service_url(url: str) -> tuple[str, int]:
    """Extract (host, port) from an ``http://host:port`` service URL."""
    from .errors import ConfigError

    stripped = url.strip()
    if stripped.startswith("http://"):
        stripped = stripped[len("http://"):]
    stripped = stripped.rstrip("/")
    host, colon, port_text = stripped.partition(":")
    if not colon or not port_text.isdigit() or not host:
        raise ConfigError(
            f"--url must look like http://HOST:PORT, got {url!r}"
        )
    return host, int(port_text)


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        replayer = api.load_replayer(args.timeline)
    except (OSError, ValueError) as exc:  # TimelineError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.check:
        checks = replayer.check()
        for check in checks:
            print(check.render())
        if not checks:
            print("no summary events on the timeline; nothing to check")
        return 0 if all(check.ok for check in checks) else 1
    if args.grep is not None:
        matched = replayer.grep(args.grep)
        for event in matched:
            print(json.dumps(event.as_dict(), sort_keys=True))
        print(f"{len(matched)}/{len(replayer.events)} events matched "
              f"{args.grep!r}", file=sys.stderr)
        return 0
    if args.layer is not None:
        try:
            matched = replayer.layer(args.layer)
        except ValueError as exc:  # TimelineError: unknown layer name
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for event in matched:
            print(json.dumps(event.as_dict(), sort_keys=True))
        print(f"{len(matched)}/{len(replayer.events)} events on layer "
              f"{args.layer!r}", file=sys.stderr)
        return 0
    if args.at is not None:
        print(json.dumps(replayer.state_at(args.at), indent=2,
                         sort_keys=True))
        return 0
    print(json.dumps(replayer.summarize(), indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "characterize": _cmd_characterize,
    "monitor": _cmd_monitor,
    "screen": _cmd_screen,
    "sweep": _cmd_sweep,
    "project": _cmd_project,
    "sched": _cmd_sched,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "replay": _cmd_replay,
}
