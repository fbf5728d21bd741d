"""Seeded closed/open-loop load generation against the fleet service.

The harness the acceptance numbers come from: drive a mixed, seeded
request stream at a running :class:`~repro.service.server.FleetService`
and emit a schema-validated latency report (p50/p95/p99, throughput,
coalescing hit rate, optional saturation sweep).

Two loop disciplines, both standard in serving papers:

* **closed loop** — ``concurrency`` workers each keep exactly one request
  outstanding; offered load adapts to service speed (measures capacity);
* **open loop** — requests fire at seeded exponential inter-arrivals at
  ``rate_rps`` regardless of completions (measures tail latency under a
  fixed offered load, the discipline that actually exposes queueing).

Everything random — the endpoint mix, the duplicate/distinct draw, the
inter-arrival times — derives from :class:`repro.rng.RngFactory`
streams keyed off ``seed``, so a load-generator run is replayable: the
same seed offers byte-identical request bodies in the same order.

``duplicate_fraction`` is the coalescing lever: duplicates all map to
variant 0 (one digest), the rest spread across ``distinct`` variant
seeds.  On a duplicate-heavy mix the service must execute at least 2×
fewer campaigns than it answers requests — the report's ``coalescing``
section is the client-side proof (campaigns == responses whose
``X-Repro-Cache`` header says ``miss``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from ..api.requests import (
    REQUEST_KINDS,
    CharacterizeRequest,
    MonitorRequest,
    ScheduleRequest,
    ScreenRequest,
    SweepRequest,
)
from ..config import config_to_dict, require, require_in_range
from ..errors import ServiceError
from ..rng import RngFactory
from .client import HttpReply, http_request

__all__ = [
    "LATENCY_REPORT_SCHEMA_VERSION",
    "LoadGenConfig",
    "plan_requests",
    "run_loadgen",
    "run_loadgen_async",
    "run_selfhosted",
    "validate_latency_report",
]

#: Version stamp of the latency-report schema below.
LATENCY_REPORT_SCHEMA_VERSION = 1

_MODES = ("closed", "open")


@dataclass(frozen=True)
class LoadGenConfig:
    """One load-generator run, fully determined by its fields.

    Parameters
    ----------
    mode:
        ``"closed"`` (worker loop) or ``"open"`` (timed arrivals).
    n_requests:
        Total requests offered.
    concurrency:
        Closed-loop worker count (ignored in open mode).
    rate_rps:
        Open-loop offered arrival rate (ignored in closed mode).
    seed:
        Root of every RNG stream in the run.
    duplicate_fraction:
        Probability a request is the canonical variant 0 — the knob that
        makes a mix duplicate-heavy (coalescing/cache exercise) or
        distinct-heavy (capacity exercise).
    distinct:
        How many distinct variant seeds non-duplicate requests spread
        over.
    mix:
        Endpoint kinds to draw from, uniformly.
    cluster / scale / days:
        Shape of the underlying campaigns (kept small by default so a
        smoke run completes in seconds).
    deadline_s:
        Per-request service-side deadline forwarded in the request body.
    timeout_s:
        Client-side transport timeout per request.
    """

    mode: str = "closed"
    n_requests: int = 32
    concurrency: int = 8
    rate_rps: float = 20.0
    seed: int = 0
    duplicate_fraction: float = 0.75
    distinct: int = 4
    mix: tuple[str, ...] = ("characterize",)
    cluster: str = "cloudlab"
    scale: float = 0.5
    days: int = 1
    deadline_s: float | None = None
    timeout_s: float = 120.0

    def __post_init__(self) -> None:
        require(self.mode in _MODES, f"mode must be one of {_MODES}, got {self.mode!r}")
        require(self.n_requests >= 1, f"n_requests must be >= 1, got {self.n_requests}")
        require(self.concurrency >= 1, f"concurrency must be >= 1, got {self.concurrency}")
        require(self.rate_rps > 0, f"rate_rps must be > 0, got {self.rate_rps}")
        require_in_range(self.duplicate_fraction, 0.0, 1.0, "duplicate_fraction")
        require(self.distinct >= 1, f"distinct must be >= 1, got {self.distinct}")
        require(len(self.mix) >= 1, "mix must name at least one endpoint")
        for kind in self.mix:
            require(
                kind in REQUEST_KINDS,
                f"mix entry {kind!r} is not a service verb "
                f"(choose from {sorted(REQUEST_KINDS)})",
            )
        require(self.timeout_s > 0, f"timeout_s must be > 0, got {self.timeout_s}")


def _build_request(kind: str, variant: int, config: LoadGenConfig):
    """The request object for one (kind, variant) draw — tiny campaigns."""
    common = dict(
        cluster=config.cluster,
        seed=variant,
        scale=config.scale,
        deadline_s=config.deadline_s,
    )
    if kind == "characterize":
        return CharacterizeRequest(days=config.days, **common)
    if kind == "monitor":
        return MonitorRequest(days=config.days, **common)
    if kind == "screen":
        return ScreenRequest(days=config.days, **common)
    if kind == "sweep":
        return SweepRequest(runs=2, power_limits_w=(250.0, 150.0), **common)
    return ScheduleRequest(
        n_jobs=20, trace_seed=variant, profile_days=1, **common
    )


def plan_requests(config: LoadGenConfig) -> list:
    """The run's full request sequence — a pure function of the config.

    Separated from the drivers so tests can assert replayability (same
    seed, same plan) without touching a socket.
    """
    rng = RngFactory(config.seed).generator("loadgen-plan")
    plan = []
    for _ in range(config.n_requests):
        kind = config.mix[int(rng.integers(len(config.mix)))]
        if float(rng.random()) < config.duplicate_fraction:
            variant = 0
        else:
            variant = int(rng.integers(config.distinct))
        plan.append(_build_request(kind, variant, config))
    return plan


class _Outcome:
    """One request's measured result (status, cache header, latency)."""

    __slots__ = ("kind", "status", "cache", "latency_s", "error")

    def __init__(
        self,
        kind: str,
        status: int | None,
        cache: str | None,
        latency_s: float,
        error: str | None,
    ) -> None:
        self.kind = kind
        self.status = status
        self.cache = cache
        self.latency_s = latency_s
        self.error = error


async def _fire(
    host: str, port: int, request, timeout_s: float, due: float | None = None
) -> _Outcome:
    """Send one request and fold the reply into an :class:`_Outcome`.

    Latency runs from ``due``, the ``time.perf_counter()`` instant the
    request was scheduled to go out, when given (open loop), else from the
    send (closed loop).
    """
    body = request.to_json().encode("utf-8")
    started = time.perf_counter() if due is None else due
    try:
        reply: HttpReply = await http_request(
            host, port, "POST", f"/v1/{request.kind}", body, timeout_s
        )
    except ServiceError as exc:
        return _Outcome(
            request.kind, None, None, time.perf_counter() - started, str(exc)
        )
    return _Outcome(
        request.kind,
        reply.status,
        reply.headers.get("x-repro-cache"),
        time.perf_counter() - started,
        None,
    )


async def _drive_closed(
    host: str, port: int, plan: list, config: LoadGenConfig
) -> list[_Outcome]:
    """Closed loop: ``concurrency`` workers drain the plan in order."""
    queue: asyncio.Queue = asyncio.Queue()
    for item in plan:
        queue.put_nowait(item)
    outcomes: list[_Outcome] = []

    async def worker() -> None:
        while True:
            try:
                request = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            outcomes.append(
                await _fire(host, port, request, config.timeout_s)
            )

    await asyncio.gather(
        *(worker() for _ in range(min(config.concurrency, len(plan))))
    )
    return outcomes


async def _drive_open(
    host: str, port: int, plan: list, config: LoadGenConfig
) -> list[_Outcome]:
    """Open loop: fire at seeded exponential inter-arrivals, don't wait.

    Each request is timed from its due time, ``start + offset``, not from
    when the generator got round to sending it: a stalled generator (a
    blocked event loop, a late timer) delays the send, and that wait is
    part of what a user arriving on schedule would see.  Timing from the
    send would hide it (coordinated omission).
    """
    rng = RngFactory(config.seed).generator("loadgen-arrivals")
    offsets = np.cumsum(rng.exponential(1.0 / config.rate_rps, len(plan)))
    start = time.perf_counter()

    async def timed(request, offset: float) -> _Outcome:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        return await _fire(host, port, request, config.timeout_s, due)

    return list(
        await asyncio.gather(
            *(timed(req, float(off)) for req, off in zip(plan, offsets))
        )
    )


def _percentile_ms(latencies_s: list[float], q: float) -> float:
    """A latency percentile in milliseconds (0.0 for an empty run)."""
    if not latencies_s:
        return 0.0
    return float(np.percentile(np.asarray(latencies_s), q) * 1000.0)


def _build_report(
    config: LoadGenConfig, outcomes: list[_Outcome], duration_s: float
) -> dict:
    """Fold per-request outcomes into the latency-report dict."""
    ok = [o for o in outcomes if o.status == 200]
    latencies = [o.latency_s for o in ok]
    status_counts: dict[str, int] = {}
    cache_counts = {"hit": 0, "coalesced": 0, "miss": 0}
    for outcome in outcomes:
        key = "error" if outcome.status is None else str(outcome.status)
        status_counts[key] = status_counts.get(key, 0) + 1
        if outcome.cache in cache_counts:
            cache_counts[outcome.cache] += 1
    campaigns = cache_counts["miss"]
    duplicates = cache_counts["hit"] + cache_counts["coalesced"]
    return {
        "schema_version": LATENCY_REPORT_SCHEMA_VERSION,
        "config": config_to_dict(config),
        "n_requests": len(outcomes),
        "ok_requests": len(ok),
        "error_requests": len(outcomes) - len(ok),
        "status_counts": dict(sorted(status_counts.items())),
        "cache_status_counts": cache_counts,
        "latency_ms": {
            "p50": _percentile_ms(latencies, 50),
            "p95": _percentile_ms(latencies, 95),
            "p99": _percentile_ms(latencies, 99),
            "mean": float(np.mean(latencies) * 1000.0) if latencies else 0.0,
            "max": float(np.max(latencies) * 1000.0) if latencies else 0.0,
        },
        "duration_s": duration_s,
        "throughput_rps": len(ok) / duration_s if duration_s > 0 else 0.0,
        "coalescing": {
            "campaigns": campaigns,
            "duplicate_requests": duplicates,
            "hit_rate": duplicates / len(ok) if ok else 0.0,
        },
        "saturation": None,
    }


async def run_loadgen_async(
    config: LoadGenConfig,
    host: str,
    port: int,
    sweep_concurrencies: tuple[int, ...] = (),
) -> dict:
    """Drive one load-generator run against ``host:port``; return the report.

    With ``sweep_concurrencies``, additionally runs a closed-loop
    concurrency ladder afterwards and fills the report's ``saturation``
    section: offered concurrency vs achieved throughput, plus the knee
    (first rung whose throughput gain over the previous rung is < 10%,
    or that sees 429s).
    """
    plan = plan_requests(config)
    started = time.perf_counter()
    if config.mode == "closed":
        outcomes = await _drive_closed(host, port, plan, config)
    else:
        outcomes = await _drive_open(host, port, plan, config)
    report = _build_report(config, outcomes, time.perf_counter() - started)
    if sweep_concurrencies:
        report["saturation"] = await _saturation_sweep(
            host, port, config, sweep_concurrencies
        )
    return report


async def _saturation_sweep(
    host: str,
    port: int,
    config: LoadGenConfig,
    concurrencies: tuple[int, ...],
) -> dict:
    """The closed-loop concurrency ladder behind ``saturation`` reports."""
    throughputs: list[float] = []
    rejected: list[int] = []
    knee: int | None = None
    for rung, concurrency in enumerate(concurrencies):
        rung_config = LoadGenConfig(
            **{
                **config_to_dict(config),
                "mode": "closed",
                "concurrency": concurrency,
                "mix": tuple(config.mix),
            }
        )
        plan = plan_requests(rung_config)
        started = time.perf_counter()
        outcomes = await _drive_closed(host, port, plan, rung_config)
        duration = time.perf_counter() - started
        ok = sum(1 for o in outcomes if o.status == 200)
        saturated = sum(1 for o in outcomes if o.status == 429)
        throughputs.append(ok / duration if duration > 0 else 0.0)
        rejected.append(saturated)
        if knee is None and rung > 0:
            gain = throughputs[rung] / max(throughputs[rung - 1], 1e-9)
            if saturated > 0 or gain < 1.10:
                knee = concurrency
    return {
        "concurrencies": list(concurrencies),
        "throughput_rps": throughputs,
        "rejected_429": rejected,
        "saturation_concurrency": knee,
    }


def run_loadgen(
    config: LoadGenConfig,
    host: str,
    port: int,
    sweep_concurrencies: tuple[int, ...] = (),
) -> dict:
    """Synchronous wrapper over :func:`run_loadgen_async` (own event loop)."""
    return asyncio.run(
        run_loadgen_async(config, host, port, sweep_concurrencies)
    )


def run_selfhosted(
    config: LoadGenConfig,
    service_config=None,
    runner=None,
    sweep_concurrencies: tuple[int, ...] = (),
) -> dict:
    """Boot an in-process service on an ephemeral port, load it, report.

    The benchmarking and test path: no subprocess, no fixed port.  The
    report gains a ``server`` section with the service's own counters —
    the authoritative (server-side) campaign count backing the
    coalescing acceptance check.
    """
    from ..service import FleetService, ServiceConfig

    async def _run() -> dict:
        cfg = service_config if service_config is not None else ServiceConfig(port=0)
        service = FleetService(cfg, runner=runner)
        await service.start()
        try:
            report = await run_loadgen_async(
                config, cfg.host, service.port, sweep_concurrencies
            )
        finally:
            await service.stop()
        report["server"] = {
            name: service.metrics.counter(name)
            for name in (
                "service_requests_total",
                "service_campaigns_executed",
                "service_coalesced_requests",
                "service_cache_hits",
                "service_cache_misses",
                "service_rejected_saturated",
                "service_deadline_expired",
            )
        }
        return report

    return asyncio.run(_run())


_REPORT_REQUIRED: dict[str, type | tuple[type, ...]] = {
    "schema_version": int,
    "config": dict,
    "n_requests": int,
    "ok_requests": int,
    "error_requests": int,
    "status_counts": dict,
    "cache_status_counts": dict,
    "latency_ms": dict,
    "duration_s": (int, float),
    "throughput_rps": (int, float),
    "coalescing": dict,
}

_LATENCY_KEYS = ("p50", "p95", "p99", "mean", "max")
_COALESCING_KEYS = ("campaigns", "duplicate_requests", "hit_rate")


def validate_latency_report(report: dict) -> None:
    """Check a latency report against the schema; raise ``ServiceError``.

    The same validation CI runs on the smoke report and the benchmark
    runs on ``BENCH_service.json`` entries.
    """
    if not isinstance(report, dict):
        raise ServiceError("latency report must be a dict")
    version = report.get("schema_version")
    if version != LATENCY_REPORT_SCHEMA_VERSION:
        raise ServiceError(
            f"latency report schema_version {version!r} != "
            f"supported {LATENCY_REPORT_SCHEMA_VERSION}"
        )
    for key, expected in _REPORT_REQUIRED.items():
        if key not in report:
            raise ServiceError(f"latency report is missing {key!r}")
        if not isinstance(report[key], expected):
            raise ServiceError(
                f"latency report {key!r} has type "
                f"{type(report[key]).__name__}, expected {expected}"
            )
    for key in _LATENCY_KEYS:
        if not isinstance(report["latency_ms"].get(key), (int, float)):
            raise ServiceError(f"latency_ms is missing numeric {key!r}")
    for key in _COALESCING_KEYS:
        if key not in report["coalescing"]:
            raise ServiceError(f"coalescing section is missing {key!r}")
    saturation = report.get("saturation")
    if saturation is not None:
        for key in ("concurrencies", "throughput_rps", "saturation_concurrency"):
            if key not in saturation:
                raise ServiceError(f"saturation section is missing {key!r}")
