"""The serve workload: ``python -m repro serve --workers 1`` over two connections.

Three phases, timed separately:

* **hot** — a closed loop on two connections repeats three pre-warmed
  requests (characterize, monitor, schedule), so every reply is a cache hit;
* **capacity** — a closed loop on two connections sends unique
  characterize requests, so the one worker never waits for work and every
  reply is a miss: misses answered per second is the server's miss
  capacity;
* **cold** — an open loop at a fixed rate sends unique characterize
  requests, so every reply is a miss.  Each request is timed from the
  moment it was due, so a stalled generator or a queue shows up as latency.

Every served body is checked: hot bodies against recorded digests, miss
bodies byte for byte against ``encode_response(build_response(req,
execute_request(req)))`` recomputed offline after the timed phases.
"""

from __future__ import annotations

import asyncio
import json
import random
import signal
import subprocess
import sys
import time

import repro.api as api
from repro.errors import ServiceError
from repro.loadgen.client import HttpReply, http_request
from repro.service import wire

from batch import OpOutput, _timed, add_counts, characterize_result
from batch import layer_metrics, overhead_metrics, traced_op
from common import CLIENT_CPU, SETUP_LAUNCHES, Calibration, digest
from common import load_expected, measure_setup, mean, median, peak_rss_mb_of
from common import percentile, pin, setup_metrics, spawn
from tracing import SpanRecorder

HOST = "127.0.0.1"
CONNECTIONS = 2
#: Cold-phase arrival rate: about a third of one worker's miss capacity on
#: the reference box (a miss costs ~85 ms offline, ~110 ms served).
COLD_RATE_PER_S = 3.0
#: Shares of the run's seconds given to the hot and capacity phases; the
#: cold phase takes the rest.
HOT_SHARE = 0.1
CAPACITY_SHARE = 0.3
#: The miss rate the capacity phase is sized by.
CAPACITY_SIZING_PER_S = 9.0
HOT_VARIANTS = 8
HOT_WARMUP_S = 0.5
COLD_WARMUP = 3
#: Outstanding requests (due but unanswered) beyond which the backlog is
#: growing and the run fails; the server admits at most 8 pending.
BACKLOG_LIMIT = 8
TIMEOUT_S = 30.0


def hot_requests(variant: int) -> list:
    return [
        api.CharacterizeRequest(
            cluster="longhorn", scale=0.25, days=1, seed=variant
        ),
        api.MonitorRequest(cluster="longhorn", scale=0.25, days=2, seed=variant),
        api.ScheduleRequest(
            cluster="longhorn", scale=0.25, n_jobs=40, seed=variant,
            trace_seed=variant,
        ),
    ]


def hot_key(request) -> str:
    return f"{request.kind}:{request.seed}"


def cold_requests(seed: int, n: int) -> list:
    seeds = random.Random(seed).sample(range(10**6, 10**9), n)
    return [
        api.CharacterizeRequest(cluster="longhorn", days=2, seed=s)
        for s in seeds
    ]


def offline_body(request) -> bytes:
    """The body the service must serve for ``request``."""
    return wire.encode_response(
        wire.build_response(request, api.execute_request(request))
    )


def served_decomposed(request, rec: SpanRecorder, tracer) -> OpOutput:
    """:func:`offline_body` for a characterize request, layer by layer."""
    with rec.span("service.execute"):
        result = characterize_result(request, rec, tracer)
    with rec.span("service.encode"):
        payload = wire.build_response(request, result)
        body = wire.encode_response(payload)
    return OpOutput(
        (body,), result.dataset.n_rows,
        {"telemetry.csv_bytes": len(payload["csv"])},
    )


# ---------------------------------------------------------------------------
# HTTP exchanges (one request per connection, as the server speaks it)
# ---------------------------------------------------------------------------


def post_of(request) -> tuple[str, str, bytes]:
    """``http_request`` arguments that submit ``request``."""
    return "POST", f"/v1/{request.kind}", request.to_json().encode("utf-8")


async def call(port: int, method: str, path: str, body: bytes = b"",
               timeout: float = TIMEOUT_S) -> HttpReply | None:
    """One exchange; ``None`` when it failed in transport or timed out."""
    try:
        return await http_request(HOST, port, method, path, body, timeout)
    except ServiceError:
        return None


async def scrape_metrics(port: int) -> dict[str, float]:
    """Unlabelled samples of ``GET /metrics``, by metric name."""
    reply = await call(port, "GET", "/metrics")
    if reply is None or reply.status != 200:
        raise ConnectionError("GET /metrics failed")
    samples = {}
    for line in reply.body.decode("utf-8").splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
    return samples


def is_served(reply: HttpReply | None, cache: str) -> bool:
    return (reply is not None and reply.status == 200
            and reply.headers.get("x-repro-cache") == cache)


# ---------------------------------------------------------------------------
# server lifecycle
# ---------------------------------------------------------------------------


class Server:
    """One ``repro serve`` child process on an ephemeral port."""

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.proc = spawn(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(1)],
            stdout=subprocess.PIPE,
        )
        self.port = 0

    async def ready(self) -> float:
        """Wait for the first 200 from ``/v1/healthz``; the instant it came."""
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])
        while True:
            reply = await call(self.port, "GET", "/v1/healthz", timeout=5)
            if reply is not None and reply.status == 200:
                return time.perf_counter()
            if time.perf_counter() - self.started > TIMEOUT_S:
                raise RuntimeError("server never answered /v1/healthz")
            await asyncio.sleep(0.005)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


async def start_server() -> tuple[Server, list[tuple[float, float]]]:
    """Fresh launches until healthy; the last server stays up.

    Returns it and the ``(spawn, healthy)`` instants of every launch but
    the first, which warms the page and bytecode caches.
    """
    windows = []
    server = None
    for launch in range(SETUP_LAUNCHES + 1):
        if server is not None:
            server.stop()
        server = Server()
        try:
            healthy = await server.ready()
        except BaseException:
            server.stop()
            raise
        if launch:
            windows.append((server.started, healthy))
    return server, windows


# ---------------------------------------------------------------------------
# load phases
# ---------------------------------------------------------------------------


async def hot_phase(port: int, hot: list, bodies: list[bytes],
                    seconds: float) -> dict:
    """Closed loop on two connections; the warm-up replies are not timed."""
    posts = [post_of(r) for r in hot]
    stats = {"issued": 0, "failed": 0}
    records: list[tuple[float, float, bool]] = []

    async def client(deadline: float, timed: bool) -> None:
        while time.perf_counter() < deadline:
            j = stats["issued"] % len(posts)
            stats["issued"] += 1
            sent = time.perf_counter()
            reply = await call(port, *posts[j])
            ok = is_served(reply, "hit") and reply.body == bodies[j]
            stats["failed"] += not ok
            if timed:
                records.append((sent, time.perf_counter(), ok))

    warm_end = time.perf_counter() + HOT_WARMUP_S
    await asyncio.gather(*(client(warm_end, False) for _ in range(CONNECTIONS)))
    start = time.perf_counter()
    await asyncio.gather(
        *(client(start + seconds, True) for _ in range(CONNECTIONS))
    )
    ok = [done - sent for sent, done, good in records if good]
    last = max(done for _, done, _ in records)
    return {
        "latencies": ok,
        "all_latencies": [done - sent for sent, done, _ in records],
        "hits_per_s": len(ok) / (last - start),
        "attempted": stats["issued"],
        "failed": stats["failed"],
    }


async def capacity_phase(port: int, requests: list) -> tuple[list, tuple]:
    """Closed loop of misses on two connections.

    Returns the replies and the loop's ``(start, end)`` instants.
    """
    posts = [post_of(r) for r in requests]
    replies: list[HttpReply | None] = [None] * len(posts)
    cursor = iter(range(len(posts)))

    async def client() -> None:
        for i in cursor:
            replies[i] = await call(port, *posts[i])

    t0 = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(CONNECTIONS)))
    return replies, (t0, time.perf_counter())


async def cold_phase(port: int, requests: list, rate: float) -> list[dict]:
    """Open loop at ``rate`` from two senders; each timed from its due time."""
    posts = [post_of(r) for r in requests]
    n = len(posts)
    start = time.perf_counter() + 0.1
    due = [start + i / rate for i in range(n)]
    results: list[dict] = [{} for _ in range(n)]
    cursor = iter(range(n))

    async def sender() -> None:
        for i in cursor:
            delay = due[i] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            reply = await call(port, *posts[i])
            results[i] = {"due": due[i], "sent": sent,
                          "done": time.perf_counter(), "reply": reply}

    await asyncio.gather(*(sender() for _ in range(CONNECTIONS)))
    return results


def max_outstanding(results: list[dict]) -> int:
    """Most requests due but not yet answered at any instant."""
    events = sorted(
        [(r["due"], 1) for r in results] + [(r["done"], -1) for r in results],
        key=lambda e: (e[0], e[1]),
    )
    level = peak = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return peak


async def drive(hot: list, capacity: list, cold: list,
                seconds: float) -> dict:
    """Start the server, run the three phases, stop it; raw results."""
    expected = load_expected()["serve-hot"]
    server, setup_windows = await start_server()
    try:
        port = server.port
        hot_bodies, hot_ok = [], []
        for request in hot:
            reply = await call(port, *post_of(request))
            body = reply.body if reply is not None else b""
            hot_ok.append(reply is not None and reply.status == 200
                          and digest(body) == expected.get(hot_key(request)))
            hot_bodies.append(body)
        scrapes = [await scrape_metrics(port)]
        hot_stats = await hot_phase(port, hot, hot_bodies,
                                    seconds * HOT_SHARE)
        scrapes.append(await scrape_metrics(port))
        capacity_replies, window = await capacity_phase(port, capacity)
        scrapes.append(await scrape_metrics(port))
        results = await cold_phase(port, cold, COLD_RATE_PER_S)
        scrapes.append(await scrape_metrics(port))
        peak_rss = peak_rss_mb_of(server.proc.pid)
    finally:
        server.stop()
    return {
        "setup_windows": setup_windows, "hot_ok": hot_ok,
        "hot_stats": hot_stats, "scrapes": scrapes,
        "capacity_replies": capacity_replies, "capacity_window": window,
        "results": results, "peak_rss": peak_rss,
    }


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------


def run_serve(seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(seed)
    hot = hot_requests(rng.randrange(HOT_VARIANTS))
    n_cold = max(COLD_WARMUP + 10, round(
        seconds * (1 - HOT_SHARE - CAPACITY_SHARE) * COLD_RATE_PER_S
    ))
    n_capacity = max(10, round(
        seconds * CAPACITY_SHARE * CAPACITY_SIZING_PER_S
    ))
    unique = cold_requests(seed, n_capacity + n_cold)
    capacity, cold = unique[:n_capacity], unique[n_capacity:]

    # The server runs on WORK_CPU beside the sampler; every interval is
    # scaled to reference speed after the load phases, from the samples.
    pin(CLIENT_CPU)
    with Calibration() as calibration:
        load = asyncio.run(drive(hot, capacity, cold, seconds))
        results = load["results"]
        setup = setup_metrics(load["setup_windows"], calibration)
        window = load["capacity_window"]
        misses_per_s = len(capacity) / calibration.scaled(*window)
        miss_reference = {
            i: calibration.scaled(r["due"], r["done"])
            for i, r in enumerate(results)
        }
        if trace:
            split = measure_setup("longhorn", cold[0].seed, 1.0, calibration)
    attempted = len(hot) + load["hot_stats"]["attempted"]
    failed = load["hot_ok"].count(False) + load["hot_stats"]["failed"]
    for request, ok in zip(hot, load["hot_ok"]):
        if not ok:
            print(f"{hot_key(request)}: served body mismatch", file=sys.stderr)

    # Verify every miss body offline, untimed by the load phases.  Traced
    # runs also rebuild each cold body layer by layer, right after the
    # facade.
    rec = SpanRecorder()
    untraced, traced, counts = [], [], {}
    ok_cold = []
    for request, reply in zip(capacity, load["capacity_replies"]):
        attempted += 1
        if not (is_served(reply, "miss")
                and reply.body == offline_body(request)):
            failed += 1
            print(f"capacity request seed {request.seed}: served body "
                  "mismatch", file=sys.stderr)
    for index, (request, result) in enumerate(zip(cold, results)):
        attempted += 1
        reply = result["reply"]
        body, dt = _timed(offline_body, request)
        bodies = [body]
        if trace:
            out, traced_dt, tracer = traced_op(rec, index, served_decomposed,
                                               request)
            bodies.append(out.parts[0] if out is not None else None)
        if not (is_served(reply, "miss")
                and all(b == reply.body for b in bodies)):
            failed += 1
            print(f"cold request seed {request.seed}: served body mismatch",
                  file=sys.stderr)
            continue
        ok_cold.append(index)
        untraced.append(dt)
        if trace:
            traced.append(traced_dt)
            add_counts(counts, out, tracer)

    outstanding = max_outstanding(results)
    if outstanding > BACKLOG_LIMIT:
        failed += 1
        print(f"backlog grew to {outstanding} outstanding requests",
              file=sys.stderr)
    timed = [i for i in ok_cold if i >= COLD_WARMUP]
    miss = [results[i]["done"] - results[i]["due"] for i in timed]
    miss_scaled = [miss_reference[i] for i in timed]
    lateness = [r["sent"] - r["due"] for r in results]
    hot_stats = load["hot_stats"]
    hits = hot_stats["latencies"]
    scrapes = load["scrapes"]
    info = {
        "hit_latency_p50_ms": percentile(hits, 50) * 1e3 if hits else 0.0,
        "hit_latency_p99_ms": percentile(hits, 99) * 1e3 if hits else 0.0,
        "hits_timed": len(hits),
        "miss_latency_p50_ms": percentile(miss, 50) * 1e3 if miss else 0.0,
        "miss_latency_p90_ms": percentile(miss, 90) * 1e3 if miss else 0.0,
        "misses_timed": len(miss),
        "gen.lateness_p50_ms": percentile(lateness, 50) * 1e3,
        "gen.lateness_max_ms": max(lateness) * 1e3,
        "gen.max_outstanding": outstanding,
        "client_hits_per_s": hot_stats["hits_per_s"],
        "server_hits_per_s": server_hit_rate(scrapes[0], scrapes[1]),
        "miss_reference_p50_ms": (
            median(miss_scaled) * 1e3 if miss_scaled else 0.0
        ),
        "misses_per_s_raw": len(capacity) / (window[1] - window[0]),
        "capacity_misses": len(capacity),
        "setup_raw_median_s": setup["setup_raw_median_s"],
        "setup_raw_min_s": setup["setup_raw_min_s"],
    }
    out = {"attempted": attempted, "failed": failed, "info": info}
    if not trace:
        out["metrics"] = {
            "setup_s": (setup["setup_s"], "s"),
            "latency_ms": (info["miss_reference_p50_ms"], "ms"),
            "throughput_per_s": (misses_per_s, "1/s"),
            "peak_rss_mb": (load["peak_rss"], "MB"),
        }
        return out

    layer = layer_metrics(rec, counts, len(traced))
    totals = rec.layer_totals()
    for stage in ("service.execute", "service.encode"):
        if stage in totals:
            layer[f"{stage}_ms"] = totals[stage]["total_s"] * 1e3 / len(traced)
    layer.update(overhead_metrics(untraced, traced))
    layer.update(hit_path_metrics(hot))
    layer.update(service_metrics(scrapes, hot_stats, untraced))
    layer["setup.import_ms"] = split["setup.import_ms"]
    layer["setup.preset_ms"] = split["setup.preset_ms"]
    layer["service.body_bytes"] = mean(
        [len(results[i]["reply"].body) for i in ok_cold]
    )
    layer["service.client_hits_per_s"] = info["client_hits_per_s"]
    layer["service.hit_latency_p50_ms"] = info["hit_latency_p50_ms"]
    layer["service.hit_latency_p99_ms"] = info["hit_latency_p99_ms"]
    layer["service.miss_latency_p50_ms"] = info["miss_latency_p50_ms"]
    layer["service.miss_latency_p90_ms"] = info["miss_latency_p90_ms"]
    for key in ("gen.lateness_p50_ms", "gen.lateness_max_ms",
                "gen.max_outstanding"):
        layer[key] = info[key]
    out.update(layers=layer, spans=rec)
    return out


def hit_path_metrics(hot: list, repeats: int = 200) -> dict[str, float]:
    """Per-call cost of the in-process hit-path steps: decode and digest."""
    rec = SpanRecorder()
    docs = [json.loads(r.to_json()) for r in hot]
    for _ in range(repeats):
        for doc in docs:
            with rec.span("api.decode"):
                request = api.request_from_dict(dict(doc))
            with rec.span("api.digest"):
                api.request_digest(request)
    totals = rec.layer_totals()
    return {
        f"{name}_ms": entry["total_s"] * 1e3 / entry["calls"]
        for name, entry in totals.items()
    }


def server_hit_rate(before: dict, after: dict) -> float:
    """Hits per second of server time between two ``/metrics`` scrapes.

    The server handles one request at a time on its event loop, so this is
    its hit capacity: the inverse of the mean time from request head to
    response write, read from the latency histogram.
    """
    name = "repro_service_request_latency_s"
    count = after[f"{name}_count"] - before[f"{name}_count"]
    return count / (after[f"{name}_sum"] - before[f"{name}_sum"])


def service_metrics(scrapes: list[dict], hot_stats: dict,
                    untraced_offline: list[float]) -> dict[str, float]:
    """Server counters over the timed phases, from ``GET /metrics`` deltas."""
    before, after_hot, before_cold, after_cold = scrapes

    def delta(a, b, name):
        return b.get(f"repro_{name}", 0.0) - a.get(f"repro_{name}", 0.0)

    lat = "service_request_latency_s"
    hot_n = delta(before, after_hot, f"{lat}_count")
    hot_server = delta(before, after_hot, f"{lat}_sum") / max(1.0, hot_n)
    cold_n = delta(before_cold, after_cold, f"{lat}_count")
    cold_server = delta(before_cold, after_cold, f"{lat}_sum") / max(1.0, cold_n)
    hits = delta(before, after_cold, "service_cache_hits")
    misses = delta(before, after_cold, "service_cache_misses")
    return {
        "service.server_ms": hot_server * 1e3,
        "service.client_overhead_ms": (
            mean(hot_stats["all_latencies"]) - hot_server
        ) * 1e3,
        "service.queue_wait_ms": (
            cold_server - mean(untraced_offline)
        ) * 1e3,
        "service.cache_hits": hits,
        "service.cache_misses": misses,
        "service.coalesced": delta(
            before, after_cold, "service_coalesced_requests"
        ),
        "service.campaigns_executed": delta(
            before, after_cold, "service_campaigns_executed"
        ),
        "service.rejected": delta(
            before, after_cold, "service_rejected_saturated"
        ),
        "service.hit_ratio": hits / max(1.0, hits + misses),
    }
