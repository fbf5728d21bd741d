"""Fleet service latency and coalescing economics under seeded load.

Self-hosts the service (ephemeral port, real campaign runner) and drives
the seeded load generator at a duplicate-heavy mix.  Two properties are
asserted *unconditionally* (they are correctness, not speed):

- coalescing economics — the server executes at least 2x fewer campaigns
  than the number of requests it answered, and
- parity — the service's characterize CSV is byte-identical to the
  offline facade's for the same (preset, day, seed).

The latency percentiles (p50/p95/p99) carry no assertion floor — shared
CI runners make wall-clock promises meaningless — but they are printed
and written to ``BENCH_service.json`` so the service's latency
trajectory is machine-readable across commits.  ``REPRO_BENCH_CHECK_ONLY=1``
additionally skips the saturation sweep to keep the CI smoke short.
"""

from __future__ import annotations

import json
import os
import pathlib

from _bench_util import emit
from repro import api
from repro.loadgen import LoadGenConfig, run_selfhosted, validate_latency_report
from repro.service import decode_response, default_runner
from repro.telemetry.io import dataset_to_csv_text

#: Skip the saturation sweep (economics and parity always assert).
CHECK_ONLY = os.environ.get("REPRO_BENCH_CHECK_ONLY") == "1"

#: Acceptance floor: campaigns executed * 2 <= requests answered.
MIN_COALESCING_FACTOR = 2.0

OUTPUT_PATH = pathlib.Path("BENCH_service.json")


def _write_json(payload: dict) -> None:
    existing = {}
    if OUTPUT_PATH.exists():
        existing = json.loads(OUTPUT_PATH.read_text())
    existing.update(payload)
    OUTPUT_PATH.write_text(json.dumps(existing, indent=2) + "\n")


def test_service_latency_under_duplicate_heavy_load():
    config = LoadGenConfig(
        mode="closed",
        n_requests=24,
        concurrency=6,
        seed=0,
        duplicate_fraction=0.75,
        distinct=3,
        cluster="cloudlab",
        scale=0.5,
        days=1,
    )
    sweep = () if CHECK_ONLY else (1, 2, 4, 8)
    report = run_selfhosted(config, sweep_concurrencies=sweep)
    validate_latency_report(report)

    assert report["ok_requests"] == config.n_requests, (
        f"only {report['ok_requests']}/{config.n_requests} requests "
        f"succeeded: {report['status_counts']}"
    )
    campaigns = report["server"]["service_campaigns_executed"]
    factor = report["ok_requests"] / max(campaigns, 1)
    latency = report["latency_ms"]
    coalescing = report["coalescing"]

    emit(None, "Fleet service: duplicate-heavy closed loop (CloudLab 0.5x)", [
        ("requests answered", "-", f"{report['ok_requests']}"),
        ("campaigns executed", "-", f"{campaigns}"),
        ("coalescing factor", f">= {MIN_COALESCING_FACTOR:.0f}x",
         f"{factor:.1f}x"),
        ("duplicate hit rate", "-", f"{coalescing['hit_rate']:.1%}"),
        ("p50 latency", "-", f"{latency['p50']:.1f} ms"),
        ("p95 latency", "-", f"{latency['p95']:.1f} ms"),
        ("p99 latency", "-", f"{latency['p99']:.1f} ms"),
        ("throughput", "-", f"{report['throughput_rps']:.1f} req/s"),
    ])
    _write_json({"service_duplicate_heavy_cloudlab": {
        "n_requests": report["n_requests"],
        "ok_requests": report["ok_requests"],
        "campaigns_executed": campaigns,
        "coalescing_factor": factor,
        "hit_rate": coalescing["hit_rate"],
        "latency_ms": latency,
        "throughput_rps": report["throughput_rps"],
        "saturation": report["saturation"],
        "check_only": CHECK_ONLY,
    }})

    # Correctness, not speed: asserted even under CHECK_ONLY.
    assert campaigns * MIN_COALESCING_FACTOR <= report["ok_requests"], (
        f"coalescing executed {campaigns} campaigns for "
        f"{report['ok_requests']} requests — below the "
        f"{MIN_COALESCING_FACTOR:.0f}x floor"
    )
    assert coalescing["hit_rate"] > 0.0


def test_service_csv_byte_identical_to_offline_facade():
    request = api.CharacterizeRequest(
        cluster="cloudlab", scale=0.5, days=1, seed=3
    )
    body, _ = default_runner(request)
    served = decode_response(body)
    offline = api.characterize(request=request)
    identical = served["csv"].encode("utf-8") == dataset_to_csv_text(
        offline.dataset
    ).encode("utf-8")

    emit(None, "Service vs offline facade: characterize CSV parity", [
        ("rows served", "-", f"{served['n_rows']}"),
        ("byte-identical CSV", "yes", "yes" if identical else "NO"),
    ])
    _write_json({"service_offline_parity_cloudlab": {
        "n_rows": served["n_rows"],
        "byte_identical": identical,
        "check_only": CHECK_ONLY,
    }})
    assert identical, "service CSV diverged from the offline facade"
