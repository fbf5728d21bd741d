"""Load generator: seeded planning, report schema, coalescing economics.

Every end-to-end test self-hosts an in-process service with a stub
runner (``lambda request: b'{"ok":1}'``) so the suite measures the
service layer, not campaign physics.
"""

import time

import pytest

from repro import api
from repro.errors import ConfigError, ServiceError
from repro.loadgen import (
    LATENCY_REPORT_SCHEMA_VERSION,
    LoadGenConfig,
    plan_requests,
    run_loadgen,
    run_selfhosted,
    validate_latency_report,
)
from repro.loadgen import core as loadgen_core
from repro.loadgen.client import HttpReply


def _stub_runner(request):
    return b'{"ok":1}'


class TestPlanning:
    def test_same_seed_same_plan(self):
        config = LoadGenConfig(n_requests=24, seed=7, mix=("characterize", "monitor"))
        assert plan_requests(config) == plan_requests(config)

    def test_different_seeds_differ(self):
        base = LoadGenConfig(n_requests=24, seed=0, duplicate_fraction=0.2, distinct=8)
        other = LoadGenConfig(n_requests=24, seed=1, duplicate_fraction=0.2, distinct=8)
        assert plan_requests(base) != plan_requests(other)

    def test_duplicate_fraction_one_collapses_to_one_digest(self):
        config = LoadGenConfig(n_requests=16, duplicate_fraction=1.0)
        digests = {api.request_digest(r) for r in plan_requests(config)}
        assert len(digests) == 1

    def test_duplicate_fraction_zero_spreads_over_variants(self):
        config = LoadGenConfig(
            n_requests=32, duplicate_fraction=0.0, distinct=4
        )
        digests = {api.request_digest(r) for r in plan_requests(config)}
        assert len(digests) > 1

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            LoadGenConfig(mode="sideways")
        with pytest.raises(ConfigError):
            LoadGenConfig(n_requests=0)
        with pytest.raises(ConfigError):
            LoadGenConfig(duplicate_fraction=1.5)
        with pytest.raises(ConfigError):
            LoadGenConfig(mix=("teleport",))


class TestClosedLoop:
    def test_duplicate_heavy_mix_coalesces_campaigns(self):
        config = LoadGenConfig(
            n_requests=16, concurrency=4, seed=0,
            duplicate_fraction=0.75, distinct=3,
        )
        report = run_selfhosted(config, runner=_stub_runner)
        validate_latency_report(report)
        assert report["ok_requests"] == 16
        campaigns = report["server"]["service_campaigns_executed"]
        # the acceptance economics: >=2x fewer campaigns than requests
        assert campaigns * 2 <= report["ok_requests"]
        assert report["coalescing"]["hit_rate"] > 0.0
        assert report["coalescing"]["campaigns"] == report[
            "cache_status_counts"
        ].get("miss", 0)

    def test_client_and_server_counters_agree(self):
        config = LoadGenConfig(
            n_requests=12, concurrency=3, seed=1,
            duplicate_fraction=0.5, distinct=2,
        )
        report = run_selfhosted(config, runner=_stub_runner)
        server = report["server"]
        assert server["service_requests_total"] == report["n_requests"]
        assert server["service_campaigns_executed"] == (
            report["cache_status_counts"].get("miss", 0)
        )
        assert server["service_coalesced_requests"] == (
            report["cache_status_counts"].get("coalesced", 0)
        )
        assert server["service_cache_hits"] == (
            report["cache_status_counts"].get("hit", 0)
        )


class TestOpenLoop:
    def test_open_loop_run_completes_and_validates(self):
        config = LoadGenConfig(
            mode="open", n_requests=10, rate_rps=200.0, seed=2,
            duplicate_fraction=0.5, distinct=2,
        )
        report = run_selfhosted(config, runner=_stub_runner)
        validate_latency_report(report)
        assert report["config"]["mode"] == "open"
        assert report["ok_requests"] == 10


class TestStalledGenerator:
    """A generator stall is counted in open-loop latency, not in closed."""

    STALL_S = 0.3

    @pytest.fixture
    def stalling_transport(self, monkeypatch):
        # The first request blocks the event loop for STALL_S, as a stalled
        # generator would; every reply is otherwise instant.
        calls = []

        async def fake_http_request(host, port, method, path, body, timeout_s):
            if not calls:
                time.sleep(self.STALL_S)
            calls.append(path)
            return HttpReply(200, {"x-repro-cache": "miss"}, b"{}")

        monkeypatch.setattr(loadgen_core, "http_request", fake_http_request)
        return calls

    def test_open_loop_times_requests_from_their_due_time(
        self, stalling_transport
    ):
        # At 1000/s all six requests fall due within a few milliseconds, so
        # the five behind the stalled one each wait most of it.
        config = LoadGenConfig(mode="open", n_requests=6, rate_rps=1000.0)
        report = run_loadgen(config, "127.0.0.1", 9)
        validate_latency_report(report)
        assert len(stalling_transport) == 6
        assert report["latency_ms"]["p50"] >= 0.8 * self.STALL_S * 1000.0

    def test_closed_loop_times_requests_from_their_send(
        self, stalling_transport
    ):
        config = LoadGenConfig(mode="closed", n_requests=6, concurrency=1)
        report = run_loadgen(config, "127.0.0.1", 9)
        assert report["latency_ms"]["max"] >= self.STALL_S * 1000.0
        assert report["latency_ms"]["p50"] < 0.5 * self.STALL_S * 1000.0


class TestSaturationSweep:
    def test_sweep_fills_the_saturation_section(self):
        config = LoadGenConfig(
            n_requests=8, concurrency=2, seed=3,
            duplicate_fraction=0.5, distinct=2,
        )
        report = run_selfhosted(
            config, runner=_stub_runner, sweep_concurrencies=(1, 2, 4)
        )
        validate_latency_report(report)
        saturation = report["saturation"]
        assert saturation["concurrencies"] == [1, 2, 4]
        assert len(saturation["throughput_rps"]) == 3
        assert len(saturation["rejected_429"]) == 3
        knee = saturation["saturation_concurrency"]
        assert knee is None or knee in (2, 4)


class TestReportSchema:
    def test_schema_version_is_pinned(self):
        assert LATENCY_REPORT_SCHEMA_VERSION == 1

    def test_validation_rejects_mutations(self):
        config = LoadGenConfig(
            n_requests=4, concurrency=2, duplicate_fraction=1.0
        )
        report = run_selfhosted(config, runner=_stub_runner)
        validate_latency_report(report)

        broken = dict(report)
        broken["schema_version"] = 99
        with pytest.raises(ServiceError, match="schema_version"):
            validate_latency_report(broken)

        broken = dict(report)
        del broken["latency_ms"]
        with pytest.raises(ServiceError, match="latency_ms"):
            validate_latency_report(broken)

        broken = dict(report)
        broken["latency_ms"] = {"p50": 1.0}  # missing p95/p99/...
        with pytest.raises(ServiceError, match="p95"):
            validate_latency_report(broken)

        broken = dict(report)
        broken["coalescing"] = {"campaigns": 1}
        with pytest.raises(ServiceError, match="duplicate_requests"):
            validate_latency_report(broken)

        with pytest.raises(ServiceError, match="dict"):
            validate_latency_report([report])
