"""HTTP surface of the fleet service: routing, parity, backpressure.

Servers bind ``port=0`` (ephemeral) and every test runs its own event
loop via ``asyncio.run`` — no fixed ports, no cross-test state.
"""

import asyncio
import dataclasses
import threading

import pytest

from repro import api
from repro.loadgen.client import http_request
from repro.service import (
    FleetService,
    ServiceConfig,
    decode_response,
    validate_response,
)
from repro.service.server import default_runner
from repro.telemetry.io import dataset_to_csv_text


def _with_service(coro, config=None, runner=None):
    """Run ``coro(service)`` against a started ephemeral-port service."""

    async def wrapper():
        service = FleetService(
            config if config is not None else ServiceConfig(port=0),
            runner=runner,
        )
        await service.start()
        try:
            return await coro(service)
        finally:
            await service.stop()

    return asyncio.run(wrapper())


def _post(service, kind, request, timeout_s=60.0):
    return http_request(
        "127.0.0.1", service.port, "POST", f"/v1/{kind}",
        request.to_json().encode(), timeout_s,
    )


class TestRouting:
    def test_healthz(self):
        async def scenario(service):
            return await http_request(
                "127.0.0.1", service.port, "GET", "/v1/healthz"
            )

        reply = _with_service(scenario)
        assert reply.status == 200
        assert decode_response(reply.body)["status"] == "ok"

    def test_metrics_exposition(self):
        async def scenario(service):
            await _post(
                service, "characterize",
                api.CharacterizeRequest(cluster="cloudlab", scale=0.5, days=1),
            )
            return await http_request(
                "127.0.0.1", service.port, "GET", "/metrics"
            )

        reply = _with_service(scenario)
        assert reply.status == 200
        text = reply.body.decode()
        assert "service_requests_total 1" in text
        assert "service_request_latency_s" in text

    def test_unknown_route_404(self):
        async def scenario(service):
            return await http_request(
                "127.0.0.1", service.port, "GET", "/v1/nonsense"
            )

        assert _with_service(scenario).status == 404

    def test_wrong_method_405(self):
        async def scenario(service):
            return await http_request(
                "127.0.0.1", service.port, "GET", "/v1/characterize"
            )

        assert _with_service(scenario).status == 405

    def test_bad_json_400(self):
        async def scenario(service):
            return await http_request(
                "127.0.0.1", service.port, "POST", "/v1/characterize",
                b"{not json",
            )

        reply = _with_service(scenario)
        assert reply.status == 400
        assert decode_response(reply.body)["error"]["code"] == "bad_json"

    def test_kind_mismatch_400(self):
        async def scenario(service):
            return await http_request(
                "127.0.0.1", service.port, "POST", "/v1/screen",
                api.CharacterizeRequest(
                    cluster="cloudlab", scale=0.5, days=1
                ).to_json().encode(),
            )

        assert _with_service(scenario).status == 400

    def test_invalid_field_400(self):
        async def scenario(service):
            return await http_request(
                "127.0.0.1", service.port, "POST", "/v1/characterize",
                b'{"scale": 7.0}',
            )

        assert _with_service(scenario).status == 400

    def test_unknown_solver_400(self):
        # The ignored solver field keeps its validation: a typed 4xx.
        async def scenario(service):
            return await http_request(
                "127.0.0.1", service.port, "POST", "/v1/characterize",
                b'{"solver": "warp"}',
            )

        reply = _with_service(scenario)
        assert reply.status == 400
        assert b"solver" in reply.body


class TestParity:
    def test_characterize_csv_matches_offline_facade_bytes(self):
        request = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1, seed=3
        )

        async def scenario(service):
            return await _post(service, "characterize", request)

        reply = _with_service(scenario)
        assert reply.status == 200
        payload = decode_response(reply.body)
        assert validate_response(payload) == "characterize"
        offline = api.characterize(request=request)
        assert payload["csv"].encode() == (
            dataset_to_csv_text(offline.dataset).encode()
        )
        assert payload["request"] == request.to_dict()

    def test_cache_hit_bodies_are_byte_identical(self):
        request = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1
        )

        async def scenario(service):
            first = await _post(service, "characterize", request)
            second = await _post(service, "characterize", request)
            return first, second

        first, second = _with_service(scenario)
        assert first.headers["x-repro-cache"] == "miss"
        assert second.headers["x-repro-cache"] == "hit"
        assert first.body == second.body
        assert first.headers["x-repro-digest"] == api.request_digest(request)


class TestBackpressureHttp:
    def test_saturation_returns_429(self):
        release = threading.Event()

        def slow_runner(request):
            assert release.wait(5.0)
            return b'{"ok":1}'

        config = ServiceConfig(port=0, workers=1, max_pending=1)
        first_req = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1, seed=0
        )
        second_req = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1, seed=1
        )

        async def scenario(service):
            first = asyncio.ensure_future(
                _post(service, "characterize", first_req)
            )
            await asyncio.sleep(0.05)  # occupy the only admission slot
            second = await _post(service, "characterize", second_req)
            release.set()
            return await first, second

        first, second = _with_service(scenario, config, slow_runner)
        assert first.status == 200
        assert second.status == 429
        assert "retry-after" in second.headers

    def test_deadline_returns_503_then_cache_serves_the_result(self):
        release = threading.Event()

        def slow_runner(request):
            assert release.wait(5.0)
            return b'{"late":1}'

        request = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1, deadline_s=0.05
        )

        async def scenario(service):
            timed_out = await _post(service, "characterize", request)
            release.set()
            for _ in range(100):
                if len(service.cache):
                    break
                await asyncio.sleep(0.01)
            served = await _post(service, "characterize", request)
            return timed_out, served

        timed_out, served = _with_service(
            scenario, ServiceConfig(port=0), slow_runner
        )
        assert timed_out.status == 503
        assert served.status == 200
        assert served.headers["x-repro-cache"] == "hit"
        assert served.body == b'{"late":1}'


class TestWorkCountersAndTimeline:
    def test_metrics_expose_solver_work_and_uptime(self):
        request = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1
        )

        async def scenario(service):
            await _post(service, "characterize", request)
            await _post(service, "characterize", request)  # cache hit
            return await http_request(
                "127.0.0.1", service.port, "GET", "/metrics"
            )

        reply = _with_service(scenario)
        text = reply.body.decode()
        assert text.endswith("\n")
        assert "repro_solver_solves" in text
        assert "repro_solver_batches" in text
        assert "repro_service_uptime_seconds" in text
        uptime = [line for line in text.splitlines()
                  if line.startswith("repro_service_uptime_seconds ")]
        assert float(uptime[0].split()[1]) > 0.0

    def test_runner_counters_merge_once_per_execution(self):
        def counting_runner(request):
            return b'{"ok":1}', {"solver.solves": 5, "engine.batches": 2}

        request = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1
        )

        async def scenario(service):
            await _post(service, "characterize", request)
            await _post(service, "characterize", request)  # hit: no re-merge
            return await http_request(
                "127.0.0.1", service.port, "GET", "/metrics"
            )

        reply = _with_service(scenario, runner=counting_runner)
        text = reply.body.decode()
        assert "repro_solver_solves 5" in text
        assert "repro_engine_batches 2" in text

    @pytest.mark.parametrize("request_", [
        api.CharacterizeRequest(cluster="longhorn", scale=0.25, days=2, seed=3),
        api.MonitorRequest(cluster="longhorn", scale=0.25, days=2, seed=3),
        api.ScheduleRequest(cluster="longhorn", scale=0.25, seed=3, n_jobs=20),
    ], ids=lambda r: r.kind)
    def test_runner_counters_independent_of_campaign_workers(self, request_):
        # Pool shards never see a sink activated on the runner's thread,
        # so the runner must hand its tracer to the campaign itself.
        _, serial = default_runner(dataclasses.replace(request_, workers=None))
        _, pooled = default_runner(dataclasses.replace(request_, workers=2))
        assert serial["solver.solves"] > 0
        assert pooled == serial

    def test_timeline_streams_admissions_with_header_ids(self, tmp_path):
        from repro.obs.timeline import read_timeline

        path = tmp_path / "svc.jsonl"
        config = ServiceConfig(port=0, timeline_path=str(path))
        request = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1
        )

        async def scenario(service):
            first = await _post(service, "characterize", request)
            second = await _post(service, "characterize", request)
            return first, second

        first, second = _with_service(scenario, config)
        assert first.headers["x-repro-timeline"] == "1"
        assert second.headers["x-repro-timeline"] == "2"
        _, events = read_timeline(path)
        assert events[0].kind == "service_start"
        admits = [e for e in events if e.kind == "admit"]
        assert [e.value("status") for e in admits] == ["miss", "hit"]
        assert all(e.value("verb") == "characterize" for e in admits)
        assert admits[0].entity == api.request_digest(request)

    def test_no_timeline_header_without_recorder(self):
        request = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1
        )

        async def scenario(service):
            return await _post(service, "characterize", request)

        reply = _with_service(scenario)
        assert "x-repro-timeline" not in reply.headers
