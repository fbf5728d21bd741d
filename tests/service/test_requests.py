"""The typed request surface: round-trips, validation, digest semantics."""

import json

import pytest

from repro import api
from repro.errors import ConfigError

ALL_KINDS = sorted(api.REQUEST_KINDS)


def _sample(kind):
    """A non-default instance of each request kind."""
    return {
        "characterize": api.CharacterizeRequest(
            cluster="cloudlab", workload="resnet50", seed=3, scale=0.5,
            days=2, runs_per_day=2, coverage=0.5, workers=2, solver="fleet",
        ),
        "screen": api.ScreenRequest(
            cluster="cloudlab", workloads=("sgemm", "pagerank"), seed=1,
            scale=0.5, days=2, min_confirmations=1,
        ),
        "sweep": api.SweepRequest(
            power_limits_w=(250.0, 150.0), seed=2, scale=0.5, runs=3,
        ),
        "schedule": api.ScheduleRequest(
            cluster="cloudlab", policy="backfill", seed=4, scale=0.5,
            n_jobs=10, trace_seed=9, diurnal_amplitude=0.3,
            day_of_week_weights=(1.0,) * 7, engine="indexed",
        ),
        "monitor": api.MonitorRequest(
            cluster="cloudlab", seed=5, scale=0.5, days=2, window=2,
        ),
        "chaos": api.ChaosRequest(
            scenario="pump-degradation", cluster="cloudlab", seed=6,
            scale=0.5, days=3, runs_per_day=1, n_jobs=5, trace_seed=2,
        ),
    }[kind]


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_json_round_trip_is_identity(self, kind):
        request = _sample(kind)
        rebuilt = api.request_from_json(request.to_json())
        assert rebuilt == request
        assert type(rebuilt) is type(request)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_dict_carries_kind_and_schema_version(self, kind):
        doc = _sample(kind).to_dict()
        assert doc["kind"] == kind
        assert doc["schema_version"] == api.REQUEST_SCHEMA_VERSION

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_json_is_canonical(self, kind):
        text = _sample(kind).to_json()
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown request kind"):
            api.request_from_dict({"kind": "frobnicate"})

    def test_kind_mismatch_rejected(self):
        doc = api.CharacterizeRequest().to_dict()
        doc["kind"] = "screen"
        with pytest.raises(ConfigError):
            api.ScreenRequest.from_dict({**doc, "kind": "characterize"})

    def test_unknown_keys_rejected(self):
        doc = api.CharacterizeRequest().to_dict()
        doc["surprise"] = 1
        with pytest.raises(ConfigError):
            api.request_from_dict(doc)

    def test_foreign_schema_version_rejected(self):
        doc = api.CharacterizeRequest().to_dict()
        doc["schema_version"] = api.REQUEST_SCHEMA_VERSION + 1
        with pytest.raises(ConfigError, match="schema_version"):
            api.request_from_dict(doc)

    def test_non_json_rejected(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            api.request_from_json("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            api.request_from_json("[1, 2]")

    def test_bad_field_values_rejected(self):
        with pytest.raises(ConfigError):
            api.CharacterizeRequest(scale=0.0)
        with pytest.raises(ConfigError):
            api.CharacterizeRequest(solver="warp")
        with pytest.raises(ConfigError):
            api.ScheduleRequest(engine="quantum")


class TestDigest:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_execution_fields_do_not_change_the_digest(self, kind):
        import dataclasses

        request = _sample(kind)
        retuned = dataclasses.replace(
            request, workers=4, solver="grid", deadline_s=1.5
        )
        assert api.request_digest(request) == api.request_digest(retuned)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_result_fields_change_the_digest(self, kind):
        import dataclasses

        request = _sample(kind)
        reseeded = dataclasses.replace(request, seed=request.seed + 1)
        assert api.request_digest(request) != api.request_digest(reseeded)

    def test_distinct_kinds_never_collide(self):
        digests = {api.request_digest(_sample(kind)) for kind in ALL_KINDS}
        assert len(digests) == len(ALL_KINDS)

    def test_digest_requires_a_request(self):
        with pytest.raises(ConfigError):
            api.request_digest({"kind": "characterize"})


class TestExecuteRequest:
    def test_rejects_non_request_objects(self):
        with pytest.raises(ConfigError, match="request types"):
            api.execute_request({"kind": "characterize"})

    def test_dispatches_by_kind(self):
        result = api.execute_request(
            api.CharacterizeRequest(cluster="cloudlab", scale=0.5, days=1)
        )
        assert result.report.cluster_name == "CloudLab"
        assert result.dataset.n_rows > 0

    def test_request_path_matches_keyword_path(self):
        from repro.telemetry.io import dataset_to_csv_text

        request = api.CharacterizeRequest(
            cluster="cloudlab", scale=0.5, days=1, seed=3
        )
        via_request = api.characterize(request=request)
        via_keywords = api.characterize(
            cluster=api.load_preset("cloudlab", seed=3, scale=0.5),
            workload=api.load_workload("sgemm"),
            config=api.CampaignConfig(days=1),
        )
        assert dataset_to_csv_text(via_request.dataset) == (
            dataset_to_csv_text(via_keywords.dataset)
        )

    def test_request_plus_keywords_is_an_error(self):
        with pytest.raises(ConfigError, match="either"):
            api.characterize(
                request=api.CharacterizeRequest(),
                cluster=api.load_preset("cloudlab", scale=0.5),
            )


class TestIgnoredEngineField:
    """``engine`` stays on the wire (schema version 1) but selects nothing.

    There is one scheduler dispatch loop; like ``solver``, the field is
    accepted, validated, echoed, and kept out of the work identity until
    the next request-schema bump drops it.
    """

    def test_engine_does_not_split_the_digest(self):
        import dataclasses

        plain = api.ScheduleRequest(scale=0.25, n_jobs=6)
        digests = {
            api.request_digest(dataclasses.replace(plain, engine=engine))
            for engine in api.ENGINE_MODES
        }
        assert len(digests) == 1
        assert "engine" in api.EXECUTION_FIELDS

    def test_payload_ignores_the_engine(self):
        import dataclasses

        from repro.service.wire import build_response, encode_response

        plain = api.ScheduleRequest(scale=0.25, n_jobs=6, seed=3)
        bodies = set()
        for engine in api.ENGINE_MODES:
            request = dataclasses.replace(plain, engine=engine)
            payload = build_response(request, api.execute_request(request))
            assert payload.pop("request") == request.to_dict()
            bodies.add(encode_response(payload))
        assert len(bodies) == 1


class TestIgnoredSolverField:
    """``solver`` stays on the wire (schema version 1) but selects nothing.

    There is one DVFS solver; the field is accepted, validated, echoed,
    and ignored until the next request-schema bump drops it.
    """

    def test_digest_and_payload_ignore_the_solver(self):
        import dataclasses

        from repro.service.wire import build_response, encode_response

        plain = api.CharacterizeRequest(cluster="cloudlab", scale=0.5,
                                        days=1, seed=3)
        grid = dataclasses.replace(plain, solver="grid")
        assert api.request_digest(grid) == api.request_digest(plain)
        bodies = {}
        for name, request in (("plain", plain), ("grid", grid)):
            payload = build_response(request, api.execute_request(request))
            echoed = payload.pop("request")
            assert echoed == request.to_dict()
            bodies[name] = encode_response(payload)
        assert bodies["grid"] == bodies["plain"]

    def test_to_dict_still_carries_the_solver(self):
        assert api.CharacterizeRequest(solver="grid").to_dict()["solver"] \
            == "grid"
        assert api.CharacterizeRequest().to_dict()["solver"] is None
        assert "solver" in api.EXECUTION_FIELDS
        assert api.REQUEST_SCHEMA_VERSION == 1

    def test_unknown_solver_still_rejected(self):
        with pytest.raises(ConfigError, match="solver"):
            api.CharacterizeRequest(solver="warp")
        doc = api.CharacterizeRequest().to_dict()
        doc["solver"] = "warp"
        with pytest.raises(ConfigError, match="solver"):
            api.request_from_dict(doc)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_execute_request_never_writes_the_environment(self, kind):
        # Requests run concurrently in the service's thread pool, so no
        # request path may touch process-global state such as os.environ.
        import dataclasses
        import os
        from unittest import mock

        request = dataclasses.replace(_sample(kind), solver="grid",
                                      workers=None)
        before = dict(os.environ)
        setitem, delitem = os._Environ.__setitem__, os._Environ.__delitem__
        with mock.patch.object(os._Environ, "__setitem__", autospec=True,
                               side_effect=setitem) as set_spy, \
                mock.patch.object(os._Environ, "__delitem__", autospec=True,
                                  side_effect=delitem) as del_spy:
            api.execute_request(request)
        assert set_spy.call_count == 0
        assert del_spy.call_count == 0
        assert dict(os.environ) == before
