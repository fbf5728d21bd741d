"""End-to-end scoring: scorecards, the chaos timeline, replay, facade."""

import dataclasses

import pytest

from repro.api import ChaosRequest, chaos, execute_request
from repro.chaos import (
    get_scenario,
    score_scenario,
    validate_scorecard,
)
from repro.errors import ConfigError
from repro.obs import activate_recorder
from repro.obs.replay import TimelineReplayer, load_replayer
from repro.obs.timeline import (
    TimelineRecorder,
    canonical_json,
    timeline_lines,
    write_timeline,
)
from repro.service.wire import build_response, validate_response

from tests.gpu.dvfs_oracle import dense_solver

#: One fast shape shared by every run in this module.
SMALL = dict(cluster_name="longhorn", seed=2022, scale=0.25, days=6,
             runs_per_day=2, n_jobs=12)


def run_scenario(name="cascading-thermal", **over):
    kwargs = {**SMALL, **over}
    timeline = kwargs.pop("timeline", None)
    return score_scenario(get_scenario(name), timeline=timeline, **kwargs)


@pytest.fixture(scope="module")
def scored():
    """One recorded cascading-thermal run: (result, timeline)."""
    timeline = TimelineRecorder()
    return run_scenario(timeline=timeline, workers=1), timeline


def test_activated_recorder_records_the_same_flight_log(scored):
    _, passed = scored
    activated = TimelineRecorder()
    with activate_recorder(activated):
        run_scenario(workers=1)
    assert timeline_lines(activated) == timeline_lines(passed)


class TestScorecard:
    def test_scorecard_is_schema_valid(self, scored):
        result, _ = scored
        validate_scorecard(result.scorecard)

    def test_detection_accounts_for_every_detectable_fault(self, scored):
        result, _ = scored
        det = result.scorecard["detection"]
        detectable = sum(
            1 for f in result.scorecard["faults"] if f["detectable"]
        )
        assert detectable == 3
        assert det["detected"] + det["missed"] == detectable
        assert det["detected"] >= 1
        assert set(det["latency_days"]) == set(
            result.scenario.fault_labels()
        )
        for fault in result.scorecard["faults"]:
            latency = det["latency_days"][fault["label"]]
            if not fault["detectable"]:
                assert latency is None
            elif latency is not None:
                assert latency >= 0

    def test_campaign_section_compares_against_baseline(self, scored):
        result, _ = scored
        camp = result.scorecard["campaign"]
        assert camp["rows"] == camp["rows_baseline"]  # no node loss here
        assert camp["perf_delta_frac"] == pytest.approx(
            camp["perf_p50_ms"] / camp["perf_p50_baseline_ms"] - 1.0
        )

    def test_render_summarizes_the_incident(self, scored):
        result, _ = scored
        text = result.render()
        assert "cascading-thermal" in text
        assert "detected=" in text
        assert "fault-00-coolant_pump_degradation" in text

    def test_node_loss_shrinks_the_faulted_campaign(self):
        result = run_scenario("stuck-pstate-cabinet", days=6)
        camp = result.scorecard["campaign"]
        assert camp["rows"] < camp["rows_baseline"]
        det = result.scorecard["detection"]
        # Node loss is undetectable by construction.
        assert det["latency_days"]["fault-01-node_loss"] is None


class TestDeterminism:
    def test_scorecard_and_timeline_are_worker_independent(self, scored):
        result_w1, timeline_w1 = scored
        timeline_w2 = TimelineRecorder()
        result_w2 = run_scenario(timeline=timeline_w2, workers=2)
        assert (canonical_json(result_w2.scorecard)
                == canonical_json(result_w1.scorecard))
        assert timeline_lines(timeline_w2) == timeline_lines(timeline_w1)

    def test_scorecard_is_solver_independent(self, scored):
        # Campaigns, health detection, and job pricing all re-solved on
        # the dense-scan oracle (in-process, hence serial) must score the
        # incident identically.
        result_fleet, _ = scored
        with dense_solver():
            result_dense = run_scenario(workers=None)
        assert (canonical_json(result_dense.scorecard)
                == canonical_json(result_fleet.scorecard))


class TestChaosTimeline:
    def test_events_declare_the_scenario_before_the_campaign(self, scored):
        _, timeline = scored
        events = timeline.events()
        assert events[0].layer == "chaos"
        assert events[0].kind == "scenario_begin"
        onsets = [e for e in events if e.kind == "fault_onset"]
        assert [e.entity for e in onsets] == list(
            get_scenario("cascading-thermal").fault_labels()
        )
        assert events[-1].kind == "chaos_scorecard"

    def test_replay_check_rederives_the_detection_claims(self, scored):
        _, timeline = scored
        checks = TimelineReplayer(timeline.events()).check()
        assert checks and all(c.ok for c in checks)
        assert any("chaos_scorecard" in c.name for c in checks)

    def test_tampered_detection_claim_fails_closed(self, scored):
        _, timeline = scored
        events = list(timeline.events())
        claim = events[-1]
        assert claim.kind == "chaos_scorecard"
        payload = tuple(
            (key, value + 1 if key == "detected" else value)
            for key, value in claim.payload
        )
        events[-1] = dataclasses.replace(claim, payload=payload)
        checks = TimelineReplayer(tuple(events)).check()
        bad = [c for c in checks if "chaos_scorecard" in c.name]
        assert bad and not bad[0].ok

    def test_round_trips_through_the_jsonl_file(self, scored, tmp_path):
        _, timeline = scored
        path = tmp_path / "chaos.jsonl"
        write_timeline(timeline, path)
        replayer = load_replayer(path)
        assert replayer.events == timeline.events()
        assert all(c.ok for c in replayer.check())
        assert replayer.layer("chaos")
        with pytest.raises(ValueError, match="unknown layer"):
            replayer.layer("weather")


class TestFacadeAndWire:
    REQUEST = ChaosRequest(scenario="pump-degradation", seed=2022,
                           scale=0.25, days=4, runs_per_day=1, n_jobs=8)

    @pytest.fixture(scope="class")
    def dispatched(self):
        return execute_request(self.REQUEST)

    def test_execute_request_returns_a_valid_scorecard(self, dispatched):
        validate_scorecard(dispatched.scorecard)
        assert dispatched.scorecard["scenario"] == "pump-degradation"
        assert dispatched.scorecard["days"] == 4

    def test_wire_response_carries_the_scorecard(self, dispatched):
        payload = build_response(self.REQUEST, dispatched)
        assert validate_response(payload) == "chaos"
        assert payload["scorecard"] == dispatched.scorecard

    def test_request_and_kwargs_are_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="request="):
            chaos(request=self.REQUEST, scenario="pump-degradation")

    def test_chaos_needs_a_scenario(self):
        with pytest.raises(ConfigError):
            chaos()

    def test_request_validates_eagerly(self):
        with pytest.raises(ConfigError):
            ChaosRequest(days=0)
        with pytest.raises(ConfigError):
            ChaosRequest(scenario="")
