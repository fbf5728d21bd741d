"""Unit tests for the span tracer, counters, activation, and exports."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    NONDETERMINISTIC_COUNTER_PREFIXES,
    SpanRecord,
    Tracer,
    activate,
    active_observer,
    write_chrome_trace,
    write_events_jsonl,
)


class TestTracer:
    def test_span_contextmanager_records(self):
        t = Tracer(track="t")
        with t.span("work", category="test", items=3):
            pass
        assert len(t.spans) == 1
        record = t.spans[0]
        assert record.name == "work"
        assert record.category == "test"
        assert record.track == "t"
        assert record.duration_s >= 0
        assert dict(record.args) == {"items": 3}
        assert record.end_s == record.start_s + record.duration_s

    def test_span_recorded_on_exception(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("boom"):
                raise ValueError("x")
        assert [s.name for s in t.spans] == ["boom"]

    def test_counters_add_and_gauge(self):
        t = Tracer()
        t.add("a.count")
        t.add("a.count", 4)
        t.gauge("a.level", 7.5)
        t.gauge("a.level", 2.5)
        assert t.counters == {"a.count": 5, "a.level": 2.5}

    def test_merge_payload_sums_counters_and_appends_spans(self):
        shard = Tracer(track="shard-0")
        with shard.span("run"):
            shard.add("x", 2)
        total = Tracer()
        total.add("x", 1)
        total.merge_payload(shard.to_payload())
        total.merge_payload(shard.to_payload())
        assert total.counters["x"] == 5
        assert [s.track for s in total.spans] == ["shard-0", "shard-0"]

    def test_deterministic_counters_filters_cache_prefix(self):
        t = Tracer()
        t.add("cache.fleet_day.hit", 3)
        t.add("solver.solves", 2)
        assert "cache." in NONDETERMINISTIC_COUNTER_PREFIXES
        assert t.deterministic_counters() == {"solver.solves": 2}

    def test_span_index_is_a_multiset(self):
        t = Tracer(track="a")
        with t.span("run"):
            pass
        with t.span("run"):
            pass
        assert t.span_index() == {("a", "run"): 2}

    def test_payload_is_plain_data(self):
        t = Tracer()
        with t.span("s"):
            t.add("c")
        spans, counters = t.to_payload()
        assert isinstance(spans, tuple)
        assert all(isinstance(s, SpanRecord) for s in spans)
        assert isinstance(counters, dict)


class TestActivation:
    def test_inactive_by_default(self):
        assert active_observer().tracer is None

    def test_activate_and_restore(self):
        t = Tracer()
        with activate(t) as active:
            assert active.tracer is t
            assert active_observer().tracer is t
        assert active_observer().tracer is None

    def test_nested_activation_restores_outer(self):
        outer, inner = Tracer(), Tracer()
        with activate(outer):
            with activate(inner):
                assert active_observer().tracer is inner
            assert active_observer().tracer is outer

    def test_activation_is_thread_local(self):
        t = Tracer()
        seen: list = []
        with activate(t):
            thread = threading.Thread(target=lambda: seen.append(active_observer().tracer))
            thread.start()
            thread.join()
        assert seen == [None]


class TestExports:
    def _traced(self) -> Tracer:
        t = Tracer(track="campaign")
        with t.span("outer", category="campaign", k="v"):
            pass
        t.record_span("inner", category="run", track="day-000",
                      start_s=100.0, duration_s=0.5, day=0)
        t.add("solver.solves", 3)
        return t

    def test_events_jsonl(self, tmp_path):
        t = self._traced()
        path = write_events_jsonl(t, tmp_path / "events.jsonl")
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [x["event"] for x in lines] == ["span", "span", "counter"]
        assert lines[1]["track"] == "day-000"
        assert lines[1]["args"] == {"day": 0}
        assert lines[2] == {"event": "counter", "name": "solver.solves",
                            "value": 3}

    def test_chrome_trace_structure(self, tmp_path):
        t = self._traced()
        path = write_chrome_trace(t, tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        phases = [e["ph"] for e in events]
        # one thread_name metadata event per track, then the spans, then
        # the counters instant event
        assert phases.count("M") == 2
        assert phases.count("X") == 2
        assert phases.count("i") == 1
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == {"campaign", "day-000"}
        complete = [e for e in events if e["ph"] == "X"]
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
        instant = [e for e in events if e["ph"] == "i"][0]
        assert instant["args"] == {"solver.solves": 3}

    def test_chrome_trace_empty_tracer(self, tmp_path):
        path = write_chrome_trace(Tracer(), tmp_path / "empty.json")
        doc = json.loads(path.read_text())
        assert doc["traceEvents"] == []
