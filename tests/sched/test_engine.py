"""Tests for the discrete-event queue engine."""

import json

import numpy as np
import pytest

from repro.cluster import get_preset
from repro.errors import SimulationError
from repro.sched import (
    BackfillPolicy,
    FifoPolicy,
    Job,
    TraceConfig,
    build_scheduling_report,
    event_log_lines,
    generate_trace,
    run_schedule,
    validate_scheduling_report,
)


@pytest.fixture(scope="module")
def cluster():
    return get_preset("longhorn", seed=11, scale=0.25)


@pytest.fixture(scope="module")
def outcome(cluster):
    trace = generate_trace(TraceConfig(n_jobs=30, seed=4))
    return run_schedule(cluster, trace, FifoPolicy())


class TestEngineInvariants:
    def test_every_job_completes(self, outcome):
        assert len(outcome.records) == 30
        assert [r.job_id for r in outcome.records] == list(range(30))

    def test_event_log_is_balanced(self, outcome):
        kinds = [e["event"] for e in outcome.events]
        assert kinds.count("submit") == 30
        assert kinds.count("start") == 30
        assert kinds.count("finish") == 30

    def test_causality_per_job(self, outcome):
        for record in outcome.records:
            assert record.submit_time_s <= record.start_time_s
            assert record.start_time_s < record.finish_time_s
            assert record.jct_s == pytest.approx(
                record.wait_time_s + record.runtime_s
            )

    def test_gang_width_honored(self, outcome):
        for record in outcome.records:
            assert len(record.gpu_indices) == record.n_gpus
            assert len(set(record.gpu_indices)) == record.n_gpus

    def test_no_gpu_oversubscribed(self, outcome):
        # at any start event, the job's GPUs must not be in use by any
        # other job whose [start, finish) interval covers that instant
        intervals = {
            r.job_id: (r.start_time_s, r.finish_time_s, set(r.gpu_indices))
            for r in outcome.records
        }
        for r in outcome.records:
            for other_id, (s, f, gpus) in intervals.items():
                if other_id == r.job_id:
                    continue
                if s < r.finish_time_s and r.start_time_s < f:
                    assert not (set(r.gpu_indices) & gpus), (
                        f"jobs {r.job_id} and {other_id} overlap"
                    )

    def test_single_node_jobs_do_not_span(self, cluster, outcome):
        per_node = cluster.topology.gpus_per_node
        for record in outcome.records:
            if record.n_gpus <= per_node:
                assert len(record.node_indices) == 1

    def test_wide_gangs_span_nodes(self, cluster, outcome):
        per_node = cluster.topology.gpus_per_node
        wide = [r for r in outcome.records if r.n_gpus > per_node]
        assert wide, "trace should include 8-GPU gangs"
        for record in wide:
            assert len(record.node_indices) >= 2

    def test_event_log_lines_canonical(self, outcome):
        lines = event_log_lines(outcome.events)
        for line in lines:
            doc = json.loads(line)
            assert json.dumps(doc, sort_keys=True,
                              separators=(",", ":")) == line


class TestQueueDiscipline:
    def test_fifo_head_blocks_queue(self, cluster):
        # saturate the machine with one whale, then a blocked medium job,
        # then a tiny job that COULD run — fifo must hold it back
        n = cluster.topology.n_gpus
        jobs = (
            Job(0, 1.0, "sgemm", n, 50),
            Job(1, 2.0, "sgemm", n, 10),
            Job(2, 3.0, "sgemm", 1, 10),
        )
        out = run_schedule(cluster, jobs, FifoPolicy())
        by_id = {r.job_id: r for r in out.records}
        assert by_id[2].start_time_s >= by_id[1].start_time_s

    def test_backfill_lets_small_jobs_jump(self, cluster):
        n = cluster.topology.n_gpus
        jobs = (
            Job(0, 1.0, "sgemm", n - 1, 50),
            Job(1, 2.0, "sgemm", n, 10),
            Job(2, 3.0, "sgemm", 1, 10),
        )
        fifo = run_schedule(cluster, jobs, FifoPolicy())
        backfill = run_schedule(cluster, jobs, BackfillPolicy())
        fifo_start = {r.job_id: r.start_time_s for r in fifo.records}
        bf_start = {r.job_id: r.start_time_s for r in backfill.records}
        # under fifo the 1-GPU job waits behind the blocked whale; with
        # backfill it starts immediately in the leftover capacity
        assert bf_start[2] < fifo_start[2]
        backfilled = [e for e in backfill.events
                      if e["event"] == "start" and e["backfilled"]]
        assert backfilled


class TestReportBuilding:
    def test_report_validates_and_serializes(self, cluster, outcome):
        report = build_scheduling_report(
            cluster.name, outcome, FifoPolicy().describe(),
            cluster.topology.n_gpus, trace_seed=4,
        )
        doc = report.to_dict()
        validate_scheduling_report(doc)
        assert doc["metrics"]["n_jobs"] == 30
        assert 0 <= doc["metrics"]["slow_assignment_rate"] <= 1
        assert 0 <= doc["metrics"]["utilization"] <= 1
        assert doc["metrics"]["straggler_slowdown_p95"] >= 1.0
        assert report.render()

    def test_report_rejects_schema_violation(self, cluster, outcome):
        from repro.errors import ConfigError

        report = build_scheduling_report(
            cluster.name, outcome, FifoPolicy().describe(),
            cluster.topology.n_gpus,
        )
        doc = report.to_dict()
        del doc["metrics"]["makespan_s"]
        with pytest.raises(ConfigError, match="makespan_s"):
            validate_scheduling_report(doc)


class TestEngineValidation:
    def test_empty_trace_rejected(self, cluster):
        with pytest.raises(SimulationError):
            run_schedule(cluster, (), FifoPolicy())

    def test_oversized_job_rejected(self, cluster):
        jobs = (Job(0, 1.0, "sgemm", cluster.topology.n_gpus + 1, 10),)
        with pytest.raises(SimulationError, match="wants"):
            run_schedule(cluster, jobs, FifoPolicy())


class TestTracerIntegration:
    def test_counters_and_span_recorded(self, cluster):
        from repro.obs import Tracer, activate

        trace = generate_trace(TraceConfig(n_jobs=10, seed=4))
        tracer = Tracer()
        with activate(tracer):
            run_schedule(cluster, trace, FifoPolicy())
        assert tracer.counters["sched.submitted"] == 10
        assert tracer.counters["sched.completed"] == 10
        assert tracer.counters["sched.placements"] == 10
        assert any(s.name == "schedule" for s in tracer.spans)

    def test_tracing_never_perturbs_results(self, cluster):
        from repro.obs import Tracer, activate

        trace = generate_trace(TraceConfig(n_jobs=10, seed=4))
        bare = run_schedule(cluster, trace, FifoPolicy())
        with activate(Tracer()):
            traced = run_schedule(cluster, trace, FifoPolicy())
        assert event_log_lines(bare.events) == event_log_lines(traced.events)
