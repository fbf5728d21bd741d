"""Tests for the streaming metrics pipeline (repro.obs.metrics)."""

import numpy as np
import pytest

from repro.errors import AnalysisError, ConfigError
from repro.obs.metrics import (
    DEFAULT_HISTOGRAM_EDGES,
    FleetMonitor,
    MetricsRegistry,
    MonitorConfig,
    render_prometheus,
)
from repro.obs.observer import activate, active_monitor

from ..golden import golden_csv_text, read_golden_text

GOLDEN_NAME = "cloudlab-sgemm"


class TestRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("runs", 1)
        reg.inc("runs", 2)
        assert reg.counter("runs") == 3
        assert reg.counter("never") == 0

    def test_gauge_label_mismatch_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(AnalysisError, match="labels"):
            reg.set_gauge("g", np.array([1.0, 2.0]), labels=("a",))

    def test_histogram_bucket_semantics(self):
        reg = MetricsRegistry()
        reg.observe("x", np.array([0.5, 1.0, 1.5]), edges=(1.0, 2.0))
        hist = reg.histogram("x")
        # value <= bound lands in that bucket; 1.5 in the (1, 2] bucket
        assert hist["bucket_counts"] == (2, 1, 0)
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(3.0)

    def test_histogram_overflow_bucket(self):
        reg = MetricsRegistry()
        reg.observe("x", np.array([99.0]), edges=(1.0,))
        assert reg.histogram("x")["bucket_counts"] == (0, 1)

    def test_default_edges_resolved_by_family(self):
        reg = MetricsRegistry()
        reg.observe("fleet_frequency_mhz", np.array([1300.0]))
        bounds = reg.histogram("fleet_frequency_mhz")["bounds"]
        assert bounds == DEFAULT_HISTOGRAM_EDGES["frequency_mhz"]

    def test_unknown_family_requires_explicit_edges(self):
        with pytest.raises(AnalysisError, match="edges"):
            MetricsRegistry().observe("mystery_metric", np.array([1.0]))

    def test_payload_merge_sums_counters_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 1), (b, 2)):
            reg.inc("runs", n)
            reg.observe("x", np.full(n, 0.5), edges=(1.0, 2.0))
        merged = MetricsRegistry()
        merged.merge_payload(a.to_payload())
        merged.merge_payload(b.to_payload())
        assert merged.counter("runs") == 3
        assert merged.histogram("x")["bucket_counts"] == (3, 0, 0)

    def test_merge_rejects_mismatched_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("x", np.array([0.5]), edges=(1.0,))
        b.observe("x", np.array([0.5]), edges=(2.0,))
        merged = MetricsRegistry()
        merged.merge_payload(a.to_payload())
        with pytest.raises(AnalysisError, match="bounds"):
            merged.merge_payload(b.to_payload())

    def test_payload_excludes_gauges(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0)
        counters, histograms, _ = reg.to_payload()
        assert counters == {} and histograms == {}


class TestActivation:
    def test_inactive_by_default(self):
        assert active_monitor() is None

    def test_activation_scoped_and_nestable(self):
        outer, inner = FleetMonitor(), FleetMonitor()
        with activate(monitor=outer):
            assert active_monitor() is outer
            with activate(monitor=inner):
                assert active_monitor() is inner
            assert active_monitor() is outer
        assert active_monitor() is None

    def test_monitor_config_validation(self):
        with pytest.raises(ConfigError):
            MonitorConfig(window_runs=0)


def _feed(monitor, *, day=0, run_index=0, perf, idx=None, freq=None,
          power=None, temp=None, pcap=None, tcap=None):
    perf = np.asarray(perf, dtype=float)
    n = perf.shape[0]
    monitor.observe_run(
        day=day, run_index=run_index,
        gpu_indices=np.arange(n) if idx is None else np.asarray(idx),
        performance_ms=perf,
        frequency_mhz=np.full(n, 1300.0) if freq is None else np.asarray(freq),
        power_w=np.full(n, 250.0) if power is None else np.asarray(power),
        temperature_c=np.full(n, 60.0) if temp is None else np.asarray(temp),
        power_capped=np.zeros(n, bool) if pcap is None else np.asarray(pcap),
        thermally_capped=np.zeros(n, bool) if tcap is None else np.asarray(tcap),
    )


class TestFleetMonitor:
    def test_iter_runs_reassembles_shards(self):
        monitor = FleetMonitor()
        _feed(monitor, day=0, run_index=0, perf=[100.0, 101.0], idx=[0, 1])
        _feed(monitor, day=0, run_index=0, perf=[102.0, 103.0], idx=[2, 3])
        _feed(monitor, day=0, run_index=1, perf=[100.0] * 4)
        runs = list(monitor.iter_runs())
        assert [r.n for r in runs] == [4, 4]
        assert runs[0].gpu_indices.tolist() == [0, 1, 2, 3]
        assert monitor.n_runs == 2

    def test_finalize_gauges_and_deviation(self):
        monitor = FleetMonitor()
        # GPU 3 is 20% slow; deviation gauge should show it
        _feed(monitor, perf=[100.0, 100.0, 100.0, 120.0])
        monitor.finalize(("g0", "g1", "g2", "g3"))
        dev = monitor.registry.gauge("gpu_perf_deviation")
        assert dev[3] == pytest.approx(1.2)
        assert monitor.registry.gauge_labels("gpu_perf_deviation") == (
            "g0", "g1", "g2", "g3"
        )

    def test_finalize_throttle_residency(self):
        monitor = FleetMonitor()
        _feed(monitor, run_index=0, perf=[100.0, 100.0],
              pcap=[True, False])
        _feed(monitor, run_index=1, perf=[100.0, 100.0],
              tcap=[True, False])
        monitor.finalize(("g0", "g1", "g2"))
        residency = monitor.registry.gauge("gpu_throttle_residency")
        assert residency[0] == 1.0
        assert residency[1] == 0.0
        assert np.isnan(residency[2])  # never observed

    def test_finalize_is_idempotent(self):
        monitor = FleetMonitor()
        _feed(monitor, perf=[100.0])
        monitor.finalize(("g0",))
        runs_total = monitor.registry.counter("monitor_runs_total")
        monitor.finalize(("g0",))
        assert monitor.registry.counter("monitor_runs_total") == runs_total

    def test_finalize_rejects_out_of_range_gpu(self):
        monitor = FleetMonitor()
        _feed(monitor, perf=[100.0, 100.0], idx=[0, 5])
        with pytest.raises(AnalysisError, match="labels"):
            monitor.finalize(("g0", "g1"))

    def test_failed_finalize_changes_nothing_and_can_be_retried(self):
        def three_gpu_runs():
            monitor = FleetMonitor()
            for r in range(3):
                _feed(monitor, run_index=r, perf=np.array([1.0, 2.0, 3.0]) + r,
                      freq=np.ones(3), power=np.ones(3), temp=np.ones(3),
                      pcap=[r % 2 == 0, False, True])
            return monitor

        labels = ("g0", "g1", "g2")
        monitor = three_gpu_runs()
        with pytest.raises(AnalysisError, match="references GPU 2"):
            monitor.finalize(labels[:2])
        assert monitor.gpu_labels is None
        monitor.finalize(labels)
        fresh = three_gpu_runs()
        fresh.finalize(labels)
        assert monitor.gpu_labels == labels
        assert render_prometheus(monitor) == render_prometheus(fresh)

    def test_payload_roundtrip_preserves_stream(self):
        shard = FleetMonitor()
        _feed(shard, perf=[100.0, 105.0])
        merged = FleetMonitor()
        merged.merge_payload(shard.to_payload())
        assert merged.n_runs == 1
        assert merged.registry.counter("monitor_gpu_samples_total") == 2


class TestPrometheusRendering:
    def test_counter_gauge_histogram_sections(self):
        reg = MetricsRegistry()
        reg.inc("runs_total", 3, help="runs observed")
        reg.set_gauge("gpu_power_w", np.array([250.0, np.nan]),
                      labels=("g0", "g1"))
        reg.observe("x_power_w", np.array([45.0]))
        text = render_prometheus(reg)
        assert "# HELP repro_runs_total runs observed" in text
        assert "# TYPE repro_runs_total counter" in text
        assert "repro_runs_total 3" in text
        assert 'repro_gpu_power_w{gpu="g0"} 250' in text
        assert "g1" not in text  # NaN gauge entries skipped
        assert 'repro_x_power_w_bucket{le="+Inf"} 1' in text
        assert "repro_x_power_w_count 1" in text

    def test_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        reg.observe("x", np.array([0.5, 1.5, 2.5]), edges=(1.0, 2.0))
        text = render_prometheus(reg)
        assert 'repro_x_bucket{le="1"} 1' in text
        assert 'repro_x_bucket{le="2"} 2' in text
        assert 'repro_x_bucket{le="+Inf"} 3' in text

    def test_monitor_accepted_directly(self):
        monitor = FleetMonitor()
        _feed(monitor, perf=[100.0])
        monitor.finalize(("g0",))
        assert "repro_monitor_runs_total 1" in render_prometheus(monitor)

    def test_empty_registry_renders_terminated_exposition(self):
        # Regression: the empty exposition used to come back as "" with no
        # final line feed, which the text format forbids.
        assert render_prometheus(MetricsRegistry()) == "\n"

    def test_exposition_always_ends_with_trailing_newline(self):
        counters_only = MetricsRegistry()
        counters_only.inc("a", 1)
        counters_only.inc("b", 2)
        with_histogram = MetricsRegistry()
        with_histogram.observe("x", np.array([0.5]), edges=(1.0,))
        for reg in (MetricsRegistry(), counters_only, with_histogram):
            text = render_prometheus(reg)
            assert text.endswith("\n")
            assert not text.endswith("\n\n") or text == "\n"

    def test_equal_registries_render_identically(self):
        def build():
            reg = MetricsRegistry()
            reg.inc("b", 2)
            reg.inc("a", 1)
            reg.observe("x", np.array([0.5]), edges=(1.0,))
            return reg

        assert render_prometheus(build()) == render_prometheus(build())


class TestZeroPerturbation:
    def test_monitored_campaign_matches_golden_fixture_bytes(self):
        monitor = FleetMonitor()
        text = golden_csv_text(GOLDEN_NAME, monitor=monitor)
        assert text == read_golden_text(GOLDEN_NAME)
        # and the monitor actually observed the campaign
        assert monitor.n_runs > 0
        assert monitor.registry.counter("solver_solves_total") > 0
        assert monitor.gpu_labels is not None  # executor finalized it
