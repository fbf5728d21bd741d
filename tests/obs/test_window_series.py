"""The lazy ``FleetMonitor.window_series`` vs the eager finalize loop.

``window_series`` is derived on first read after ``finalize()`` by
replaying the merged run stream.  It must equal the loop ``finalize`` used
to run eagerly (:func:`tests.obs.window_oracle.window_series`) exactly:
metric keys, one dict per run with the same keys, and float bits,
``day`` / ``run_index`` included, on random streams with multi-shard
runs, partial coverage and windows of 1 to 5 runs.  A ``finalize`` that
raises must leave the monitor as it was, so a retry succeeds.
"""

from __future__ import annotations

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import AnalysisError
from repro.obs.metrics import (
    FleetMonitor,
    MonitorConfig,
    SlidingWindow,
    render_prometheus,
)

from . import window_oracle as oracle

# Pooled statistics over infinities overflow and go invalid by design.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_READINGS = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, 250.0]),
    st.floats(allow_nan=True, width=64),
)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_same_series(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for name in want:
        assert len(got[name]) == len(want[name])
        for got_stats, want_stats in zip(got[name], want[name]):
            assert list(got_stats) == list(want_stats)
            for key in want_stats:
                assert _bits(got_stats[key]) == _bits(want_stats[key]), (
                    name, key, got_stats[key], want_stats[key]
                )


@st.composite
def streams(draw):
    """``(window, labels, shards)``: each shard one ``observe_run`` call.

    Runs cover a random ascending subset of the fleet (coverage < 1) and
    are split into 1-3 consecutive shards, as the campaign plan does.
    """
    n = draw(st.integers(1, 10))
    labels = tuple(f"n{g // 4}-{g % 4}" for g in range(n))
    shards = []
    for run_index in range(draw(st.integers(0, 7))):
        covered = draw(st.lists(
            st.integers(0, n - 1), unique=True, min_size=1, max_size=n,
        ))
        idx = np.asarray(sorted(covered), dtype=np.int64)
        cuts = sorted(draw(st.lists(
            st.integers(1, max(1, idx.shape[0] - 1)), max_size=2,
        )))
        for part in np.split(idx, [c for c in cuts if c < idx.shape[0]]):
            if part.shape[0] == 0:
                continue
            k = part.shape[0]

            def column(elements, k=k):
                return np.asarray(
                    draw(st.lists(elements, min_size=k, max_size=k)),
                    dtype=float,
                )

            shards.append(dict(
                day=run_index // 2,
                run_index=run_index % 2,
                gpu_indices=part,
                performance_ms=column(st.floats(1.0, 1e6)),
                frequency_mhz=column(_READINGS),
                power_w=column(_READINGS),
                temperature_c=column(_READINGS),
                power_capped=np.asarray(
                    draw(st.lists(st.booleans(), min_size=k, max_size=k))
                ),
                thermally_capped=np.zeros(k, dtype=bool),
            ))
    return draw(st.integers(1, 5)), labels, shards


def _three_gpu_runs(n_runs: int) -> list[dict]:
    return [
        dict(
            day=0, run_index=r, gpu_indices=np.arange(3),
            performance_ms=np.array([1.0, 2.0, 3.0]) + r,
            frequency_mhz=np.ones(3), power_w=np.ones(3),
            temperature_c=np.ones(3),
            power_capped=np.array([r % 2 == 0, False, True]),
            thermally_capped=np.zeros(3, dtype=bool),
        )
        for r in range(n_runs)
    ]


def _monitor(window: int, shards: list[dict]) -> FleetMonitor:
    monitor = FleetMonitor(MonitorConfig(window_runs=window))
    for shard in shards:
        monitor.observe_run(**shard)
    return monitor


class TestLazyWindowSeries:
    @SETTINGS
    @given(stream=streams())
    def test_matches_eager_oracle(self, stream):
        window, labels, shards = stream
        monitor = _monitor(window, shards)
        monitor.finalize(labels)
        assert_same_series(
            monitor.window_series, oracle.window_series(monitor, labels)
        )

    @SETTINGS
    @given(stream=streams(), data=st.data())
    def test_payload_merge_gives_same_series(self, stream, data):
        window, labels, shards = stream
        direct = _monitor(window, shards)
        direct.finalize(labels)
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(shards)), max_size=3,
        )))
        merged = FleetMonitor(MonitorConfig(window_runs=window))
        for lo, hi in zip([0, *cuts], [*cuts, len(shards)]):
            merged.merge_payload(_monitor(window, shards[lo:hi]).to_payload())
        merged.finalize(labels)
        assert_same_series(merged.window_series, direct.window_series)

    def test_empty_before_finalize(self):
        monitor = FleetMonitor()
        monitor.observe_run(
            day=0, run_index=0, gpu_indices=np.arange(2),
            performance_ms=np.array([1.0, 2.0]),
            frequency_mhz=np.ones(2), power_w=np.ones(2),
            temperature_c=np.ones(2), power_capped=np.zeros(2, dtype=bool),
            thermally_capped=np.zeros(2, dtype=bool),
        )
        assert monitor.window_series == {}
        monitor.finalize(("g0", "g1"))
        assert len(monitor.window_series["perf_deviation"]) == 1

    def test_computed_once_on_first_read(self):
        monitor = _monitor(3, _three_gpu_runs(4))
        with mock.patch.object(
            SlidingWindow, "pooled_stats", autospec=True,
            side_effect=SlidingWindow.pooled_stats,
        ) as pooled:
            monitor.finalize(("g0", "g1", "g2"))
            assert pooled.call_count == 0  # finalize does not build it
            first = monitor.window_series
            assert pooled.call_count == 4 * 4  # 4 runs x 4 metrics
            assert monitor.window_series is first
            assert pooled.call_count == 4 * 4

    def test_failed_finalize_changes_nothing_and_can_be_retried(self):
        labels = ("g0", "g1", "g2")
        monitor = _monitor(2, _three_gpu_runs(3))
        with pytest.raises(AnalysisError, match="references GPU 2"):
            monitor.finalize(labels[:2])
        assert monitor.gpu_labels is None
        assert monitor.window_series == {}
        monitor.finalize(labels)
        fresh = _monitor(2, _three_gpu_runs(3))
        fresh.finalize(labels)
        assert monitor.gpu_labels == labels
        assert render_prometheus(monitor) == render_prometheus(fresh)
        assert_same_series(monitor.window_series, fresh.window_series)
