"""The single observer slot: activation nesting and the shared shard merge.

Every sink rides the same shard payload and the same plan-order merge, so
any subset of {tracer, monitor, timeline} on any executor and shard shape
must observe exactly what the serial run with every sink attached does.
"""

from __future__ import annotations

import functools
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import longhorn
from repro.obs import (
    FleetMonitor,
    TimelineRecorder,
    Tracer,
    activate,
    activate_recorder,
    active_monitor,
    active_observer,
    render_prometheus,
    timeline_lines,
)
from repro.obs.health import analyze_fleet_health
from repro.sim import CampaignConfig, run_campaign
from repro.sim.parallel import ParallelConfig
from repro.workloads import sgemm

CONFIG = CampaignConfig(days=2, runs_per_day=2)

#: ``max_gpus_per_shard`` values: one shard per run, and two splits of the
#: 104-GPU fleet (the bound is part of the plan, so each has its own
#: serial reference).
SHARD_BOUNDS = (None, 40, 16)

SINKS = ("tracer", "monitor", "timeline")


@functools.lru_cache(maxsize=None)
def _cluster():
    return longhorn(seed=11, scale=0.25)


def _observed(sinks, parallel):
    """Run the campaign with fresh ``sinks``; returns what each observed."""
    made = {
        "tracer": Tracer() if "tracer" in sinks else None,
        "monitor": FleetMonitor() if "monitor" in sinks else None,
        "timeline": TimelineRecorder() if "timeline" in sinks else None,
    }
    cluster = _cluster()
    run_campaign(cluster, sgemm(), CONFIG, parallel=parallel, **made)
    seen = {}
    if made["tracer"] is not None:
        seen["counters"] = made["tracer"].deterministic_counters()
        seen["spans"] = made["tracer"].span_index()
    if made["monitor"] is not None:
        tracker, _ = analyze_fleet_health(made["monitor"], cluster.topology)
        seen["prometheus"] = render_prometheus(made["monitor"])
        seen["health"] = tracker.events
    if made["timeline"] is not None:
        seen["timeline"] = timeline_lines(made["timeline"])
    return seen


@functools.lru_cache(maxsize=None)
def _serial_reference(bound):
    return _observed(SINKS, ParallelConfig(max_gpus_per_shard=bound))


@settings(max_examples=25, deadline=None)
@given(
    sinks=st.sets(st.sampled_from(SINKS), min_size=1),
    backend=st.sampled_from(["serial", "thread"]),
    workers=st.integers(min_value=1, max_value=3),
    bound=st.sampled_from(SHARD_BOUNDS),
)
@example(sinks=set(SINKS), backend="process", workers=2, bound=40)
def test_any_sink_subset_observes_the_serial_run(sinks, backend, workers,
                                                 bound):
    parallel = ParallelConfig(
        workers=workers, backend=backend, max_gpus_per_shard=bound
    )
    seen = _observed(sinks, parallel)
    reference = _serial_reference(bound)
    assert seen == {key: reference[key] for key in seen}
    assert ("counters" in seen) == ("tracer" in sinks)
    assert ("prometheus" in seen) == ("monitor" in sinks)
    assert ("timeline" in seen) == ("timeline" in sinks)


class TestNesting:
    @pytest.mark.parametrize("slot", ["tracer", "monitor", "recorder"])
    def test_activating_one_sink_keeps_the_other_two(self, slot):
        outer = {
            "tracer": Tracer(),
            "monitor": FleetMonitor(),
            "recorder": TimelineRecorder(),
        }
        inner = type(outer[slot])()
        with activate(outer["tracer"], monitor=outer["monitor"],
                      recorder=outer["recorder"]):
            with activate(**{slot: inner}) as current:
                assert active_observer() is current
                for name, sink in outer.items():
                    expected = inner if name == slot else sink
                    assert getattr(current, name) is expected
            assert active_observer().sinks() == outer
        assert active_observer().sinks() == {}

    def test_masking_the_recorder_keeps_tracer_and_monitor(self):
        tracer, monitor = Tracer(), FleetMonitor()
        recorder = TimelineRecorder()
        with activate(tracer, monitor=monitor, recorder=recorder):
            with activate_recorder(None):
                assert active_observer().sinks() == {
                    "tracer": tracer, "monitor": monitor,
                }
                assert active_monitor() is monitor
            assert active_observer().recorder is recorder

    def test_empty_observer_builds_no_shard_sinks(self):
        empty = active_observer()
        assert empty.for_shard(None) is empty
        assert empty.to_payload() == {}


class TestThreadLocality:
    def test_fresh_pool_thread_sees_the_shared_empty_observer(self):
        empty = active_observer()
        assert empty.sinks() == {}
        with ThreadPoolExecutor(max_workers=1) as pool:
            seen = pool.submit(active_observer).result()
        assert seen is empty

    def test_activation_is_invisible_on_other_threads(self):
        empty = active_observer()
        tracer = Tracer()
        with activate(tracer, monitor=FleetMonitor()):
            with ThreadPoolExecutor(max_workers=1) as pool:
                assert pool.submit(active_observer).result() is empty
            assert active_observer().tracer is tracer

        # ... and the other way round: a worker's activation stays there.
        activated, checked = threading.Event(), threading.Event()

        def worker():
            with activate(recorder=TimelineRecorder()) as current:
                activated.set()
                checked.wait(timeout=10)
                return current is active_observer()

        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(worker)
            assert activated.wait(timeout=10)
            assert active_observer() is empty
            checked.set()
            assert future.result() is True
