"""The block-evaluating health tracker vs the per-run oracle, bit for bit.

:class:`~repro.obs.health.HealthTracker` evaluates blocks of runs at once:
ring windows scanned for a whole block, fences from one ``np.percentile``
over a (runs x GPUs) matrix, only the hysteresis stepping run by run.
:mod:`tests.obs.health_oracle` is the original one-run-per-call tracker.
On random run streams — partial coverage and lost nodes, windows of 1 to 8
runs, slow, hot and throttle-stuck GPUs that may heal, runs with a NaN
performance, blocks of any size, and the stream split at random points
between ``observe_run`` calls and ``observe_monitor`` calls — both must
raise the same error, if any, and leave the same ring buffers, write
positions and fill counts, events, grades, open conditions, streaks,
baselines, outlier counts, run count, report JSON and text, and recorded
health timeline, compared as exact JSON text (``repr`` round-trips every
float) or raw bytes.
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.topology import cabinet_topology, row_column_topology
from repro.errors import AnalysisError
from repro.obs import health
from repro.obs.health import HealthPolicy, HealthTracker, build_health_report
from repro.obs.metrics import FleetMonitor, _Ring, _window_mean
from repro.obs.observer import activate
from repro.obs.timeline import TimelineRecorder, timeline_lines

from . import health_oracle as oracle

# NaN deviations reach the oracle's nan-functions on purpose.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SETTINGS = settings(
    max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_FIELDS = (
    "gpu_indices", "performance_ms", "frequency_mhz", "temperature_c",
    "power_capped", "thermally_capped",
)


def _run_kwargs(run: dict) -> dict:
    return {key: run[key] for key in ("day", "run_index") + _FIELDS}


def _stream(rng, n_gpus, gpus_per_node, n_runs, coverage, defects,
            nan_runs=()):
    """Synthetic runs: a healthy spread plus defects, some nodes lost.

    A run in ``nan_runs`` reports one NaN performance, so its median and
    every deviation it pushes are NaN; enough of them in a row leave no
    finite window median and the deviation fence raises.
    """
    base_perf = 100.0 + rng.normal(0.0, 0.8, n_gpus)
    base_temp = 60.0 + rng.normal(0.0, 1.5, n_gpus)
    runs = []
    lost_node = int(rng.integers(0, n_gpus // gpus_per_node))
    lost = range(int(rng.integers(0, n_runs)), int(rng.integers(0, n_runs + 1)))
    for i in range(n_runs):
        seen = rng.random(n_gpus) < coverage
        if i in lost:
            seen[lost_node * gpus_per_node:(lost_node + 1) * gpus_per_node] = False
        idx = np.flatnonzero(seen)
        if rng.random() < 0.3:
            idx = rng.permutation(idx)
        perf = base_perf + rng.normal(0.0, 0.5, n_gpus)
        temp = base_temp + rng.normal(0.0, 0.5, n_gpus)
        freq = 1300.0 + rng.normal(0.0, 5.0, n_gpus)
        power_capped = rng.random(n_gpus) < 0.3
        if i in nan_runs:
            perf[rng.integers(0, n_gpus)] = np.nan
        for kind, gpu, onset, heal in defects:
            if not onset <= i < heal:
                continue
            if kind == "slow":
                perf[gpu] *= 1.4
            elif kind == "hot":
                temp[gpu] += 20.0
            else:
                freq[gpu] = 1000.0
                power_capped[gpu] = True
        runs.append({
            "day": i // 4,
            "run_index": i,
            "gpu_indices": idx,
            "performance_ms": perf[idx],
            "frequency_mhz": freq[idx],
            "temperature_c": temp[idx],
            "power_capped": power_capped[idx],
            "thermally_capped": np.zeros(idx.shape[0], dtype=bool),
        })
    return runs


def _monitor(runs: list[dict], rng) -> FleetMonitor:
    """A merged monitor holding ``runs``, some split across shards."""
    monitor = FleetMonitor()
    for run in runs:
        n = run["gpu_indices"].shape[0]
        cuts = sorted(rng.integers(0, n + 1, size=int(rng.integers(0, 3))))
        for lo, hi in zip([0] + cuts, cuts + [n]):
            if lo == hi and n:
                continue
            shard = {key: run[key][lo:hi] for key in _FIELDS}
            monitor.observe_run(
                day=run["day"], run_index=run["run_index"],
                power_w=np.full(hi - lo, 250.0), **shard,
            )
    return monitor


def _feed(tracker, runs, segments, rng) -> None:
    """Feed ``runs`` split into ``segments``: per-run calls or one monitor."""
    for lo, hi, as_monitor in segments:
        if as_monitor:
            tracker.observe_monitor(_monitor(runs[lo:hi], rng))
        else:
            for run in runs[lo:hi]:
                tracker.observe_run(**_run_kwargs(run))


def _state(tracker, topology, recorder) -> dict:
    report_builder = (
        oracle.build_health_report
        if isinstance(tracker, oracle.HealthTracker) else build_health_report
    )
    report = report_builder(tracker, topology)
    streaks = [tracker._streak_true, tracker._streak_false]
    if isinstance(tracker, oracle.HealthTracker):
        streaks = [np.stack(list(by_kind.values())) for by_kind in streaks]
        windows = (tracker._dev, tracker._resid, tracker._freq,
                   tracker._throttle)
        ring = [np.stack([window.buffer for window in windows])]
        ring += [np.stack([window.pos for window in windows]),
                 np.stack([window.count for window in windows])]
    else:
        ring = tracker._ring
        ring = [ring.buffer, np.tile(ring.pos, (4, 1)),
                np.tile(ring.count, (4, 1))]
    return {
        "ring": [array.tobytes() for array in ring],
        "baseline": tracker._baseline.tobytes(),
        "streaks": [streak.tolist() for streak in streaks],
        "events": json.dumps([event.as_dict() for event in tracker.events]),
        "grades": tracker.grades(),
        "open": [
            tuple(kind.value for kind in tracker.open_conditions(g))
            for g in range(tracker.n_gpus)
        ],
        "outliers": tracker.outlier_accumulator.counts(),
        "n_reports": tracker.outlier_accumulator.n_reports,
        "runs_observed": tracker.runs_observed,
        "report": json.dumps(report.to_dict(), indent=2),
        "render": report.render(),
        "timeline": timeline_lines(recorder),
    }


def _raised(feed) -> type | None:
    """Run ``feed``; the type of the error it raised, if any."""
    try:
        feed()
    except (AnalysisError, ValueError) as error:
        return type(error)
    return None


def _compare(topology, policy, runs, segments, seed, block_cells=None):
    """Production state after the split feed == oracle state after per-run.

    A stream the oracle rejects part way must raise the same error type
    and leave the same state behind.
    """
    want_recorder = TimelineRecorder()
    want = oracle.HealthTracker(topology.gpu_labels, policy)
    with activate(recorder=want_recorder):
        want_error = _raised(lambda: _feed(want, runs, [(0, len(runs), False)],
                                           np.random.default_rng(seed)))
    got_recorder = TimelineRecorder()
    got = HealthTracker(topology.gpu_labels, policy)
    with ExitStack() as stack:
        if block_cells is not None:
            stack.enter_context(
                mock.patch.object(health, "_BLOCK_CELLS", block_cells)
            )
        stack.enter_context(activate(recorder=got_recorder))
        got_error = _raised(
            lambda: _feed(got, runs, segments, np.random.default_rng(seed))
        )
    assert got_error is want_error
    assert _state(got, topology, got_recorder) == _state(
        want, topology, want_recorder
    )
    return got


@st.composite
def scenarios(draw):
    gpus_per_node = draw(st.integers(1, 4))
    n_nodes = draw(st.integers(max(2, -(-6 // gpus_per_node)), 8))
    n_gpus = n_nodes * gpus_per_node
    window = draw(st.integers(1, 8))
    policy = HealthPolicy(
        window_runs=window,
        min_window_runs=draw(st.integers(1, window)),
        min_fleet=draw(st.integers(4, max(4, n_gpus))),
        open_after=draw(st.integers(1, 3)),
        close_after=draw(st.integers(1, 3)),
        drift_ratio=draw(st.sampled_from([1.002, 1.01, 1.05])),
    )
    n_runs = draw(st.integers(1, 24))
    defects = draw(st.lists(
        st.tuples(
            st.sampled_from(["slow", "hot", "stuck"]),
            st.integers(0, n_gpus - 1),
            st.integers(0, n_runs),
            st.integers(0, n_runs + 1),
        ),
        max_size=4,
    ))
    coverage = draw(st.sampled_from([1.0, 1.0, 0.9, 0.6]))
    nan_runs = set(draw(st.one_of(
        st.just([]),
        st.lists(st.integers(0, n_runs - 1), max_size=n_runs),
    )))
    cuts = sorted(draw(st.lists(st.integers(0, n_runs), max_size=4)))
    bounds = [0] + cuts + [n_runs]
    segments = [
        (lo, hi, draw(st.booleans())) for lo, hi in zip(bounds, bounds[1:])
    ]
    block_runs = draw(st.sampled_from([None, 1, 2, 3, 5]))
    seed = draw(st.integers(0, 2**32 - 1))
    topology = cabinet_topology(
        "Fleet", n_nodes=n_nodes, gpus_per_node=gpus_per_node
    )
    runs = _stream(
        np.random.default_rng(seed), n_gpus, gpus_per_node, n_runs,
        coverage, defects, nan_runs,
    )
    block_cells = None if block_runs is None else block_runs * n_gpus * window
    return topology, policy, runs, segments, seed, block_cells


class TestBlockTrackerMatchesPerRunOracle:
    @SETTINGS
    @given(scenarios())
    def test_random_streams(self, scenario):
        _compare(*scenario)

    def test_defect_fleet_opens_and_recovers_every_kind(self):
        topology = cabinet_topology("Fleet", n_nodes=6, gpus_per_node=4)
        policy = HealthPolicy(window_runs=3, min_window_runs=2, min_fleet=8)
        runs = _stream(
            np.random.default_rng(3), 24, 4, 30, 0.9,
            [("slow", 1, 2, 14), ("hot", 9, 4, 18), ("stuck", 17, 0, 12)],
        )
        got = _compare(topology, policy, runs, [(0, 7, True), (7, 11, False),
                                                (11, 30, True)], seed=3,
                       block_cells=4 * 24 * 3)
        kinds = {event.kind.value for event in got.events}
        assert {"CHRONIC_SLOW_OUTLIER", "THERMAL_RUNAWAY", "STUCK_THROTTLE",
                "RECOVERED"} <= kinds


def _flat_runs(n, n_runs):
    """Full-coverage runs with a gentle spread."""
    return [
        {
            "day": 0,
            "run_index": i,
            "gpu_indices": np.arange(n),
            "performance_ms": 100.0 + 0.3 * np.arange(n),
            "frequency_mhz": np.full(n, 1300.0),
            "temperature_c": np.full(n, 60.0) + 0.1 * np.arange(n),
            "power_capped": np.zeros(n, dtype=bool),
            "thermally_capped": np.zeros(n, dtype=bool),
        }
        for i in range(n_runs)
    ]


def _restrict(run: dict, gpus: np.ndarray) -> None:
    """Keep only ``gpus`` (positions in the run's arrays) in ``run``."""
    for key in _FIELDS:
        run[key] = run[key][gpus]


class TestPinnedTraps:
    N = 12

    def _topology(self):
        return cabinet_topology("Fleet", n_nodes=3, gpus_per_node=4)

    def test_window_mean_sums_in_ring_slot_order(self):
        """A block-scanned window mean adds slots in ring order, not run order.

        With a 3-slot window, run 3 overwrites slot 0, so after it the ring
        holds runs (3, 1, 2): ``(0.1 + 0.7) + 3.0`` differs from the run
        order ``(0.7 + 3.0) + 0.1``.  The block scan must produce the ring.
        """
        values = np.array([3.0, 0.7, 3.0, 0.1])
        counts, (buffers,) = _Ring(1, 1, 3).push_runs(
            [0, 1, 2, 3, 4], np.zeros(4, dtype=np.int64), values[None]
        )
        got = _window_mean(buffers, counts)[:, 0]
        want = oracle.Window(1, 3)
        means = []
        for value in values:
            want.push(np.array([value]), np.array([0]))
            means.append(want.mean()[0])
        assert got.tobytes() == np.array(means).tobytes()
        assert got[-1] == ((0.0 + 0.1) + 0.7 + 3.0) / 3
        assert got[-1] != ((0.0 + 0.7) + 3.0 + 0.1) / 3

    def test_drift_baseline_set_only_on_evaluated_runs(self):
        """A full window on a run with too few valid GPUs sets no baseline.

        Only GPUs 0 and 1 run in runs 0-1, so GPU 0's 2-run window is full
        at run 1 while 2 < ``min_fleet`` GPUs are valid: no evaluation, no
        baseline.  The baseline is taken at run 2, the first evaluated
        run, after GPU 0 started to slow down.
        """
        runs = _flat_runs(self.N, 8)
        for i, run in enumerate(runs):
            if i < 2:
                _restrict(run, np.array([0, 1]))
            else:
                run["performance_ms"][0] *= 1.0 + 0.03 * i
        policy = HealthPolicy(window_runs=2, min_window_runs=1, min_fleet=8,
                              open_after=1, close_after=1, drift_ratio=1.01)
        got = _compare(self._topology(), policy, runs, [(0, 8, True)], seed=0)
        at_run_1 = 100.0 / 100.15  # GPU 0's window median after run 1
        assert got._baseline[0] > at_run_1
        assert got.outlier_accumulator.n_reports == 6

    def test_unobserved_gpus_keep_streaks_but_enter_fences(self):
        """A GPU missing from runs keeps its streak and still shapes fences.

        GPU 0 is slow throughout but absent from runs 2-3: its chronic
        streak reads 1, 2 after runs 0-1, holds there (its window median
        still enters those runs' fences and it is still flagged), and
        reaches 3 = ``open_after`` at run 4.
        """
        runs = _flat_runs(self.N, 7)
        for i, run in enumerate(runs):
            run["performance_ms"][0] *= 1.5
            if i in (2, 3):
                _restrict(run, np.arange(1, self.N))
        policy = HealthPolicy(window_runs=4, min_window_runs=1, min_fleet=8,
                              open_after=3, close_after=1)
        got = _compare(self._topology(), policy, runs,
                       [(0, 2, False), (2, 7, True)], seed=0)
        opened = [e for e in got.events
                  if e.kind.value == "CHRONIC_SLOW_OUTLIER"]
        assert [(e.gpu_index, e.run_index) for e in opened] == [(0, 4)]
        assert got.outlier_accumulator.counts()[got.gpu_labels[0]] == 7

    @pytest.mark.parametrize("window", [1, 2])
    @pytest.mark.parametrize("block_runs", [2, 3, 100])
    def test_degenerate_deviation_fence_raises_as_run_by_run(
        self, window, block_runs
    ):
        """No finite window median: the fence raises where the oracle's did.

        One NaN performance makes a run's median, and so every deviation
        it pushes, NaN; NaN in the last ``window`` runs up to run 4 leaves
        no finite window median at run 4.  The runs before it are
        evaluated, run 4 is pushed, then ``BoxStats`` raises, whatever the
        block boundaries, and the ring holds exactly the pushes of runs
        0-4.
        """
        runs = _flat_runs(self.N, 6)
        for run in runs[5 - window:5]:
            run["performance_ms"][3] = np.nan
        policy = HealthPolicy(window_runs=window, min_window_runs=1,
                              min_fleet=8, open_after=1, close_after=1)
        got = _compare(self._topology(), policy, runs, [(0, 6, True)],
                       seed=0, block_cells=block_runs * self.N * window)
        assert got.runs_observed == 5

    @pytest.mark.parametrize("bad", ["index", "median", "length"])
    @pytest.mark.parametrize("as_monitor", [False, True])
    @pytest.mark.parametrize("block_runs", [2, 3, 100])
    def test_malformed_run_raises_before_it_changes_state(
        self, bad, as_monitor, block_runs
    ):
        """A malformed run 4 raises and leaves the state after run 3.

        For a temperature array one short, the per-run oracle differs: it
        pushed run 4's deviations before its temperature push raised, so
        its deviation window moved on.  The block tracker validates every
        array first and pushes nothing.
        """
        n = self.N
        runs = _flat_runs(n, 6)
        if bad == "index":
            runs[4]["gpu_indices"] = np.arange(n) + 1
        elif bad == "median":
            runs[4]["performance_ms"] = np.zeros(n)
        else:
            runs[4]["temperature_c"] = runs[4]["temperature_c"][:-1]
        policy = HealthPolicy(window_runs=2, min_window_runs=1, min_fleet=8,
                              open_after=1, close_after=1)
        topology = self._topology()
        want = oracle.HealthTracker(topology.gpu_labels, policy)
        got = HealthTracker(topology.gpu_labels, policy)
        with pytest.raises(AnalysisError):
            _feed(want, runs, [(0, 6, False)], np.random.default_rng(0))
        cells = block_runs * n * policy.window_runs
        with mock.patch.object(health, "_BLOCK_CELLS", cells):
            with pytest.raises(AnalysisError):
                _feed(got, runs, [(0, 6, as_monitor)], np.random.default_rng(0))
        # The runs before the bad one count, the bad one changes nothing.
        assert got.runs_observed == want.runs_observed == 4
        clean = oracle.HealthTracker(topology.gpu_labels, policy)
        _feed(clean, runs, [(0, 4, False)], np.random.default_rng(0))
        recorder = TimelineRecorder()
        assert _state(got, topology, recorder) == _state(
            clean, topology, recorder
        )
        # Only the ring tells the oracle's short-array case apart.
        want_state = _state(want, topology, recorder)
        clean_state = _state(clean, topology, recorder)
        assert (want_state.pop("ring") != clean_state.pop("ring")) == (
            bad == "length"
        )
        assert want_state == clean_state


def test_report_on_full_scale_summit_matches_oracle():
    """The report builder on 27,648 GPUs: grades, rollups, JSON bytes."""
    topology = row_column_topology(
        "Summit", n_rows=8, n_columns=36, nodes_per_column=16, gpus_per_node=6
    )
    n = topology.n_gpus
    rng = np.random.default_rng(2022)
    slow = rng.choice(n, 40, replace=False)
    hot = rng.choice(n, 25, replace=False)
    stuck = rng.choice(n, 15, replace=False)
    runs = []
    for i in range(6):
        perf = 100.0 + rng.normal(0.0, 0.5, n)
        temp = 60.0 + rng.normal(0.0, 1.0, n)
        freq = 1300.0 + rng.normal(0.0, 5.0, n)
        capped = rng.random(n) < 0.2
        perf[slow[: 40 if i < 4 else 20]] *= 1.3  # half of them heal
        temp[hot] += 15.0
        freq[stuck] = 1000.0
        capped[stuck] = True
        runs.append({
            "day": 0, "run_index": i, "gpu_indices": np.arange(n),
            "performance_ms": perf, "frequency_mhz": freq,
            "temperature_c": temp, "power_capped": capped,
            "thermally_capped": np.zeros(n, dtype=bool),
        })
    policy = HealthPolicy(window_runs=2, min_window_runs=1, min_fleet=8,
                          open_after=2, close_after=1)
    got = _compare(topology, policy, runs, [(0, 6, True)], seed=0)
    grades = set(got.grades())
    assert {"ok", "watch", "degraded", "critical"} <= grades
