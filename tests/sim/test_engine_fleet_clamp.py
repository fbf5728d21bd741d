"""Batched fast-cap clamp vs the round-by-round oracle.

The reactive engine's hardware fast-cap clamp evaluates all candidate
drop levels in one flat power-model call instead of round-by-round.  The
candidate levels depend only on the entry p-state and temperature is
frozen during the clamp, so the batched clamp must be *bit-identical* to
the sequential loop in ``tests/sim/clamp_oracle.py`` — states, power
readings, and the ``engine.clamp_reevaluations`` counter all match
exactly.
"""

import contextlib

import numpy as np
import pytest

from repro.cluster import cloudlab
from repro.obs import Tracer, activate
from repro.sim import simulate_timeseries
from repro.sim.engine import Engine, EngineConfig
from repro.workloads import sgemm

from tests.sim.clamp_oracle import (
    clamp_sequential,
    sequential_clamp,
    use_sequential_clamp,
)

STATE_ARRAYS = ("pstate_index", "temperature_c", "kernel_active",
                "compute_remaining", "memory_remaining",
                "gap_remaining_s", "kernels_completed")


def make_engine(power_limit=None, n=8, seed=11):
    """Fresh engine over its own fleet (no state shared between engines)."""
    fleet = cloudlab(seed=seed).fleet.take(np.arange(n))
    return Engine(fleet, sgemm(), EngineConfig(thermal_time_scale=10.0),
                  power_limit_w=power_limit)


def run_traced(engine, seconds=10.0, oracle=False):
    tracer = Tracer()
    clamp = (use_sequential_clamp(engine) if oracle
             else contextlib.nullcontext())
    with clamp, activate(tracer):
        engine.run_for(seconds)
    return tracer.counters


def assert_states_identical(a, b):
    for field in STATE_ARRAYS:
        lhs, rhs = getattr(a.state, field), getattr(b.state, field)
        assert lhs.dtype == rhs.dtype, field
        assert np.array_equal(lhs, rhs), field
    assert a.state.kernel_start_times == b.state.kernel_start_times
    assert a.state.time_s == b.state.time_s


class TestBatchedClampEquivalence:
    @pytest.mark.parametrize("limit", [None, 200.0, 160.0])
    def test_states_and_counters_identical(self, limit):
        # Identical engines; only the clamp differs, so any divergence is
        # the batched clamp's fault.
        batched = make_engine(limit)
        sequential = make_engine(limit)
        c_batched = run_traced(batched)
        c_sequential = run_traced(sequential, oracle=True)
        assert_states_identical(batched, sequential)
        assert c_batched == c_sequential
        if limit is not None:
            # Tight caps must actually exercise the clamp.
            assert c_batched.get("engine.clamp_reevaluations", 0) > 0

    @pytest.mark.parametrize("limit", [None, 160.0])
    def test_fleet_engine_matches_ladder_engine(self, limit):
        # Full-stack differential: the production engine vs one stepping
        # the ladder down round by round, through simulate_timeseries'
        # sampled telemetry traces.
        cluster = cloudlab(seed=11)
        gpus = np.arange(6)

        def traces():
            return simulate_timeseries(
                cluster, sgemm(), gpus, duration_s=4.0,
                sample_interval_s=0.05, power_limit_w=limit,
                engine_config=EngineConfig(thermal_time_scale=10.0),
            )

        fleet_traces = traces()
        with sequential_clamp():
            ladder_traces = traces()
        assert len(fleet_traces) == len(ladder_traces) == gpus.size
        for a, b in zip(fleet_traces, ladder_traces):
            for field in ("time_s", "frequency_mhz", "power_w",
                          "temperature_c", "kernel_starts_s"):
                assert np.array_equal(getattr(a, field),
                                      getattr(b, field)), field


class TestClampMonotonicity:
    """The clamp only ever steps p-states *down* (regression guard)."""

    def _warmed_engine(self):
        engine = make_engine(None)
        engine.run_for(3.0)
        return engine

    def _both(self, cap_of):
        """Clamp one warmed engine's state with each implementation."""
        out = []
        for clamp in (Engine._clamp_fast_cap, clamp_sequential):
            engine = self._warmed_engine()
            power = engine.instantaneous_power()
            cap_fast = cap_of(power)
            over_idx = np.flatnonzero(power > cap_fast)
            idx_before = engine.state.pstate_index.copy()
            reevals = clamp(engine, power, over_idx, cap_fast)
            out.append((engine, power, over_idx, idx_before, reevals))
        (eng_b, power_b, _, _, re_b), (eng_s, power_s, _, _, re_s) = out
        assert np.array_equal(eng_b.state.pstate_index,
                              eng_s.state.pstate_index)
        assert np.array_equal(power_b, power_s)
        assert re_b == re_s
        return out[0]

    def test_batched_clamp_never_raises_pstates(self):
        # A cap below every board power forces all GPUs through all
        # clamp rounds.
        engine, _, over_idx, idx_before, reevals = self._both(
            lambda power: np.full(power.size, power.min() * 0.25))
        assert over_idx.size == engine.n
        idx_after = engine.state.pstate_index
        assert np.all(idx_after <= idx_before)
        assert np.all(idx_after >= 0)
        # Nothing feasible: every GPU pays the full round budget.
        assert reevals == engine.n * 4

    def test_batched_clamp_partial_feasibility(self):
        # One-rung-down feasible for everyone: single round charged.
        engine, _, over_idx, idx_before, reevals = self._both(
            lambda power: power * 0.999)
        assert np.all(engine.state.pstate_index <= idx_before)
        assert reevals >= over_idx.size

    def test_clamped_power_matches_reported_power(self):
        # The power array the clamp writes back must equal a fresh
        # evaluation at the post-clamp state, bit for bit.
        engine, power, _, _, _ = self._both(lambda power: power * 0.8)
        fresh = engine.instantaneous_power()
        assert np.array_equal(power, fresh)
