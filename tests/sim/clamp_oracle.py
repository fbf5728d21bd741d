"""Round-by-round oracle for the reactive engine's fast-cap clamp.

The hardware fast cap lowers every over-cap GPU ``_CLAMP_DOWN_STEP``
rungs, re-reads its board power, and repeats for the GPUs still over the
cap, up to ``_CLAMP_MAX_ROUNDS`` rounds.  :func:`clamp_sequential` is that
loop written out literally; ``Engine._clamp_fast_cap`` evaluates every
round's candidate level in one batch and must reproduce it bit for bit —
p-states, power readings, and the re-evaluation count.
"""

from __future__ import annotations

import contextlib
import functools
from unittest import mock

import numpy as np

from repro.sim.engine import _CLAMP_DOWN_STEP, _CLAMP_MAX_ROUNDS, Engine


def power_at(engine, indices):
    """Board power for the GPUs at ``indices`` at the current state."""
    s = engine.state
    active = s.kernel_active[indices]
    act = np.where(active, engine.phase.activity,
                   engine.config.idle_activity)
    dram = np.where(active, engine.phase.dram_utilization, 0.02)
    return engine.fleet.power_model.total_power(
        engine._steps[s.pstate_index[indices]],
        s.temperature_c[indices],
        act,
        dram,
        engine._efficiency[indices],
        indices=indices,
    )


def clamp_sequential(engine, power, over_idx, cap_fast):
    """Drop-in for ``Engine._clamp_fast_cap``: the literal round loop."""
    s = engine.state
    reevals = 0
    for _ in range(_CLAMP_MAX_ROUNDS):
        if over_idx.size == 0:
            break
        reevals += int(over_idx.size)
        s.pstate_index[over_idx] = np.maximum(
            s.pstate_index[over_idx] - _CLAMP_DOWN_STEP, 0
        )
        power[over_idx] = power_at(engine, over_idx)
        over_idx = over_idx[power[over_idx] > cap_fast[over_idx]]
    return reevals


def use_sequential_clamp(engine):
    """Patch one engine instance onto the oracle clamp (a context manager)."""
    return mock.patch.object(engine, "_clamp_fast_cap",
                             functools.partial(clamp_sequential, engine))


@contextlib.contextmanager
def sequential_clamp():
    """Every engine built inside the block clamps through the oracle."""
    with mock.patch.object(Engine, "_clamp_fast_cap", clamp_sequential):
        yield
