"""DVFS steady-state solver: production fleet search vs the dense oracle.

The campaign hot path is ``DvfsController.solve_steady``; the production
fleet search must beat the dense (n, k) scan — the differential oracle in
``tests/gpu/dvfs_oracle.py`` — by at least ``MIN_SOLVER_SPEEDUP``x on a
full-Summit campaign day (27,648 GPUs x 187 p-states, four runs at
slightly different operating points), *while producing the bit-identical*
:class:`SteadyOperatingPoint`.  The equality assertions run
unconditionally; the timing assertion is skipped under
``REPRO_BENCH_CHECK_ONLY=1`` (the CI dvfs-solver job, which runs on noisy
shared runners).

Timings are also written to ``BENCH_solver.json`` so the solver's perf
trajectory is machine-readable across commits.

Run from the repository root (the oracle is imported from ``tests``)::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_solver_speedup.py
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from _bench_util import emit
from tests.gpu.dvfs_oracle import OP_FIELDS, solve_dense

#: Skip timing assertions (equality always asserts) — for CI smoke runs.
CHECK_ONLY = os.environ.get("REPRO_BENCH_CHECK_ONLY") == "1"

#: Acceptance floor: dense-scan day / fleet-search day wall clock.  The
#: product of the two floors it replaces (ladder search >= 5x the dense
#: scan, fleet search >= 3x the ladder search).
MIN_SOLVER_SPEEDUP = 15.0

OUTPUT_PATH = pathlib.Path("BENCH_solver.json")


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _write_json(payload: dict) -> None:
    existing = {}
    if OUTPUT_PATH.exists():
        existing = json.loads(OUTPUT_PATH.read_text())
    existing.update(payload)
    OUTPUT_PATH.write_text(json.dumps(existing, indent=2) + "\n")


def test_solve_steady_vs_dense_oracle_summit_day(summit_cluster):
    # One campaign day at full Summit scale: every run is a fleet-wide
    # solve at a slightly different operating point (facility drift,
    # per-run activity jitter).
    fleet = summit_cluster.fleet
    ctl = fleet.controller
    eff = fleet.throughput_efficiency()
    kwargs = dict(power_cap_w=fleet.power_cap_w(),
                  f_cap_mhz=fleet.frequency_cap_mhz())
    rng = np.random.default_rng(7)
    runs = list(zip(rng.uniform(0.92, 1.0, 4), rng.uniform(0.3, 0.4, 4)))

    def solve_day(solve):
        return [solve(float(act), float(dram), eff, **kwargs)
                for act, dram in runs]

    def production(*args, **kw):
        return ctl.solve_steady(*args, **kw)

    def dense(*args, **kw):
        return solve_dense(ctl, *args, **kw)

    # The oracle day doubles as the equality reference (it allocates its
    # full (n, k) grids every call, so there is nothing to warm); the
    # production day is warmed by its equality pass.
    started = time.perf_counter()
    dense_ops = solve_day(dense)
    dense_s = time.perf_counter() - started
    for op_d, op_f in zip(dense_ops, solve_day(production)):
        for field in OP_FIELDS:
            assert np.array_equal(
                getattr(op_d, field), getattr(op_f, field)
            ), f"fleet search disagrees with the dense scan on {field}"

    ctl.stats = type(ctl.stats)()  # count the timed solves only
    fleet_s = _best_of(lambda: solve_day(production), repeats=3)
    stats = ctl.stats.copy()
    speedup = dense_s / fleet_s

    emit(None, "solve_steady: fleet search vs dense oracle (Summit day)", [
        ("runs in the day", "-", f"{len(runs)}"),
        ("dense oracle", "-", f"{dense_s * 1e3:.1f} ms"),
        ("fleet search best-of-3", "-", f"{fleet_s * 1e3:.1f} ms"),
        ("speedup", f">= {MIN_SOLVER_SPEEDUP:.0f}x", f"{speedup:.1f}x"),
        ("dense cells avoided", "-",
         f"{stats.dense_fraction_avoided:.1%}"),
    ])
    _write_json({"solve_steady_summit_day": {
        "n_gpus": fleet.n,
        "n_pstates": int(fleet.spec.n_pstates),
        "runs_per_day": len(runs),
        "dense_s": dense_s,
        "fleet_s": fleet_s,
        "speedup": speedup,
        "dense_fraction_avoided": stats.dense_fraction_avoided,
        "check_only": CHECK_ONLY,
    }})

    if not CHECK_ONLY:
        assert speedup >= MIN_SOLVER_SPEEDUP, (
            f"fleet search only {speedup:.1f}x faster than the dense scan "
            f"(floor {MIN_SOLVER_SPEEDUP:.0f}x)"
        )
