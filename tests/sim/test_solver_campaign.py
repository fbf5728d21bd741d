"""Campaign-level solver cross-checks and solver telemetry.

A campaign solved through the dense-scan oracle (``tests/gpu/
dvfs_oracle.py``) must reproduce the production campaign dataset bit for
bit — including on Corona, where AMD DPM dithering draws per-run RNG
inside ``solve_steady`` and would drift on the first miscounted draw.
The retired ``REPRO_DVFS_SOLVER`` variable must change nothing: the
production solver never reads the environment.  Fresh clusters are built
per run so the per-(day, shard) fleet cache cannot leak state between
the two sides.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import corona, longhorn
from repro.sim import CampaignConfig, run_campaign
from repro.telemetry.progress import CampaignProgress
from repro.workloads import sgemm
from repro.workloads.sgemm import SGEMM_N_AMD

from tests.gpu.dvfs_oracle import dense_solver

CONFIG = CampaignConfig(days=2, runs_per_day=2, coverage=0.9)


def make_longhorn():
    return longhorn(seed=13, scale=0.25)


def make_corona():
    return corona(seed=13, scale=0.3)


def assert_datasets_identical(a, b):
    assert a.column_names == b.column_names
    assert a.n_rows == b.n_rows
    for name in a.column_names:
        x, y = a[name], b[name]
        assert x.dtype == y.dtype, f"column {name!r} dtype differs"
        assert np.array_equal(x, y), f"column {name!r} differs"


def run(make_cluster, workload, workers=None, progress=None):
    return run_campaign(make_cluster(), workload, CONFIG,
                        workers=workers, progress=progress)


def run_dense(make_cluster, workload, progress=None):
    """Serial (in-process) campaign with every solve on the dense scan."""
    with dense_solver():
        return run(make_cluster, workload, progress=progress)


def run_with_env(monkeypatch, make_cluster, workload, value):
    """Production campaign with the retired solver variable set."""
    monkeypatch.setenv("REPRO_DVFS_SOLVER", value)
    progress = CampaignProgress()
    dataset = run(make_cluster, workload, progress=progress)
    return dataset, progress.solver_stats


def test_grid_solver_reproduces_longhorn_campaign():
    assert_datasets_identical(run(make_longhorn, sgemm()),
                              run_dense(make_longhorn, sgemm()))


def test_grid_solver_reproduces_corona_dither_campaign():
    # The AMD cluster: every solve dithers, so this fails on the first
    # RNG draw the fleet search would add or skip relative to the scan.
    workload = sgemm(n=SGEMM_N_AMD)
    assert_datasets_identical(run(make_corona, workload),
                              run_dense(make_corona, workload))


def test_fleet_solver_reproduces_longhorn_campaign(monkeypatch):
    # REPRO_DVFS_SOLVER=grid used to force the dense scan; now the fleet
    # search runs regardless — same bytes, fleet-shaped work counters.
    plain = run(make_longhorn, sgemm())
    dataset, stats = run_with_env(monkeypatch, make_longhorn, sgemm(),
                                  "grid")
    assert_datasets_identical(plain, dataset)
    assert stats.solves > 0
    assert stats.columns_evaluated < stats.dense_cells / 10


def test_fleet_solver_reproduces_corona_dither_campaign(monkeypatch):
    workload = sgemm(n=SGEMM_N_AMD)
    plain = run(make_corona, workload)
    dataset, stats = run_with_env(monkeypatch, make_corona, workload,
                                  "ladder")
    assert_datasets_identical(plain, dataset)
    assert stats.columns_evaluated < stats.dense_cells


def test_fleet_solver_parallel_matches_serial():
    serial = run(make_longhorn, sgemm())
    sharded = run(make_longhorn, sgemm(), workers=2)
    assert_datasets_identical(serial, sharded)


def test_solve_counters_invariant_across_solvers_and_workers():
    # A batched solve counts as n per-GPU solves in one batch, so the
    # campaign-total solve/batch/dense-cell counters depend only on the
    # campaign shape — never on the solver or the shard plan.
    totals = {}
    for workers in (None, 2):
        progress = CampaignProgress()
        run(make_longhorn, sgemm(), workers=workers, progress=progress)
        totals[("fleet", workers)] = progress.solver_stats
    progress = CampaignProgress()
    run_dense(make_longhorn, sgemm(), progress=progress)
    totals[("dense", None)] = progress.solver_stats
    shapes = {key: (s.solves, s.batches, s.dense_cells)
              for key, s in totals.items()}
    reference = shapes[("fleet", None)]
    assert reference[0] > 0 and reference[1] > 0
    assert all(t == reference for t in shapes.values()), shapes
    # Only the work done differs: the scan settles every cell.
    dense = totals[("dense", None)]
    assert dense.columns_evaluated == dense.dense_cells
    assert totals[("fleet", 2)].columns_evaluated \
        == totals[("fleet", None)].columns_evaluated < dense.dense_cells


def test_progress_surfaces_solver_stats(small_longhorn):
    progress = CampaignProgress()
    run_campaign(small_longhorn, sgemm(), CONFIG, progress=progress)
    stats = progress.solver_stats
    assert stats.solves > 0
    assert stats.dense_cells > stats.columns_evaluated
    assert stats.dense_fraction_avoided > 0.5
    assert "solver skipped" in progress.summary()
    assert all(t.solver is not None for t in progress.timings)
