"""Batched job pricing is draw-for-draw identical to one-job-at-a-time.

The indexed engine prices a whole dispatch round through
:func:`~repro.sim.job.sample_job_runtimes`; byte-identical event logs
require that the batch reproduce the sequential
:func:`~repro.sim.job.sample_job_runtime` results *bitwise* — every job's
draws come from its own private stream, so batching order and batch
composition must be unobservable.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster import get_preset
from repro.sched.trace import PAPER_WORKLOAD_NAMES
from repro.sim.job import (
    JobPricingRequest,
    _draw,
    _job_table,
    draw_job_runtime,
    reference_unit_times,
    sample_job_runtime,
    sample_job_runtimes,
)
from repro.workloads import get_workload

from tests.gpu.dvfs_oracle import dense_solver
from tests.sim.test_job_floor import _defective_cluster


@pytest.fixture(scope="module")
def cluster():
    return get_preset("longhorn", seed=11, scale=0.25)


def _rng(cluster, job_id):
    return cluster.rng_factory.child(f"sched-job-{job_id}").generator("run")


def _requests(cluster):
    """A mixed round: widths 1/2/4/8, several workloads, one shared node."""
    shapes = [
        ("sgemm", [5], 50),
        ("resnet50", [8, 9], 40),
        ("pagerank", [12, 13, 14, 15], 80),
        ("bert", [16, 17, 18, 19, 20, 21, 22, 23], 30),  # spans 2 nodes
        ("lammps", [6], 90),  # shares node 1 with job 0's neighborhood
    ]
    return [
        JobPricingRequest(
            workload=get_workload(name),
            gpu_indices=np.asarray(gpus, dtype=np.int64),
            work_units=units,
            rng=_rng(cluster, job_id),
        )
        for job_id, (name, gpus, units) in enumerate(shapes)
    ]


def _assert_bitwise_equal(batch, singles):
    assert len(batch) == len(singles)
    for got, want in zip(batch, singles):
        assert got.runtime_s == want.runtime_s
        assert got.job_unit_ms == want.job_unit_ms
        assert got.energy_j == want.energy_j
        assert got.gang_imbalance == want.gang_imbalance
        assert got.n_gpus == want.n_gpus


class TestBatchEqualsSequential:
    @pytest.mark.parametrize("day", (0, 3))
    def test_mixed_round_bitwise(self, cluster, day):
        batch = sample_job_runtimes(cluster, _requests(cluster), day=day)
        singles = [
            sample_job_runtime(
                cluster,
                request.workload,
                request.gpu_indices,
                day=day,
                work_units=request.work_units,
                rng=_rng(cluster, job_id),
            )
            for job_id, request in enumerate(_requests(cluster))
        ]
        _assert_bitwise_equal(batch, singles)

    def test_singleton_batch_bitwise(self, cluster):
        request = _requests(cluster)[2]
        batch = sample_job_runtimes(cluster, [request], day=1)
        single = sample_job_runtime(
            cluster, request.workload, request.gpu_indices, day=1,
            work_units=request.work_units, rng=_rng(cluster, 2),
        )
        _assert_bitwise_equal(batch, [single])

    def test_batch_composition_is_unobservable(self, cluster):
        """A job prices the same whether batched with 0 or 4 neighbors."""
        alone = sample_job_runtimes(cluster, [_requests(cluster)[1]], day=0)
        together = sample_job_runtimes(cluster, _requests(cluster), day=0)
        _assert_bitwise_equal([together[1]], alone)

    def test_empty_round(self, cluster):
        assert sample_job_runtimes(cluster, [], day=0) == []

    def test_dither_fleet_falls_back_bitwise(self):
        """AMD presets dither the DVFS controller (solver draws consume an
        rng), so batching must take the sequential fallback — and still
        equal the one-at-a-time path exactly."""
        corona = get_preset("corona", seed=11, scale=0.1)
        workload = get_workload("sgemm-amd")
        requests = [
            JobPricingRequest(
                workload=workload,
                gpu_indices=np.asarray(gpus, dtype=np.int64),
                work_units=25,
                rng=_rng(corona, job_id),
            )
            for job_id, gpus in enumerate(([0], [2, 3]))
        ]
        batch = sample_job_runtimes(corona, requests, day=0)
        singles = [
            sample_job_runtime(
                corona, workload, request.gpu_indices, day=0,
                work_units=25, rng=_rng(corona, job_id),
            )
            for job_id, request in enumerate(requests)
        ]
        _assert_bitwise_equal(batch, singles)


class TestSolverPassthrough:
    """Job pricing's solves equal the dense-scan oracle's, bit for bit."""

    @pytest.mark.parametrize("name", ("sgemm", "pagerank"))
    def test_fleet_solver_reference_times_bitwise(self, cluster, name):
        workload = get_workload(name)
        fleet = reference_unit_times(cluster, workload, day=2)
        with dense_solver():
            dense = reference_unit_times(cluster, workload, day=2)
        np.testing.assert_array_equal(dense, fleet)

    def test_fleet_solver_job_prices_bitwise(self, cluster):
        fleet = sample_job_runtimes(cluster, _requests(cluster), day=1)
        with dense_solver():
            dense = sample_job_runtimes(cluster, _requests(cluster), day=1)
        _assert_bitwise_equal(fleet, dense)


# ---------------------------------------------------------------------------
# Differential: array-at-a-time pricing vs each job priced alone
# ---------------------------------------------------------------------------

#: The paper mix plus an AMD workload that shares SGEMM's name.
DIFF_WORKLOADS = PAPER_WORKLOAD_NAMES + ("sgemm-amd",)


def _bits(value) -> bytes:
    """A value's exact bits, dtype included (``==`` hides ±0.0 and NaN)."""
    array = np.asarray(value)
    return array.dtype.str.encode() + repr(array.shape).encode() + (
        array.tobytes()
    )


@st.composite
def priced_batches(draw):
    """A batch of 1-6 jobs of mixed workloads, gang widths 1-16."""
    n_gpus = _defective_cluster(False).topology.n_gpus
    jobs = []
    for job_id in range(draw(st.integers(1, 6))):
        gang = draw(st.lists(st.integers(0, n_gpus - 1), min_size=1,
                             max_size=16, unique=True))
        jobs.append((
            job_id,
            draw(st.sampled_from(DIFF_WORKLOADS)),
            tuple(gang),
            draw(st.sampled_from((1, 3, 17, 400))),
        ))
    return draw(st.booleans()), draw(st.integers(0, 4)), jobs


def _job_request(cluster, job_id, workload, gang, units):
    return JobPricingRequest(
        workload=get_workload(workload),
        gpu_indices=np.asarray(gang, dtype=np.int64),
        work_units=units,
        rng=cluster.rng_factory.child(f"diff-job-{job_id}").generator("run"),
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(priced_batches())
@example((False, 0, [
    (0, "sgemm", (0, 1, 2, 3, 4, 5, 6, 7, 8), 17),
    (1, "sgemm-amd", (9, 10), 3),
    (2, "sgemm", (11,), 400),
    (3, "sgemm-amd", tuple(range(20, 36)), 1),
]))
def test_batch_pricing_equals_each_job_alone(batch):
    """Every field of every job's price, and its floor, keep their bits.

    Drawn on defective and chaos-capped fleets, so solves land far below
    the top p-state; widths up to 16 reach numpy's pairwise sums and
    even-width medians.  The pinned example mixes ``sgemm`` and
    ``sgemm-amd`` — two workloads named ``"SGEMM"`` — in one batch.
    """
    chaos, day, jobs = batch
    cluster = _defective_cluster(chaos)
    # The scheduler's path: one table per workload, shared by its draws.
    tables = {}
    draws = []
    for job in jobs:
        request = _job_request(cluster, *job)
        key = job[1]
        if key not in tables:
            tables[key] = _job_table(cluster, request.workload, day)
        draws.append(_draw(cluster, request, day, tables[key]))
    perfs = sample_job_runtimes(cluster, draws, day=day)
    bare = sample_job_runtimes(
        cluster, [_job_request(cluster, *job) for job in jobs], day=day
    )
    for job, draw, perf, perf_bare in zip(jobs, draws, perfs, bare):
        alone_draw = draw_job_runtime(
            cluster, _job_request(cluster, *job), day=day
        )
        assert _bits(draw.floor_s) == _bits(alone_draw.floor_s)
        alone = sample_job_runtime(
            cluster, get_workload(job[1]), np.asarray(job[2]), day=day,
            work_units=job[3],
            rng=cluster.rng_factory.child(
                f"diff-job-{job[0]}"
            ).generator("run"),
        )
        for got in (perf, perf_bare):
            for name in ("gpu_indices", "unit_time_ms", "job_unit_ms",
                         "runtime_s", "power_w", "energy_j",
                         "gang_imbalance"):
                assert _bits(getattr(got, name)) == _bits(
                    getattr(alone, name)
                ), name
        assert 0.0 < draw.floor_s <= perf.runtime_s
