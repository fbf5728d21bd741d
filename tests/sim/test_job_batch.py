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

from repro.cluster import get_preset
from repro.sim.job import (
    JobPricingRequest,
    reference_unit_times,
    sample_job_runtime,
    sample_job_runtimes,
)
from repro.workloads import get_workload

from tests.gpu.dvfs_oracle import dense_solver


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
