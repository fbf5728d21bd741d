"""Tests for the real host-CPU microbenchmark path."""

import numpy as np
import pytest

from repro.core import metric_boxstats, per_gpu_repeatability
from repro.core.classify import ApplicationClass, CounterProfile, classify_counters
from repro.hostbench import (
    KERNELS,
    HostBenchConfig,
    gemm_kernel,
    run_host_benchmark,
    spmv_kernel,
    stream_kernel,
)


class TestKernels:
    def test_registry(self):
        assert set(KERNELS) == {"gemm", "spmv", "stream"}

    def test_gemm_runs_and_checksums(self):
        kernel = gemm_kernel(n=64)
        a = kernel.run()
        b = kernel.run()
        assert a == b  # deterministic inputs
        assert np.isfinite(a)

    def test_gemm_flop_count(self):
        kernel = gemm_kernel(n=100)
        assert kernel.flop == pytest.approx(2e6)

    def test_spmv_runs(self):
        kernel = spmv_kernel(n=500, nnz_per_row=4)
        assert np.isfinite(kernel.run())
        assert kernel.workload_class == "memory-latency-bound"

    def test_stream_runs(self):
        kernel = stream_kernel(n=10_000)
        assert np.isfinite(kernel.run())
        assert kernel.bytes_moved == pytest.approx(3 * 10_000 * 8)

    def test_size_validation(self):
        with pytest.raises(Exception):
            gemm_kernel(n=2)
        with pytest.raises(Exception):
            stream_kernel(n=10)


class TestHarness:
    @pytest.fixture(scope="class")
    def dataset(self):
        return run_host_benchmark(
            gemm_kernel(n=96),
            HostBenchConfig(blocks=4, reps_per_block=5, warmup_reps=1),
        )

    def test_schema(self, dataset):
        for column in ("workload", "gpu_index", "gpu_label", "node_label",
                       "run", "performance_ms", "achieved_gflops",
                       "achieved_gbs", "checksum"):
            assert column in dataset

    def test_row_count(self, dataset):
        assert dataset.n_rows == 20

    def test_real_timings_positive(self, dataset):
        assert np.all(dataset["performance_ms"] > 0)
        assert np.all(dataset["achieved_gflops"] > 0)

    def test_constant_columns_share_one_string(self, dataset):
        """One ``str`` per constant column, not a new one per cell."""
        for column, value in (("workload", "host-gemm"),
                              ("node_label", "localhost")):
            cells = dataset[column]
            assert cells.dtype == object
            assert list(cells) == [value] * dataset.n_rows
            assert all(cell is cells[0] for cell in cells)

    def test_kernel_by_name(self):
        ds = run_host_benchmark(
            "stream", HostBenchConfig(blocks=2, reps_per_block=3)
        )
        assert ds["workload"][0] == "host-stream"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            run_host_benchmark("fft")

    def test_analysis_pipeline_applies(self, dataset):
        """The whole point: repro.core works on real measurements."""
        stats = metric_boxstats(dataset, "performance_ms")
        assert stats.n == 4  # per-block medians
        rep = per_gpu_repeatability(dataset)
        assert rep.n_rows == 4
        assert np.all(rep["repeat_variation"] >= 0)

    def test_classification_of_host_kernels(self):
        """gemm classifies compute-ish, spmv memory-latency-ish."""
        gemm_profile = CounterProfile(
            fu_utilization=9.0, dram_utilization=0.2, mem_stall_frac=0.05
        )
        spmv_profile = CounterProfile(
            fu_utilization=1.0, dram_utilization=0.25, mem_stall_frac=0.6
        )
        assert classify_counters(gemm_profile) is ApplicationClass.COMPUTE_BOUND
        assert (classify_counters(spmv_profile)
                is ApplicationClass.MEMORY_LATENCY_BOUND)

    def test_config_validation(self):
        with pytest.raises(Exception):
            HostBenchConfig(blocks=0)
