"""Run host microkernels and emit paper-shaped measurement datasets.

Timings are real (``time.perf_counter``); the dataset mimics the campaign
schema closely enough that every :mod:`repro.core` analysis applies: the
"GPU" identity is (process, repetition-block) and the performance metric is
the per-block median kernel duration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..config import require
from ..telemetry.dataset import MeasurementDataset, shared_str_column
from ..telemetry.sample import METRIC_PERFORMANCE
from .kernels import KERNELS, HostKernel

__all__ = ["HostBenchConfig", "run_host_benchmark"]


@dataclass(frozen=True)
class HostBenchConfig:
    """Shape of a host microbenchmark session.

    ``blocks`` play the role of distinct "devices" (repetition blocks whose
    medians are compared), ``reps_per_block`` the kernels per block, plus
    warmup following the paper's protocol (one warm-up run before
    measuring, Section IV-A).
    """

    blocks: int = 8
    reps_per_block: int = 9
    warmup_reps: int = 3

    def __post_init__(self) -> None:
        require(self.blocks >= 1, "blocks must be >= 1")
        require(self.reps_per_block >= 1, "reps_per_block must be >= 1")
        require(self.warmup_reps >= 0, "warmup_reps must be >= 0")


def run_host_benchmark(
    kernel: HostKernel | str,
    config: HostBenchConfig | None = None,
) -> MeasurementDataset:
    """Execute a kernel session and return the measurement table.

    Columns: ``workload``, ``gpu_index`` / ``gpu_label`` (block identity),
    ``node_label``, ``run`` (repetition index), ``performance_ms``,
    ``achieved_gflops``, ``achieved_gbs``, ``checksum``.
    """
    if isinstance(kernel, str):
        try:
            kernel = KERNELS[kernel]()
        except KeyError:
            raise ValueError(
                f"unknown kernel {kernel!r}; known: {sorted(KERNELS)}"
            ) from None
    config = config if config is not None else HostBenchConfig()

    for _ in range(config.warmup_reps):
        kernel.run()

    block_ids: list[int] = []
    rep_ids: list[int] = []
    durations: list[float] = []
    checksums: list[float] = []
    for block in range(config.blocks):
        for rep in range(config.reps_per_block):
            start = time.perf_counter()
            checksum = kernel.run()
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            block_ids.append(block)
            rep_ids.append(rep)
            durations.append(elapsed_ms)
            checksums.append(checksum)

    durations_arr = np.asarray(durations)
    n = durations_arr.shape[0]
    seconds = durations_arr / 1000.0
    return MeasurementDataset({
        "workload": shared_str_column(n, f"host-{kernel.name}"),
        "gpu_index": np.asarray(block_ids, dtype=np.int64),
        "gpu_label": np.asarray(
            [f"host-block-{b:02d}" for b in block_ids], dtype=object
        ),
        "node_label": shared_str_column(n, "localhost"),
        "run": np.asarray(rep_ids, dtype=np.int64),
        METRIC_PERFORMANCE: durations_arr,
        "achieved_gflops": kernel.flop / seconds / 1.0e9,
        "achieved_gbs": kernel.bytes_moved / seconds / 1.0e9,
        "checksum": np.asarray(checksums),
    })
