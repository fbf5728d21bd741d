"""Real host-CPU microkernels mirroring the paper's workload classes.

Each kernel returns a scalar derived from its output (so the work cannot be
optimized away) and reports its nominal work so the harness can compute
achieved throughput:

* ``gemm``   — compute-bound (BLAS matrix multiply), the SGEMM analogue;
* ``spmv``   — irregular memory-bound (CSR sparse matvec), the PageRank
  analogue;
* ``stream`` — regular memory-bandwidth-bound (triad), the LAMMPS analogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..config import require

__all__ = ["HostKernel", "gemm_kernel", "spmv_kernel", "stream_kernel", "KERNELS"]


@dataclass(frozen=True)
class HostKernel:
    """A runnable host microkernel.

    ``run`` executes one repetition and returns a checksum; ``flop`` and
    ``bytes_moved`` describe the nominal work per repetition.
    """

    name: str
    run: Callable[[], float]
    flop: float
    bytes_moved: float
    workload_class: str


def gemm_kernel(n: int = 384, rng: np.random.Generator | None = None) -> HostKernel:
    """Dense single-precision matrix multiply (compute-bound)."""
    require(n >= 8, "gemm dimension must be >= 8")
    rng = rng if rng is not None else np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)

    def run() -> float:
        return float((a @ b).trace())

    return HostKernel(
        name="gemm",
        run=run,
        flop=2.0 * n**3,
        bytes_moved=3.0 * n * n * 4.0,
        workload_class="compute-bound",
    )


def spmv_kernel(
    n: int = 40_000,
    nnz_per_row: int = 10,
    rng: np.random.Generator | None = None,
) -> HostKernel:
    """CSR sparse matrix-vector product with random pattern (irregular)."""
    import scipy.sparse as sp

    require(n >= 16, "spmv dimension must be >= 16")
    require(nnz_per_row >= 1, "nnz_per_row must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(1)
    rows = np.repeat(np.arange(n), nnz_per_row)
    cols = rng.integers(0, n, size=n * nnz_per_row)
    vals = rng.standard_normal(n * nnz_per_row)
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    x = rng.standard_normal(n)

    def run() -> float:
        return float((matrix @ x).sum())

    nnz = matrix.nnz
    return HostKernel(
        name="spmv",
        run=run,
        flop=2.0 * nnz,
        bytes_moved=nnz * 20.0 + n * 24.0,
        workload_class="memory-latency-bound",
    )


def stream_kernel(
    n: int = 4_000_000, rng: np.random.Generator | None = None
) -> HostKernel:
    """STREAM-triad style streaming update (bandwidth-bound)."""
    require(n >= 1024, "stream length must be >= 1024")
    rng = rng if rng is not None else np.random.default_rng(2)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    c = np.empty(n)

    def run() -> float:
        np.multiply(b, 3.0, out=c)
        np.add(c, a, out=c)
        return float(c[0] + c[-1])

    return HostKernel(
        name="stream",
        run=run,
        flop=2.0 * n,
        bytes_moved=3.0 * n * 8.0,
        workload_class="memory-bandwidth-bound",
    )


#: Kernel factories by name (default sizes).
KERNELS: dict[str, Callable[[], HostKernel]] = {
    "gemm": gemm_kernel,
    "spmv": spmv_kernel,
    "stream": stream_kernel,
}
