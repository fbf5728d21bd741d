"""PageRank over a circuit-simulation graph (Section V-D).

The paper runs pull-based PageRank (Pannotia / SPMV formulation) on
``rajat30``, an undirected circuit-simulation matrix with 643,994 nodes,
chosen so the SpMV kernels exceed the 1 ms profiler floor while fully
occupying a V100.  PageRank is memory-*latency* bound and highly irregular:
61% memory-dependency stalls (vs 7% for LAMMPS and 3% for SGEMM) with
*lower* DRAM utilization than LAMMPS (4.24x) because random accesses defeat
the memory subsystem.

This module carries a real substrate, not just a phase model:

* :func:`synthesize_circuit_graph` builds a rajat30-like sparse matrix
  (power-law-ish degree mix typical of circuit matrices, symmetric, with a
  dominant diagonal band plus random long-range couplings);
* :func:`pagerank_pull` is an actual pull-based PageRank on CSR;
* :func:`derive_spmv_phase` converts a matrix into a roofline
  :class:`KernelPhase` (traffic from nnz and rank-vector gathers, inflated
  by an irregularity factor representing wasted cache lines).

The default :func:`pagerank` workload uses the analytic traffic of the
full-size graph so benchmarks do not need to materialize 6 M edges; tests
exercise the real pipeline end to end on smaller graphs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError
from .base import KernelPhase, Workload

if TYPE_CHECKING:  # pragma: no cover - types only; scipy loads on first use
    import scipy.sparse as sp

__all__ = [
    "synthesize_circuit_graph",
    "pagerank_pull",
    "derive_spmv_phase",
    "pagerank",
    "RAJAT30_NODES",
    "RAJAT30_NNZ",
]

#: rajat30's published dimensions (SuiteSparse).
RAJAT30_NODES = 643_994
RAJAT30_NNZ = 6_175_244

#: Bytes per CSR nonzero during pull SpMV: 4 (column index) + 8 (value)
#: + 8 (gathered rank-vector entry).
_BYTES_PER_NNZ = 20.0
#: Bytes per row: row pointer + output write + degree normalization.
_BYTES_PER_ROW = 24.0
#: Effective traffic inflation from irregular gathers (wasted sectors of
#: each 32-byte DRAM transaction plus TLB/row-buffer misses).
IRREGULARITY_FACTOR = 22.0


def synthesize_circuit_graph(
    n_nodes: int = 20_000,
    avg_degree: float = 9.6,
    rng: np.random.Generator | None = None,
) -> sp.csr_matrix:
    """Build a rajat30-like symmetric adjacency matrix in CSR form.

    Circuit matrices combine a strong banded structure (local wiring) with
    a tail of high-degree nets (power rails, clock trees).  We mimic that
    with a diagonal band plus preferential long-range couplings.

    Parameters
    ----------
    n_nodes:
        Node count; defaults far below rajat30 so tests stay fast — pass
        :data:`RAJAT30_NODES` for the full-size graph.
    avg_degree:
        Target mean degree (rajat30 is ~9.6).
    rng:
        Randomness source; defaults to a fixed-seed generator.
    """
    if n_nodes < 4:
        raise ConfigError(f"need at least 4 nodes, got {n_nodes}")
    if avg_degree < 2.0:
        raise ConfigError(f"avg_degree must be >= 2, got {avg_degree}")
    import scipy.sparse as sp

    if rng is None:
        rng = np.random.default_rng(20_220_422)

    # Banded local wiring: connect i to i+1 and i+2.
    i = np.arange(n_nodes - 1)
    rows = [i, i[:-1]]
    cols = [i + 1, i[:-1] + 2]

    # Long-range couplings with a preferential (heavy-tailed) target choice.
    n_random = int(n_nodes * (avg_degree - 3.0) / 2.0)
    if n_random > 0:
        src = rng.integers(0, n_nodes, size=n_random)
        # Zipf-ish hub selection clipped into range.
        hub = np.minimum(
            (rng.pareto(1.6, size=n_random) * (n_nodes / 50.0)).astype(np.int64),
            n_nodes - 1,
        )
        keep = src != hub
        rows.append(src[keep])
        cols.append(hub[keep])

    row = np.concatenate(rows)
    col = np.concatenate(cols)
    data = np.ones(row.shape[0])
    adj = sp.coo_matrix((data, (row, col)), shape=(n_nodes, n_nodes))
    adj = adj + adj.T           # undirected
    adj.data[:] = 1.0           # collapse duplicate couplings
    return adj.tocsr()


def pagerank_pull(
    adjacency: sp.spmatrix,
    damping: float = 0.85,
    tol: float = 1.0e-8,
    max_iterations: int = 200,
) -> tuple[np.ndarray, int]:
    """Pull-based PageRank on a CSR adjacency matrix.

    Each iteration *pulls* rank from in-neighbours — the SpMV formulation
    the paper profiles.  Returns the rank vector (L1-normalized) and the
    iteration count at convergence.

    Raises
    ------
    ConfigError
        If ``damping`` is outside (0, 1) or the matrix is not square.
    """
    if not 0.0 < damping < 1.0:
        raise ConfigError(f"damping must be in (0, 1), got {damping}")
    n = adjacency.shape[0]
    if adjacency.shape != (n, n):
        raise ConfigError(f"adjacency must be square, got {adjacency.shape}")
    csr = adjacency.tocsr()

    out_degree = np.asarray(csr.sum(axis=1)).ravel()
    dangling = out_degree == 0
    inv_degree = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, out_degree))

    # Pull formulation: r_new = d * A^T (r * inv_degree) + teleport.
    pull = csr.T.tocsr()
    rank = np.full(n, 1.0 / n)
    for iteration in range(1, max_iterations + 1):
        contrib = rank * inv_degree
        dangling_mass = rank[dangling].sum()
        new_rank = damping * (pull @ contrib)
        new_rank += (1.0 - damping + damping * dangling_mass) / n
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta < tol:
            break
    return rank / rank.sum(), iteration


def derive_spmv_phase(
    adjacency: sp.spmatrix,
    irregularity: float = IRREGULARITY_FACTOR,
) -> KernelPhase:
    """Convert a sparse matrix into the roofline phase of one SpMV sweep."""
    csr = adjacency.tocsr()
    n, nnz = csr.shape[0], csr.nnz
    return _spmv_phase(n, nnz, irregularity)


def _spmv_phase(n: int, nnz: int, irregularity: float) -> KernelPhase:
    traffic = (nnz * _BYTES_PER_NNZ + n * _BYTES_PER_ROW) * irregularity
    return KernelPhase(
        name="spmv_pull",
        compute_flop=2.0 * nnz,
        memory_bytes=traffic,
        activity=0.22,
        dram_utilization=0.20,
        launches=1,
    )


def pagerank(
    n_nodes: int = RAJAT30_NODES,
    nnz: int = RAJAT30_NNZ,
    sweeps: int = 100,
) -> Workload:
    """Build the PageRank workload (rajat30-sized by default).

    Parameters
    ----------
    n_nodes, nnz:
        Graph dimensions; traffic is analytic so the full rajat30 size
        costs nothing to model.  Use :func:`derive_spmv_phase` to build the
        phase from a materialized matrix instead.
    sweeps:
        SpMV sweeps per run (each sweep is one profiled kernel).
    """
    if n_nodes < 4 or nnz < n_nodes:
        raise ConfigError(
            f"implausible graph: {n_nodes} nodes, {nnz} nonzeros"
        )
    phase = _spmv_phase(n_nodes, nnz, IRREGULARITY_FACTOR)
    return Workload(
        name="PageRank",
        phases=(phase,),
        n_gpus=1,
        units_per_run=sweeps,
        performance_metric="kernel_ms",
        fu_utilization=0.8,
        dram_utilization_profile=0.20,
        mem_stall_frac=0.61,
        fu_stall_frac=0.02,
        activity_mix_sigma=0.07,
        run_speed_sigma=0.002,
        iteration_jitter_sigma=0.004,
        input_description=f"rajat30-like graph: {n_nodes} nodes, {nnz} nonzeros",
    )
