"""Job allocation: exclusive nodes, the way the paper's experiments ran.

Section III: "we ensured there was no timesharing of our allocated nodes or
GPUs during data collection" — every job gets whole nodes.  The allocator
supports the two access patterns the study needs:

* **sweep**: enumerate (nearly) every node, for the >90%-coverage
  characterization campaigns;
* **random**: draw nodes the way a batch scheduler would assign an
  unsuspecting user, for the user-impact analysis of Section VII
  ("40%-50% of the time they will be assigned a slower GPU").

:class:`FreeListAllocator` extends the model for the dynamic batch-queue
simulator (:mod:`repro.sched`): it keeps a per-node free list so jobs can
*share* nodes (partial-node allocations), span several nodes (gang
allocations wider than one chassis), and return capacity with
:meth:`~FreeListAllocator.free` when they complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import AllocationError
from .topology import Topology

__all__ = [
    "Allocation",
    "ExclusiveNodeAllocator",
    "GangAllocation",
    "FreeListAllocator",
]


def _require_int(value, what: str) -> int:
    """Validate a GPU count: a genuine integer (no bools, no floats)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise AllocationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _swept_nodes(
    n_nodes: int, coverage: float, rng: np.random.Generator | None
) -> np.ndarray:
    """The ascending node indices a sweep covers (see
    :meth:`ExclusiveNodeAllocator.sweep`); campaign shard planning draws
    its daily coverage through here too, without building allocations."""
    if not 0 < coverage <= 1:
        raise AllocationError(f"coverage must be in (0, 1], got {coverage}")
    nodes = np.arange(n_nodes)
    if coverage < 1.0:
        if rng is None:
            raise AllocationError("coverage < 1 requires an rng")
        keep = max(1, int(round(n_nodes * coverage)))
        nodes = np.sort(rng.choice(nodes, size=keep, replace=False))
    return nodes


@dataclass(frozen=True)
class Allocation:
    """GPUs granted to one job.

    ``node_index`` identifies the (single) node; ``gpu_indices`` are global
    GPU indices within the cluster.
    """

    node_index: int
    gpu_indices: np.ndarray

    @property
    def n_gpus(self) -> int:
        """Number of GPUs in the allocation."""
        return int(self.gpu_indices.shape[0])


class ExclusiveNodeAllocator:
    """Grants exclusive single-node allocations on a topology."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    def allocate_node(self, node_index: int, n_gpus: int | None = None) -> Allocation:
        """All (or the first ``n_gpus``) GPUs of a specific node.

        ``n_gpus`` is validated against the node's actual GPU count —
        over-asking raises :class:`~repro.errors.AllocationError` rather
        than truncating or indexing past the chassis.
        """
        gpus = self.topology.gpus_of_node(node_index)
        if n_gpus is not None:
            n_gpus = _require_int(n_gpus, "n_gpus")
            if not 1 <= n_gpus <= gpus.shape[0]:
                raise AllocationError(
                    f"requested {n_gpus} GPUs but node has {gpus.shape[0]}"
                )
            gpus = gpus[:n_gpus]
        return Allocation(node_index=node_index, gpu_indices=gpus)

    def sweep(
        self,
        n_gpus: int | None = None,
        coverage: float = 1.0,
        rng: np.random.Generator | None = None,
    ) -> list[Allocation]:
        """One allocation per node, optionally covering a random subset.

        ``coverage`` < 1 models shared-cluster reality: the study could not
        always get every node (Vortex: 184 of 216 GPUs; Summit queue
        placement varies by day).  Requires ``rng`` when < 1.
        """
        nodes = _swept_nodes(self.topology.n_nodes, coverage, rng)
        return [self.allocate_node(int(n), n_gpus) for n in nodes]

    def random_assignment(
        self, n_gpus: int, rng: np.random.Generator
    ) -> Allocation:
        """What a batch scheduler would hand an arbitrary user job."""
        n_gpus = _require_int(n_gpus, "n_gpus")
        if not 1 <= n_gpus <= self.topology.gpus_per_node:
            raise AllocationError(
                f"jobs span one node; requested {n_gpus} GPUs but nodes have "
                f"{self.topology.gpus_per_node}"
            )
        node = int(rng.integers(0, self.topology.n_nodes))
        gpus = self.topology.gpus_of_node(node)
        if n_gpus < gpus.shape[0]:
            picked = rng.choice(gpus, size=n_gpus, replace=False)
            gpus = np.sort(picked)
        return Allocation(node_index=node, gpu_indices=gpus)


@dataclass(frozen=True)
class GangAllocation:
    """GPUs granted to one (possibly multi-node) gang job.

    ``node_indices`` lists every node the gang touches, ascending;
    ``gpu_indices`` are global GPU indices, ascending.  Single-node jobs
    are the one-element special case.
    """

    node_indices: np.ndarray
    gpu_indices: np.ndarray

    @property
    def n_gpus(self) -> int:
        """Number of GPUs in the allocation."""
        return int(self.gpu_indices.shape[0])

    @property
    def n_nodes(self) -> int:
        """Number of distinct nodes the gang spans."""
        return int(self.node_indices.shape[0])


class FreeListAllocator:
    """Stateful allocator with per-node free lists and a ``free()`` path.

    The queue engine's bookkeeping: jobs may take a *part* of a node
    (several small jobs share a chassis), or *several* nodes (gangs wider
    than one chassis), and every grant is returned via :meth:`free` when
    the job completes.  All grants take the lowest free GPU indices of
    each node, so allocation state — and everything derived from it — is a
    pure function of the grant/free call sequence.

    Counts are maintained *incrementally*: the per-node free-count array,
    the machine-wide total, and a free-count bucket index ("how many nodes
    have at least ``k`` free GPUs") are updated in O(delta) on every
    allocate/free instead of being rebuilt per query, so the scheduler's
    fit checks are O(1) at any fleet size.  External order-keyed indexes
    (:class:`repro.sched.index.OrderedFreeIndex`) can subscribe to count
    changes via :meth:`add_listener`.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._free = [
            set(topology.gpus_of_node(n).tolist())
            for n in range(topology.n_nodes)
        ]
        per_node = topology.gpus_per_node
        self._counts = np.full(topology.n_nodes, per_node, dtype=np.int64)
        self._n_free = int(topology.n_gpus)
        # _ge[k] = number of nodes with >= k free GPUs, k in 0..gpus_per_node
        self._ge = np.zeros(per_node + 1, dtype=np.int64)
        self._ge[0] = topology.n_nodes
        self._ge[1:] = topology.n_nodes
        self._listeners: list = []
        # Node of each GPU, snapshotted once (topology caches it too; the
        # local alias keeps free() from attribute-chasing per call).
        self._node_of_gpu = topology.node_of_gpu

    def add_listener(self, callback) -> None:
        """Subscribe ``callback(node_index, new_count)`` to count changes."""
        self._listeners.append(callback)

    def _set_count(self, node: int, new: int) -> None:
        old = int(self._counts[node])
        if new == old:
            return
        self._counts[node] = new
        self._n_free += new - old
        if new > old:
            self._ge[old + 1 : new + 1] += 1
        else:
            self._ge[new + 1 : old + 1] -= 1
        for callback in self._listeners:
            callback(node, new)

    @property
    def n_free(self) -> int:
        """Free GPUs across the whole machine."""
        return self._n_free

    @property
    def n_busy(self) -> int:
        """Allocated GPUs across the whole machine."""
        return self.topology.n_gpus - self._n_free

    def free_counts(self) -> np.ndarray:
        """Free-GPU count per node (ascending node index)."""
        return self._counts.copy()

    def free_counts_view(self) -> np.ndarray:
        """Internal free-count array (live view — do not mutate)."""
        return self._counts

    def n_nodes_with_at_least(self, k: int) -> int:
        """Number of nodes holding at least ``k`` free GPUs, O(1)."""
        if k <= 0:
            return self.topology.n_nodes
        if k > self.topology.gpus_per_node:
            return 0
        return int(self._ge[k])

    def free_gpus_of_node(self, node_index: int) -> np.ndarray:
        """Free GPU indices of one node, ascending."""
        if not 0 <= node_index < self.topology.n_nodes:
            raise AllocationError(f"node index {node_index} out of range")
        return np.asarray(sorted(self._free[node_index]), dtype=np.int64)

    def allocate(
        self, requests: Sequence[tuple[int, int]]
    ) -> GangAllocation:
        """Grant ``count`` GPUs from each ``(node_index, count)`` request.

        Requests are validated in full before anything is taken, so a
        failing call never leaks capacity.  Each node contributes its
        lowest free GPU indices.
        """
        if not requests:
            raise AllocationError("allocation needs at least one request")
        seen: set[int] = set()
        for node_index, count in requests:
            node_index = _require_int(node_index, "node_index")
            count = _require_int(count, "count")
            if not 0 <= node_index < self.topology.n_nodes:
                raise AllocationError(f"node index {node_index} out of range")
            if node_index in seen:
                raise AllocationError(
                    f"node {node_index} appears twice in one allocation"
                )
            seen.add(node_index)
            if count < 1:
                raise AllocationError(f"count must be >= 1, got {count}")
            if count > len(self._free[node_index]):
                raise AllocationError(
                    f"node {node_index} has {len(self._free[node_index])} "
                    f"free GPUs, requested {count}"
                )
        nodes: list[int] = []
        gpus: list[int] = []
        for node_index, count in requests:
            node_index = int(node_index)
            taken = sorted(self._free[node_index])[: int(count)]
            self._free[node_index].difference_update(taken)
            self._set_count(node_index, len(self._free[node_index]))
            nodes.append(node_index)
            gpus.extend(taken)
        return GangAllocation(
            node_indices=np.asarray(sorted(nodes), dtype=np.int64),
            gpu_indices=np.asarray(sorted(gpus), dtype=np.int64),
        )

    def free(self, allocation: GangAllocation) -> None:
        """Return an allocation's GPUs; double-freeing raises."""
        node_of_gpu = self._node_of_gpu
        for gpu in allocation.gpu_indices.tolist():
            node = int(node_of_gpu[gpu])
            if gpu in self._free[node]:
                raise AllocationError(f"GPU {gpu} is already free")
        touched: set[int] = set()
        for gpu in allocation.gpu_indices.tolist():
            node = int(node_of_gpu[gpu])
            self._free[node].add(int(gpu))
            touched.add(node)
        for node in sorted(touched):
            self._set_count(node, len(self._free[node]))
