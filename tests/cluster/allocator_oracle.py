"""Set-based free-list allocator: the oracle for :class:`FreeListAllocator`.

The production allocator keeps each node's free GPUs as a sorted list and
its bucket index as a list of ints.  This is the earlier design it
replaced, kept verbatim: a ``set`` of free GPUs per node, grants taken
from ``sorted(set)``, and a NumPy bucket index.  Both must agree on every
grant, every count, every listener call and every error message
(``tests/cluster/test_allocator_differential.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster.allocator import GangAllocation, _require_int
from repro.cluster.topology import Topology
from repro.errors import AllocationError


class SetFreeListAllocator:
    """Per-node ``set`` free lists with incrementally maintained counts."""

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
        self._node_of_gpu = topology.node_of_gpu

    def add_listener(self, callback) -> None:
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
        return self._n_free

    @property
    def n_busy(self) -> int:
        return self.topology.n_gpus - self._n_free

    def free_counts(self) -> np.ndarray:
        return self._counts.copy()

    def free_counts_view(self) -> np.ndarray:
        return self._counts

    def n_nodes_with_at_least(self, k: int) -> int:
        if k <= 0:
            return self.topology.n_nodes
        if k > self.topology.gpus_per_node:
            return 0
        return int(self._ge[k])

    def free_gpus_of_node(self, node_index: int) -> np.ndarray:
        if not 0 <= node_index < self.topology.n_nodes:
            raise AllocationError(f"node index {node_index} out of range")
        return np.asarray(sorted(self._free[node_index]), dtype=np.int64)

    def allocate(
        self, requests: Sequence[tuple[int, int]]
    ) -> GangAllocation:
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
