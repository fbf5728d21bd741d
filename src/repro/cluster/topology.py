"""Machine-room topology: nodes, cabinets, and Summit-style row/column grids.

The paper groups measurements two ways:

* **cabinets of 12 GPUs** (3 nodes x 4 GPUs) on Longhorn, Frontera, Vortex,
  and Corona — node labels look like ``c002-010``;
* **rows and columns** on Summit (Figs. 4, 23-26) — labels look like
  ``rowh-col36-n10-3`` (row H, column 36, node 10, GPU slot 3).

A :class:`Topology` stores the node-level layout plus derived per-GPU index
arrays so analysis code can group any metric by node, cabinet, row, or
column with plain NumPy fancy indexing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..config import require
from ..errors import ConfigError

__all__ = ["Topology", "cabinet_topology", "row_column_topology"]


@dataclass(frozen=True)
class Topology:
    """Immutable description of where every node (and GPU) sits.

    Attributes
    ----------
    cluster_name:
        Human-readable cluster name.
    gpus_per_node:
        GPUs in each node (4 on the TACC/SNL/LLNL clusters, 6 on Summit).
    node_labels:
        One label per node, e.g. ``c002-010`` or ``rowh-col36-n10``.
    cabinet_of_node:
        Integer cabinet (location-group) index per node.
    cabinet_labels:
        One label per cabinet.
    row_of_node, column_of_node:
        Optional row / column indices per node (Summit-style grids);
        ``None`` elsewhere.
    row_labels:
        Labels for row indices when a grid is present.
    """

    cluster_name: str
    gpus_per_node: int
    node_labels: tuple[str, ...]
    cabinet_of_node: np.ndarray
    cabinet_labels: tuple[str, ...]
    row_of_node: np.ndarray | None = None
    column_of_node: np.ndarray | None = None
    row_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.node_labels)
        require(n > 0, "topology needs at least one node")
        require(self.gpus_per_node > 0, "gpus_per_node must be positive")
        if self.cabinet_of_node.shape != (n,):
            raise ConfigError(
                f"cabinet_of_node must have shape ({n},), got "
                f"{self.cabinet_of_node.shape}"
            )
        if self.cabinet_of_node.max(initial=-1) >= len(self.cabinet_labels):
            raise ConfigError("cabinet index exceeds cabinet_labels")
        has_grid = self.row_of_node is not None
        if has_grid != (self.column_of_node is not None) or (
            has_grid != (self.row_labels is not None)
        ):
            raise ConfigError(
                "row_of_node, column_of_node, and row_labels must be given together"
            )
        if has_grid and self.row_of_node.shape != (n,):
            raise ConfigError("row_of_node must have one entry per node")

    # -- sizes ---------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return len(self.node_labels)

    @property
    def n_gpus(self) -> int:
        """Number of GPUs."""
        return self.n_nodes * self.gpus_per_node

    @property
    def n_cabinets(self) -> int:
        """Number of cabinets (location groups)."""
        return len(self.cabinet_labels)

    @property
    def has_grid(self) -> bool:
        """Whether this topology has a Summit-style row/column grid."""
        return self.row_of_node is not None

    # -- per-GPU derived arrays ------------------------------------------------

    @cached_property
    def node_of_gpu(self) -> np.ndarray:
        """Node index of each GPU (GPUs are laid out node-major)."""
        return np.repeat(np.arange(self.n_nodes), self.gpus_per_node)

    @cached_property
    def slot_of_gpu(self) -> np.ndarray:
        """Slot (position within the node chassis) of each GPU."""
        return np.tile(np.arange(self.gpus_per_node), self.n_nodes)

    @cached_property
    def cabinet_of_gpu(self) -> np.ndarray:
        """Cabinet index of each GPU."""
        return self.cabinet_of_node[self.node_of_gpu]

    @cached_property
    def row_of_gpu(self) -> np.ndarray | None:
        """Row index of each GPU, or None without a grid."""
        if self.row_of_node is None:
            return None
        return self.row_of_node[self.node_of_gpu]

    @cached_property
    def column_of_gpu(self) -> np.ndarray | None:
        """Column index of each GPU, or None without a grid."""
        if self.column_of_node is None:
            return None
        return self.column_of_node[self.node_of_gpu]

    @cached_property
    def gpu_labels(self) -> tuple[str, ...]:
        """Per-GPU labels, ``<node_label>-<slot>``."""
        return tuple(
            f"{self.node_labels[node]}-{slot}"
            for node, slot in zip(self.node_of_gpu.tolist(),
                                  self.slot_of_gpu.tolist())
        )

    @cached_property
    def gpu_label_array(self) -> np.ndarray:
        """:attr:`gpu_labels` as an object array, for gathers by GPU index."""
        return np.asarray(self.gpu_labels, dtype=object)

    @cached_property
    def node_label_of_gpu(self) -> np.ndarray:
        """Node label of each GPU (object array)."""
        return np.asarray(self.node_labels, dtype=object)[self.node_of_gpu]

    @cached_property
    def cabinet_label_of_gpu(self) -> np.ndarray:
        """Cabinet label of each GPU (object array)."""
        return np.asarray(self.cabinet_labels, dtype=object)[self.cabinet_of_gpu]

    @cached_property
    def row_label_of_gpu(self) -> np.ndarray | None:
        """Row label of each GPU (object array), or None without a grid."""
        if self.row_labels is None:
            return None
        return np.asarray(self.row_labels, dtype=object)[self.row_of_gpu]

    def location_group_of_gpu(self) -> np.ndarray:
        """Integer location-group per GPU, for spatial defect correlation.

        Row/column pairs on grid topologies (the paper's Summit outliers
        cluster by column), cabinets elsewhere.
        """
        if self.has_grid:
            n_cols = int(self.column_of_node.max()) + 1
            group = self.row_of_node * n_cols + self.column_of_node
            return group[self.node_of_gpu]
        return self.cabinet_of_gpu

    def gpus_of_node(self, node_index: int) -> np.ndarray:
        """GPU indices belonging to ``node_index``."""
        if not 0 <= node_index < self.n_nodes:
            raise IndexError(f"node index {node_index} out of range")
        start = node_index * self.gpus_per_node
        return np.arange(start, start + self.gpus_per_node)

    def node_index(self, label: str) -> int:
        """Node index for a node label."""
        try:
            return self.node_labels.index(label)
        except ValueError:
            raise KeyError(f"unknown node label {label!r}") from None


def cabinet_topology(
    cluster_name: str,
    n_nodes: int,
    gpus_per_node: int,
    nodes_per_cabinet: int = 3,
    cabinet_numbers: tuple[int, ...] | None = None,
) -> Topology:
    """Build a flat cabinet-grouped topology (Longhorn/Frontera/Vortex/Corona).

    Node labels follow the TACC convention ``c<cabinet>-<node-in-cabinet>``.
    ``cabinet_numbers`` overrides the cabinet numbering (Frontera cabinets
    carry numbers like 197); by default cabinets are numbered from 1.
    """
    require(n_nodes > 0, "n_nodes must be positive")
    require(nodes_per_cabinet > 0, "nodes_per_cabinet must be positive")
    n_cabinets = -(-n_nodes // nodes_per_cabinet)  # ceil division
    if cabinet_numbers is None:
        cabinet_numbers = tuple(range(1, n_cabinets + 1))
    if len(cabinet_numbers) < n_cabinets:
        raise ConfigError(
            f"need at least {n_cabinets} cabinet numbers, got {len(cabinet_numbers)}"
        )
    cabinet_of_node = np.arange(n_nodes) // nodes_per_cabinet
    cabinet_labels = tuple(f"c{num:03d}" for num in cabinet_numbers[:n_cabinets])
    node_labels = tuple(
        f"{cabinet_labels[cab]}-{(i % nodes_per_cabinet) + 1:03d}"
        for i, cab in enumerate(cabinet_of_node.tolist())
    )
    return Topology(
        cluster_name=cluster_name,
        gpus_per_node=gpus_per_node,
        node_labels=node_labels,
        cabinet_of_node=cabinet_of_node,
        cabinet_labels=cabinet_labels,
    )


def row_column_topology(
    cluster_name: str,
    n_rows: int,
    n_columns: int,
    nodes_per_column: int,
    gpus_per_node: int,
) -> Topology:
    """Build a Summit-style row/column grid topology.

    Rows are labelled ``a`` .. (as on Summit's floor plan); node labels are
    ``row<r>-col<c>-n<k>``.  Each (row, column) pair is one cabinet for
    grouping purposes.
    """
    require(n_rows > 0 and n_columns > 0, "grid dimensions must be positive")
    require(nodes_per_column > 0, "nodes_per_column must be positive")
    if n_rows > 26:
        raise ConfigError("row labels support at most 26 rows")
    row_labels = tuple(chr(ord("a") + r) for r in range(n_rows))

    n_nodes = n_rows * n_columns * nodes_per_column
    node_idx = np.arange(n_nodes)
    row_of_node = node_idx // (n_columns * nodes_per_column)
    column_of_node = (node_idx // nodes_per_column) % n_columns
    node_in_column = node_idx % nodes_per_column

    node_labels = tuple(
        f"row{row_labels[r]}-col{c + 1:02d}-n{k + 1:02d}"
        for r, c, k in zip(row_of_node.tolist(), column_of_node.tolist(),
                           node_in_column.tolist())
    )
    cabinet_of_node = row_of_node * n_columns + column_of_node
    cabinet_labels = tuple(
        f"row{row_labels[r]}-col{c + 1:02d}"
        for r in range(n_rows)
        for c in range(n_columns)
    )
    return Topology(
        cluster_name=cluster_name,
        gpus_per_node=gpus_per_node,
        node_labels=node_labels,
        cabinet_of_node=cabinet_of_node,
        cabinet_labels=cabinet_labels,
        row_of_node=row_of_node,
        column_of_node=column_of_node,
        row_labels=row_labels,
    )
