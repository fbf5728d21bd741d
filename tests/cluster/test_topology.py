"""Tests for machine-room topologies."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.cluster.presets import PAPER_CLUSTERS
from repro.cluster.topology import Topology, cabinet_topology, row_column_topology


class TestCabinetTopology:
    def test_sizes(self):
        topo = cabinet_topology("T", n_nodes=12, gpus_per_node=4,
                                nodes_per_cabinet=3)
        assert topo.n_nodes == 12
        assert topo.n_gpus == 48
        assert topo.n_cabinets == 4

    def test_node_label_format(self):
        topo = cabinet_topology("T", 6, 4, 3)
        assert topo.node_labels[0] == "c001-001"
        assert topo.node_labels[3] == "c002-001"

    def test_custom_cabinet_numbers(self):
        topo = cabinet_topology("T", 6, 4, 3, cabinet_numbers=(197, 198))
        assert topo.cabinet_labels == ("c197", "c198")
        assert topo.node_labels[0].startswith("c197")

    def test_insufficient_cabinet_numbers_rejected(self):
        with pytest.raises(ConfigError):
            cabinet_topology("T", 9, 4, 3, cabinet_numbers=(1, 2))

    def test_partial_last_cabinet(self):
        topo = cabinet_topology("T", 7, 4, 3)
        assert topo.n_cabinets == 3
        assert int((topo.cabinet_of_node == 2).sum()) == 1

    def test_gpu_labels(self):
        topo = cabinet_topology("T", 3, 2, 3)
        assert topo.gpu_labels[0] == "c001-001-0"
        assert topo.gpu_labels[5] == "c001-003-1"


class TestGridTopology:
    def test_sizes(self):
        topo = row_column_topology("S", n_rows=2, n_columns=3,
                                   nodes_per_column=4, gpus_per_node=6)
        assert topo.n_nodes == 24
        assert topo.n_gpus == 144
        assert topo.has_grid

    def test_summit_full_dimensions(self):
        topo = row_column_topology("Summit", 8, 36, 16, 6)
        assert topo.n_gpus == 27648  # Table I
        assert topo.n_nodes == 4608

    def test_label_format(self):
        topo = row_column_topology("S", 2, 3, 2, 1)
        assert topo.node_labels[0] == "rowa-col01-n01"
        assert topo.node_labels[-1] == "rowb-col03-n02"

    def test_row_and_column_indices(self):
        topo = row_column_topology("S", 2, 3, 2, 1)
        assert topo.row_of_node[0] == 0
        assert topo.row_of_node[-1] == 1
        np.testing.assert_array_equal(
            np.unique(topo.column_of_node), [0, 1, 2]
        )

    def test_location_groups_are_row_column_pairs(self):
        topo = row_column_topology("S", 2, 3, 2, 2)
        groups = topo.location_group_of_gpu()
        assert np.unique(groups).shape[0] == 6  # 2 rows x 3 cols

    def test_too_many_rows_rejected(self):
        with pytest.raises(ConfigError):
            row_column_topology("S", 27, 2, 2, 2)


class TestDerivedArrays:
    @pytest.fixture()
    def topo(self):
        return cabinet_topology("T", 6, 4, 3)

    def test_node_of_gpu(self, topo):
        np.testing.assert_array_equal(topo.node_of_gpu[:5], [0, 0, 0, 0, 1])

    def test_slot_of_gpu(self, topo):
        np.testing.assert_array_equal(topo.slot_of_gpu[:5], [0, 1, 2, 3, 0])

    def test_gpus_of_node(self, topo):
        np.testing.assert_array_equal(topo.gpus_of_node(1), [4, 5, 6, 7])

    def test_gpus_of_node_out_of_range(self, topo):
        with pytest.raises(IndexError):
            topo.gpus_of_node(99)

    def test_node_index_lookup(self, topo):
        assert topo.node_index("c002-001") == 3
        with pytest.raises(KeyError):
            topo.node_index("c099-001")

    def test_location_groups_are_cabinets(self, topo):
        np.testing.assert_array_equal(
            topo.location_group_of_gpu(), topo.cabinet_of_gpu
        )


class TestValidation:
    def test_empty_topology_rejected(self):
        with pytest.raises(ConfigError):
            cabinet_topology("T", 0, 4, 3)

    def test_cabinet_index_bounds_checked(self):
        with pytest.raises(ConfigError):
            Topology(
                cluster_name="T",
                gpus_per_node=1,
                node_labels=("n0",),
                cabinet_of_node=np.array([5]),
                cabinet_labels=("c001",),
            )

    def test_partial_grid_fields_rejected(self):
        with pytest.raises(ConfigError):
            Topology(
                cluster_name="T",
                gpus_per_node=1,
                node_labels=("n0",),
                cabinet_of_node=np.array([0]),
                cabinet_labels=("c001",),
                row_of_node=np.array([0]),  # missing column/labels
            )


def _node_labels_oracle(topo: Topology) -> tuple[str, ...]:
    """Each node label formatted from numpy scalars: the reference."""
    node_idx = np.arange(topo.n_nodes)
    if topo.has_grid:
        n_columns = int(topo.column_of_node.max()) + 1
        per_column = topo.n_nodes // (len(topo.row_labels) * n_columns)
        return tuple(
            f"row{topo.row_labels[r]}-col{c + 1:02d}-n{k + 1:02d}"
            for r, c, k in zip(topo.row_of_node, topo.column_of_node,
                               node_idx % per_column)
        )
    per_cabinet = int(np.bincount(topo.cabinet_of_node).max())
    return tuple(
        f"{topo.cabinet_labels[cab]}-{(i % per_cabinet) + 1:03d}"
        for i, cab in zip(node_idx, topo.cabinet_of_node)
    )


@pytest.mark.parametrize("scale", [1.0, 0.25])
@pytest.mark.parametrize("name", sorted(PAPER_CLUSTERS))
def test_preset_labels_match_numpy_scalar_oracle(name, scale):
    topo = PAPER_CLUSTERS[name](seed=0, scale=scale).topology
    assert topo.node_labels == _node_labels_oracle(topo)
    assert topo.gpu_labels == tuple(
        f"{topo.node_labels[node]}-{slot}"
        for node, slot in zip(topo.node_of_gpu, topo.slot_of_gpu)
    )
