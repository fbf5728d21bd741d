"""Cluster substrate: machine-room topology, cooling plants, facilities.

This subpackage turns a GPU population into a *cluster*: nodes with labels
matching the paper's plots (``c002-010``, ``rowh-col36-n10``), cabinet /
row-column grouping used for the per-group box plots, cooling technologies
with their spatial temperature fields, facility-level day-to-day conditions,
and the exclusive-node job allocator the paper's methodology relies on.

Every name below loads its home module on first access
(:mod:`repro._lazy`), so building a preset never loads the allocator.
"""

from .._lazy import lazy_exports

_LAZY_EXPORTS = {
    **dict.fromkeys(
        ("Topology", "cabinet_topology", "row_column_topology"),
        "repro.cluster.topology",
    ),
    **dict.fromkeys(
        (
            "AirCooling",
            "CoolingEnvironment",
            "CoolingFault",
            "MineralOilCooling",
            "WaterCooling",
        ),
        "repro.cluster.cooling",
    ),
    "FacilityModel": "repro.cluster.facility",
    **dict.fromkeys(("Cluster", "ClusterConfig"), "repro.cluster.cluster"),
    **dict.fromkeys(
        (
            "cloudlab",
            "corona",
            "frontera",
            "get_preset",
            "list_presets",
            "longhorn",
            "summit",
            "vortex",
        ),
        "repro.cluster.presets",
    ),
    **dict.fromkeys(
        (
            "Allocation",
            "ExclusiveNodeAllocator",
            "FreeListAllocator",
            "GangAllocation",
        ),
        "repro.cluster.allocator",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = list(_LAZY_EXPORTS)
