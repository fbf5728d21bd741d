"""GPU device substrate: SKU specs, silicon variability, power, thermal, DVFS.

This subpackage models the *hardware* side of the paper's measurement stack.
Each simulated GPU is a sample from a manufacturing distribution layered on a
vendor SKU specification; its run-time behaviour emerges from the interaction
of the power model, the RC thermal model, and the vendor DVFS controller —
exactly the causal chain the paper identifies as the source of variability.
"""

from .specs import (
    GPUSpec,
    VENDOR_AMD,
    VENDOR_NVIDIA,
    MI60,
    RTX5000,
    V100,
    get_spec,
    list_specs,
)
from .silicon import SiliconConfig, SiliconPopulation, sample_population
from .defects import DefectType, DefectConfig, assign_defects
from .power import PowerModel
from .thermal import ThermalModel
from .dvfs import (
    DvfsController,
    DvfsPolicy,
    SolverStats,
    default_solver,
)
from .device import FleetArrays, GPUFleet

__all__ = [
    "GPUSpec",
    "VENDOR_AMD",
    "VENDOR_NVIDIA",
    "MI60",
    "RTX5000",
    "V100",
    "get_spec",
    "list_specs",
    "SiliconConfig",
    "SiliconPopulation",
    "sample_population",
    "DefectType",
    "DefectConfig",
    "assign_defects",
    "PowerModel",
    "ThermalModel",
    "DvfsController",
    "DvfsPolicy",
    "SolverStats",
    "default_solver",
    "GPUFleet",
    "FleetArrays",
]
