"""GPU device substrate: SKU specs, silicon variability, power, thermal, DVFS.

This subpackage models the *hardware* side of the paper's measurement stack.
Each simulated GPU is a sample from a manufacturing distribution layered on a
vendor SKU specification; its run-time behaviour emerges from the interaction
of the power model, the RC thermal model, and the vendor DVFS controller —
exactly the causal chain the paper identifies as the source of variability.

Every name below loads its home module on first access
(:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

_LAZY_EXPORTS = {
    **dict.fromkeys(
        (
            "GPUSpec",
            "VENDOR_AMD",
            "VENDOR_NVIDIA",
            "MI60",
            "RTX5000",
            "V100",
            "get_spec",
            "list_specs",
        ),
        "repro.gpu.specs",
    ),
    **dict.fromkeys(
        ("SiliconConfig", "SiliconPopulation", "sample_population"),
        "repro.gpu.silicon",
    ),
    **dict.fromkeys(
        ("DefectType", "DefectConfig", "assign_defects"),
        "repro.gpu.defects",
    ),
    "PowerModel": "repro.gpu.power",
    "ThermalModel": "repro.gpu.thermal",
    **dict.fromkeys(
        ("DvfsController", "DvfsPolicy", "SolverStats", "default_solver"),
        "repro.gpu.dvfs",
    ),
    **dict.fromkeys(("FleetArrays", "GPUFleet"), "repro.gpu.device"),
}

__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = list(_LAZY_EXPORTS)
