"""repro — reproduction of *Not All GPUs Are Created Equal* (SC 2022).

A GPU-fleet variability simulator plus the paper's characterization suite.

The supported import surface is :mod:`repro.api`::

    from repro import api

    cluster = api.load_preset("longhorn", seed=7)
    result = api.characterize(cluster=cluster,
                              workload=api.load_workload("sgemm"),
                              config=api.CampaignConfig(days=7))
    print(result.report.render())
    print(f"performance variation: {result.report.performance_variation:.1%}")

Layers (see DESIGN.md):

* :mod:`repro.api` — the stable facade (start here), including the typed
  request objects in :mod:`repro.api.requests`;
* :mod:`repro.service` — the long-lived asyncio HTTP service over the
  facade (coalescing, response cache, backpressure);
* :mod:`repro.loadgen` — the seeded closed/open-loop load generator;
* :mod:`repro.obs` — opt-in observability: spans, counters, manifests;
* :mod:`repro.gpu` — SKU specs, silicon lottery, power/thermal/DVFS models;
* :mod:`repro.cluster` — topologies, cooling plants, facility drift, the
  six paper cluster presets;
* :mod:`repro.workloads` — SGEMM, ResNet-50, BERT, LAMMPS, PageRank;
* :mod:`repro.sim` — steady-state runs, the reactive engine, campaigns;
* :mod:`repro.telemetry` — sensors, traces, datasets, persistence;
* :mod:`repro.core` — the analysis/characterization suite (works on real
  cluster telemetry too);
* :mod:`repro.hostbench` — real CPU microkernels through the same pipeline.

The historical top-level re-exports (``from repro import longhorn``) were
deprecated in 1.x and removed in 2.0: they now raise :class:`ImportError`
naming the supported replacement — see the migration table in the README.
"""

import importlib

__version__ = "2.0.0"

__all__ = ["__version__", "api"]

# Legacy top-level name -> (module that still defines it, replacement to
# name in the ImportError).  The objects themselves are unchanged — only
# the top-level ``repro.<name>`` spelling is gone.
_REMOVED_EXPORTS: dict[str, tuple[str, str]] = {
    # clusters
    "Cluster": ("repro.cluster", "repro.api.load_preset(...)"),
    "longhorn": ("repro.cluster", 'repro.api.load_preset("longhorn")'),
    "summit": ("repro.cluster", 'repro.api.load_preset("summit")'),
    "frontera": ("repro.cluster", 'repro.api.load_preset("frontera")'),
    "vortex": ("repro.cluster", 'repro.api.load_preset("vortex")'),
    "corona": ("repro.cluster", 'repro.api.load_preset("corona")'),
    "cloudlab": ("repro.cluster", 'repro.api.load_preset("cloudlab")'),
    "get_preset": ("repro.cluster", "repro.api.load_preset"),
    "list_presets": ("repro.cluster", "repro.api.list_presets"),
    # gpu
    "V100": ("repro.gpu", "repro.gpu.V100"),
    "RTX5000": ("repro.gpu", "repro.gpu.RTX5000"),
    "MI60": ("repro.gpu", "repro.gpu.MI60"),
    "GPUFleet": ("repro.gpu", "repro.gpu.GPUFleet"),
    "get_spec": ("repro.gpu", "repro.gpu.get_spec"),
    # workloads
    "Workload": ("repro.workloads", "repro.api.load_workload(...)"),
    "sgemm": ("repro.workloads", 'repro.api.load_workload("sgemm")'),
    "resnet50": ("repro.workloads", 'repro.api.load_workload("resnet50")'),
    "bert_pretraining": (
        "repro.workloads", 'repro.api.load_workload("bert_pretraining")'
    ),
    "lammps_reaxc": (
        "repro.workloads", 'repro.api.load_workload("lammps_reaxc")'
    ),
    "pagerank": ("repro.workloads", 'repro.api.load_workload("pagerank")'),
    "get_workload": ("repro.workloads", "repro.api.load_workload"),
    "list_workloads": ("repro.workloads", "repro.api.list_workloads"),
    # sim
    "CampaignConfig": ("repro.sim", "repro.api.CampaignConfig"),
    "run_campaign": ("repro.sim", "repro.api.run_campaign"),
    "simulate_run": ("repro.sim", "repro.sim.simulate_run"),
    "simulate_timeseries": ("repro.sim", "repro.sim.simulate_timeseries"),
    # telemetry
    "MeasurementDataset": ("repro.telemetry", "repro.api.MeasurementDataset"),
    "read_csv": ("repro.telemetry", "repro.telemetry.read_csv"),
    "write_csv": ("repro.telemetry", "repro.telemetry.write_csv"),
    # core
    "BoxStats": ("repro.core", "repro.api.BoxStats"),
    "VariabilitySuite": ("repro.core", "repro.api.characterize"),
    "ClusterReport": ("repro.core", "repro.api.ClusterReport"),
    "metric_boxstats": ("repro.core", "repro.core.metric_boxstats"),
    "normalized_performance": (
        "repro.core", "repro.core.normalized_performance"
    ),
    "correlation_matrix": ("repro.core", "repro.core.correlation_matrix"),
    "pearson": ("repro.core", "repro.core.pearson"),
    "flag_outlier_gpus": ("repro.core", "repro.api.screen"),
    "persistent_outliers": ("repro.core", "repro.api.screen"),
    "per_gpu_repeatability": (
        "repro.core", "repro.core.per_gpu_repeatability"
    ),
    "required_sample_size": ("repro.core", "repro.core.required_sample_size"),
    "project_variation": ("repro.core", "repro.api.project"),
    "slow_assignment_probability": (
        "repro.core", "repro.core.slow_assignment_probability"
    ),
    "plan_placements": ("repro.core", "repro.core.plan_placements"),
    # mitigation (Section VII)
    "BlacklistPolicy": ("repro.mitigation", "repro.mitigation.BlacklistPolicy"),
    "build_blacklist": ("repro.mitigation", "repro.mitigation.build_blacklist"),
    "evaluate_blacklist": (
        "repro.mitigation", "repro.mitigation.evaluate_blacklist"
    ),
    "weighted_shards": ("repro.mitigation", "repro.mitigation.weighted_shards"),
    "evaluate_sharding": (
        "repro.mitigation", "repro.mitigation.evaluate_sharding"
    ),
    "allocate_uniform": (
        "repro.mitigation", "repro.mitigation.allocate_uniform"
    ),
    "allocate_equal_frequency": (
        "repro.mitigation", "repro.mitigation.allocate_equal_frequency"
    ),
    "evaluate_allocation": (
        "repro.mitigation", "repro.mitigation.evaluate_allocation"
    ),
}


def __getattr__(name: str):
    """Serve :mod:`repro.api` on first access; reject removed legacy names.

    ``import repro.<package>`` loads no facade: the facade loads when
    ``repro.api`` is first named.  The 1.x top-level re-exports were
    removed in 2.0.  The objects still live in their home subpackages;
    the error names the supported spelling so migration is a one-line
    edit.
    """
    if name == "api":
        return importlib.import_module(".api", __name__)
    try:
        module_name, replacement = _REMOVED_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    raise ImportError(
        f"'repro.{name}' was removed in repro 2.0; the object now lives in "
        f"{module_name} — use {replacement} (see repro.api and the "
        "migration table in README.md)"
    )


def __dir__() -> list[str]:
    return sorted(__all__)
