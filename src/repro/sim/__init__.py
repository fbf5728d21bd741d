"""Simulation layer: steady-state runs, time-stepped engine, campaigns.

Two complementary simulators over the same physics:

* :mod:`repro.sim.run` — the settled-state path used for fleet-wide
  measurement campaigns (the paper's methodology runs kernels long enough
  to reach DVFS steady state, so the fixed-point solve *is* the
  measurement);
* :mod:`repro.sim.engine` — a time-stepped reactive simulator for the
  frequency/power transients of Figs. 11 and 25.

:mod:`repro.sim.campaign` sweeps runs across days/weeks and nodes, emitting
the long-form :class:`~repro.telemetry.dataset.MeasurementDataset` the
analysis suite consumes.  :mod:`repro.sim.parallel` shards that sweep
across worker processes with bit-identical results
(``run_campaign(..., workers=N)``).  :mod:`repro.sim.job` prices one
scheduled gang job on its allocated GPUs — the runtime model behind the
batch-queue simulator (:mod:`repro.sched`).

Every name below loads its home module on first access
(:mod:`repro._lazy`), so a campaign never loads the engine, job or
spatial models.
"""

from .._lazy import lazy_exports

_LAZY_EXPORTS = {
    **dict.fromkeys(
        ("RunMeasurements", "run_rng_label", "simulate_run"),
        "repro.sim.run",
    ),
    **dict.fromkeys(
        ("JobPerformance", "reference_unit_times", "sample_job_runtime"),
        "repro.sim.job",
    ),
    **dict.fromkeys(("Engine", "EngineConfig"), "repro.sim.engine"),
    "simulate_timeseries": "repro.sim.timeseries",
    **dict.fromkeys(("CampaignConfig", "run_campaign"), "repro.sim.campaign"),
    **dict.fromkeys(
        ("ParallelConfig", "ShardTask", "make_executor", "plan_shards"),
        "repro.sim.parallel",
    ),
    **dict.fromkeys(
        (
            "SharedNodeResult",
            "simulate_with_neighbors",
            "spatial_penalty",
            "temporal_soak_slowdown",
        ),
        "repro.sim.spatial",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = list(_LAZY_EXPORTS)
