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
"""

from .run import RunMeasurements, run_rng_label, simulate_run
from .job import JobPerformance, reference_unit_times, sample_job_runtime
from .engine import Engine, EngineConfig
from .timeseries import simulate_timeseries
from .campaign import CampaignConfig, run_campaign
from .parallel import (
    ParallelConfig,
    ShardTask,
    make_executor,
    plan_shards,
)
from .spatial import (
    SharedNodeResult,
    simulate_with_neighbors,
    spatial_penalty,
    temporal_soak_slowdown,
)

__all__ = [
    "RunMeasurements",
    "simulate_run",
    "run_rng_label",
    "JobPerformance",
    "reference_unit_times",
    "sample_job_runtime",
    "Engine",
    "EngineConfig",
    "simulate_timeseries",
    "CampaignConfig",
    "run_campaign",
    "ParallelConfig",
    "ShardTask",
    "make_executor",
    "plan_shards",
    "SharedNodeResult",
    "simulate_with_neighbors",
    "spatial_penalty",
    "temporal_soak_slowdown",
]
