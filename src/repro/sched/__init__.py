"""Batch-queue scheduling simulator over the variable fleet.

The paper's Section VII argues that naive batch scheduling on a variable
fleet hands users slow GPUs often enough to matter (18% of single-GPU
jobs; 40-50% of 4-GPU jobs on Longhorn) and that variability-aware
placement recovers most of the loss.  This package closes that loop end to
end on the simulated machine:

* :mod:`repro.sched.trace` — seeded Poisson job traces over the five
  paper applications, gangs of 1/2/4/8 GPUs;
* :mod:`repro.sched.policies` — pluggable placement policies, from the
  naive random baseline to variability- and health-aware ranking;
* :mod:`repro.sched.engine` — the serial discrete-event queue engine
  (submit → queue → place → run → complete) with bulk-synchronous gang
  pricing from :mod:`repro.sim.job`: one near-linear dispatch loop for
  every policy, built-in or custom;
* :mod:`repro.sched.index` — the incremental structures behind that
  loop (order-keyed segment trees, per-gang-size blocked queues);
* :mod:`repro.sched.report` — schema-validated metrics reports and
  byte-stable JSON Lines event logs.

Same seed + same policy ⇒ byte-identical event log and report, regardless
of worker counts anywhere in the stack.  Reach it through
:func:`repro.api.schedule` or ``repro sched``.
"""

from .engine import (
    ENGINE_MODES,
    FAST_PERCENTILE,
    SLOW_THRESHOLD,
    JobRecord,
    ScheduleOutcome,
    event_log_lines,
    run_schedule,
)
from .index import OrderedFreeIndex, SizeBucketQueue
from .policies import (
    POLICY_NAMES,
    SENSITIVITY_THRESHOLD,
    BackfillPolicy,
    EnergyCappedPolicy,
    FifoPolicy,
    HealthAwarePolicy,
    PlacementPolicy,
    PowerBudgetAdmission,
    RandomRankingSpec,
    StaticRankingSpec,
    VariabilityAwarePolicy,
    node_grades_from_gpu_grades,
    node_power_watts,
)
from .report import (
    SCHEDULING_REPORT_SCHEMA,
    SchedulingReport,
    build_scheduling_report,
    validate_scheduling_report,
    write_event_log,
)
from .trace import Job, TraceConfig, arrival_rate_multiplier, generate_trace

__all__ = [
    "Job",
    "TraceConfig",
    "generate_trace",
    "arrival_rate_multiplier",
    "PlacementPolicy",
    "FifoPolicy",
    "BackfillPolicy",
    "VariabilityAwarePolicy",
    "HealthAwarePolicy",
    "EnergyCappedPolicy",
    "PowerBudgetAdmission",
    "StaticRankingSpec",
    "RandomRankingSpec",
    "node_grades_from_gpu_grades",
    "node_power_watts",
    "POLICY_NAMES",
    "SENSITIVITY_THRESHOLD",
    "JobRecord",
    "ScheduleOutcome",
    "run_schedule",
    "event_log_lines",
    "ENGINE_MODES",
    "SLOW_THRESHOLD",
    "FAST_PERCENTILE",
    "OrderedFreeIndex",
    "SizeBucketQueue",
    "SchedulingReport",
    "SCHEDULING_REPORT_SCHEMA",
    "build_scheduling_report",
    "validate_scheduling_report",
    "write_event_log",
]
