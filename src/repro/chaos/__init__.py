"""Declarative fault injection, incident scenarios, and mitigation scoring.

``repro.chaos`` turns the repo from "characterize a fleet" into "operate a
fleet under failure":

* :mod:`~repro.chaos.faults` — typed, seeded fault specs with
  onset/ramp/recovery schedules keyed to campaign days;
* :mod:`~repro.chaos.scenarios` — the named, JSON-declarable incident
  catalog (schema-validated);
* :mod:`~repro.chaos.plan` — scenario compilation against a concrete
  cluster; the compiled plan rides on the cluster into every worker, so
  injection is bit-identical at any worker count;
* :mod:`~repro.chaos.score` — the end-to-end scoring harness (injection
  → health detection → scheduler reaction) emitting schema-validated
  scorecards against an automatically-run no-fault baseline.

See docs/CHAOS.md for the catalog, scoring semantics, and determinism
guarantees; the CLI entry is ``repro chaos``.
"""

from .faults import (
    FAULT_KINDS,
    CoolantPumpDegradation,
    FaultSchedule,
    InletTemperatureDrift,
    NodeLoss,
    PowerCapDirective,
    StuckPState,
    fault_from_dict,
    fault_to_dict,
)
from .plan import ChaosPlan, CompiledFault, compile_plan
from .scenarios import (
    SCENARIO_SCHEMA,
    SCENARIO_SCHEMA_VERSION,
    SCENARIOS,
    Scenario,
    get_scenario,
    list_scenarios,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from .score import (
    CHAOS_SCORECARD_SCHEMA,
    SCORECARD_SCHEMA_VERSION,
    ChaosRunResult,
    derive_detection,
    render_scorecard,
    score_scenario,
    validate_scorecard,
)

__all__ = [
    "FaultSchedule",
    "CoolantPumpDegradation",
    "InletTemperatureDrift",
    "StuckPState",
    "PowerCapDirective",
    "NodeLoss",
    "FAULT_KINDS",
    "fault_to_dict",
    "fault_from_dict",
    "Scenario",
    "SCENARIOS",
    "SCENARIO_SCHEMA",
    "SCENARIO_SCHEMA_VERSION",
    "scenario_to_dict",
    "scenario_from_dict",
    "validate_scenario",
    "get_scenario",
    "list_scenarios",
    "ChaosPlan",
    "CompiledFault",
    "compile_plan",
    "ChaosRunResult",
    "CHAOS_SCORECARD_SCHEMA",
    "SCORECARD_SCHEMA_VERSION",
    "derive_detection",
    "render_scorecard",
    "score_scenario",
    "validate_scorecard",
]
