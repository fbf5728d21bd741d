"""Public-API integrity: the facade surface is pinned, exports resolve.

A release-quality gate: ``repro.api`` exposes exactly the supported
surface (additions and removals must edit the pin here, consciously),
everything advertised in an ``__all__`` exists and carries a docstring,
and the facade's signatures are keyword-only as promised.
"""

import importlib
import inspect

import pytest

import repro
from repro import api

SUBPACKAGES = (
    "repro.api",
    "repro.api.requests",
    "repro.service",
    "repro.loadgen",
    "repro.obs",
    "repro.gpu",
    "repro.cluster",
    "repro.workloads",
    "repro.sim",
    "repro.sched",
    "repro.telemetry",
    "repro.core",
    "repro.mitigation",
    "repro.hostbench",
)

#: The supported facade surface, pinned exactly.  A failure here means the
#: public API changed — update the pin only as a deliberate decision.
API_SURFACE = frozenset({
    # constructors / registries
    "load_preset", "load_workload", "list_presets", "list_workloads",
    # verbs
    "run_campaign", "characterize", "monitor_fleet", "screen", "sweep",
    "project",
    # domain types
    "Cluster", "Workload",
    # result types
    "CharacterizationResult", "MonitoringResult", "ScreenReport",
    "WorkloadScreen", "SweepPoint", "SweepReport", "ProjectionReport",
    "ClusterReport", "OutlierReport", "BoxStats", "MeasurementDataset",
    # configuration
    "CampaignConfig", "ParallelConfig", "CampaignProgress",
    # observability
    "Tracer", "Manifest", "read_manifest", "validate_manifest",
    "write_chrome_trace", "write_events_jsonl",
    # monitoring / fleet health
    "FleetMonitor", "MonitorConfig", "active_monitor", "render_prometheus",
    "FleetHealthReport", "HealthEvent", "HealthEventKind", "HealthPolicy",
    "HealthTracker", "analyze_fleet_health", "validate_health_report",
    "write_health_events",
    # flight recorder / timeline replay
    "TimelineEvent", "TimelineRecorder", "TimelineReplayer", "ReplayCheck",
    "activate_recorder", "canonical_digest", "load_replayer",
    "read_timeline", "write_timeline",
    # scheduling analysis (Section VII)
    "schedule", "slow_assignment_probability", "node_variability_scores",
    "plan_placements", "PlacementPlan", "classify_workload", "ApplicationClass",
    # batch-queue scheduling
    "SchedulingResult", "SchedulingReport", "ScheduleOutcome", "JobRecord",
    "Job", "TraceConfig", "generate_trace", "PlacementPolicy", "FifoPolicy",
    "BackfillPolicy", "VariabilityAwarePolicy", "HealthAwarePolicy",
    "EnergyCappedPolicy", "node_power_watts", "POLICY_NAMES", "ENGINE_MODES",
    "validate_scheduling_report", "write_event_log",
    # typed request surface (shared by Python, CLI, and the HTTP service)
    "REQUEST_SCHEMA_VERSION", "REQUEST_KINDS", "EXECUTION_FIELDS",
    "CharacterizeRequest", "ScreenRequest", "SweepRequest",
    "ScheduleRequest", "MonitorRequest", "ChaosRequest",
    "request_from_dict", "request_from_json", "request_digest",
    "execute_request",
    # chaos / fault injection
    "chaos", "ChaosRunResult", "Scenario", "CHAOS_SCORECARD_SCHEMA",
    "get_scenario", "list_scenarios", "render_scorecard",
    "validate_scorecard",
})

#: Facade functions whose every optional parameter must be keyword-only.
KEYWORD_ONLY_FUNCTIONS = (
    "load_preset", "load_workload", "run_campaign", "characterize",
    "monitor_fleet", "screen", "sweep", "project", "schedule", "chaos",
    "slow_assignment_probability", "node_variability_scores",
    "plan_placements",
)


class TestFacade:
    def test_surface_is_pinned_exactly(self):
        assert frozenset(api.__all__) == API_SURFACE

    def test_all_exports_resolve_and_are_documented(self):
        for name in api.__all__:
            obj = getattr(api, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert (obj.__doc__ or "").strip(), f"repro.api.{name} undocumented"

    @pytest.mark.parametrize("name", KEYWORD_ONLY_FUNCTIONS)
    def test_signatures_are_keyword_only(self, name):
        signature = inspect.signature(getattr(api, name))
        positional = [
            p for p in signature.parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
        # at most one leading positional (the registry name); every other
        # parameter must be keyword-only so signatures can grow safely
        assert len(positional) <= 1, f"{name}: {positional}"
        if positional:
            assert positional[0].name == "name"

    def test_solver_selection_surface_is_gone(self):
        # One DVFS solver: the selection knobs left repro.api and repro.gpu.
        import repro.gpu

        removed = ("SOLVER_LADDER", "SOLVER_FLEET", "SOLVER_GRID",
                   "SOLVER_ENV_VAR", "solver_scope")
        for name in removed + ("default_solver",):
            assert not hasattr(api, name), name
        for name in removed:
            assert not hasattr(repro.gpu, name), name
            assert name not in repro.gpu.__all__, name
        # Kept for manifests and benchmark environment records.
        assert repro.gpu.default_solver() == "fleet"
        for verb in ("chaos", "characterize", "schedule"):
            assert "solver" not in inspect.signature(getattr(api, verb)).parameters

    def test_import_emits_no_warnings(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning",
             "-c", "import repro.api"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "2.0.0"

    def test_top_level_exports_only_the_facade(self):
        assert set(repro.__all__) == {"__version__", "api"}

    @pytest.mark.parametrize("name", sorted(repro._REMOVED_EXPORTS))
    def test_every_legacy_export_is_gone(self, name):
        """PR 3's deprecation shims are hard removals as of 2.0."""
        with pytest.raises(ImportError, match="removed in repro 2.0"):
            getattr(repro, name)

    def test_removal_error_names_the_replacement(self):
        with pytest.raises(ImportError, match=r'load_preset\("longhorn"\)'):
            repro.longhorn

    def test_removed_obs_window_names_its_removal(self):
        with pytest.raises(ImportError, match="SlidingWindow' was removed"):
            from repro.obs import SlidingWindow  # noqa: F401

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_dir_lists_only_the_facade(self):
        listed = dir(repro)
        assert "api" in listed
        assert "longhorn" not in listed
        assert "VariabilitySuite" not in listed


@pytest.mark.parametrize("module_name", SUBPACKAGES)
class TestSubpackages:
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_module_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 40

    def test_public_callables_documented(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = []
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module_name}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_public_classes_expose_documented_methods(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = []
        for name in module.__all__:
            obj = getattr(module, name)
            if not inspect.isclass(obj):
                continue
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                if inspect.isfunction(attr) and not (attr.__doc__ or "").strip():
                    undocumented.append(f"{module_name}.{name}.{attr_name}")
        assert not undocumented, f"missing docstrings: {undocumented}"


class TestErrorsHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if (inspect.isclass(obj) and issubclass(obj, Exception)
                    and obj is not errors.ReproError
                    and obj.__module__ == "repro.errors"):
                assert issubclass(obj, errors.ReproError), name
