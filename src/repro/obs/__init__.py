"""Opt-in, zero-perturbation observability for the simulator itself.

The paper's contribution is 18,800+ hours of telemetry *about* telemetry;
this subpackage gives the simulator the same treatment: where does a
campaign's wall clock go, how does solver work distribute across shards,
and can a finished run be audited for reproducibility without re-running
it?  Eight modules:

* :mod:`repro.obs.observer` — the one per-thread activation slot every
  hook reads: an :class:`~repro.obs.observer.Observer` holding the
  optional tracer, monitor and recorder, with the shard-local sinks and
  the one picklable per-shard payload the sharded executors merge in
  canonical plan order;
* :mod:`repro.obs.tracer` — a hierarchical span tracer
  (campaign → day → shard → run → solve) plus low-overhead counters;
* :mod:`repro.obs.export` — JSONL event sink and Chrome-trace/Perfetto
  export, so campaign timelines are viewable in a browser;
* :mod:`repro.obs.manifest` — machine-readable campaign manifests (config
  digest, RNG label roots, solver mode, result digest) with a JSON schema,
  enabling reproducibility audits without re-execution;
* :mod:`repro.obs.metrics` — the DCGM-shaped fleet half: a typed metric
  registry (per-GPU gauges, fleet histograms, counters),
  Prometheus-style text exposition, and the
  :class:`~repro.obs.metrics.FleetMonitor` the campaign executors merge
  in canonical plan order;
* :mod:`repro.obs.health` — online anomaly detection over the monitor's
  run stream: ring-buffer windows of the last runs, typed health events
  with hysteresis, per-GPU grades, and fleet health reports with
  topology rollups;
* :mod:`repro.obs.timeline` — the unified flight recorder: one
  schema-versioned, byte-stable event stream spanning campaign, sim,
  health, sched, and service layers, ordered by a monotone logical clock
  (no wall time) and merged across shards in canonical plan order;
* :mod:`repro.obs.replay` — the timeline replayer behind ``repro
  replay``: reconstructs fleet health grades, scheduler occupancy, and
  counter totals at any logical timestamp, and re-derives report digests
  from the log alone (``--check``).

Hard guarantees (pinned by ``tests/obs/``): with tracing enabled, campaign
outputs are **bit-identical** to untraced runs — the tracer never draws
randomness and never touches a float that feeds a measurement; with
tracing disabled, the hooks reduce to one thread-local read and a
``None`` check.

Every name below loads its home module on first access
(:mod:`repro._lazy`): a hook site imports :mod:`repro.obs.observer`
alone, and the sink modules load when a caller builds a sink.
"""

from .._lazy import lazy_exports

_LAZY_EXPORTS = {
    **dict.fromkeys(
        ("NONDETERMINISTIC_COUNTER_PREFIXES", "SpanRecord", "Tracer"),
        "repro.obs.tracer",
    ),
    **dict.fromkeys(
        ("write_chrome_trace", "write_events_jsonl"),
        "repro.obs.export",
    ),
    **dict.fromkeys(
        (
            "MANIFEST_SCHEMA",
            "CampaignManifest",
            "Manifest",
            "build_campaign_manifest",
            "campaign_config_from_manifest",
            "read_manifest",
            "validate_manifest",
        ),
        "repro.obs.manifest",
    ),
    **dict.fromkeys(
        (
            "DEFAULT_HISTOGRAM_EDGES",
            "FleetMonitor",
            "FleetRun",
            "MetricsRegistry",
            "MonitorConfig",
            "RunSample",
            "render_prometheus",
        ),
        "repro.obs.metrics",
    ),
    **dict.fromkeys(
        (
            "TIMELINE_LAYERS",
            "TIMELINE_SCHEMA_VERSION",
            "TimelineError",
            "TimelineEvent",
            "TimelineRecorder",
            "canonical_digest",
            "read_timeline",
            "timeline_lines",
            "validate_timeline_event",
            "write_timeline",
        ),
        "repro.obs.timeline",
    ),
    **dict.fromkeys(
        (
            "Observer",
            "activate",
            "activate_recorder",
            "active_monitor",
            "active_observer",
        ),
        "repro.obs.observer",
    ),
    **dict.fromkeys(
        (
            "GRADES",
            "HEALTH_REPORT_SCHEMA",
            "FleetHealthReport",
            "HealthEvent",
            "HealthEventKind",
            "HealthPolicy",
            "HealthTracker",
            "analyze_fleet_health",
            "build_health_report",
            "validate_health_report",
            "write_health_events",
        ),
        "repro.obs.health",
    ),
    **dict.fromkeys(
        ("ReplayCheck", "TimelineReplayer", "load_replayer"),
        "repro.obs.replay",
    ),
}

#: Removed names -> what to use instead; importing one raises a hint.
_REMOVED_EXPORTS = {
    "SlidingWindow": "no replacement: no output read its statistics, and "
    "the health detector's windows live in repro.obs.health",
}

_lazy_getattr, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)


def __getattr__(name: str):
    if name in _REMOVED_EXPORTS:
        raise ImportError(
            f"'repro.obs.{name}' was removed; {_REMOVED_EXPORTS[name]}"
        )
    return _lazy_getattr(name)


__all__ = list(_LAZY_EXPORTS)
