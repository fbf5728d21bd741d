"""Telemetry substrate: profiler-like sampling, traces, and datasets.

Mirrors the paper's measurement stack (nvprof / rocm-smi, Section III):
samples at a >= 1 ms interval, quantized sensors (integer degrees, ladder
frequencies, watt-resolution power), per-run summary records, and long-form
measurement datasets with CSV/JSON persistence.

Every name below loads its home module on first access
(:mod:`repro._lazy`), so reading a sensor constant loads no dataset or
persistence code.
"""

from .._lazy import lazy_exports

_LAZY_EXPORTS = {
    **dict.fromkeys(
        (
            "METRIC_FREQUENCY",
            "METRIC_PERFORMANCE",
            "METRIC_POWER",
            "METRIC_TEMPERATURE",
            "PAPER_METRICS",
            "SensorModel",
        ),
        "repro.telemetry.sample",
    ),
    "TelemetryTrace": "repro.telemetry.trace",
    "TraceRecorder": "repro.telemetry.recorder",
    "MeasurementDataset": "repro.telemetry.dataset",
    **dict.fromkeys(
        ("CampaignProgress", "ShardTiming"),
        "repro.telemetry.progress",
    ),
    **dict.fromkeys(
        (
            "dataset_to_csv_text",
            "read_csv",
            "read_trace_json",
            "write_csv",
            "write_trace_json",
        ),
        "repro.telemetry.io",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = list(_LAZY_EXPORTS)
