"""The instrumentation spine: one measurement path for every subsystem.

Engines, kernel backends, the supervised runtime, the resilience layer,
the benchmarks, and the CLI all report through the same
:class:`~repro.telemetry.core.Recorder` protocol; recording defaults to
the zero-overhead :data:`~repro.telemetry.core.NULL_RECORDER` and is
switched on by passing an
:class:`~repro.telemetry.core.InMemoryRecorder`, whose contents land in
a schema-versioned :class:`~repro.telemetry.report.TelemetryReport`.

Multi-process runs extend the spine across process boundaries: workers
send cumulative recorder snapshots to the supervisor over their pipes,
a merger folds them into one v2 report
(:mod:`repro.telemetry.merge`), and the result exports to Chrome trace
JSON (:mod:`repro.telemetry.trace`) or gates CI through the
perf-regression differ (:mod:`repro.telemetry.diff`).

See ``docs/OBSERVABILITY.md`` for the event model and report schema.
"""

from repro.telemetry.core import (
    MONOTONIC,
    NULL_RECORDER,
    PERF_COUNTER,
    Clock,
    Counter,
    InMemoryRecorder,
    NullRecorder,
    Recorder,
    SpanRecord,
    StepClock,
    Timer,
)
from repro.telemetry.diff import (
    Metric,
    MetricDelta,
    diff_payloads,
    extract_metrics,
    format_deltas,
)
from repro.telemetry.merge import (
    ProcessTelemetry,
    coordinator_process,
    merge_processes,
    merge_timers,
)
from repro.telemetry.report import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    SUPPORTED_VERSIONS,
    TelemetryError,
    TelemetryReport,
    check_report,
    run_metadata,
    validate_report,
)
from repro.telemetry.trace import trace_dict, trace_events, write_trace

__all__ = [
    "Clock",
    "MONOTONIC",
    "PERF_COUNTER",
    "StepClock",
    "Counter",
    "Timer",
    "SpanRecord",
    "Recorder",
    "NullRecorder",
    "InMemoryRecorder",
    "NULL_RECORDER",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "SUPPORTED_VERSIONS",
    "TelemetryError",
    "TelemetryReport",
    "check_report",
    "run_metadata",
    "validate_report",
    "ProcessTelemetry",
    "coordinator_process",
    "merge_processes",
    "merge_timers",
    "Metric",
    "MetricDelta",
    "extract_metrics",
    "diff_payloads",
    "format_deltas",
    "trace_events",
    "trace_dict",
    "write_trace",
]
