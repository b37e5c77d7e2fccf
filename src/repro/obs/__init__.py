"""Observability: structured logging, span tracing, provenance, metrics.

``repro.obs`` is the stdlib-only instrumentation layer every other
subsystem threads through (see ``docs/OBSERVABILITY.md``):

- :mod:`.logging` — ``get_logger(name)`` structured loggers with a
  human or JSON-lines formatter (``REPRO_LOG_LEVEL`` /
  ``REPRO_LOG_JSON``, or the CLI's ``--log-level`` / ``--log-json``);
- :mod:`.tracing` — ``span(...)`` context-manager/decorator timing
  named engine phases into a process-wide accumulator and, when
  installed, a :class:`TraceCollector` that exports Chrome
  ``trace_event`` JSON (``--trace-out``);
- :mod:`.provenance` — manifests tying a stored result to the config
  digest, workload spec, seed, code version, cache stats, and phase
  timings that produced it;
- :mod:`.metrics` — the Prometheus exposition layer plus
  :func:`engine_metrics`, the simulation-core instrument panel, and
  :func:`telemetry_metrics`, the in-run telemetry panel;
- :mod:`.timeseries` — bounded, downsampling in-run telemetry: the
  :class:`SeriesChannel` ring, :class:`RunTimeline`, and the
  :class:`TelemetrySampler` the runner feeds each control step
  (``--telemetry-period`` / ``REPRO_TELEMETRY_*``);
- :mod:`.detect` — phenomenon detectors scanning timelines for the
  paper's frequency-floor pinning, cap overshoot/settling, and
  energy-knee onset;
- :mod:`.stream` — the bounded pub/sub event bus behind the HTTP
  API's Server-Sent Events endpoints: telemetry samples, detections,
  job lifecycle, and fleet health, live, with drop-oldest
  backpressure and ``Last-Event-ID`` replay;
- :mod:`.profile` — a stdlib sampling profiler
  (``sys._current_frames`` on a background thread) attributing wall
  time to open spans and hot functions, with per-quantum cost
  attribution (``--profile`` / ``REPRO_PROFILE``);
- :mod:`.archive` — the persistent observability warehouse: SQLite
  metric-snapshot history (background :class:`MetricsRecorder` with
  exact-integral retention), distilled per-run records, fleet-health
  windows, bench-document ingestion, named baselines, and the
  median-shift trend engine behind ``repro-powercap trends`` /
  ``compare`` and ``GET /metrics/history`` / ``GET /runs/compare``.
"""

from .archive import (
    ARCHIVE_SCHEMA_VERSION,
    MetricsRecorder,
    ObsArchive,
    Trend,
    TrendRule,
    detect_trends,
    distill_experiment_doc,
    distill_fleet_doc,
    rule_for_series,
)
from .detect import (
    Detection,
    detect_cap_overshoot,
    detect_energy_knee,
    detect_frequency_floor,
    scan_experiment,
    scan_timeline,
)

from .logging import (
    HumanFormatter,
    JsonFormatter,
    StructuredLogger,
    configure_logging,
    get_logger,
    logging_configured,
)
from .metrics import (
    BuildInfo,
    BuildInfoMetrics,
    Counter,
    EngineMetrics,
    FleetMetrics,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    ProfileMetrics,
    ServiceMetrics,
    StreamMetrics,
    TelemetryMetrics,
    build_info_metrics,
    engine_metrics,
    fleet_metrics,
    profile_metrics,
    stream_metrics,
    telemetry_metrics,
)
from .profile import (
    ProfileConfig,
    ProfileReport,
    SamplingProfiler,
    profile_from_env,
    profiling_enabled,
)
from .provenance import (
    PROVENANCE_SCHEMA_VERSION,
    build_provenance,
    config_digest,
    git_describe,
    render_provenance,
)
from .stream import (
    FLEET_TOPIC,
    JOB_TOPIC_PREFIX,
    TERMINAL_EVENT_KINDS,
    EventBus,
    StreamEvent,
    Subscription,
    current_stream,
    event_bus,
    reset_event_bus,
    stream_context,
    stream_publish,
)
from .timeseries import (
    TIMELINE_SCHEMA_VERSION,
    RunTimeline,
    SeriesChannel,
    SeriesPoint,
    TelemetryConfig,
    TelemetrySampler,
    timeline_from_dict,
    timeline_to_dict,
)
from .tracing import (
    TraceCollector,
    current_collector,
    current_span_stack,
    phase_totals,
    reset_phase_totals,
    set_enabled,
    span,
    span_stacks_by_thread,
    start_tracing,
    stop_tracing,
    tracing_enabled,
)

__all__ = [
    "get_logger",
    "configure_logging",
    "logging_configured",
    "StructuredLogger",
    "JsonFormatter",
    "HumanFormatter",
    "span",
    "TraceCollector",
    "start_tracing",
    "stop_tracing",
    "current_collector",
    "current_span_stack",
    "span_stacks_by_thread",
    "phase_totals",
    "reset_phase_totals",
    "set_enabled",
    "tracing_enabled",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "ServiceMetrics",
    "EngineMetrics",
    "engine_metrics",
    "TelemetryMetrics",
    "telemetry_metrics",
    "FleetMetrics",
    "fleet_metrics",
    "StreamMetrics",
    "stream_metrics",
    "ProfileMetrics",
    "profile_metrics",
    "BuildInfo",
    "BuildInfoMetrics",
    "build_info_metrics",
    "ARCHIVE_SCHEMA_VERSION",
    "ObsArchive",
    "MetricsRecorder",
    "Trend",
    "TrendRule",
    "detect_trends",
    "rule_for_series",
    "distill_experiment_doc",
    "distill_fleet_doc",
    "StreamEvent",
    "Subscription",
    "EventBus",
    "event_bus",
    "reset_event_bus",
    "stream_context",
    "current_stream",
    "stream_publish",
    "JOB_TOPIC_PREFIX",
    "FLEET_TOPIC",
    "TERMINAL_EVENT_KINDS",
    "ProfileConfig",
    "ProfileReport",
    "SamplingProfiler",
    "profiling_enabled",
    "profile_from_env",
    "TIMELINE_SCHEMA_VERSION",
    "SeriesPoint",
    "SeriesChannel",
    "RunTimeline",
    "TelemetryConfig",
    "TelemetrySampler",
    "timeline_to_dict",
    "timeline_from_dict",
    "Detection",
    "detect_frequency_floor",
    "detect_cap_overshoot",
    "detect_energy_knee",
    "scan_timeline",
    "scan_experiment",
    "PROVENANCE_SCHEMA_VERSION",
    "build_provenance",
    "config_digest",
    "git_describe",
    "render_provenance",
]
