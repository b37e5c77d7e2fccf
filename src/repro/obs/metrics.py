"""Prometheus-style telemetry for the engine and the service.

A tiny, dependency-free metrics layer: counters, gauges (static or
callback-backed, optionally labelled), and cumulative histograms,
rendered in the Prometheus text exposition format (version 0.0.4) for
``GET /metrics``.  All mutation is thread-safe — the scheduler's
worker pool, the HTTP handler threads, and the simulation engine all
share these registries.

Besides the primitives and the service's :class:`ServiceMetrics`
panel, this module holds :class:`EngineMetrics` — a process-wide
panel of *simulation internals* (runs, control quanta, fast-forward
activations, trace simulations, rate-cache hits/misses, per-phase
seconds) that the engine increments directly and the service's
``/metrics`` endpoint exposes alongside the queue/job series.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .tracing import phase_totals

__all__ = [
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
]

#: (metric name, labels, value)
Sample = Tuple[str, Dict[str, str], float]


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    def esc(v: str) -> str:
        return str(v).replace("\\", "\\\\").replace('"', '\\"')

    inner = ",".join(f'{k}="{esc(v)}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class Metric:
    """Base: a named metric that can emit exposition samples."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()

    def samples(self) -> List[Sample]:
        """Current ``(name, labels, value)`` samples for exposition."""
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        with self._lock:
            return self._value

    def samples(self) -> List[Sample]:
        """One unlabelled sample holding the current count."""
        return [(self.name, {}, self.value)]


class Gauge(Metric):
    """Point-in-time value: set directly or computed at scrape time.

    A callback returning a float yields one unlabelled sample; a
    callback returning a dict yields one sample per key, labelled with
    ``label_name``.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str,
        callback: Optional[Callable[[], "float | Dict[str, float]"]] = None,
        label_name: str = "state",
    ) -> None:
        super().__init__(name, help_text)
        self._value = 0.0
        self._callback = callback
        self._label_name = label_name

    def set(self, value: float) -> None:
        """Set the gauge (only meaningful without a callback)."""
        with self._lock:
            self._value = float(value)

    def samples(self) -> List[Sample]:
        """The stored value, or the callback's value(s) at scrape time."""
        if self._callback is None:
            with self._lock:
                return [(self.name, {}, self._value)]
        value = self._callback()
        if isinstance(value, dict):
            return [
                (self.name, {self._label_name: k}, float(v))
                for k, v in sorted(value.items())
            ]
        return [(self.name, {}, float(value))]


class Histogram(Metric):
    """Cumulative histogram with fixed upper-bound buckets."""

    kind = "histogram"

    DEFAULT_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0)

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text)
        self._bounds = tuple(sorted(float(b) for b in buckets))
        self._counts = [0] * len(self._bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self._bounds):
                if value <= bound:
                    self._counts[i] += 1

    def samples(self) -> List[Sample]:
        """Cumulative ``_bucket`` series plus ``_sum`` and ``_count``."""
        with self._lock:
            counts, total, s = list(self._counts), self._count, self._sum
        out: List[Sample] = []
        # _counts is already cumulative: observe() increments every
        # bucket whose bound admits the value.
        for bound, count in zip(self._bounds, counts):
            out.append(
                (f"{self.name}_bucket", {"le": _format_value(bound)}, count)
            )
        out.append((f"{self.name}_bucket", {"le": "+Inf"}, total))
        out.append((f"{self.name}_sum", {}, s))
        out.append((f"{self.name}_count", {}, total))
        return out


class BuildInfo(Metric):
    """Info-style gauge: one constant ``1`` sample carrying its labels.

    The Prometheus ``*_info`` convention — the payload is the label
    set (package version, git rev, schema versions), the value is
    always 1, and joins against it correlate any other series with
    the build that produced it.  :class:`Gauge`'s dict-callback form
    emits one sample per key under a single label name, which cannot
    express a multi-label constant — hence a dedicated metric.
    """

    kind = "gauge"

    def __init__(
        self, name: str, help_text: str, labels: Dict[str, str]
    ) -> None:
        super().__init__(name, help_text)
        self._labels = {k: str(v) for k, v in labels.items()}

    @property
    def labels(self) -> Dict[str, str]:
        """The build identity this metric carries."""
        return dict(self._labels)

    def samples(self) -> List[Sample]:
        """The single constant sample, labels attached."""
        return [(self.name, dict(self._labels), 1.0)]


class MetricsRegistry:
    """Ordered collection of metrics with a text-format renderer."""

    def __init__(self) -> None:
        self._metrics: List[Metric] = []
        self._lock = threading.Lock()

    def register(self, metric: Metric) -> Metric:
        """Add a metric (names must be unique) and return it."""
        with self._lock:
            if any(m.name == metric.name for m in self._metrics):
                raise ValueError(f"duplicate metric name {metric.name!r}")
            self._metrics.append(metric)
        return metric

    def samples(self) -> List[Sample]:
        """Every registered metric's current samples, in order."""
        with self._lock:
            metrics = list(self._metrics)
        out: List[Sample] = []
        for metric in metrics:
            out.extend(metric.samples())
        return out

    def render(self) -> str:
        """The Prometheus text exposition of every registered metric."""
        lines: List[str] = []
        with self._lock:
            metrics = list(self._metrics)
        for metric in metrics:
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for name, labels, value in metric.samples():
                lines.append(
                    f"{name}{_format_labels(labels)} {_format_value(value)}"
                )
        return "\n".join(lines) + "\n"


class EngineMetrics:
    """Simulation-core instrument panel (one per process).

    The engine increments these directly on its cold paths — nothing
    here runs per control quantum except a batched add at run end:

    - ``repro_engine_runs_total`` — completed :meth:`NodeRunner.run`
      calls;
    - ``repro_engine_quanta_total`` — control-loop iterations
      (controller actuations), added once per finished run;
    - ``repro_engine_fast_forward_total`` — steady-state fast-forward
      activations;
    - ``repro_engine_block_steps_total`` /
      ``repro_engine_block_quanta_total`` — stable segments retired by
      the block-step kernel, and the quanta inside them;
    - ``repro_engine_batch_runs_total`` /
      ``repro_engine_batch_quanta_total`` — runs that joined a
      multi-run batch march, and the quanta those marches retired;
    - ``repro_engine_worker_reuse_total`` — sweep runs served by a
      warm (already-initialized) pool worker;
    - ``repro_engine_traces_simulated_total`` — slice simulations that
      actually ran (rate-cache/memo misses);
    - ``repro_engine_rate_cache_hits_total`` /
      ``repro_engine_rate_cache_misses_total`` — persistent rate-cache
      lookups, process-wide across every :class:`RateCache` instance;
    - ``repro_engine_run_seconds`` — wall-clock histogram per run;
    - ``repro_engine_phase_seconds`` — cumulative seconds per span
      name, scraped live from the tracing phase accumulator;
    - ``repro_engine_effective_jobs`` — worker count the most recent
      sweep actually used (previously visible only in the provenance
      ``execution`` block).

    Worker *processes* (``jobs > 1`` sweeps) keep their own panels;
    the exposed values cover the scraped process, which for the
    service's default thread workers is the whole story.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        reg = self.registry.register
        self.runs = reg(
            Counter("repro_engine_runs_total", "Completed simulation runs")
        )
        self.quanta = reg(
            Counter(
                "repro_engine_quanta_total",
                "Control-loop iterations (BMC controller actuations)",
            )
        )
        self.fast_forwards = reg(
            Counter(
                "repro_engine_fast_forward_total",
                "Steady-state fast-forward activations",
            )
        )
        self.block_steps = reg(
            Counter(
                "repro_engine_block_steps_total",
                "Stable-segment blocks retired by the block-step kernel",
            )
        )
        self.block_quanta = reg(
            Counter(
                "repro_engine_block_quanta_total",
                "Control quanta retired inside block-step kernel blocks",
            )
        )
        self.batch_runs = reg(
            Counter(
                "repro_engine_batch_runs_total",
                "Runs that retired at least one multi-run batched segment",
            )
        )
        self.batch_quanta = reg(
            Counter(
                "repro_engine_batch_quanta_total",
                "Control quanta retired inside multi-run batch marches",
            )
        )
        self.worker_reuse = reg(
            Counter(
                "repro_engine_worker_reuse_total",
                "Sweep runs served by an already-warm pool worker",
            )
        )
        self.traces_simulated = reg(
            Counter(
                "repro_engine_traces_simulated_total",
                "Trace-slice simulations that actually ran (cache misses)",
            )
        )
        self.rate_cache_hits = reg(
            Counter(
                "repro_engine_rate_cache_hits_total",
                "Persistent rate-cache lookups served from cache",
            )
        )
        self.rate_cache_misses = reg(
            Counter(
                "repro_engine_rate_cache_misses_total",
                "Persistent rate-cache lookups that missed",
            )
        )
        self.run_seconds = reg(
            Histogram(
                "repro_engine_run_seconds",
                "Wall-clock seconds per simulation run",
                buckets=(0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
                         30.0, 60.0),
            )
        )
        self.phase_seconds = reg(
            Gauge(
                "repro_engine_phase_seconds",
                "Cumulative wall-clock seconds per instrumented span",
                callback=self._phase_seconds,
                label_name="phase",
            )
        )
        self.effective_jobs = reg(
            Gauge(
                "repro_engine_effective_jobs",
                "Worker count the most recent sweep actually used after "
                "the single-core / tiny-chunk fallbacks",
            )
        )

    @staticmethod
    def _phase_seconds() -> Dict[str, float]:
        return {
            name: acc["seconds"] for name, acc in phase_totals().items()
        }

    def render(self) -> str:
        """Text exposition of the engine panel."""
        return self.registry.render()


_engine_metrics_lock = threading.Lock()
_engine_metrics: "EngineMetrics | None" = None


def engine_metrics() -> EngineMetrics:
    """The process-wide :class:`EngineMetrics` singleton."""
    global _engine_metrics
    if _engine_metrics is None:
        with _engine_metrics_lock:
            if _engine_metrics is None:
                _engine_metrics = EngineMetrics()
    return _engine_metrics


class TelemetryMetrics:
    """In-run telemetry instrument panel (one per process).

    The sampler is pure bookkeeping on the hot path; these series are
    incremented **in batch, once per finished run** (and once per
    detector scan), never per control quantum:

    - ``repro_telemetry_runs_total`` — runs that recorded a timeline;
    - ``repro_telemetry_samples_total`` — raw sampler ``record`` calls
      folded into buckets;
    - ``repro_telemetry_points_total`` — timeline points held at run
      end (post-decimation);
    - ``repro_telemetry_decimations_total`` — 2× ring decimation
      passes across all channels;
    - ``repro_telemetry_channels`` — channels in the most recent
      timeline;
    - ``repro_telemetry_detections_total{phenomenon=...}`` — detector
      hits by phenomenon name (``freq_floor``, ``cap_overshoot``,
      ``energy_knee``).
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        reg = self.registry.register
        self.runs = reg(
            Counter(
                "repro_telemetry_runs_total",
                "Runs that recorded a telemetry timeline",
            )
        )
        self.samples = reg(
            Counter(
                "repro_telemetry_samples_total",
                "Raw telemetry sampler record() calls",
            )
        )
        self.points = reg(
            Counter(
                "repro_telemetry_points_total",
                "Timeline points held at run end (post-decimation)",
            )
        )
        self.decimations = reg(
            Counter(
                "repro_telemetry_decimations_total",
                "2x ring decimation passes across all channels",
            )
        )
        self.channels = reg(
            Gauge(
                "repro_telemetry_channels",
                "Channels recorded in the most recent timeline",
            )
        )
        self._detections_lock = threading.Lock()
        self._detections: Dict[str, float] = {}
        self.detections = reg(
            Gauge(
                "repro_telemetry_detections_total",
                "Detector hits by phenomenon",
                callback=self._detection_counts,
                label_name="phenomenon",
            )
        )

    def _detection_counts(self) -> Dict[str, float]:
        with self._detections_lock:
            return dict(self._detections)

    def observe_run(self, sampler, timeline) -> None:
        """Batch-record one finished run's sampler + timeline stats."""
        self.runs.inc()
        self.samples.inc(sampler.samples)
        channels = list(timeline.channels.values())
        self.points.inc(sum(len(c) for c in channels))
        self.decimations.inc(sum(c.decimations for c in channels))
        self.channels.set(len(channels))

    def observe_detections(self, phenomena: "Sequence[str]") -> None:
        """Count detector hits, labelled by phenomenon name."""
        with self._detections_lock:
            for name in phenomena:
                self._detections[name] = self._detections.get(name, 0.0) + 1.0

    def render(self) -> str:
        """Text exposition of the telemetry panel."""
        return self.registry.render()


_telemetry_metrics_lock = threading.Lock()
_telemetry_metrics: "TelemetryMetrics | None" = None


def telemetry_metrics() -> TelemetryMetrics:
    """The process-wide :class:`TelemetryMetrics` singleton."""
    global _telemetry_metrics
    if _telemetry_metrics is None:
        with _telemetry_metrics_lock:
            if _telemetry_metrics is None:
                _telemetry_metrics = TelemetryMetrics()
    return _telemetry_metrics


class StreamMetrics:
    """Live-streaming instrument panel (one per process).

    Every series is callback-backed from the process-wide
    :class:`~repro.obs.stream.EventBus`, so scrapes always see current
    values and publishing pays no metric bookkeeping at all:

    - ``repro_stream_events_total`` — events published across all
      topics (telemetry samples, detections, lifecycle, fleet health);
    - ``repro_stream_dropped_total`` — events dropped by slow
      subscribers under drop-oldest backpressure;
    - ``repro_stream_subscribers`` — live subscriptions bus-wide.
    """

    def __init__(self) -> None:
        # Local import: repro.obs.stream imports nothing from here, but
        # keeping the edge one-way at module load avoids a cycle if it
        # ever does.
        from .stream import event_bus

        self.registry = MetricsRegistry()
        reg = self.registry.register
        self.events = reg(
            Gauge(
                "repro_stream_events_total",
                "Events published to the live stream bus",
                callback=lambda: float(event_bus().published_total()),
            )
        )
        self.dropped = reg(
            Gauge(
                "repro_stream_dropped_total",
                "Stream events dropped by slow subscribers "
                "(drop-oldest backpressure)",
                callback=lambda: float(event_bus().dropped_total()),
            )
        )
        self.subscribers = reg(
            Gauge(
                "repro_stream_subscribers",
                "Live stream subscriptions across all topics",
                callback=lambda: float(event_bus().subscriber_count()),
            )
        )

    def render(self) -> str:
        """Text exposition of the stream panel."""
        return self.registry.render()


_stream_metrics_lock = threading.Lock()
_stream_metrics: "StreamMetrics | None" = None


def stream_metrics() -> StreamMetrics:
    """The process-wide :class:`StreamMetrics` singleton."""
    global _stream_metrics
    if _stream_metrics is None:
        with _stream_metrics_lock:
            if _stream_metrics is None:
                _stream_metrics = StreamMetrics()
    return _stream_metrics


class ProfileMetrics:
    """Sampling-profiler instrument panel (one per process).

    The profiler batches into these once per :meth:`stop` — nothing is
    recorded per sample tick beyond its own in-memory tallies:

    - ``repro_profile_samples_total`` — stack samples taken;
    - ``repro_profile_runs_total`` — profiler start/stop sessions;
    - ``repro_profile_quantum_cost_seconds`` — histogram of attributed
      wall seconds per engine control quantum (phase seconds divided
      by the quanta retired while profiling), one observation per
      profiled phase;
    - ``repro_profile_phase_samples`` — samples attributed to each
      span phase in the most recent session.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        reg = self.registry.register
        self.samples = reg(
            Counter(
                "repro_profile_samples_total",
                "Sampling-profiler stack samples taken",
            )
        )
        self.runs = reg(
            Counter(
                "repro_profile_runs_total",
                "Sampling-profiler sessions completed",
            )
        )
        self.quantum_cost = reg(
            Histogram(
                "repro_profile_quantum_cost_seconds",
                "Attributed wall seconds per engine control quantum",
                buckets=(1e-7, 5e-7, 1e-6, 5e-6, 1e-5, 5e-5, 1e-4,
                         5e-4, 1e-3, 1e-2),
            )
        )
        self._phases_lock = threading.Lock()
        self._phases: Dict[str, float] = {}
        self.phase_samples = reg(
            Gauge(
                "repro_profile_phase_samples",
                "Stack samples per span phase in the latest session",
                callback=self._phase_counts,
                label_name="phase",
            )
        )

    def _phase_counts(self) -> Dict[str, float]:
        with self._phases_lock:
            return dict(self._phases)

    def observe_session(
        self,
        samples: int,
        phases: Dict[str, int],
        per_quantum_s: "Dict[str, float]",
    ) -> None:
        """Batch-record one finished profiling session."""
        self.samples.inc(samples)
        self.runs.inc()
        with self._phases_lock:
            self._phases = {k: float(v) for k, v in phases.items()}
        for cost in per_quantum_s.values():
            self.quantum_cost.observe(cost)

    def render(self) -> str:
        """Text exposition of the profiler panel."""
        return self.registry.render()


_profile_metrics_lock = threading.Lock()
_profile_metrics: "ProfileMetrics | None" = None


def profile_metrics() -> ProfileMetrics:
    """The process-wide :class:`ProfileMetrics` singleton."""
    global _profile_metrics
    if _profile_metrics is None:
        with _profile_metrics_lock:
            if _profile_metrics is None:
                _profile_metrics = ProfileMetrics()
    return _profile_metrics


class FleetMetrics:
    """Fleet-simulation instrument panel (one per process).

    :class:`~repro.fleet.engine.FleetEngine` adds to these **once per
    finished run** — never per tick — so the panel costs nothing on
    the vectorized hot path:

    - ``repro_fleet_runs_total`` — completed fleet runs;
    - ``repro_fleet_steps_total`` — fleet control ticks simulated;
    - ``repro_fleet_node_steps_total`` — node-steps (ticks x nodes),
      the unit ``scripts/bench_fleet.py`` rates;
    - ``repro_fleet_rebalances_total`` — budget-tree re-divisions that
      actually moved caps;
    - ``repro_fleet_escalations_total`` — cascading cap escalations
      across all tree levels;
    - ``repro_fleet_nodes`` — node count of the most recent run.

    When health rollups are enabled (:mod:`repro.fleet.health`), the
    run-end :meth:`observe_health` batch adds the
    ``repro_fleet_health_*`` series: fleet headroom (allocation minus
    drawn power), the fraction of nodes pinned at their cap floor,
    the SLO-debt accrual rate, the deepest escalation level reached,
    and a per-rack headroom histogram.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        reg = self.registry.register
        self.runs = reg(
            Counter("repro_fleet_runs_total", "Completed fleet runs")
        )
        self.steps = reg(
            Counter(
                "repro_fleet_steps_total", "Fleet control ticks simulated"
            )
        )
        self.node_steps = reg(
            Counter(
                "repro_fleet_node_steps_total",
                "Node-steps simulated (ticks x nodes)",
            )
        )
        self.rebalances = reg(
            Counter(
                "repro_fleet_rebalances_total",
                "Budget-tree re-divisions that moved caps",
            )
        )
        self.escalations = reg(
            Counter(
                "repro_fleet_escalations_total",
                "Cascading cap escalations across all tree levels",
            )
        )
        self.nodes = reg(
            Gauge("repro_fleet_nodes", "Node count of the most recent run")
        )
        self.health_headroom = reg(
            Gauge(
                "repro_fleet_health_headroom_w",
                "Mean fleet headroom (allocation - power, W) over the "
                "most recent run",
            )
        )
        self.health_capfloor = reg(
            Gauge(
                "repro_fleet_health_capfloor_frac",
                "Mean fraction of nodes pinned at their cap floor over "
                "the most recent run",
            )
        )
        self.health_slo_debt_rate = reg(
            Gauge(
                "repro_fleet_health_slo_debt_rate_w",
                "Mean SLO-debt accrual rate (W) over the most recent run",
            )
        )
        self.health_escalation = reg(
            Gauge(
                "repro_fleet_health_escalation_level",
                "Deepest budget-tree escalation level reached in the "
                "most recent run",
            )
        )
        self.health_rack_headroom = reg(
            Histogram(
                "repro_fleet_health_rack_headroom_w",
                "Per-rack mean headroom (W) at the end of each run",
                buckets=(-1000.0, -100.0, -10.0, 0.0, 10.0, 100.0,
                         1000.0, 10000.0),
            )
        )

    def observe_health(
        self,
        headroom_w: float,
        capfloor_frac: float,
        slo_debt_rate_w: float,
        escalation_level: float,
        rack_headroom_w: "Sequence[float]",
    ) -> None:
        """Batch-record one run's health summary (run end, never per tick)."""
        self.health_headroom.set(headroom_w)
        self.health_capfloor.set(capfloor_frac)
        self.health_slo_debt_rate.set(slo_debt_rate_w)
        self.health_escalation.set(escalation_level)
        for value in rack_headroom_w:
            self.health_rack_headroom.observe(float(value))

    def render(self) -> str:
        """Text exposition of the fleet panel."""
        return self.registry.render()


_fleet_metrics_lock = threading.Lock()
_fleet_metrics: "FleetMetrics | None" = None


def fleet_metrics() -> FleetMetrics:
    """The process-wide :class:`FleetMetrics` singleton."""
    global _fleet_metrics
    if _fleet_metrics is None:
        with _fleet_metrics_lock:
            if _fleet_metrics is None:
                _fleet_metrics = FleetMetrics()
    return _fleet_metrics


class BuildInfoMetrics:
    """Build-identity panel: the ``repro_build_info`` constant gauge.

    Archived metric snapshots (and plain scrapes) become correlatable
    across commits: the label set carries the package version, the git
    revision of the source tree (``unknown`` outside a checkout), and
    the schema versions of every versioned persistence format —
    provenance manifests, telemetry timelines, and the observability
    archive.
    """

    def __init__(self) -> None:
        # Local imports: provenance shells out to git, and the archive
        # module imports from this package — resolving both lazily at
        # first scrape keeps module load cheap and cycle-free.
        from .. import __version__
        from .archive import ARCHIVE_SCHEMA_VERSION
        from .provenance import PROVENANCE_SCHEMA_VERSION, git_describe
        from .timeseries import TIMELINE_SCHEMA_VERSION

        self.registry = MetricsRegistry()
        self.build_info = self.registry.register(
            BuildInfo(
                "repro_build_info",
                "Build identity of this process (constant 1)",
                {
                    "version": __version__,
                    "git": git_describe() or "unknown",
                    "provenance_schema": str(PROVENANCE_SCHEMA_VERSION),
                    "timeline_schema": str(TIMELINE_SCHEMA_VERSION),
                    "archive_schema": str(ARCHIVE_SCHEMA_VERSION),
                },
            )
        )

    def render(self) -> str:
        """Text exposition of the build-identity panel."""
        return self.registry.render()


_build_info_metrics_lock = threading.Lock()
_build_info_metrics: "BuildInfoMetrics | None" = None


def build_info_metrics() -> BuildInfoMetrics:
    """The process-wide :class:`BuildInfoMetrics` singleton."""
    global _build_info_metrics
    if _build_info_metrics is None:
        with _build_info_metrics_lock:
            if _build_info_metrics is None:
                _build_info_metrics = BuildInfoMetrics()
    return _build_info_metrics


class ServiceMetrics:
    """The experiment service's standard instrument panel.

    Gauges for queue depth, per-state job counts, and rate-cache
    hit/miss totals are callback-backed — :meth:`bind` wires them to
    the live scheduler at service start so scrapes always see current
    values without any bookkeeping on the hot path.

    :meth:`render` appends the process-wide :class:`EngineMetrics`
    panel, so one ``/metrics`` scrape covers the service *and* the
    simulation core.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        reg = self.registry.register
        self.jobs_submitted = reg(
            Counter("repro_jobs_submitted_total", "Jobs accepted via submit()")
        )
        self.jobs_completed = reg(
            Counter("repro_jobs_completed_total", "Jobs that reached DONE")
        )
        self.jobs_failed = reg(
            Counter(
                "repro_jobs_failed_total",
                "Jobs that exhausted their retry budget",
            )
        )
        self.job_retries = reg(
            Counter(
                "repro_job_retries_total",
                "Worker crashes that re-queued a job with backoff",
            )
        )
        self.dedup_hits = reg(
            Counter(
                "repro_store_dedup_hits_total",
                "Submissions answered from the result store without "
                "re-simulation",
            )
        )
        self.sweep_seconds = reg(
            Histogram(
                "repro_sweep_wall_seconds",
                "Wall-clock seconds per completed sweep job",
            )
        )
        self.submit_seconds = reg(
            Histogram(
                "repro_submit_seconds",
                "Server-side seconds spent handling one POST /jobs",
                buckets=(
                    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                    0.1, 0.25, 0.5, 1.0, 2.5,
                ),
            )
        )
        self._queue_depth = Gauge(
            "repro_queue_depth", "Jobs queued and not yet running"
        )
        self._jobs_by_state = Gauge(
            "repro_jobs", "Known jobs by lifecycle state", label_name="state"
        )
        self._cache_hits = Gauge(
            "repro_rate_cache_hits_total",
            "Rate-cache lookups served from the shared cache",
        )
        self._cache_misses = Gauge(
            "repro_rate_cache_misses_total",
            "Rate-cache lookups that required trace simulation",
        )
        self._admission_shed = Gauge(
            "repro_admission_shed_total",
            "Submissions shed by admission control, by reason",
            label_name="reason",
        )
        self._admission_queue_limit = Gauge(
            "repro_admission_queue_limit",
            "Queue depth beyond which submissions shed with 503",
        )
        self._admission_clients = Gauge(
            "repro_admission_clients",
            "Distinct clients currently tracked by the rate limiter",
        )
        self._shards = Gauge(
            "repro_service_shards",
            "Worker shard processes the scheduler dispatches to "
            "(0 = in-process execution)",
        )
        for g in (
            self._queue_depth,
            self._jobs_by_state,
            self._cache_hits,
            self._cache_misses,
            self._admission_shed,
            self._admission_queue_limit,
            self._admission_clients,
            self._shards,
        ):
            self.registry.register(g)

    def bind(
        self,
        queue_depth: Callable[[], float],
        jobs_by_state: Callable[[], Dict[str, float]],
        cache_hits: Callable[[], float],
        cache_misses: Callable[[], float],
    ) -> None:
        """Attach the scrape-time callbacks (called once by the scheduler)."""
        self._queue_depth._callback = queue_depth
        self._jobs_by_state._callback = jobs_by_state
        self._cache_hits._callback = cache_hits
        self._cache_misses._callback = cache_misses

    def bind_admission(self, controller) -> None:
        """Expose an :class:`~repro.service.admission.AdmissionController`.

        Called once when the service wires its admission gate; scrapes
        then read the live shed counters and client table size.
        """
        self._admission_shed._callback = controller.shed_counts
        self._admission_queue_limit._callback = (
            lambda: float(controller.max_queue_depth)
        )
        self._admission_clients._callback = (
            lambda: float(controller.client_count())
        )

    def bind_shards(self, effective_shards: Callable[[], float]) -> None:
        """Expose the scheduler's effective shard count."""
        self._shards._callback = effective_shards

    #: The panels one ``/metrics`` scrape covers, in exposition order.
    @staticmethod
    def _panels() -> "List[MetricsRegistry]":
        return [
            build_info_metrics().registry,
            engine_metrics().registry,
            telemetry_metrics().registry,
            fleet_metrics().registry,
            stream_metrics().registry,
            profile_metrics().registry,
        ]

    def render(self) -> str:
        """Text exposition: service + build-info + engine + telemetry
        + fleet + stream + profile panels."""
        return self.registry.render() + "".join(
            panel.render() for panel in self._panels()
        )

    def sample_all(self) -> List[Sample]:
        """Every panel's current ``(name, labels, value)`` samples.

        The same coverage as :meth:`render`, as structured samples —
        this is what the archive's background recorder scrapes, so a
        persisted snapshot carries exactly what ``GET /metrics``
        would have shown at that instant.
        """
        out = self.registry.samples()
        for panel in self._panels():
            out.extend(panel.samples())
        return out
