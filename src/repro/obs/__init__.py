"""Run observability: events, profiling, logging, telemetry, dashboards.

Independent, strictly opt-in instruments:

* :class:`RunEventLog` — typed, timestamped engine events (DVFS
  transitions, stop-go trips/thaws, migrations, OS ticks, PROCHOT trips,
  emergency enter/exit) with JSONL export and per-run summaries;
* :class:`StepProfiler` — wall-time accounting of the engine step's
  named sections (sensors / throttle / power / thermal-step / os-tick);
* :class:`MetricsRegistry` / :class:`TelemetrySampler` — labelled
  counters, gauges and histograms sampled on a fixed silicon-time
  period; the sampler is fusion-aware, so sampled runs keep the engine's
  fused fast path (see :mod:`repro.obs.telemetry`);
* :mod:`repro.obs.tracing` — W3C-traceparent-compatible distributed
  spans (:class:`TraceContext` / :class:`SpanRecorder` /
  :data:`NULL_TRACER`) propagated from the serve client through queue,
  workers and engine runs;
* :mod:`repro.obs.exporters` — JSONL/CSV series, Prometheus text,
  Chrome trace-event JSON;
* :mod:`repro.obs.dashboard` — run bundles and the ``repro report``
  ASCII/HTML dashboards and run diffs;
* :func:`configure_logging` / :func:`get_logger` — the package's
  structured :mod:`logging` conventions.

None of them perturb the simulation: runs with observability off are
byte-identical to the pre-observability engine, instrumented runs report
bit-identical metrics, and nothing here enters the result-cache key.
"""

from repro.obs.dashboard import (
    RunBundle,
    diff_metrics,
    load_bundle,
    render_ascii,
    render_diff,
    render_html,
    write_bundle,
)
from repro.obs.events import (
    EVENT_TYPES,
    EventLogSummary,
    RunEvent,
    RunEventLog,
    read_jsonl,
)
from repro.obs.exporters import (
    prometheus_text,
    read_series_jsonl,
    span_trace_events,
    write_chrome_trace,
    write_prometheus,
    write_series_csv,
    write_series_jsonl,
)
from repro.obs.logconfig import (
    LOG_LEVELS,
    configure_logging,
    get_logger,
)
from repro.obs.profiler import (
    ENGINE_SECTIONS,
    NULL_PROFILER,
    NullProfiler,
    StepProfiler,
    render_engine_sections,
    sorted_sections,
)
from repro.obs.tracing import (
    NULL_TRACER,
    NullRecorder,
    Span,
    SpanRecorder,
    TraceContext,
    render_waterfall,
    span_from_dict,
    spans_from_payload,
    spans_payload,
    validate_trace,
)
from repro.obs.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetrySampler,
    TelemetrySeries,
    TelemetrySummary,
)

__all__ = [
    "EVENT_TYPES",
    "ENGINE_SECTIONS",
    "Counter",
    "EventLogSummary",
    "Gauge",
    "Histogram",
    "LOG_LEVELS",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NULL_TRACER",
    "NullProfiler",
    "NullRecorder",
    "RunBundle",
    "RunEvent",
    "RunEventLog",
    "Span",
    "SpanRecorder",
    "StepProfiler",
    "TraceContext",
    "TelemetrySampler",
    "TelemetrySeries",
    "TelemetrySummary",
    "configure_logging",
    "diff_metrics",
    "get_logger",
    "load_bundle",
    "prometheus_text",
    "read_jsonl",
    "read_series_jsonl",
    "render_ascii",
    "render_diff",
    "render_engine_sections",
    "render_html",
    "render_waterfall",
    "sorted_sections",
    "span_from_dict",
    "span_trace_events",
    "spans_from_payload",
    "spans_payload",
    "validate_trace",
    "write_bundle",
    "write_chrome_trace",
    "write_prometheus",
    "write_series_csv",
    "write_series_jsonl",
]
