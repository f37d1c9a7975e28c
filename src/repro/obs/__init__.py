"""Cross-stack observability: hierarchical tracing, metrics, exporters.

``repro.obs`` is the process-wide answer to "where did this request's time
go, layer by layer, kernel by kernel": a :class:`Tracer` whose nestable
spans connect one serve request from the runtime queue down through pool
workers to individual kernel dispatches (``request → queue → batch →
replica → layer[i] → kernel → adc_quantize``), a unified
:class:`MetricsRegistry` every subsystem's counters register into, and
exporters for Perfetto-loadable Chrome trace JSON, a rotating span JSONL
log, and per-layer/per-kernel exclusive-time rollups.

Tracing is off by default: :func:`get_tracer` returns a shared
:class:`NullTracer` whose ``span()`` is a no-op, so the instrumented hot
paths cost one attribute lookup until :func:`enable` (or a YAML ``obs:``
block / ``python -m repro trace``) installs a collecting tracer.
Predictions are bit-identical with tracing on or off — spans observe,
never participate.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("OBS_SCHEMA", "ObsConfig", "ObsSession", "obs_session"),
    ".exporters": (
        "SpanLog",
        "format_summary",
        "read_spans",
        "summarize_trace",
        "to_chrome_trace",
        "write_chrome_trace",
    ),
    ".jsonl": ("JsonlWriter", "iter_jsonl_file", "read_jsonl"),
    ".metrics": (
        "DEFAULT_LATENCY_BUCKETS",
        "REGISTRY",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
    ),
    ".tracer": (
        "DEFAULT_CAPACITY",
        "NULL_TRACER",
        "NullTracer",
        "Span",
        "Tracer",
        "disable",
        "enable",
        "get_tracer",
        "new_id",
        "now",
        "set_tracer",
        "timed",
    ),
})
