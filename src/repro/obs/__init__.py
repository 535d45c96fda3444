"""``repro.obs`` — the unified telemetry layer (tracing + metrics).

Two halves, one import surface:

* :mod:`repro.obs.trace` — structured request tracing.  Spans with parent
  links record each hop of a request's life (batcher enqueue → coalesce
  wait → cache/dedup → plan execution → per-``KernelStep`` timing with
  backend attribution) into a bounded ring buffer.  Off by default;
  ``REPRO_TRACE_SAMPLE`` or :func:`enable_tracing` turn it on.
* :mod:`repro.obs.registry` — a process-wide metrics registry (counters,
  gauges, fixed-bucket histograms) that the serve stack publishes into,
  exportable as a JSON snapshot or Prometheus text exposition.

Both are stdlib+NumPy only and import nothing from the rest of ``repro``,
so any module — including low-level backends — may depend on them without
creating cycles.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_LATENCY_BUCKETS_MS,
    REGISTRY,
    get_registry,
)
from repro.obs.trace import (
    Span,
    Trace,
    clear_buffer,
    current_trace,
    disable_tracing,
    enable_tracing,
    finish_trace,
    format_trace,
    has_active_trace,
    maybe_trace,
    slowest_traces,
    span,
    trace_buffer,
    tracing_enabled,
    use_trace,
)

__all__ = [
    # registry
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "REGISTRY",
    "get_registry",
    # tracing
    "Span",
    "Trace",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "maybe_trace",
    "finish_trace",
    "use_trace",
    "current_trace",
    "has_active_trace",
    "span",
    "trace_buffer",
    "slowest_traces",
    "clear_buffer",
    "format_trace",
]
