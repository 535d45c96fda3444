"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Every control loop the serving stack grows — queue-depth shedding, canary
rollback, replica restarts — needs *live, scrapeable* signals, not
post-hoc report tables.  The registry is that signal plane: named metrics
that :class:`~repro.serve.metrics.ServeMetrics`, the micro-batcher's
autoscalers, the engine's plan cache and ``autopin`` all publish into,
readable two ways:

* :meth:`MetricsRegistry.snapshot` — a JSON-serializable dict, attached to
  benchmark records (``meta.obs``) and the ``serve-bench --output`` summary
  so perf numbers always carry their context;
* :meth:`MetricsRegistry.render_prometheus` — Prometheus text exposition
  (version 0.0.4), so a future network front-end can expose ``/metrics``
  with a one-line handler.

Design constraints, in order: **hot-path cheapness** (a counter increment is
one lock + one add; histograms take whole batches per lock acquisition via
:meth:`Histogram.observe_many` and keep fixed buckets — no per-sample
storage, ever), **thread safety** (serve workers, kernel pool threads
and client threads all publish concurrently), and **zero dependencies**
(stdlib + NumPy only, so any module in the repo may import it without cycles).

Metrics follow the Prometheus naming idiom: ``repro_`` prefix, base units
in the name (``_ms``, ``_bytes``), ``_total`` suffix on counters.  Labelled
series are separate metric objects sharing a name (``counter(name,
backend="fast")``); the exposition groups them under one ``# TYPE`` block.
"""

from __future__ import annotations

import json
import re
import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

_NAME_PATTERN = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_PATTERN = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: default histogram bucket upper bounds for millisecond latencies — spans
#: sub-cache-hit (0.1 ms) to stuck-request (1 s) on the serving path.
DEFAULT_LATENCY_BUCKETS_MS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0
)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _series_key(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """The exposition-style series identifier (``name{k="v",...}``)."""
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{_escape_label_value(value)}"' for key, value in labels
    )
    return f"{name}{{{inner}}}"


class _Metric:
    """Shared identity/lock plumbing for every metric kind."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labels: Tuple[Tuple[str, str], ...]) -> None:
        self.name = name
        self.help = help_text
        self.labels = labels
        self._lock = threading.Lock()

    @property
    def series(self) -> str:
        """``name{label="value",...}`` — the snapshot/exposition key."""
        return _series_key(self.name, self.labels)


class Counter(_Metric):
    """Monotonically increasing count (requests served, pool resets, ...)."""

    kind = "counter"

    def __init__(self, name: str, help_text: str,
                 labels: Tuple[Tuple[str, str], ...]) -> None:
        super().__init__(name, help_text, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Metric):
    """A value that goes both ways (live workers, staged bytes, EWMA)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str,
                 labels: Tuple[Tuple[str, str], ...]) -> None:
        super().__init__(name, help_text, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Metric):
    """Fixed-bucket histogram: per-bucket counts + sum, no sample storage.

    Buckets are upper bounds (``le`` in Prometheus terms) with an implicit
    ``+Inf``; observations cost one bisect + one add, and
    :meth:`observe_many` folds a whole batch of values under a single lock
    acquisition — the form the serve hot path uses, so per-request overhead
    amortizes to one NumPy ``searchsorted`` per dispatched batch.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 labels: Tuple[Tuple[str, str], ...],
                 buckets: Sequence[float]) -> None:
        super().__init__(name, help_text, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate histogram buckets: {buckets}")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # (+Inf last)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def observe_many(self, values: Iterable[float]) -> None:
        array = np.asarray(list(values), dtype=np.float64)
        if array.size == 0:
            return
        indices = np.searchsorted(self.buckets, array, side="left")
        folded = np.bincount(indices, minlength=len(self._counts))
        total = float(array.sum())
        with self._lock:
            for index, count in enumerate(folded):
                self._counts[index] += int(count)
            self._sum += total
            self._count += int(array.size)

    def value(self) -> Dict[str, Any]:
        """Cumulative bucket counts plus sum/count (one consistent read)."""
        with self._lock:
            counts = list(self._counts)
            total, count = self._sum, self._count
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, bucket_count in zip(self.buckets, counts):
            running += bucket_count
            cumulative[f"{bound:g}"] = running
        cumulative["+Inf"] = running + counts[-1]
        return {"buckets": cumulative, "sum": total, "count": count}


class MetricsRegistry:
    """Get-or-create home of every metric; snapshot + exposition renderer.

    One registry normally serves the whole process (:data:`REGISTRY` /
    :func:`get_registry`); tests construct private ones.  ``counter`` /
    ``gauge`` / ``histogram`` are idempotent per ``(name, labels)`` — a
    second caller gets the same object, and a kind clash (a gauge where a
    counter lives) raises instead of silently corrupting the series.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "Dict[Tuple[str, tuple], _Metric]" = {}

    # ------------------------------------------------------------------ #
    def _get_or_create(self, cls, name: str, help_text: str,
                       labels: Dict[str, str], **kwargs) -> _Metric:
        if not _NAME_PATTERN.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        label_items = tuple(sorted(
            (str(key), str(value)) for key, value in (labels or {}).items()
        ))
        for key, _ in label_items:
            if not _LABEL_PATTERN.match(key):
                raise ValueError(f"invalid label name {key!r}")
        registry_key = (name, label_items)
        with self._lock:
            metric = self._metrics.get(registry_key)
            if metric is not None:
                if not isinstance(metric, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{metric.kind}, not {cls.kind}"
                    )
                return metric
            metric = cls(name, help_text, label_items, **kwargs)
            self._metrics[registry_key] = metric
            return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        help: str = "",
        **labels: str,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )

    # ------------------------------------------------------------------ #
    def metrics(self) -> List[_Metric]:
        """Every registered metric, name-sorted (stable output order)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return sorted(metrics, key=lambda metric: (metric.name, metric.labels))

    def find(self, name: str, **labels: str) -> List[_Metric]:
        """Every series sharing ``name`` whose labels include ``labels``.

        The labeled-series query: ``find("repro_model_latency_ms",
        model="mlp-mini")`` returns one metric per version — how the
        canary controller and reports walk a family without knowing the
        label values up front.
        """
        wanted = {(str(key), str(value)) for key, value in labels.items()}
        with self._lock:
            metrics = list(self._metrics.values())
        return sorted(
            (metric for metric in metrics
             if metric.name == name and wanted.issubset(set(metric.labels))),
            key=lambda metric: metric.labels,
        )

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable view of every metric's current value.

        The shape benchmark records and ``serve-bench --output`` embed:
        ``{"counters": {series: value}, "gauges": {...}, "histograms":
        {series: {"buckets": ..., "sum": ..., "count": ...}}}``.
        """
        payload: Dict[str, Any] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for metric in self.metrics():
            payload[f"{metric.kind}s"][metric.series] = metric.value()
        return payload

    def render_prometheus(self) -> str:
        """The registry as Prometheus text exposition (version 0.0.4)."""
        lines: List[str] = []
        seen_header = set()
        for metric in self.metrics():
            if metric.name not in seen_header:
                seen_header.add(metric.name)
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                value = metric.value()
                for bound, count in value["buckets"].items():
                    bucket_labels = metric.labels + (("le", bound),)
                    lines.append(
                        f"{_series_key(metric.name + '_bucket', bucket_labels)}"
                        f" {count}"
                    )
                lines.append(
                    f"{_series_key(metric.name + '_sum', metric.labels)} "
                    f"{value['sum']:g}"
                )
                lines.append(
                    f"{_series_key(metric.name + '_count', metric.labels)} "
                    f"{value['count']}"
                )
            else:
                lines.append(f"{metric.series} {metric.value():g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render_json(self, indent: int = 2) -> str:
        """The snapshot as a JSON document (the CLI dump format)."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        """Drop every metric (tests; a live process never resets)."""
        with self._lock:
            self._metrics.clear()


#: the process-wide default registry every built-in publisher writes to.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return REGISTRY


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "REGISTRY",
    "get_registry",
]
