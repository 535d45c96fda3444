"""Structured request tracing: spans, sampling, and a bounded trace buffer.

Answers the question no aggregate can: *where did this request's 4 ms go?*
A :class:`Trace` is one request's tree of :class:`Span` records — batcher
enqueue, coalesce wait, cache/dedup checks, plan execution, every
``KernelStep`` with the backend that ran it — held in a bounded
thread-safe ring buffer (newest ``REPRO_TRACE_BUFFER`` traces, default
256) that ``serve-bench --trace N`` and ``obs-snapshot`` read back.

The design is dominated by one requirement: **tracing off must cost nearly
nothing** on the serve hot path (the overhead guard benchmark holds the
line at <1%).  Hence:

* a module-level ``_STATE.enabled`` flag checked before *any* allocation —
  :func:`maybe_trace` is one attribute load + branch when off;
* inside the executor the guard is :func:`has_active_trace`, a thread-local
  attribute read, so un-traced requests never touch the span machinery even
  while another thread is being traced;
* sampling (``REPRO_TRACE_SAMPLE=0.01`` ⇒ every ~100th request) is a
  deterministic counter stride, not an RNG draw, so sampled runs are
  reproducible and the rejected-path cost is one integer increment.

Span payloads are plain slotted objects created only on the traced path;
attrs are small dicts of primitives (backend name, row and column counts).
Parent links come from a thread-local span stack managed by the
:func:`span` context manager, so nested instrumentation composes without
threading ids through call signatures.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
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

_DEFAULT_BUFFER = 256


class Span:
    """One timed hop inside a trace (slotted: traces are bulk objects)."""

    __slots__ = ("span_id", "parent_id", "name", "start_s", "duration_ms",
                 "attrs")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 start_s: float, duration_ms: float,
                 attrs: Dict[str, Any]) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = start_s
        self.duration_ms = duration_ms
        self.attrs = attrs

    def as_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_ms": self.duration_ms,
            "attrs": dict(self.attrs),
        }


class Trace:
    """One request's spans.  Span id 0 is the root; children append under a
    lock because a traced request crosses threads (client → batch worker)."""

    __slots__ = ("trace_id", "name", "start_s", "duration_ms", "attrs",
                 "_spans", "_lock", "_next_id")

    def __init__(self, trace_id: int, name: str, start_s: float,
                 attrs: Dict[str, Any]) -> None:
        self.trace_id = trace_id
        self.name = name
        self.start_s = start_s
        self.duration_ms = 0.0  # sealed by finish_trace()
        self.attrs = attrs
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self._next_id = itertools.count(1)

    # ------------------------------------------------------------------ #
    def reserve_id(self) -> int:
        """A fresh span id (itertools.count is atomic under the GIL)."""
        return next(self._next_id)

    def record_span(self, name: str, start_s: float, end_s: float,
                    parent_id: Optional[int] = 0,
                    span_id: Optional[int] = None,
                    **attrs: Any) -> Span:
        """Append a completed span; parent defaults to the root (id 0)."""
        entry = Span(
            span_id=self.reserve_id() if span_id is None else span_id,
            parent_id=parent_id,
            name=name,
            start_s=start_s,
            duration_ms=(end_s - start_s) * 1e3,
            attrs=attrs,
        )
        with self._lock:
            self._spans.append(entry)
        return entry

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the ``serve-bench --output`` trace dump)."""
        root = {
            "span_id": 0,
            "parent_id": None,
            "name": self.name,
            "start_s": self.start_s,
            "duration_ms": self.duration_ms,
            "attrs": dict(self.attrs),
        }
        return {
            "trace_id": self.trace_id,
            "duration_ms": self.duration_ms,
            "spans": [root] + [entry.as_dict() for entry in self.spans()],
        }


class _TraceState:
    """Module-level switchboard: enabled flag, sampling stride, buffer."""

    def __init__(self) -> None:
        self.enabled = False
        self.stride = 1          # trace every Nth maybe_trace() call
        self._counter = 0
        self._trace_ids = itertools.count(1)
        self._lock = threading.Lock()
        maxlen = _DEFAULT_BUFFER
        raw = os.environ.get("REPRO_TRACE_BUFFER")
        if raw:
            try:
                maxlen = max(1, int(raw))
            except ValueError:
                pass
        self.buffer: "deque[Trace]" = deque(maxlen=maxlen)
        self._configure_from_env()

    def _configure_from_env(self) -> None:
        raw = os.environ.get("REPRO_TRACE_SAMPLE")
        if not raw:
            return
        try:
            rate = float(raw)
        except ValueError:
            return
        if rate > 0:
            self.configure(rate)

    def configure(self, sample: float) -> None:
        if not 0 < sample <= 1:
            raise ValueError(f"sample rate must be in (0, 1], got {sample}")
        self.stride = max(1, round(1.0 / sample))
        self.enabled = True

    def should_sample(self) -> bool:
        """Deterministic stride sampling — one int increment per rejection."""
        with self._lock:
            self._counter += 1
            return self._counter % self.stride == 0

    def next_trace_id(self) -> int:
        return next(self._trace_ids)


_STATE = _TraceState()


class _TLS(threading.local):
    def __init__(self) -> None:
        self.trace: Optional[Trace] = None
        self.parent_id: int = 0


_TLS_STATE = _TLS()


# ---------------------------------------------------------------------- #
# control surface
# ---------------------------------------------------------------------- #
def enable_tracing(sample: float = 1.0) -> None:
    """Turn tracing on, sampling roughly every ``1/sample``-th request."""
    _STATE.configure(sample)


def disable_tracing() -> None:
    """Turn tracing off (the near-zero-overhead default)."""
    _STATE.enabled = False


def tracing_enabled() -> bool:
    return _STATE.enabled


def maybe_trace(name: str, **attrs: Any) -> Optional[Trace]:
    """Start a trace for this request, or ``None`` (off / not sampled).

    The disabled path is one attribute load and a branch — this is the
    call every request makes, so it must stay allocation-free when off.
    """
    if not _STATE.enabled:
        return None
    if not _STATE.should_sample():
        return None
    return Trace(
        trace_id=_STATE.next_trace_id(),
        name=name,
        start_s=perf_counter(),
        attrs=attrs,
    )


def finish_trace(trace: Optional[Trace],
                 end_s: Optional[float] = None) -> None:
    """Seal the root duration and push the trace into the ring buffer."""
    if trace is None:
        return
    trace.duration_ms = ((end_s if end_s is not None else perf_counter())
                         - trace.start_s) * 1e3
    _STATE.buffer.append(trace)


def current_trace() -> Optional[Trace]:
    """The trace the calling thread is executing under, if any."""
    return _TLS_STATE.trace


def has_active_trace() -> bool:
    """Cheap executor-side guard: is *this thread* inside a traced request?"""
    return _TLS_STATE.trace is not None


@contextmanager
def use_trace(trace: Optional[Trace],
              parent_id: int = 0) -> Iterator[Optional[Trace]]:
    """Bind ``trace`` as the calling thread's active trace.

    The batch worker uses this to run the engine "on behalf of" a traced
    request, so executor spans land in that request's tree.  ``None`` is
    accepted and makes the block a no-op, keeping call sites branch-free.
    """
    if trace is None:
        yield None
        return
    previous_trace = _TLS_STATE.trace
    previous_parent = _TLS_STATE.parent_id
    _TLS_STATE.trace = trace
    _TLS_STATE.parent_id = parent_id
    try:
        yield trace
    finally:
        _TLS_STATE.trace = previous_trace
        _TLS_STATE.parent_id = previous_parent


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
    """Record a timed span under the thread's active trace.

    Yields the (mutable) attrs dict so the body can attach results known
    only mid-flight (rows, backend, cache verdict).  With no active trace
    this is a cheap no-op yielding a throwaway dict.
    """
    trace = _TLS_STATE.trace
    if trace is None:
        yield attrs
        return
    parent_id = _TLS_STATE.parent_id
    span_id = trace.reserve_id()
    previous_parent = parent_id
    _TLS_STATE.parent_id = span_id
    start_s = perf_counter()
    try:
        yield attrs
    finally:
        end_s = perf_counter()
        _TLS_STATE.parent_id = previous_parent
        trace.record_span(name, start_s, end_s, parent_id=parent_id,
                          span_id=span_id, **attrs)


# ---------------------------------------------------------------------- #
# buffer access + rendering
# ---------------------------------------------------------------------- #
def trace_buffer() -> List[Trace]:
    """Snapshot of the ring buffer, oldest first."""
    return list(_STATE.buffer)


def slowest_traces(n: int = 5) -> List[Trace]:
    """The ``n`` slowest buffered traces (slowest first)."""
    return sorted(_STATE.buffer, key=lambda trace: -trace.duration_ms)[:n]


def clear_buffer() -> None:
    _STATE.buffer.clear()


def _format_attrs(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    inner = " ".join(f"{key}={value}" for key, value in sorted(attrs.items()))
    return f"  [{inner}]"


def format_trace(trace: Trace) -> str:
    """Render one trace as an indented tree, children in start order.

    Example::

        trace #7 serve.request  4.213 ms
        ├─ batcher.cache  0.031 ms  [hit=False]
        ├─ batcher.enqueue  0.008 ms  [queue_depth=3]
        ├─ batcher.coalesce_wait  1.102 ms  [batch_size=8]
        └─ engine.predict  2.951 ms
           ├─ unit0.gemm  1.021 ms  [backend=fast cols=784 rows=8]
           ├─ unit0.activation  0.183 ms  [backend=fast cols=64 rows=8]
           └─ unit1.gemm  0.933 ms  [backend=parallel cols=64 rows=8]
    """
    spans = sorted(trace.spans(), key=lambda entry: entry.start_s)
    children: Dict[int, List[Span]] = {}
    for entry in spans:
        children.setdefault(
            0 if entry.parent_id is None else entry.parent_id, []
        ).append(entry)

    lines = [
        f"trace #{trace.trace_id} {trace.name}  {trace.duration_ms:.3f} ms"
        f"{_format_attrs(trace.attrs)}"
    ]

    def walk(parent_id: int, prefix: str) -> None:
        siblings = children.get(parent_id, [])
        for index, entry in enumerate(siblings):
            last = index == len(siblings) - 1
            branch = "└─ " if last else "├─ "
            lines.append(
                f"{prefix}{branch}{entry.name}  {entry.duration_ms:.3f} ms"
                f"{_format_attrs(entry.attrs)}"
            )
            walk(entry.span_id, prefix + ("   " if last else "│  "))

    walk(0, "")
    return "\n".join(lines)
