"""Instrumentation hooks on the runtime dispatch layer.

Every kernel the runtime dispatches (integer GEMMs, FP32 GEMMs, depthwise
inner products, quantization passes) and every module forward reports here.
Observers register an :class:`Instrumentation` hook and see the traffic of
*any* backend — the op counting behind Table IV and the hardware profiler
both plug in this way, so neither needs code inside the kernels themselves.

:class:`OpCounts` (formerly ``repro.quant.int8_ops.OpCounts``, re-exported
there for compatibility) is the canonical counter record;
:class:`OpCountingHook` adapts it to the hook protocol.

Step timing uses the same registry: ``on_step`` observes each executed
:class:`~repro.runtime.plan.KernelStep` with its wall-clock duration and the
backend that ran it.  The executor runs every step as its module whether or
not anyone is listening, so a registered :class:`StepTimingHook` times
exactly the plan the process serves.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple


@dataclass
class OpCounts:
    """Cumulative operation counts performed by an integer engine.

    A plain record with no synchronization: concurrent writers (e.g. one
    counter shared by several serving workers) may lose increments.  For an
    exact tally across threads, observe through a thread-safe
    :class:`OpCountingHook` instead of sharing a raw record.
    """

    int8_mul: int = 0
    int8_add: int = 0
    fp32_cmp: int = 0
    fp32_add: int = 0
    fp32_mul: int = 0

    def merge(self, other: "OpCounts") -> None:
        """Accumulate counts from another counter in place."""
        self.int8_mul += other.int8_mul
        self.int8_add += other.int8_add
        self.fp32_cmp += other.fp32_cmp
        self.fp32_add += other.fp32_add
        self.fp32_mul += other.fp32_mul

    def reset(self) -> None:
        """Zero every counter."""
        self.int8_mul = 0
        self.int8_add = 0
        self.fp32_cmp = 0
        self.fp32_add = 0
        self.fp32_mul = 0

    def as_dict(self) -> dict[str, int]:
        """Counts as a plain dictionary (for reports/serialization)."""
        return {
            "int8_mul": self.int8_mul,
            "int8_add": self.int8_add,
            "fp32_cmp": self.fp32_cmp,
            "fp32_add": self.fp32_add,
            "fp32_mul": self.fp32_mul,
        }


class Instrumentation:
    """Base hook: override the events you care about (all default to no-ops).

    Events fire synchronously on the executing thread; hooks must be cheap
    and must not call back into the runtime.
    """

    def on_int8_macs(self, macs: int) -> None:
        """An integer GEMM/inner product performed ``macs`` INT8 MACs."""

    def on_fp32_macs(self, macs: int) -> None:
        """A full-precision GEMM/inner product performed ``macs`` FP32 MACs."""

    def on_quantize(self, elements: int) -> None:
        """A quantization pass derived scales over ``elements`` values."""

    def on_module(self, module: Any, inputs: Any, output: Any) -> None:
        """A module's forward completed (fires for every ``Module.__call__``)."""

    def on_step(self, step: Any, duration_ms: float, backend: str,
                rows: int) -> None:
        """A plan :class:`~repro.runtime.plan.KernelStep` finished executing."""


class OpCountingHook(Instrumentation):
    """Adapt an :class:`OpCounts` record to the instrumentation protocol.

    The quantization convention matches the engines': deriving a scale costs
    one FP32 compare (max reduction) and one FP32 add per element, and the
    rounding divide/add is folded into a second add — i.e. Table IV's
    "quantization phase" accounting.

    Updates are serialized with a lock: the hook registry is global so a
    profiler wrapped around a multi-threaded serving engine observes every
    worker's kernels, and plain ``+=`` on the shared record would lose
    increments under that interleaving.  Events fire per kernel call (not
    per element), so the lock is off the inner hot path.
    """

    def __init__(self, counts: Optional[OpCounts] = None) -> None:
        self.counts = counts if counts is not None else OpCounts()
        self._lock = threading.Lock()

    def on_int8_macs(self, macs: int) -> None:
        with self._lock:
            self.counts.int8_mul += macs
            self.counts.int8_add += macs

    def on_fp32_macs(self, macs: int) -> None:
        with self._lock:
            self.counts.fp32_mul += macs
            self.counts.fp32_add += macs

    def on_quantize(self, elements: int) -> None:
        with self._lock:
            self.counts.fp32_cmp += elements
            self.counts.fp32_add += elements


# --------------------------------------------------------------------------- #
# hook registry
# --------------------------------------------------------------------------- #
# Hooks are global (not thread-local) so that a profiler wrapped around a
# multi-threaded serving engine still observes worker-thread kernels.  The
# registry is an immutable tuple rebound atomically under the lock: emit
# paths iterate whatever tuple they loaded, so a concurrent unregister on
# another thread can never make them skip or double-fire a hook mid-walk
# (mutating a shared list while iterating it could do both).
_HOOKS: Tuple[Instrumentation, ...] = ()
_REGISTRY_LOCK = threading.Lock()


def hooks_active() -> bool:
    """Cheap guard for emit call sites on the hot path."""
    return bool(_HOOKS)


def register_hook(hook: Instrumentation) -> Instrumentation:
    """Attach an instrumentation hook to the dispatch layer."""
    global _HOOKS
    with _REGISTRY_LOCK:
        _HOOKS = _HOOKS + (hook,)
    return hook


def unregister_hook(hook: Instrumentation) -> None:
    """Detach a previously registered hook (no-op if absent)."""
    global _HOOKS
    with _REGISTRY_LOCK:
        if hook in _HOOKS:
            hooks = list(_HOOKS)
            hooks.remove(hook)
            _HOOKS = tuple(hooks)


@contextmanager
def instrumented(hook: Instrumentation) -> Iterator[Instrumentation]:
    """Register ``hook`` for the duration of the block."""
    register_hook(hook)
    try:
        yield hook
    finally:
        unregister_hook(hook)


@contextmanager
def counting(counts: Optional[OpCounts] = None) -> Iterator[OpCounts]:
    """Count every dispatched operation in the block into an OpCounts."""
    hook = OpCountingHook(counts)
    with instrumented(hook):
        yield hook.counts


@contextmanager
def step_timing(hook: Optional["StepTimingHook"] = None
                ) -> Iterator["StepTimingHook"]:
    """Collect per-step timings for the duration of the block."""
    with instrumented(hook if hook is not None else StepTimingHook()) as hook:
        yield hook


@dataclass
class StepTiming:
    """Aggregate wall-clock for one (step name, backend) pair."""

    calls: int = 0
    total_ms: float = 0.0
    max_ms: float = 0.0
    rows: int = 0


class StepTimingHook(Instrumentation):
    """Aggregate per-step wall-clock by ``(step name, backend)``.

    Register like any hook, usually through the :func:`step_timing` context
    manager.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._timings: Dict[Tuple[str, str], StepTiming] = {}

    def on_step(self, step: Any, duration_ms: float, backend: str,
                rows: int) -> None:
        name = getattr(step, "describe", lambda: str(step))()
        key = (name, backend)
        with self._lock:
            timing = self._timings.get(key)
            if timing is None:
                timing = self._timings[key] = StepTiming()
            timing.calls += 1
            timing.total_ms += duration_ms
            timing.max_ms = max(timing.max_ms, duration_ms)
            timing.rows += rows

    def timings(self) -> Dict[Tuple[str, str], StepTiming]:
        """Snapshot of the aggregates keyed by (step name, backend)."""
        with self._lock:
            return {
                key: StepTiming(timing.calls, timing.total_ms,
                                timing.max_ms, timing.rows)
                for key, timing in self._timings.items()
            }

    def format_report(self) -> str:
        """Human-readable table, slowest aggregate first."""
        rows = sorted(
            self.timings().items(), key=lambda item: -item[1].total_ms
        )
        lines = [f"{'step':<40} {'backend':<10} {'calls':>6} "
                 f"{'total ms':>10} {'max ms':>9}"]
        for (name, backend), timing in rows:
            lines.append(
                f"{name:<40.40} {backend:<10} {timing.calls:>6} "
                f"{timing.total_ms:>10.3f} {timing.max_ms:>9.3f}"
            )
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# emit helpers (called by the dispatch layer / kernels)
# --------------------------------------------------------------------------- #
def emit_int8_macs(macs: int, counts: Optional[OpCounts] = None) -> None:
    """Record INT8 MACs into a local counter and every registered hook."""
    if counts is not None:
        counts.int8_mul += macs
        counts.int8_add += macs
    for hook in _HOOKS:
        hook.on_int8_macs(macs)


def emit_fp32_macs(macs: int) -> None:
    """Record FP32 MACs into every registered hook."""
    for hook in _HOOKS:
        hook.on_fp32_macs(macs)


def emit_quantize(elements: int, counts: Optional[OpCounts] = None) -> None:
    """Record a quantization pass (scale derivation over ``elements``)."""
    if counts is not None:
        counts.fp32_cmp += elements
        counts.fp32_add += elements
    for hook in _HOOKS:
        hook.on_quantize(elements)


def emit_module(module: Any, inputs: Any, output: Any) -> None:
    """Record a completed module forward (guard with :func:`hooks_active`)."""
    for hook in _HOOKS:
        hook.on_module(module, inputs, output)


def emit_step(step: Any, duration_ms: float, backend: str,
              rows: int) -> None:
    """Record a timed plan step into every registered hook."""
    for hook in _HOOKS:
        hook.on_step(step, duration_ms, backend, rows)


__all__ = [
    "OpCounts",
    "Instrumentation",
    "OpCountingHook",
    "StepTiming",
    "StepTimingHook",
    "hooks_active",
    "register_hook",
    "unregister_hook",
    "instrumented",
    "counting",
    "step_timing",
    "emit_int8_macs",
    "emit_fp32_macs",
    "emit_quantize",
    "emit_module",
    "emit_step",
]
