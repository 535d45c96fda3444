"""Per-layer timing by wrapping calls into each layer's public functions.

The traced pass installs these wrappers before it builds anything; the
untraced pass never imports this module, so it measures the program as
shipped.  Each wrapper records a span (name, start, end) on a per-thread
stack; a span's self time is its duration minus the part its child spans
cover.  Spans are aggregated as they close, so memory stays flat.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Optional

from benchstats import self_time


class LayerTracer:
    """Span recorder shared by every wrapper of one traced process."""

    def __init__(self, keep_samples: tuple = ()) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._keep = set(keep_samples)
        self.recording = False
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.self_s: Dict[str, float] = defaultdict(float)
            self.calls: Dict[str, int] = defaultdict(int)
            self.samples: Dict[str, list] = defaultdict(list)
            self.counters: Dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter: str, amount: float) -> None:
        with self._lock:
            self.counters[counter] += amount

    def add_macs(self, macs: int) -> None:
        """Count INT8 MACs, in total and on this thread's running tally."""
        self.add("runtime.int8_macs", macs)
        self._local.macs = self.thread_macs() + macs

    def thread_macs(self) -> int:
        return getattr(self._local, "macs", 0)

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` timed as span ``name``; ``after(args, result)`` counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            children: list = []
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].append((start, end))
                own = self_time(start, end, children)
                with tracer._lock:
                    tracer.self_s[name] += own
                    tracer.calls[name] += 1
                    if name in tracer._keep:
                        tracer.samples[name].append(end - start)
            if after is not None:
                after(args, result)
            return result

        return wrapper


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module global that names ``original``.

    ``from x import f`` copies the reference into the importing module, so
    patching only the defining module would miss those callers.
    """
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _wrap_function(tracer: LayerTracer, module: Any, attr: str, name: str,
                   after: Optional[Callable] = None) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.wrap(name, original, after))


def _wrap_method(tracer: LayerTracer, cls: type, attr: str, name: str,
                 after: Optional[Callable] = None) -> None:
    setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], after))


def install_kernels(tracer: LayerTracer) -> None:
    """Kernel dispatch, quantizer, executor and patch-gather wrappers."""
    import numpy as np

    import repro  # noqa: F401  (loads every module that copies a name)

    from repro.nn import functional
    from repro.quant import suq
    from repro.runtime import dispatch
    from repro.runtime.backends import reference
    from repro.runtime.executor import PlanExecutor

    fell_back = threading.local()

    def count_quantize(args, result) -> None:
        tracer.add("quant.quantize_elems", np.asarray(args[0]).size)

    def count_gemm(args, result) -> None:
        lhs, rhs = args[0], args[1]
        macs = int(lhs.shape[0] * lhs.shape[-1] * rhs.shape[-1])
        tracer.add_macs(macs)
        tracer.add("runtime.kernel.int8_gemm_macs", macs)
        if fell_back.flag:
            tracer.add("runtime.kernel.int8_gemm_int_macs", macs)

    def count_cols(position: int) -> Callable:
        def count(args, result) -> None:
            cols = args[position]
            tracer.add_macs(
                int(cols.shape[0] * cols.shape[1] * cols.shape[2]))
        return count

    def count_rowwise(args, result) -> None:
        x, rhs = np.asarray(args[0]), args[1]
        tracer.add_macs(int(x.shape[0] * rhs.shape[0] * rhs.shape[1]))

    # The integer fallback of an INT8 GEMM runs ``integer_matmul``; every
    # other INT8 GEMM MAC ran on the exact-float32 BLAS path.
    integer_matmul = reference.integer_matmul

    @functools.wraps(integer_matmul)
    def flagged_integer_matmul(*args, **kwargs):
        fell_back.flag = True
        return integer_matmul(*args, **kwargs)

    _replace_everywhere(integer_matmul, flagged_integer_matmul)
    timed_gemm = tracer.wrap("runtime.kernel.int8_gemm", dispatch.int8_gemm,
                             count_gemm)

    @functools.wraps(dispatch.int8_gemm)
    def int8_gemm(*args, **kwargs):
        fell_back.flag = False
        return timed_gemm(*args, **kwargs)

    _replace_everywhere(dispatch.int8_gemm, int8_gemm)
    _wrap_function(tracer, suq, "quantize", "quant.quantize", count_quantize)
    _wrap_function(tracer, dispatch, "int8_depthwise",
                   "runtime.kernel.depthwise", count_cols(0))
    _wrap_function(tracer, dispatch, "int8_depthwise_grad",
                   "runtime.kernel.depthwise_grad", count_cols(1))
    _wrap_function(tracer, dispatch, "rowwise_quantized_gemm",
                   "runtime.kernel.rowwise_gemm", count_rowwise)
    _wrap_function(tracer, functional, "im2col", "nn.im2col")
    _wrap_function(tracer, functional, "col2im", "nn.col2im")
    _wrap_method(tracer, PlanExecutor, "unit_outputs",
                 "runtime.executor.forward")


#: Spans ``install_kernels`` records, in both training and serving.
KERNEL_SPANS = (
    "quant.quantize", "runtime.executor.forward", "runtime.kernel.int8_gemm",
    "runtime.kernel.depthwise", "runtime.kernel.depthwise_grad",
    "runtime.kernel.rowwise_gemm", "nn.im2col", "nn.col2im",
)


def self_ms(tracer: LayerTracer, names, per: float) -> Dict[str, float]:
    """``<name>_ms``: each span's self time in ms, divided by ``per``."""
    return {f"{name}_ms": 1000.0 * tracer.self_s.get(name, 0.0) / per
            for name in names}


def kernel_metrics(tracer: LayerTracer, per: float) -> Dict[str, float]:
    """Kernel times and quantizer counts per ``per`` step or request."""
    counters = tracer.counters
    gemm_macs = counters.get("runtime.kernel.int8_gemm_macs", 0.0)
    int_macs = counters.get("runtime.kernel.int8_gemm_int_macs", 0.0)
    return {
        **self_ms(tracer, KERNEL_SPANS, per),
        "quant.quantize_calls": tracer.calls.get("quant.quantize", 0) / per,
        "quant.quantize_melems":
            counters.get("quant.quantize_elems", 0.0) / per / 1e6,
        "runtime.kernel.int8_gemm_f32_frac":
            (gemm_macs - int_macs) / gemm_macs if gemm_macs else 0.0,
    }


def install_training(tracer: LayerTracer) -> None:
    """Kernel wrappers plus look-ahead, optimiser and overlay wrappers."""
    from repro.core import lookahead
    from repro.data.overlay import LabelOverlay
    from repro.training import optim

    install_kernels(tracer)
    _wrap_function(tracer, lookahead, "accumulate_lookahead_gradients",
                   "core.lookahead.sweep")
    _wrap_function(tracer, lookahead, "unit_losses_and_grads",
                   "core.lookahead.loss_grad")
    for cls in [optim.Optimizer, *optim.Optimizer.__subclasses__()]:
        if "step" in cls.__dict__:
            _wrap_method(tracer, cls, "step", "training.optim.step")
    _wrap_method(tracer, LabelOverlay, "positive", "data.overlay")
    _wrap_method(tracer, LabelOverlay, "negative", "data.overlay")


def install_serving(tracer: LayerTracer) -> None:
    """Kernel wrappers plus one wrapper per serving hop.

    A request's hop time runs from its ``submit`` call to the moment its
    future resolves.  Its batcher wait runs from ``MicroBatcher.submit``
    to the start of the engine pass that answered it: the future resolves
    on the worker thread right after that pass, so the pass start is read
    from that thread.  A batcher future that is already pending is a
    dedup rider; one that is done on return was answered by the cache.
    """
    from repro.serve.batcher import MicroBatcher
    from repro.serve.cache import PredictionCache
    from repro.serve.engine import Int8InferenceEngine
    from repro.serve.supervisor import ReplicaSupervisor

    install_kernels(tracer)
    engine_pass = threading.local()
    pending: Dict[int, Any] = {}
    pending_lock = threading.Lock()

    timed_predict = tracer.wrap(
        "serve.engine.predict", Int8InferenceEngine.__dict__["predict"],
        lambda args, result: tracer.add("serve.engine.rows", len(args[1])),
    )

    @functools.wraps(timed_predict)
    def predict(self, inputs):
        engine_pass.started = time.perf_counter()
        recording, macs = tracer.recording, tracer.thread_macs()
        labels = timed_predict(self, inputs)
        if recording and tracer.recording:
            # Passes wholly inside the window give an exact MACs per row.
            tracer.add("serve.engine.whole_rows", len(inputs))
            tracer.add("serve.engine.whole_macs",
                       tracer.thread_macs() - macs)
        return labels

    Int8InferenceEngine.predict = predict

    def count_hit(args, result) -> None:
        if result is not None:
            tracer.add("serve.cache.hits", 1)

    _wrap_method(tracer, PredictionCache, "get", "serve.cache.get", count_hit)

    batcher_submit = MicroBatcher.__dict__["submit"]

    @functools.wraps(batcher_submit)
    def submit_to_batcher(self, sample, deadline_s=None):
        if not tracer.recording:
            return batcher_submit(self, sample, deadline_s)
        started = time.perf_counter()
        future = batcher_submit(self, sample, deadline_s)
        tracer.add("serve.batcher.requests", 1)
        leads = False
        if not future.done():
            with pending_lock:
                if id(future) in pending:
                    tracer.add("serve.batcher.deduped", 1)
                else:
                    pending[id(future)] = future
                    leads = True

        def resolved(done) -> None:
            tracer.sample("serve.batcher.submit",
                          time.perf_counter() - started)
            if leads:
                with pending_lock:
                    pending.pop(id(done), None)
                pass_started = getattr(engine_pass, "started", None)
                if pass_started is not None and pass_started >= started:
                    tracer.sample("serve.batcher.wait",
                                  pass_started - started)

        future.add_done_callback(resolved)
        return future

    MicroBatcher.submit = submit_to_batcher

    supervisor_submit = ReplicaSupervisor.__dict__["submit"]

    @functools.wraps(supervisor_submit)
    def submit_to_supervisor(self, sample, deadline_s=None, model=None):
        started = time.perf_counter()
        future = supervisor_submit(self, sample, deadline_s, model)
        if tracer.recording:
            future.add_done_callback(lambda done: tracer.sample(
                "serve.supervisor.submit", time.perf_counter() - started))
        return future

    ReplicaSupervisor.submit = submit_to_supervisor
