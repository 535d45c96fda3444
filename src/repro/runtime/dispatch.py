"""Kernel dispatch: one entry point per dense kernel, for every caller.

The nn layers, the training :class:`~repro.quant.int8_ops.Int8Engine`, and
the serving :class:`~repro.serve.engine.FrozenInt8Kernel` all execute their
GEMMs through the functions in this module.  Dispatch does three things:

* resolve the **active backend** (explicit argument > thread-local
  override from :func:`use_backend` > ``REPRO_BACKEND`` env var > process
  default),
* run the kernel on that backend,
* report the operation to per-engine :class:`OpCounts` records and to any
  registered :mod:`instrumentation <repro.runtime.instrument>` hooks — so op
  accounting lives here exactly once, whatever backend executes.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.runtime import instrument
from repro.runtime.backends import Backend, available_backends, get_backend
from repro.runtime.instrument import OpCounts

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Process-wide default when neither an override nor the env var is set.
#: ``fast`` is bit-identical to ``reference`` on every input, so the default
#: is purely a throughput choice.
DEFAULT_BACKEND = "fast"

_process_default: Optional[str] = None
_overrides = threading.local()

BackendLike = Union[str, Backend, None]


def set_default_backend(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-wide default backend."""
    if name is not None:
        get_backend(name)  # validate eagerly
    global _process_default
    _process_default = name


def default_backend_name() -> str:
    """The backend name used when nothing more specific is in force."""
    if _process_default is not None:
        return _process_default
    return os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND


def active_backend(backend: BackendLike = None) -> Backend:
    """Resolve the backend for one kernel call."""
    if backend is not None:
        return get_backend(backend)
    stack = getattr(_overrides, "stack", None)
    if stack:
        return stack[-1]
    return get_backend(default_backend_name())


@contextmanager
def use_backend(backend: BackendLike) -> Iterator[Backend]:
    """Thread-locally route all dispatched kernels to ``backend``.

    ``None`` is accepted and leaves the ambient selection untouched, so
    configs can pass their optional backend field straight through.
    """
    if backend is None:
        yield active_backend()
        return
    resolved = get_backend(backend)
    stack = getattr(_overrides, "stack", None)
    if stack is None:
        stack = []
        _overrides.stack = stack
    stack.append(resolved)
    try:
        yield resolved
    finally:
        stack.pop()


# --------------------------------------------------------------------------- #
# kernels
# --------------------------------------------------------------------------- #
def matmul(
    a: np.ndarray, b: np.ndarray, backend: BackendLike = None
) -> np.ndarray:
    """Full-precision GEMM ``a @ b`` (instrumented as FP32 MACs)."""
    out = active_backend(backend).matmul(a, b)
    if instrument.hooks_active():
        instrument.emit_fp32_macs(
            int(np.prod(a.shape[:-1], dtype=np.int64)) * int(a.shape[-1])
            * int(b.shape[-1])
        )
    return out


def int8_gemm(
    lhs_q: np.ndarray,
    rhs_q: np.ndarray,
    counts: Optional[OpCounts] = None,
    backend: BackendLike = None,
) -> np.ndarray:
    """Exact integer GEMM ``lhs_q @ rhs_q`` with MAC accounting.

    Operands must be signed integers; the accumulator dtype is
    backend-specific (int32/int64, or float32 holding exact integers).
    """
    if lhs_q.dtype.kind != "i" or rhs_q.dtype.kind != "i":
        raise TypeError(
            f"int8_gemm requires signed integer operands, got "
            f"{lhs_q.dtype} and {rhs_q.dtype}"
        )
    if lhs_q.shape[-1] != rhs_q.shape[0]:
        raise ValueError(
            f"inner dimensions do not match: {lhs_q.shape} @ {rhs_q.shape}"
        )
    out = active_backend(backend).int8_gemm(lhs_q, rhs_q)
    macs = int(lhs_q.shape[0] * lhs_q.shape[-1] * rhs_q.shape[-1])
    instrument.emit_int8_macs(macs, counts)
    return out


def int8_depthwise(
    cols_q: np.ndarray,
    weight_q: np.ndarray,
    counts: Optional[OpCounts] = None,
    backend: BackendLike = None,
) -> np.ndarray:
    """Exact integer depthwise inner product with MAC accounting."""
    out = active_backend(backend).int8_depthwise(cols_q, weight_q)
    macs = int(cols_q.shape[0] * cols_q.shape[1] * cols_q.shape[2])
    instrument.emit_int8_macs(macs, counts)
    return out


def int8_depthwise_grad(
    grad_q: np.ndarray,
    cols_q: np.ndarray,
    counts: Optional[OpCounts] = None,
    backend: BackendLike = None,
) -> np.ndarray:
    """Exact integer depthwise weight gradient with MAC accounting."""
    out = active_backend(backend).int8_depthwise_grad(grad_q, cols_q)
    macs = int(cols_q.shape[0] * cols_q.shape[1] * cols_q.shape[2])
    instrument.emit_int8_macs(macs, counts)
    return out


def rowwise_quantized_gemm(
    x: np.ndarray,
    rhs_q: np.ndarray,
    qmax: int = 127,
    rhs_f32: Optional[np.ndarray] = None,
    exact_f32: bool = False,
    counts: Optional[OpCounts] = None,
    backend: BackendLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused per-row quantize + integer GEMM (serving hot path)."""
    acc, scales = active_backend(backend).rowwise_quantized_gemm(
        x, rhs_q, qmax, rhs_f32=rhs_f32, exact_f32=exact_f32
    )
    instrument.emit_quantize(int(np.asarray(x).size), counts)
    macs = int(np.asarray(x).shape[0] * rhs_q.shape[0] * rhs_q.shape[1])
    instrument.emit_int8_macs(macs, counts)
    return acc, scales


def rowwise_quantize(
    values: np.ndarray,
    qmax: int = 127,
    counts: Optional[OpCounts] = None,
    backend: BackendLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Materialized per-row quantization with scale-derivation accounting."""
    q, scales = active_backend(backend).rowwise_quantize(values, qmax)
    instrument.emit_quantize(int(np.asarray(values).size), counts)
    return q, scales


__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "available_backends",
    "get_backend",
    "set_default_backend",
    "default_backend_name",
    "active_backend",
    "use_backend",
    "matmul",
    "int8_gemm",
    "int8_depthwise",
    "int8_depthwise_grad",
    "rowwise_quantized_gemm",
    "rowwise_quantize",
]
