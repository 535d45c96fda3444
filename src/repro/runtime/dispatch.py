"""Kernel dispatch: one entry point per dense kernel, for every caller.

The nn layers, the training :class:`~repro.quant.int8_ops.Int8Engine`, and
the serving :class:`~repro.serve.engine.FrozenInt8Kernel` all execute their
GEMMs through the functions in this module.  Dispatch does three things:

* resolve the **active backend** (explicit argument > thread-local
  override from :func:`use_backend` > ``REPRO_BACKEND`` env var > process
  default),
* check :func:`int8_gemm`'s operand dtypes and inner dimensions,
* run the kernel on that backend.

Nothing here counts operations.  Table IV's op counts come from the module
tap (:func:`repro.hardware.profile_bundle` via
:mod:`repro.runtime.instrument`), and per-step wall time from the
executor's :mod:`repro.obs` spans.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.runtime.backends import Backend, available_backends, get_backend

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
    """Full-precision GEMM ``a @ b``."""
    return active_backend(backend).matmul(a, b)


def int8_gemm(
    lhs_q: np.ndarray,
    rhs_q: np.ndarray,
    backend: BackendLike = None,
) -> np.ndarray:
    """Exact integer GEMM ``lhs_q @ rhs_q``.

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
    return active_backend(backend).int8_gemm(lhs_q, rhs_q)


def int8_depthwise(
    cols_q: np.ndarray,
    weight_q: np.ndarray,
    backend: BackendLike = None,
) -> np.ndarray:
    """Exact integer depthwise inner product."""
    return active_backend(backend).int8_depthwise(cols_q, weight_q)


def int8_depthwise_grad(
    grad_q: np.ndarray,
    cols_q: np.ndarray,
    backend: BackendLike = None,
) -> np.ndarray:
    """Exact integer depthwise weight gradient."""
    return active_backend(backend).int8_depthwise_grad(grad_q, cols_q)


def rowwise_quantized_gemm(
    x: np.ndarray,
    rhs_q: np.ndarray,
    qmax: int = 127,
    rhs_f32: Optional[np.ndarray] = None,
    exact_f32: bool = False,
    backend: BackendLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused per-row quantize + integer GEMM (serving hot path)."""
    return active_backend(backend).rowwise_quantized_gemm(
        x, rhs_q, qmax, rhs_f32=rhs_f32, exact_f32=exact_f32
    )


def rowwise_quantize(
    values: np.ndarray,
    qmax: int = 127,
    backend: BackendLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Materialized per-row quantization."""
    return active_backend(backend).rowwise_quantize(values, qmax)


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
