"""Kernel backend protocol.

A backend supplies the handful of dense kernels every execution path in the
repo reduces to.  Callers (the nn layers, the training INT8 engine, the
frozen serving kernels) never compute a GEMM themselves — they route through
:mod:`repro.runtime.dispatch`, which picks the active backend.  Adding a
backend (a real accelerator) means implementing this protocol in one file
and registering it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class Backend:
    """Abstract kernel set; subclasses override whichever kernels they own."""

    #: registry key; subclasses must set a unique name
    name = "abstract"

    #: capability flag: True when :meth:`rowwise_quantized_gemm` can exploit
    #: a caller-precomputed float32 copy of ``rhs_q`` (``rhs_f32``).  Callers
    #: holding frozen weights consult this so backends that never read the
    #: copy don't force its materialization.
    wants_f32_rhs = False

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Full-precision GEMM ``a @ b``."""
        raise NotImplementedError

    def int8_gemm(self, lhs_q: np.ndarray, rhs_q: np.ndarray) -> np.ndarray:
        """Integer GEMM over quantized operands.

        Must return the *exact* integer accumulation ``lhs_q @ rhs_q``; the
        dtype of the accumulator is backend-specific (int32/int64, float32
        holding exact integers, or int64 summed from exact float32 tiles) —
        callers rescale with ``astype``.
        """
        raise NotImplementedError

    def int8_depthwise(
        self, cols_q: np.ndarray, weight_q: np.ndarray
    ) -> np.ndarray:
        """Exact integer depthwise inner product ``pck,ck->pc``."""
        raise NotImplementedError

    def int8_depthwise_grad(
        self, grad_q: np.ndarray, cols_q: np.ndarray
    ) -> np.ndarray:
        """Exact integer depthwise weight gradient ``pc,pck->ck``."""
        raise NotImplementedError

    def int8_depthwise_taps(
        self,
        x_q: np.ndarray,
        weight_q: np.ndarray,
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> np.ndarray:
        """Exact integer depthwise convolution of an NHWC input.

        ``x_q`` is ``(N, H, W, C)`` (zero padding is implied) and
        ``weight_q`` is ``(C, kh, kw)``; returns the ``(N, out_h, out_w,
        C)`` accumulator, summed tap by tap, in a backend-specific dtype
        holding exact integers.
        """
        raise NotImplementedError

    def int8_depthwise_taps_grad(
        self,
        grad_q: np.ndarray,
        x_q: np.ndarray,
        kernel: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> np.ndarray:
        """Exact integer depthwise weight gradient of an NHWC input.

        ``grad_q`` is ``(N, out_h, out_w, C)`` and ``x_q`` ``(N, H, W,
        C)``; returns the ``(C, kh, kw)`` sums over every output position.
        """
        raise NotImplementedError

    def rowwise_quantized_gemm(
        self,
        x: np.ndarray,
        rhs_q: np.ndarray,
        qmax: int,
        rhs_f32: Optional[np.ndarray] = None,
        exact_f32: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused per-row quantization + integer GEMM (the serving hot path).

        Quantizes each row of ``x`` with its own nearest-rounding scale and
        multiplies against the pre-quantized ``rhs_q``; returns
        ``(accumulator, row_scales)``.  ``rhs_f32``/``exact_f32`` are
        optional operand hints (in the spirit of BLAS workspace arguments):
        backends with :attr:`wants_f32_rhs` may use the caller's precomputed
        float32 operand when ``exact_f32`` certifies the accumulation is
        exactly representable in float32; all others ignore them.
        """
        raise NotImplementedError

    def rowwise_quantize(
        self, values: np.ndarray, qmax: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Materialized per-row quantization ``(int8 levels, row scales)``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
