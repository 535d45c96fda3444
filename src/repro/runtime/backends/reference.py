"""Reference kernel backend: plain NumPy, bit-identical to the seed code.

Every kernel here is the exact arithmetic the repo shipped with before the
runtime layer existed: FP32 GEMMs via ``@``, integer GEMMs with INT8 operands
accumulated in INT32 (INT64 for the wide-operand bit-width ablations),
depthwise inner products via integer ``einsum``, and the training
depthwise kernels as shifted taps over the padded input in INT64.  The
reference backend is the correctness oracle the fast backend is tested
against.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.runtime.backends.base import Backend


def integer_matmul(lhs_q: np.ndarray, rhs_q: np.ndarray) -> np.ndarray:
    """Integer GEMM with INT32 accumulation (INT64 for wide operands).

    Shared by both backends as the exactness fallback: products of int8
    operands are 16-bit and INT32 accumulation never overflows for
    K < 2^16; wider operands (int16/int32) accumulate in INT64.
    """
    narrow = lhs_q.dtype == np.int8 and rhs_q.dtype == np.int8
    accumulator = np.int32 if narrow else np.int64
    return lhs_q.astype(accumulator) @ rhs_q.astype(accumulator)


def pad_nhwc(
    x: np.ndarray, padding: Tuple[int, int], dtype: Optional[np.dtype] = None
) -> np.ndarray:
    """Zero-pad the two spatial axes of an ``(N, H, W, C)`` array.

    Returns a fresh C-contiguous array of ``dtype`` (default: ``x``'s).
    """
    batch, height, width, channels = x.shape
    pad_h, pad_w = padding
    padded = np.zeros(
        (batch, height + 2 * pad_h, width + 2 * pad_w, channels),
        dtype=x.dtype if dtype is None else dtype,
    )
    padded[:, pad_h : pad_h + height, pad_w : pad_w + width] = x
    return padded


def _tap(
    x_pad: np.ndarray, row: int, col: int, stride: Tuple[int, int],
    out_h: int, out_w: int,
) -> np.ndarray:
    """View of the ``(row, col)`` kernel tap: ``x_pad[:, i*sh + row, j*sw + col]``."""
    stride_h, stride_w = stride
    return x_pad[
        :,
        row : row + stride_h * (out_h - 1) + 1 : stride_h,
        col : col + stride_w * (out_w - 1) + 1 : stride_w,
    ]


def depthwise_taps(
    x_pad: np.ndarray, weight: np.ndarray, stride: Tuple[int, int]
) -> np.ndarray:
    """Depthwise convolution as shifted taps over a zero-padded NHWC input.

    ``out[n, i, j, c] = sum_{r,s} x_pad[n, i*sh + r, j*sw + s, c] *
    weight[c, r, s]`` for ``x_pad`` of shape ``(N, Hp, Wp, C)`` and
    ``weight`` of shape ``(C, kh, kw)``, accumulated tap by tap in the
    operands' common dtype; returns ``(N, out_h, out_w, C)``.  Shared by
    both backends (integers here, exact float32 in ``fast``) and by the
    FP32 :class:`~repro.nn.conv.DepthwiseConv2d`.
    """
    batch, height, width, channels = x_pad.shape
    kernel_h, kernel_w = weight.shape[1:]
    out_h = (height - kernel_h) // stride[0] + 1
    out_w = (width - kernel_w) // stride[1] + 1
    out = np.empty(
        (batch, out_h, out_w, channels), dtype=np.result_type(x_pad, weight)
    )
    product = np.empty_like(out)
    for row in range(kernel_h):
        for col in range(kernel_w):
            tap = _tap(x_pad, row, col, stride, out_h, out_w)
            if row == col == 0:
                np.multiply(tap, weight[:, 0, 0], out=out)
            else:
                np.multiply(tap, weight[:, row, col], out=product)
                out += product
    return out


def depthwise_tap_grad(
    grad: np.ndarray,
    x_pad: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    reduce: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Depthwise weight gradient as one reduction per shifted tap.

    ``out[c, r, s] = sum_{n,i,j} grad[n, i, j, c] * x_pad[n, i*sh + r,
    j*sw + s, c]`` for ``grad`` of shape ``(N, out_h, out_w, C)``; returns
    ``(C, kh, kw)``.  ``reduce`` sums each tap's ``(positions, C)``
    products over positions (default: one ``sum`` in their dtype).
    """
    batch, out_h, out_w, channels = grad.shape
    kernel_h, kernel_w = kernel
    product = np.empty(grad.shape, dtype=np.result_type(grad, x_pad))
    flat = product.reshape(-1, channels)
    taps = []
    for row in range(kernel_h):
        for col in range(kernel_w):
            np.multiply(grad, _tap(x_pad, row, col, stride, out_h, out_w),
                        out=product)
            taps.append(flat.sum(axis=0) if reduce is None else reduce(flat))
    return np.stack(taps, axis=1).reshape(channels, kernel_h, kernel_w)


def rowwise_scales(values: np.ndarray, qmax: int) -> np.ndarray:
    """Per-row symmetric quantization scales (float32, never zero)."""
    flat = np.abs(values.reshape(values.shape[0], -1))
    extremes = flat.max(axis=1) if flat.size else np.zeros(
        values.shape[0], dtype=np.float32
    )
    return (np.maximum(extremes, np.float32(1e-12)) / np.float32(qmax)).astype(
        np.float32
    )


def rowwise_levels(
    values: np.ndarray, scales: np.ndarray, qmax: int
) -> np.ndarray:
    """Nearest-rounded, clipped quantization levels as float32 integers."""
    levels = values / scales.reshape((-1,) + (1,) * (values.ndim - 1))
    np.rint(levels, out=levels)
    np.clip(levels, -qmax, qmax, out=levels)
    return levels


class ReferenceBackend(Backend):
    """The seed NumPy kernels, unchanged."""

    name = "reference"

    # ------------------------------------------------------------------ #
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def int8_gemm(self, lhs_q: np.ndarray, rhs_q: np.ndarray) -> np.ndarray:
        return integer_matmul(lhs_q, rhs_q)

    def int8_depthwise(
        self, cols_q: np.ndarray, weight_q: np.ndarray
    ) -> np.ndarray:
        return np.einsum(
            "pck,ck->pc",
            cols_q.astype(np.int32),
            weight_q.astype(np.int32),
            dtype=np.int64,
        )

    def int8_depthwise_grad(
        self, grad_q: np.ndarray, cols_q: np.ndarray
    ) -> np.ndarray:
        return np.einsum(
            "pc,pck->ck",
            grad_q.astype(np.int32),
            cols_q.astype(np.int32),
            dtype=np.int64,
        )

    def int8_depthwise_taps(
        self,
        x_q: np.ndarray,
        weight_q: np.ndarray,
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> np.ndarray:
        return depthwise_taps(
            pad_nhwc(x_q, padding, np.int64), weight_q.astype(np.int64), stride
        )

    def int8_depthwise_taps_grad(
        self,
        grad_q: np.ndarray,
        x_q: np.ndarray,
        kernel: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> np.ndarray:
        return depthwise_tap_grad(
            grad_q.astype(np.int64), pad_nhwc(x_q, padding, np.int64),
            kernel, stride,
        )

    def rowwise_quantized_gemm(
        self,
        x: np.ndarray,
        rhs_q: np.ndarray,
        qmax: int,
        rhs_f32: Optional[np.ndarray] = None,
        exact_f32: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float32)
        scales = rowwise_scales(x, qmax)
        q = rowwise_levels(x, scales, qmax).astype(np.int8)
        return integer_matmul(q, rhs_q), scales

    def rowwise_quantize(
        self, values: np.ndarray, qmax: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        values = np.asarray(values, dtype=np.float32)
        scales = rowwise_scales(values, qmax)
        q = rowwise_levels(values, scales, qmax).astype(np.int8)
        return q, scales
