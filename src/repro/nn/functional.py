"""Stateless numerical primitives used by layers, losses and trainers.

This module contains the im2col/col2im machinery behind convolution layers,
numerically-stable softmax/log-softmax, and small helpers (one-hot encoding,
L2 length normalization) shared between the backprop and Forward-Forward
training paths.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

try:  # NumPy >= 1.20
    from numpy.lib.stride_tricks import sliding_window_view
except ImportError:  # pragma: no cover - ancient NumPy
    sliding_window_view = None


# --------------------------------------------------------------------------- #
# shape helpers
# --------------------------------------------------------------------------- #
def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size "
            f"(input={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


# --------------------------------------------------------------------------- #
# im2col / col2im
# --------------------------------------------------------------------------- #
def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Unfold ``(N, C, H, W)`` into ``(N * out_h * out_w, C * kh * kw)`` patches.

    The column layout matches the weight reshape ``(out_c, C * kh * kw)`` used
    by :class:`repro.nn.conv.Conv2d`, so the convolution reduces to one GEMM —
    the same lowering that INT8 engines on edge devices use, which keeps the
    operation counting in :mod:`repro.hardware` faithful.

    Patch gathering goes through :func:`numpy.lib.stride_tricks.
    sliding_window_view` (one strided view + one copy at the final reshape)
    instead of a per-tap Python loop; both produce the identical array —
    every column element is a pure copy of an input element — so the choice
    is invisible to everything downstream.
    """
    batch, channels, height, width = x.shape
    if _pointwise(kernel, stride, padding):
        # 1x1, stride 1, no padding: the columns are the NHWC pixels.
        return x.transpose(0, 2, 3, 1).copy().reshape(-1, channels)
    kernel_h, kernel_w = kernel
    stride_h, stride_w = stride
    pad_h, pad_w = padding
    out_h = conv_output_size(height, kernel_h, stride_h, pad_h)
    out_w = conv_output_size(width, kernel_w, stride_w, pad_w)

    padded = np.pad(
        x, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)), mode="constant"
    )
    if sliding_window_view is not None:
        windows = sliding_window_view(
            padded, (kernel_h, kernel_w), axis=(2, 3)
        )[:, :, ::stride_h, ::stride_w]
        return np.ascontiguousarray(
            windows.transpose(0, 2, 3, 1, 4, 5)
        ).reshape(batch * out_h * out_w, channels * kernel_h * kernel_w)
    cols = np.empty(
        (batch, channels, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype
    )
    for row in range(kernel_h):
        row_end = row + stride_h * out_h
        for col in range(kernel_w):
            col_end = col + stride_w * out_w
            cols[:, :, row, col, :, :] = padded[
                :, :, row:row_end:stride_h, col:col_end:stride_w
            ]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch * out_h * out_w, channels * kernel_h * kernel_w
    )


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Fold patch columns back into ``(N, C, H, W)``, summing overlaps.

    This is the adjoint of :func:`im2col` and is used to propagate gradients
    to convolution inputs.
    """
    batch, channels, height, width = input_shape
    if _pointwise(kernel, stride, padding):
        # One transposing copy; adding +0.0 turns -0.0 into +0.0 as the
        # general path's zeros-then-add does.
        pixels = cols.reshape(batch, height, width, channels)
        return np.add(pixels.transpose(0, 3, 1, 2), 0.0,
                      out=np.empty(input_shape, dtype=cols.dtype))
    kernel_h, kernel_w = kernel
    stride_h, stride_w = stride
    pad_h, pad_w = padding
    out_h = conv_output_size(height, kernel_h, stride_h, pad_h)
    out_w = conv_output_size(width, kernel_w, stride_w, pad_w)

    cols = cols.reshape(batch, out_h, out_w, channels, kernel_h, kernel_w)
    cols = cols.transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros(
        (batch, channels, height + 2 * pad_h, width + 2 * pad_w), dtype=cols.dtype
    )
    for row in range(kernel_h):
        row_end = row + stride_h * out_h
        for col in range(kernel_w):
            col_end = col + stride_w * out_w
            padded[:, :, row:row_end:stride_h, col:col_end:stride_w] += cols[
                :, :, row, col, :, :
            ]
    if pad_h == 0 and pad_w == 0:
        return padded
    return padded[:, :, pad_h : pad_h + height, pad_w : pad_w + width]


def _pointwise(
    kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]
) -> bool:
    """True for a 1x1, stride-1, unpadded convolution."""
    return tuple(kernel) == (1, 1) and tuple(stride) == (1, 1) and (
        tuple(padding) == (0, 0))


def depthwise_input_grad(
    grad: np.ndarray,
    weight: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Input gradient of a depthwise convolution, tap by tap.

    ``grad`` is the ``(N, out_h, out_w, C)`` output gradient and
    ``weight`` ``(C, kh, kw)``.  Each tap adds ``grad * weight[:, r, s]``
    into a zero-padded NHWC buffer, in the order :func:`col2im` folds
    patch columns, so the ``(N, C, H, W)`` result (C-contiguous) equals
    ``col2im`` of the per-tap products bit for bit, without building them.
    """
    batch, channels, height, width = input_shape
    kernel_h, kernel_w = weight.shape[1:]
    stride_h, stride_w = stride
    pad_h, pad_w = padding
    _, out_h, out_w, _ = grad.shape
    dtype = np.result_type(grad, weight)
    padded = np.zeros(
        (batch, height + 2 * pad_h, width + 2 * pad_w, channels), dtype=dtype
    )
    product = np.empty(grad.shape, dtype=dtype)
    for row in range(kernel_h):
        row_end = row + stride_h * (out_h - 1) + 1
        for col in range(kernel_w):
            col_end = col + stride_w * (out_w - 1) + 1
            np.multiply(grad, weight[:, row, col], out=product)
            padded[:, row:row_end:stride_h, col:col_end:stride_w] += product
    inner = padded[:, pad_h : pad_h + height, pad_w : pad_w + width]
    return np.ascontiguousarray(inner.transpose(0, 3, 1, 2))


# --------------------------------------------------------------------------- #
# classification math
# --------------------------------------------------------------------------- #
def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer labels into ``(N, num_classes)`` float32."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def softplus(x: np.ndarray) -> np.ndarray:
    """Numerically stable ``log(1 + exp(x))`` (used by the FF losses)."""
    return np.logaddexp(0.0, x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out.astype(np.float32)


def l2_normalize(x: np.ndarray, axis: int = -1, eps: float = 1e-8) -> np.ndarray:
    """Scale each sample to unit L2 norm.

    The Forward-Forward algorithm normalizes layer inputs so that the goodness
    (activity magnitude) of the previous layer cannot leak trivially into the
    next layer's goodness.
    """
    flat_axes = tuple(range(1, x.ndim)) if axis == -1 and x.ndim > 2 else (axis,)
    norm = np.sqrt(np.sum(np.square(x), axis=flat_axes, keepdims=True))
    return x / (norm + eps)


def flatten_batch(x: np.ndarray) -> np.ndarray:
    """Reshape ``(N, ...)`` into ``(N, features)`` without copying when possible."""
    return x.reshape(x.shape[0], -1)
