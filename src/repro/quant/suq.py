"""Symmetric uniform quantization (SUQ).

SUQ maps a real tensor ``x`` to integer levels ``q = round(x / scale)`` with a
single (or per-channel) positive ``scale`` chosen so that the extreme value of
``x`` maps to the extreme representable level.  The zero point is always 0,
which is what makes the integer matmul hardware-friendly (no cross terms),
and is the quantizer the paper builds FF-INT8 on (Section IV).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.quant.qconfig import QuantConfig
from repro.quant.rounding import apply_rounding
from repro.utils.rng import RngLike

#: Elements per chunk of :func:`quantize`: the float64 temporaries of one
#: chunk (128 KiB each) stay in cache, and the Python loop runs once per
#: 16 K elements.
CHUNK = 16384


def compute_scale(
    values: np.ndarray,
    qmax: int,
    percentile: Optional[float] = None,
    axis: Optional[int] = None,
    eps: float = 1e-12,
) -> np.ndarray:
    """Return the SUQ scale(s) for ``values``.

    Parameters
    ----------
    values:
        Tensor to be quantized.
    qmax:
        Largest positive integer level (127 for INT8).
    percentile:
        If given, clip the dynamic range at this percentile of ``|values|``
        instead of the absolute maximum (robust to outliers — the mechanism
        GDAI8-style gradient quantizers rely on).
    axis:
        If given, compute one scale per index along ``axis`` (per-channel
        quantization for weights); otherwise a single per-tensor scale.

    The absolute maximum is ``max(values.max(), -values.min())`` in the
    input's own float dtype (no float64 copy of the tensor); only the
    percentile path builds a float64 ``|values|``.
    """
    values = np.asarray(values)
    if values.dtype.kind != "f":
        values = values.astype(np.float64)
    use_percentile = percentile is not None and percentile < 100.0
    if axis is None:
        if not values.size:
            extreme = 0.0
        elif use_percentile:
            extreme = np.percentile(np.abs(values, dtype=np.float64), percentile)
        else:
            extreme = max(values.max(), -values.min())
        return np.float64(max(float(extreme), eps) / qmax)

    moved = np.moveaxis(values, axis, 0).reshape(values.shape[axis], -1)
    if use_percentile:
        extreme = np.percentile(np.abs(moved, dtype=np.float64), percentile, axis=1)
    elif moved.size:
        extreme = np.maximum(moved.max(axis=1), -moved.min(axis=1))
    else:
        extreme = np.zeros(moved.shape[0])
    return np.maximum(extreme.astype(np.float64), eps) / qmax


def quantize(
    values: np.ndarray,
    config: QuantConfig,
    scale: Optional[np.ndarray] = None,
    axis: Optional[int] = None,
    rng: RngLike = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize ``values`` to integer levels.

    Returns ``(q, scale)`` where ``q`` is an integer array (int8 when
    ``config.bits <= 8``, int16 up to 16 bits, otherwise int32) and
    ``scale`` the positive step size(s) needed to dequantize
    (``x ≈ q * scale``).

    ``values`` is streamed in C order of its logical index, ``CHUNK``
    elements at a time, whatever its memory layout.  Each chunk is divided
    by its scale in float64, rounded by :func:`apply_rounding`, clipped and
    written into the preallocated integer output, so the levels equal those
    of rounding the whole tensor at once.  Stochastic rounding draws one
    ``rng.random`` double per element in that order (``values.size`` in
    all) and leaves the generator where a single whole-tensor draw would;
    nearest rounding draws none.  ``rng`` is a generator or seed; ``None``
    means ``config.rng()``.  Besides ``q``, memory use is O(``CHUNK``) for
    any tensor size and any scale shape (per-tensor or per-channel).
    """
    values = np.asarray(values, dtype=np.float32)
    if scale is None:
        channel_axis = axis if config.per_channel and axis is not None else None
        scale = compute_scale(
            values, config.qmax, percentile=config.percentile, axis=channel_axis
        )
    scale = np.asarray(scale, dtype=np.float64)
    if axis is not None and scale.ndim == 1:
        broadcast_shape = [1] * values.ndim
        broadcast_shape[axis] = scale.shape[0]
        scale_b = scale.reshape(broadcast_shape)
    else:
        scale_b = scale
    rng = config.rng(rng)
    if config.bits <= 8:
        dtype = np.int8
    elif config.bits <= 16:
        dtype = np.int16
    else:
        dtype = np.int32
    q = np.empty(values.shape, dtype=dtype)
    # Casting every operand to float64 makes nditer buffer all three, so each
    # chunk holds up to CHUNK elements in C order even for strided input or
    # a broadcast scale (unbuffered, chunks would shrink to the inner axis);
    # each chunk of levels is cast into ``q`` when it is written back.
    with np.nditer(
        [values, scale_b, q],
        flags=["external_loop", "buffered", "zerosize_ok"],
        op_flags=[["readonly"], ["readonly"], ["writeonly"]],
        op_dtypes=[np.float64] * 3,
        casting="unsafe",
        order="C",
        buffersize=CHUNK,
    ) as chunks:
        for chunk, chunk_scale, levels in chunks:
            rounded = apply_rounding(chunk / chunk_scale, config.rounding, rng=rng)
            np.clip(rounded, config.qmin, config.qmax, out=levels)
    return q, scale


def dequantize(
    q: np.ndarray, scale: np.ndarray, axis: Optional[int] = None
) -> np.ndarray:
    """Reconstruct real values from integer levels and scale(s)."""
    scale = np.asarray(scale, dtype=np.float64)
    if axis is not None and scale.ndim == 1:
        broadcast_shape = [1] * q.ndim
        broadcast_shape[axis] = scale.shape[0]
        scale = scale.reshape(broadcast_shape)
    return (q.astype(np.float64) * scale).astype(np.float32)


def fake_quantize(
    values: np.ndarray,
    config: QuantConfig,
    axis: Optional[int] = None,
    rng: RngLike = None,
) -> np.ndarray:
    """Quantize then immediately dequantize (simulated quantization error).

    Used by the naive BP-INT8 baseline to inject gradient quantization error
    while keeping the update rule in floating point, and by tests that check
    error bounds of the quantizer.
    """
    q, scale = quantize(values, config, axis=axis, rng=rng)
    channel_axis = axis if config.per_channel and axis is not None else None
    return dequantize(q, scale, axis=channel_axis)


def quantization_error(values: np.ndarray, config: QuantConfig) -> float:
    """Mean absolute error introduced by quantizing ``values`` (per-tensor)."""
    reconstructed = fake_quantize(values, config)
    return float(np.mean(np.abs(values - reconstructed)))
