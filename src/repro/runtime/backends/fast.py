"""Fast kernel backend: BLAS-tiled integer GEMMs with preallocated scratch.

The core trick generalizes the serving engine's exact-float32 INT8 GEMM to
every integer kernel, training included: with int8 operands every product is
at most ``128^2`` and any partial sum of ``K`` products is bounded by
``K * 128^2``, so while that bound stays below 2^24 (float32's exact-integer
range) a float32 BLAS ``sgemm`` returns the exact integer accumulation — the
same answer as the INT32 path for every summation order, and roughly an
order of magnitude faster than NumPy's non-BLAS integer matmul.  Longer
reductions (the conv weight gradients, whose reduction runs over every
output position, and the depthwise weight gradients) are split into row
tiles of at most :data:`EXACT_GRAD_ROWS` by :func:`exact_tiled_sum`: each
tile is one exact float32 reduction and the tile results add up in int64.
The depthwise forward reduces over one kernel window per (position,
channel), inside a single tile.

Operand staging (int8 -> float32 casts, quantization levels) goes through
per-thread preallocated scratch buffers so the serving hot path stops paying
an allocation per request batch.  Scratch is only ever used for operands
inside a single kernel call — outputs are always freshly allocated, because
callers retain them (activation caches, futures).  Tiled reductions cast
each tile's slices transiently instead: scratch sized for a whole wide
operand would persist into the next step's peak memory.

Only int16/int32 ablation operands (and depthwise kernel windows past the
exact window) fall back to the reference integer path, so the fast backend
is bit-identical to the reference backend on every input.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.runtime.backends.reference import (
    ReferenceBackend,
    depthwise_tap_grad,
    depthwise_taps,
    integer_matmul,
    rowwise_levels,
    rowwise_scales,
)

def exact_f32_possible(
    reduce_dim: int, qmax: int = 127, rhs_max: int = 128
) -> bool:
    """True when an INT8 accumulation over ``reduce_dim`` is exact in f32.

    ``qmax`` bounds the quantized operand's magnitude (the repo's symmetric
    quantizers clip to ±qmax); ``rhs_max`` bounds the other operand and
    defaults to 128 because a raw ``int8`` array may contain -128 even
    though the quantizers never produce it.  Every partial sum then stays
    below ``reduce_dim * qmax * rhs_max``, which must fit inside float32's
    exact-integer range (2^24).
    """
    return reduce_dim * qmax * rhs_max < 2 ** 24


#: Reduction rows per exact float32 tile: each row adds one int8 product
#: bounded by 128^2 to every partial sum, so a tile of this many rows stays
#: inside float32's exact-integer range.
EXACT_GRAD_ROWS = (2 ** 24 - 1) // (128 * 128)


def exact_tiled_sum(
    partial: Callable[[slice], np.ndarray], rows: int
) -> np.ndarray:
    """Exact int64 reduction over ``rows`` as float32 tiles.

    ``partial(tile)`` returns the float32 reduction of the int8 products
    over the ``tile`` slice of the reduction rows; tiles hold at most
    :data:`EXACT_GRAD_ROWS` rows, so each result is exact, and the tile
    results are summed in int64.
    """
    total = partial(slice(0, EXACT_GRAD_ROWS)).astype(np.int64)
    for start in range(EXACT_GRAD_ROWS, rows, EXACT_GRAD_ROWS):
        total += partial(slice(start, start + EXACT_GRAD_ROWS)).astype(
            np.int64)
    return total


class FastBackend(ReferenceBackend):
    """Exact-float32 integer kernels + scratch-buffer operand staging.

    Subclasses the reference backend so the integer fallbacks and the
    kernel it does not accelerate (materialized row-wise quantization)
    exist exactly once — any fix there cannot diverge between backends.
    """

    name = "fast"
    wants_f32_rhs = True

    def __init__(self) -> None:
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    def _scratch(self, tag: str, shape: Tuple[int, ...]) -> np.ndarray:
        """Per-thread reusable float32 buffer for operand staging."""
        buffers: Dict[str, np.ndarray] = getattr(self._local, "buffers", None)
        if buffers is None:
            buffers = {}
            self._local.buffers = buffers
        buf = buffers.get(tag)
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if buf is None or buf.size < size:
            buf = np.empty(max(size, 1), dtype=np.float32)
            buffers[tag] = buf
        return buf[:size].reshape(shape)

    def _stage_f32(self, tag: str, values: np.ndarray) -> np.ndarray:
        """Cast an integer operand into a staged float32 buffer."""
        out = self._scratch(tag, values.shape)
        out[...] = values
        return out

    def _stage_padded(
        self, tag: str, x_q: np.ndarray, padding: Tuple[int, int]
    ) -> np.ndarray:
        """Cast an NHWC operand into a staged, zero-padded float32 buffer."""
        batch, height, width, channels = x_q.shape
        pad_h, pad_w = padding
        out = self._scratch(
            tag, (batch, height + 2 * pad_h, width + 2 * pad_w, channels))
        out[:, :pad_h] = 0
        out[:, pad_h + height:] = 0
        out[:, pad_h : pad_h + height, :pad_w] = 0
        out[:, pad_h : pad_h + height, pad_w + width:] = 0
        out[:, pad_h : pad_h + height, pad_w : pad_w + width] = x_q
        return out

    # ------------------------------------------------------------------ #
    def int8_gemm(self, lhs_q: np.ndarray, rhs_q: np.ndarray) -> np.ndarray:
        # Raw int8 operands may contain -128 on either side, so both
        # magnitude bounds are 128 here (quantizer-fed callers that clip to
        # ±qmax get the tighter bound via rowwise_quantized_gemm).  A K past
        # one exact tile (the conv weight gradients, reducing over output
        # positions) runs as 1023-row float32 sgemms summed in int64; only
        # int16/int32 operands fall back to the integer matmul.
        if lhs_q.dtype != np.int8 or rhs_q.dtype != np.int8:
            return integer_matmul(lhs_q, rhs_q)
        inner = lhs_q.shape[-1]
        if exact_f32_possible(inner, qmax=128, rhs_max=128):
            lhs_f32 = self._stage_f32("int8_gemm_lhs", lhs_q)
            rhs_f32 = self._stage_f32("int8_gemm_rhs", rhs_q)
            return lhs_f32 @ rhs_f32
        return exact_tiled_sum(
            lambda tile: (lhs_q[..., tile].astype(np.float32)
                          @ rhs_q[tile].astype(np.float32)),
            inner,
        )

    def int8_depthwise(
        self, cols_q: np.ndarray, weight_q: np.ndarray
    ) -> np.ndarray:
        # The per-(position, channel) reduction spans kernel_area products
        # bounded by 128^2, far inside float32's exact window: the float
        # einsum vectorizes where the integer einsum cannot.
        if not (
            cols_q.dtype == np.int8
            and weight_q.dtype == np.int8
            and exact_f32_possible(cols_q.shape[2], qmax=128, rhs_max=128)
        ):
            return super().int8_depthwise(cols_q, weight_q)
        out = np.einsum(
            "pck,ck->pc",
            cols_q.astype(np.float32),
            weight_q.astype(np.float32),
        )
        return out.astype(np.int64)

    def int8_depthwise_grad(
        self, grad_q: np.ndarray, cols_q: np.ndarray
    ) -> np.ndarray:
        # The reduction spans every position and leaves the float32 exact
        # window on realistic feature maps, so it runs as exact row tiles.
        positions = cols_q.shape[0]
        if not (
            grad_q.dtype == np.int8 and cols_q.dtype == np.int8 and positions
        ):
            return super().int8_depthwise_grad(grad_q, cols_q)
        return exact_tiled_sum(
            lambda tile: np.einsum(
                "pc,pck->ck",
                grad_q[tile].astype(np.float32),
                cols_q[tile].astype(np.float32),
            ),
            positions,
        )

    def int8_depthwise_taps(
        self,
        x_q: np.ndarray,
        weight_q: np.ndarray,
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> np.ndarray:
        # Each output sums kernel_area products bounded by 128^2, as in
        # int8_depthwise; the result is float32 holding exact integers.
        kernel_area = weight_q.shape[1] * weight_q.shape[2]
        if not (
            x_q.dtype == np.int8
            and weight_q.dtype == np.int8
            and exact_f32_possible(kernel_area, qmax=128, rhs_max=128)
        ):
            return super().int8_depthwise_taps(x_q, weight_q, stride, padding)
        return depthwise_taps(
            self._stage_padded("taps_x", x_q, padding),
            weight_q.astype(np.float32),
            stride,
        )

    def int8_depthwise_taps_grad(
        self,
        grad_q: np.ndarray,
        x_q: np.ndarray,
        kernel: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> np.ndarray:
        # Each tap's (positions, channels) products are summed over exact
        # row tiles; a tile's column sums are one sgemv with a ones vector.
        if not (grad_q.dtype == np.int8 and x_q.dtype == np.int8
                and grad_q.size):
            return super().int8_depthwise_taps_grad(
                grad_q, x_q, kernel, stride, padding)
        ones = np.ones(EXACT_GRAD_ROWS, dtype=np.float32)

        def exact_sum(products: np.ndarray) -> np.ndarray:
            def column_sums(tile: slice) -> np.ndarray:
                rows = products[tile]
                return ones[: len(rows)] @ rows

            return exact_tiled_sum(column_sums, len(products))

        return depthwise_tap_grad(
            self._stage_f32("taps_grad", grad_q),
            self._stage_padded("taps_x", x_q, padding),
            kernel, stride, exact_sum,
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
        # Fused quantize+GEMM: the nearest-rounded clipped levels are
        # already exact small integers in float32, so they feed sgemm
        # directly — the int8 round-trip is never materialized.
        levels = rowwise_levels(x, scales, qmax)
        if exact_f32 or exact_f32_possible(rhs_q.shape[0], qmax):
            if rhs_f32 is None:
                rhs_f32 = self._stage_f32("rowwise_rhs", rhs_q)
            return levels @ rhs_f32, scales
        acc = exact_tiled_sum(
            lambda tile: levels[..., tile] @ rhs_q[tile].astype(np.float32),
            rhs_q.shape[0],
        )
        return acc, scales

    # rowwise_quantize: inherited from ReferenceBackend (already allocation-
    # minimal; the fusion win lives in rowwise_quantized_gemm above).
