"""Fast kernel backend: BLAS-tiled integer GEMMs with preallocated scratch.

The core trick generalizes the serving engine's exact-float32 INT8 GEMM to
every integer kernel, training included: with int8 operands every product is
at most ``qmax^2`` and any partial sum of ``K`` products is bounded by
``K * qmax^2``, so while that bound stays below 2^24 (float32's exact-integer
range) a float32 BLAS ``sgemm`` returns the exact integer accumulation — the
same answer as the INT32 path for every summation order, and roughly an
order of magnitude faster than NumPy's non-BLAS integer matmul.

Operand staging (int8 -> float32 casts, quantization levels) goes through
per-thread preallocated scratch buffers so the serving hot path stops paying
an allocation per request batch.  Scratch is only ever used for operands
inside a single kernel call — outputs are always freshly allocated, because
callers retain them (activation caches, futures).

When exactness cannot be guaranteed (wide reduction dimensions, int16/int32
ablation operands) the kernels fall back to the reference integer path, so
the fast backend is bit-identical to the reference backend on every input.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.runtime.backends.reference import (
    ReferenceBackend,
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


class FastBackend(ReferenceBackend):
    """Exact-float32 integer GEMMs + scratch-buffer operand staging.

    Subclasses the reference backend so the kernels it does not accelerate
    (depthwise einsums, materialized row-wise quantization) exist exactly
    once — any fix there cannot diverge between backends.
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

    # ------------------------------------------------------------------ #
    def int8_gemm(self, lhs_q: np.ndarray, rhs_q: np.ndarray) -> np.ndarray:
        # Raw int8 operands may contain -128 on either side, so both
        # magnitude bounds are 128 here (quantizer-fed callers that clip to
        # ±qmax get the tighter bound via rowwise_quantized_gemm).
        if (
            lhs_q.dtype == np.int8
            and rhs_q.dtype == np.int8
            and exact_f32_possible(lhs_q.shape[-1], qmax=128, rhs_max=128)
        ):
            lhs_f32 = self._stage_f32("int8_gemm_lhs", lhs_q)
            rhs_f32 = self._stage_f32("int8_gemm_rhs", rhs_q)
            return lhs_f32 @ rhs_f32
        return integer_matmul(lhs_q, rhs_q)

    # int8_depthwise / int8_depthwise_grad: inherited from ReferenceBackend.
    # Neither kernel maps onto a single BLAS call (the forward reduction is
    # kernel_area-sized, the gradient spans all positions and exceeds the
    # float32 exact-integer window for realistic feature maps); the
    # ``parallel`` backend owns the accelerated versions — tiled float32
    # einsums with an exact-window row cap, plus the optional numba path.

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
        if exact_f32 or exact_f32_possible(rhs_q.shape[0], qmax):
            # Fused quantize+GEMM: the nearest-rounded clipped levels are
            # already exact small integers in float32, so they feed sgemm
            # directly — the int8 round-trip is never materialized.
            levels = x / scales.reshape((-1,) + (1,) * (x.ndim - 1))
            np.rint(levels, out=levels)
            np.clip(levels, -qmax, qmax, out=levels)
            if rhs_f32 is None:
                rhs_f32 = self._stage_f32("rowwise_rhs", rhs_q)
            return levels @ rhs_f32, scales
        q = rowwise_levels(x, scales, qmax).astype(np.int8)
        return integer_matmul(q, rhs_q), scales

    # rowwise_quantize: inherited from ReferenceBackend (already allocation-
    # minimal; the fusion win lives in rowwise_quantized_gemm above).
