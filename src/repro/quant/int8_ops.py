"""The training-side INT8 engine: quantize, integer GEMM, rescale.

These GEMMs are the computational heart of FF-INT8 (Figure 4 of the paper):
the forward activation matmul and the weight-gradient matmul both run on
``int8`` operands, exactly like the INT8 engine on a Jetson Orin Nano.

The kernels themselves live in the pluggable backends (``reference`` keeps
the seed INT32-accumulation NumPy path, ``fast`` uses exact-float32 BLAS
GEMMs); this module keeps the quantization *policy* — SUQ scale
derivation, stochastic rounding, the requantization rescale — and routes
every matmul through :mod:`repro.runtime.dispatch`.  Table IV's operation
counts are not tallied here; they come from the profiled model
(:func:`repro.hardware.profile_bundle`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.quant.qconfig import QuantConfig
from repro.quant.suq import quantize
from repro.runtime import dispatch
from repro.utils.rng import RngLike

__all__ = ["Int8Engine"]


class Int8Engine:
    """Quantized execution engine attached to Linear / Conv2d modules.

    The engine quantizes activations and weights with SUQ + stochastic
    rounding, performs the integer GEMM on the active runtime backend, and
    rescales the exact accumulator back to float32 with the product of the
    two scales — the standard requantization used by integer inference
    engines, applied here to training.
    """

    def __init__(self, config: Optional[QuantConfig] = None, rng: RngLike = None):
        self.config = config if config is not None else QuantConfig()
        self._rng = self.config.rng(rng)

    # ------------------------------------------------------------------ #
    def _quantize(self, values: np.ndarray, axis: Optional[int] = None):
        return quantize(values, self.config, axis=axis, rng=self._rng)

    # ------------------------------------------------------------------ #
    def linear_forward(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Compute ``x @ weight.T`` using INT8 operands.

        ``x`` has shape ``(rows, in_features)`` and ``weight`` has shape
        ``(out_features, in_features)``; the result is float32.
        """
        axis = 0 if self.config.per_channel else None
        x_q, x_scale = self._quantize(x)
        w_q, w_scale = self._quantize(weight, axis=axis)
        acc = dispatch.int8_gemm(x_q, np.ascontiguousarray(w_q.T))
        if self.config.per_channel and np.ndim(w_scale) == 1:
            rescale = float(x_scale) * np.asarray(w_scale)[None, :]
        else:
            rescale = float(x_scale) * float(w_scale)
        return (acc.astype(np.float64) * rescale).astype(np.float32)

    def linear_weight_grad(self, grad_output: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Compute ``grad_output.T @ x`` (the weight gradient) in INT8."""
        g_q, g_scale = self._quantize(grad_output)
        x_q, x_scale = self._quantize(x)
        acc = dispatch.int8_gemm(
            np.ascontiguousarray(g_q.T),
            np.ascontiguousarray(x_q),
        )
        return (acc.astype(np.float64) * (float(g_scale) * float(x_scale))).astype(
            np.float32
        )

    # ------------------------------------------------------------------ #
    def depthwise_forward(self, cols: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Depthwise convolution inner product in INT8.

        ``cols`` has shape ``(positions, channels, kernel_area)`` and
        ``weight`` has shape ``(channels, kernel_area)``.
        """
        c_q, c_scale = self._quantize(cols)
        w_q, w_scale = self._quantize(weight)
        acc = dispatch.int8_depthwise(c_q, w_q)
        return (acc.astype(np.float64) * (float(c_scale) * float(w_scale))).astype(
            np.float32
        )

    def depthwise_weight_grad(
        self, grad_matrix: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Depthwise weight gradient ``sum_p grad[p, c] * cols[p, c, k]`` in INT8."""
        g_q, g_scale = self._quantize(grad_matrix)
        c_q, c_scale = self._quantize(cols)
        acc = dispatch.int8_depthwise_grad(g_q, c_q)
        return (acc.astype(np.float64) * (float(g_scale) * float(c_scale))).astype(
            np.float32
        )
