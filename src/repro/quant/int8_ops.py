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

from typing import Optional, Tuple

import numpy as np

from repro.quant.qconfig import QuantConfig
from repro.quant.suq import quantize
from repro.runtime import dispatch
from repro.utils.rng import RngLike, new_rng

__all__ = ["Int8Engine"]


class Int8Engine:
    """Quantized execution engine attached to Linear / Conv2d modules.

    The engine quantizes activations and weights with per-tensor SUQ,
    performs the integer GEMM on the active runtime backend, and rescales
    the exact accumulator back to float32 with the product of the two
    scales — the standard requantization used by integer inference
    engines, applied here to training.  Stochastic rounding draws from
    ``rng``, the caller's generator, which it then requires.
    """

    def __init__(self, config: Optional[QuantConfig] = None, rng: RngLike = None):
        self.config = config if config is not None else QuantConfig()
        if self.config.rounding == "stochastic" and rng is None:
            raise ValueError("stochastic rounding needs a generator: pass rng")
        self._rng = None if rng is None else new_rng(rng)

    # ------------------------------------------------------------------ #
    def _quantize(self, values: np.ndarray):
        return quantize(values, self.config, rng=self._rng)

    # ------------------------------------------------------------------ #
    def linear_forward(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Compute ``x @ weight.T`` using INT8 operands.

        ``x`` has shape ``(rows, in_features)`` and ``weight`` has shape
        ``(out_features, in_features)``; the result is float32.
        """
        x_q, x_scale = self._quantize(x)
        w_q, w_scale = self._quantize(weight)
        acc = dispatch.int8_gemm(x_q, np.ascontiguousarray(w_q.T))
        return (acc.astype(np.float64) * (float(x_scale) * float(w_scale))).astype(
            np.float32
        )

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
    def depthwise_forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> np.ndarray:
        """Depthwise convolution of ``x`` with INT8 operands.

        ``x`` is ``(N, C, H, W)`` and ``weight`` ``(C, kh, kw)``; returns
        the ``(N, out_h, out_w, C)`` float32 output.  ``x`` is quantized
        once, one rounding per element in NHWC order, and the kernel
        accumulates the integer products tap by tap.
        """
        x_q, x_scale = self._quantize(x.transpose(0, 2, 3, 1))
        w_q, w_scale = self._quantize(weight)
        acc = dispatch.int8_depthwise_taps(x_q, w_q, stride, padding)
        return (acc.astype(np.float64) * (float(x_scale) * float(w_scale))).astype(
            np.float32
        )

    def depthwise_weight_grad(
        self,
        grad: np.ndarray,
        x: np.ndarray,
        kernel: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> np.ndarray:
        """Depthwise weight gradient ``(C, kh, kw)`` with INT8 operands.

        ``grad`` is the ``(N, out_h, out_w, C)`` output gradient and ``x``
        the ``(N, C, H, W)`` layer input; both are quantized afresh, as in
        :meth:`linear_weight_grad`.
        """
        g_q, g_scale = self._quantize(grad)
        x_q, x_scale = self._quantize(x.transpose(0, 2, 3, 1))
        acc = dispatch.int8_depthwise_taps_grad(g_q, x_q, kernel, stride, padding)
        return (acc.astype(np.float64) * (float(g_scale) * float(x_scale))).astype(
            np.float32
        )
