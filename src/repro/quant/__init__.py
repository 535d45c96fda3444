"""INT8 quantization substrate.

Implements symmetric uniform quantization with stochastic rounding, the
INT8 engine that runs a layer's GEMMs on integer operands (the kernels
themselves live in :mod:`repro.runtime.backends`), and helpers that attach
quantized execution engines to models.  This is the machinery shared by
FF-INT8 and by the INT8 backpropagation baselines (direct, UI8, GDAI8).
"""

from repro.quant.int8_ops import Int8Engine
from repro.quant.prepare import prepare_int8, quantizable_layers
from repro.quant.qconfig import QuantConfig
from repro.quant.rounding import round_nearest, round_stochastic
from repro.quant.suq import (
    compute_scale,
    dequantize,
    fake_quantize,
    quantization_error,
    quantize,
)

__all__ = [
    "QuantConfig",
    "Int8Engine",
    "quantize",
    "dequantize",
    "fake_quantize",
    "compute_scale",
    "quantization_error",
    "round_nearest",
    "round_stochastic",
    "prepare_int8",
    "quantizable_layers",
]
