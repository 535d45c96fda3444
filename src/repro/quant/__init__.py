"""INT8 quantization substrate.

Implements symmetric uniform quantization with stochastic rounding, the
INT8 engine that runs a layer's GEMMs on integer operands (the kernels
themselves live in :mod:`repro.runtime.backends`), range observers, and
helpers that attach quantized execution engines to models.  This is the machinery shared by
FF-INT8 and by the INT8 backpropagation baselines (direct, UI8, GDAI8).
"""

from repro.quant.int8_ops import Int8Engine
from repro.quant.observers import (
    MinMaxObserver,
    MovingAverageObserver,
    PercentileObserver,
)
from repro.quant.prepare import (
    is_int8_prepared,
    prepare_int8,
    quantizable_layers,
    strip_int8,
)
from repro.quant.qconfig import QuantConfig, int8_config
from repro.quant.qtensor import QuantizedTensor
from repro.quant.rounding import apply_rounding, round_nearest, round_stochastic
from repro.quant.suq import (
    compute_scale,
    dequantize,
    fake_quantize,
    quantization_error,
    quantize,
)

__all__ = [
    "QuantConfig",
    "int8_config",
    "QuantizedTensor",
    "Int8Engine",
    "quantize",
    "dequantize",
    "fake_quantize",
    "compute_scale",
    "quantization_error",
    "round_nearest",
    "round_stochastic",
    "apply_rounding",
    "MinMaxObserver",
    "MovingAverageObserver",
    "PercentileObserver",
    "prepare_int8",
    "strip_int8",
    "is_int8_prepared",
    "quantizable_layers",
]
