"""Attach INT8 execution engines to a model's compute-heavy layers.

``prepare_int8`` walks a module tree and gives every :class:`Linear`,
:class:`Conv2d`, and :class:`DepthwiseConv2d` its own :class:`Int8Engine`, so
that their forward GEMM and weight-gradient GEMM execute with INT8 operands.
``strip_int8`` removes the engines (restoring FP32 execution).
"""

from __future__ import annotations

from typing import Optional

from repro.nn.conv import Conv2d, DepthwiseConv2d
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.quant.int8_ops import Int8Engine
from repro.quant.qconfig import QuantConfig
from repro.utils.rng import RngLike, spawn_rngs

_QUANTIZABLE = (Linear, Conv2d, DepthwiseConv2d)


def quantizable_layers(model: Module) -> list[Module]:
    """Return the compute-heavy layers that support INT8 execution."""
    return [module for module in model.modules() if isinstance(module, _QUANTIZABLE)]


def prepare_int8(
    model: Module,
    config: Optional[QuantConfig] = None,
    seed: RngLike = 0,
) -> Module:
    """Attach an :class:`Int8Engine` to every quantizable layer of ``model``."""
    config = config if config is not None else QuantConfig()
    layers = quantizable_layers(model)
    rngs = spawn_rngs(seed, len(layers)) if layers else []
    for layer, rng in zip(layers, rngs):
        layer.quant_engine = Int8Engine(config, rng=rng)
    return model


def strip_int8(model: Module) -> Module:
    """Remove INT8 engines, restoring full-precision execution."""
    for layer in quantizable_layers(model):
        layer.quant_engine = None
    return model


def is_int8_prepared(model: Module) -> bool:
    """True if every quantizable layer has an attached INT8 engine."""
    layers = quantizable_layers(model)
    return bool(layers) and all(layer.quant_engine is not None for layer in layers)

