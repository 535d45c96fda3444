"""Fully-connected layer with optional INT8 forward/weight-gradient kernels.

The same :class:`Linear` module serves three training regimes:

* FP32 backpropagation (baseline),
* INT8 backpropagation baselines (gradients quantized by the trainer),
* FF-INT8, where the forward matmul and the weight-gradient matmul are
  executed with INT8 operands and INT32 accumulation when an
  :class:`~repro.quant.int8_ops.Int8Engine` is attached.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.runtime import dispatch
from repro.utils.rng import RngLike, new_rng


class Linear(Module):
    """Affine transform ``y = x @ W.T + b`` over the last dimension."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"feature sizes must be positive, got in={in_features}, "
                f"out={out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        rng = new_rng(rng)
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), rng=rng), name="weight"
        )
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = Parameter(init.zeros((out_features,)), name="bias")
        # Optional quantized execution engine, attached by the quantization
        # preparation pass (see repro.quant.prepare).
        self.quant_engine = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            x = x.reshape(x.shape[0], -1)
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expected {self.in_features} input features, got {x.shape[1]}"
            )
        self._store(x=x)
        if self.quant_engine is not None:
            out = self.quant_engine.linear_forward(x, self.weight.data)
        else:
            out = dispatch.matmul(x, self.weight.data.T)
        if self.bias is not None:
            out = out + self.bias.data
        return out.astype(np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.accumulate_param_grads(grad_output)
        return self.input_grad(grad_output)

    def accumulate_param_grads(self, grad_output: np.ndarray) -> None:
        """Accumulate the weight and bias gradients of ``grad_output``."""
        x = self._load("x")
        grad_output = np.asarray(grad_output, dtype=np.float32)
        if self.quant_engine is not None:
            grad_weight = self.quant_engine.linear_weight_grad(grad_output, x)
        else:
            grad_weight = dispatch.matmul(grad_output.T, x)
        self.weight.accumulate_grad(grad_weight)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_output.sum(axis=0))

    def input_grad(self, grad_output: np.ndarray) -> np.ndarray:
        """Gradient with respect to the input; no parameter gradient moves."""
        grad_output = np.asarray(grad_output, dtype=np.float32)
        return dispatch.matmul(grad_output, self.weight.data).astype(np.float32)

    def extra_repr(self) -> str:
        return (
            f"in_features={self.in_features}, out_features={self.out_features}, "
            f"bias={self.bias is not None}"
        )
