"""2-D convolution layers.

Two variants are provided:

* :class:`Conv2d` — standard (grouped = 1) convolution used by ResNet-18 and
  the stem/projection layers of MobileNet-V2 / EfficientNet-B0, lowered to
  one GEMM via im2col.
* :class:`DepthwiseConv2d` — per-channel convolution used by the inverted
  residual (MBConv) blocks, run as ``kh * kw`` shifted taps over the
  zero-padded input, so training never builds the ``kh * kw``-fold
  expanded patch matrix.

Both support an optional attached quantized execution engine so that FF-INT8
runs the forward and the weight-gradient products with INT8 operands.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.nn import init
from repro.nn.functional import (
    col2im,
    conv_output_size,
    depthwise_input_grad,
    im2col,
)
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.runtime import dispatch
from repro.runtime.backends.reference import (
    depthwise_tap_grad,
    depthwise_taps,
    pad_nhwc,
)
from repro.utils.rng import RngLike, new_rng

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    """Normalize an int-or-pair argument to a pair."""
    if isinstance(value, tuple):
        return value
    return (value, value)


class Conv2d(Module):
    """Standard 2-D convolution over ``(N, C, H, W)`` inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntPair,
        stride: IntPair = 1,
        padding: IntPair = 0,
        bias: bool = True,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError(
                f"channel counts must be positive, got in={in_channels}, "
                f"out={out_channels}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        rng = new_rng(rng)
        weight_shape = (out_channels, in_channels, *self.kernel_size)
        self.weight = Parameter(init.kaiming_normal(weight_shape, rng=rng), "weight")
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = Parameter(init.zeros((out_channels,)), "bias")
        self.quant_engine = None

    # ------------------------------------------------------------------ #
    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Output shape for a given ``(N, C, H, W)`` input shape."""
        batch, _, height, width = input_shape
        out_h = conv_output_size(
            height, self.kernel_size[0], self.stride[0], self.padding[0]
        )
        out_w = conv_output_size(
            width, self.kernel_size[1], self.stride[1], self.padding[1]
        )
        return (batch, self.out_channels, out_h, out_w)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"Conv2d expects (N, C, H, W) input, got shape {x.shape}")
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected {self.in_channels} input channels, got {x.shape[1]}"
            )
        batch = x.shape[0]
        _, _, out_h, out_w = self.output_shape(x.shape)
        cols = im2col(x, self.kernel_size, self.stride, self.padding)
        weight_matrix = self.weight.data.reshape(self.out_channels, -1)
        if self.quant_engine is not None:
            out = self.quant_engine.linear_forward(cols, weight_matrix)
        else:
            out = dispatch.matmul(cols, weight_matrix.T)
        if self.bias is not None:
            out = out + self.bias.data
        out = out.reshape(batch, out_h, out_w, self.out_channels)
        out = out.transpose(0, 3, 1, 2).astype(np.float32)
        self._store(cols=cols, input_shape=np.array(x.shape))
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.accumulate_param_grads(grad_output)
        return self.input_grad(grad_output)

    def _grad_matrix(self, grad_output: np.ndarray) -> np.ndarray:
        grad_matrix = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        return np.ascontiguousarray(grad_matrix, dtype=np.float32)

    def accumulate_param_grads(self, grad_output: np.ndarray) -> None:
        """Accumulate the weight and bias gradients of ``grad_output``."""
        cols = self._load("cols")
        grad_matrix = self._grad_matrix(grad_output)
        if self.quant_engine is not None:
            grad_weight = self.quant_engine.linear_weight_grad(grad_matrix, cols)
        else:
            grad_weight = dispatch.matmul(grad_matrix.T, cols)
        self.weight.accumulate_grad(grad_weight.reshape(self.weight.data.shape))
        if self.bias is not None:
            self.bias.accumulate_grad(grad_matrix.sum(axis=0))

    def input_grad(self, grad_output: np.ndarray) -> np.ndarray:
        """Gradient with respect to the input; no parameter gradient moves."""
        input_shape = tuple(int(v) for v in self._load("input_shape"))
        weight_matrix = self.weight.data.reshape(self.out_channels, -1)
        grad_cols = dispatch.matmul(self._grad_matrix(grad_output), weight_matrix)
        grad_input = col2im(
            grad_cols, input_shape, self.kernel_size, self.stride, self.padding
        )
        return grad_input.astype(np.float32, copy=False)

    def extra_repr(self) -> str:
        return (
            f"{self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}, "
            f"bias={self.bias is not None}"
        )


class DepthwiseConv2d(Module):
    """Depthwise (per-channel) convolution used in inverted residual blocks."""

    def __init__(
        self,
        channels: int,
        kernel_size: IntPair,
        stride: IntPair = 1,
        padding: IntPair = 0,
        bias: bool = False,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        if channels <= 0:
            raise ValueError(f"channels must be positive, got {channels}")
        self.channels = channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        rng = new_rng(rng)
        weight_shape = (channels, 1, *self.kernel_size)
        self.weight = Parameter(init.kaiming_normal(weight_shape, rng=rng), "weight")
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = Parameter(init.zeros((channels,)), "bias")
        self.quant_engine = None

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Output shape for a given ``(N, C, H, W)`` input shape."""
        batch, channels, height, width = input_shape
        out_h = conv_output_size(
            height, self.kernel_size[0], self.stride[0], self.padding[0]
        )
        out_w = conv_output_size(
            width, self.kernel_size[1], self.stride[1], self.padding[1]
        )
        return (batch, channels, out_h, out_w)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ValueError(
                f"DepthwiseConv2d expects (N, {self.channels}, H, W) input, "
                f"got shape {x.shape}"
            )
        self.output_shape(x.shape)  # rejects a kernel larger than the input
        weight = self._weight_taps()
        if self.quant_engine is not None:
            out = self.quant_engine.depthwise_forward(
                x, weight, self.stride, self.padding
            )
        else:
            out = depthwise_taps(self._padded(x), weight, self.stride)
        if self.bias is not None:
            out = out + self.bias.data
        self._store(x=x)
        return out.transpose(0, 3, 1, 2).astype(np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.accumulate_param_grads(grad_output)
        return self.input_grad(grad_output)

    def _weight_taps(self) -> np.ndarray:
        """The weight as ``(C, kh, kw)``: one per-channel value per tap."""
        return self.weight.data.reshape(self.channels, *self.kernel_size)

    def _padded(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a zero-padded ``(N, H, W, C)`` array."""
        return pad_nhwc(x.transpose(0, 2, 3, 1), self.padding)

    @staticmethod
    def _grad_nhwc(grad_output: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(
            grad_output.transpose(0, 2, 3, 1), dtype=np.float32
        )

    def accumulate_param_grads(self, grad_output: np.ndarray) -> None:
        """Accumulate the weight and bias gradients of ``grad_output``."""
        x = self._load("x")
        grad = self._grad_nhwc(grad_output)
        if self.quant_engine is not None:
            grad_weight = self.quant_engine.depthwise_weight_grad(
                grad, x, self.kernel_size, self.stride, self.padding
            )
        else:
            grad_weight = depthwise_tap_grad(
                grad, self._padded(x), self.kernel_size, self.stride
            )
        self.weight.accumulate_grad(grad_weight.reshape(self.weight.data.shape))
        if self.bias is not None:
            self.bias.accumulate_grad(grad.reshape(-1, self.channels).sum(axis=0))

    def input_grad(self, grad_output: np.ndarray) -> np.ndarray:
        """Gradient with respect to the input; no parameter gradient moves."""
        return depthwise_input_grad(
            self._grad_nhwc(grad_output), self._weight_taps(),
            self._load("x").shape, self.stride, self.padding,
        )

    def extra_repr(self) -> str:
        return (
            f"channels={self.channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}"
        )
