"""Element-wise activation layers.

ReLU for MLP/ResNet, ReLU6 for MobileNet-V2, SiLU (swish) and Sigmoid for
EfficientNet-B0's MBConv/SE blocks.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import sigmoid
from repro.nn.module import Module


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._store(mask=mask)
        return np.where(mask, x, 0.0).astype(np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        mask = self._load("mask")
        return (grad_output * mask).astype(np.float32)


class ReLU6(Module):
    """ReLU clipped at 6, as used by MobileNet-V2."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training and self.cache_activations:
            self._store(mask=(x > 0) & (x < 6.0))
        return np.clip(x, 0.0, 6.0).astype(np.float32, copy=False)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        mask = self._load("mask")
        return (grad_output * mask).astype(np.float32)


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = float(negative_slope)

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._store(mask=mask)
        return np.where(mask, x, self.negative_slope * x).astype(np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        mask = self._load("mask")
        scale = np.where(mask, 1.0, self.negative_slope)
        return (grad_output * scale).astype(np.float32)

    def extra_repr(self) -> str:
        return f"negative_slope={self.negative_slope}"


class Sigmoid(Module):
    """Logistic activation (used by squeeze-and-excitation gates)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = sigmoid(x)
        self._store(out=out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        out = self._load("out")
        return (grad_output * out * (1.0 - out)).astype(np.float32)


class SiLU(Module):
    """Sigmoid-weighted linear unit (swish), EfficientNet's activation."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        sig = sigmoid(x)
        self._store(x=x, sig=sig)
        return (x * sig).astype(np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._load("x")
        sig = self._load("sig")
        grad = sig * (1.0 + x * (1.0 - sig))
        return (grad_output * grad).astype(np.float32)


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x)
        self._store(out=out)
        return out.astype(np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        out = self._load("out")
        return (grad_output * (1.0 - out * out)).astype(np.float32)
