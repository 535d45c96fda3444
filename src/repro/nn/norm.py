"""Normalization layers.

BatchNorm is required by ResNet-18, MobileNet-V2 and EfficientNet-B0.
``FFLayerNorm`` implements the sample-wise L2 length normalization the
Forward-Forward algorithm applies between layers so that the goodness of a
layer cannot be inferred trivially from the magnitude of its input.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter


class _BatchNormBase(Module):
    """Shared machinery for 1-D and 2-D batch normalization."""

    def __init__(
        self, num_features: int, eps: float = 1e-5, momentum: float = 0.1
    ) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        self.num_features = num_features
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.gamma = Parameter(init.ones((num_features,)), "gamma")
        self.beta = Parameter(init.zeros((num_features,)), "beta")
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)

    def _reduce_axes(self, x: np.ndarray) -> tuple[int, ...]:
        raise NotImplementedError

    def _broadcast(self, stat: np.ndarray, ndim: int) -> np.ndarray:
        shape = [1] * ndim
        shape[1] = self.num_features
        return stat.reshape(shape)

    def forward(self, x: np.ndarray) -> np.ndarray:
        axes = self._reduce_axes(x)
        if x.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} channels/features, got {x.shape[1]}"
            )
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            ).astype(np.float32)
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            ).astype(np.float32)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        # In place on fresh buffers: the same float32 ufunc sequence as
        # ``gamma * ((x - mean) * inv_std) + beta``, minus two temporaries.
        x_hat = x - self._broadcast(mean, x.ndim)
        x_hat *= self._broadcast(inv_std, x.ndim)
        out = self._broadcast(self.gamma.data, x.ndim) * x_hat
        out += self._broadcast(self.beta.data, x.ndim)
        self._store(x_hat=x_hat, inv_std=inv_std)
        return out.astype(np.float32, copy=False)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.accumulate_param_grads(grad_output)
        return self.input_grad(grad_output)

    def accumulate_param_grads(self, grad_output: np.ndarray) -> None:
        """Accumulate the ``gamma`` and ``beta`` gradients of ``grad_output``."""
        x_hat = self._load("x_hat")
        axes = self._reduce_axes(grad_output)
        self.gamma.accumulate_grad(np.sum(grad_output * x_hat, axis=axes))
        self.beta.accumulate_grad(np.sum(grad_output, axis=axes))

    def input_grad(self, grad_output: np.ndarray) -> np.ndarray:
        """Gradient with respect to the input; no parameter gradient moves."""
        x_hat = self._load("x_hat")
        inv_std = self._load("inv_std")
        axes = self._reduce_axes(grad_output)
        gamma_b = self._broadcast(self.gamma.data, grad_output.ndim)
        inv_std_b = self._broadcast(inv_std, grad_output.ndim)
        grad_xhat = grad_output * gamma_b
        mean_grad_xhat = self._broadcast(grad_xhat.mean(axis=axes), grad_output.ndim)
        product = grad_xhat * x_hat
        mean_grad_xhat_xhat = self._broadcast(
            product.mean(axis=axes), grad_output.ndim
        )
        # In place on the fresh buffers: the same ufunc sequence as
        # ``inv_std * (grad_xhat - mean_grad_xhat
        #              - x_hat * mean_grad_xhat_xhat)``.
        grad_xhat -= mean_grad_xhat
        grad_xhat -= np.multiply(x_hat, mean_grad_xhat_xhat, out=product)
        grad_xhat *= inv_std_b
        return grad_xhat.astype(np.float32, copy=False)

    def extra_repr(self) -> str:
        return f"num_features={self.num_features}, eps={self.eps}, momentum={self.momentum}"


class BatchNorm1d(_BatchNormBase):
    """Batch normalization over ``(N, F)`` feature tensors."""

    def _reduce_axes(self, x: np.ndarray) -> tuple[int, ...]:
        if x.ndim != 2:
            raise ValueError(f"BatchNorm1d expects (N, F) input, got shape {x.shape}")
        return (0,)


class BatchNorm2d(_BatchNormBase):
    """Batch normalization over ``(N, C, H, W)`` image tensors."""

    def _reduce_axes(self, x: np.ndarray) -> tuple[int, ...]:
        if x.ndim != 4:
            raise ValueError(
                f"BatchNorm2d expects (N, C, H, W) input, got shape {x.shape}"
            )
        return (0, 2, 3)


class FFLayerNorm(Module):
    """Sample-wise L2 length normalization used between Forward-Forward layers.

    Each sample (flattened across all non-batch dimensions) is scaled to unit
    norm.  The backward pass implements the exact Jacobian-vector product,
    which matters when the look-ahead loss propagates goodness signals across
    layer boundaries.
    """

    def __init__(self, eps: float = 1e-8) -> None:
        super().__init__()
        self.eps = float(eps)

    def forward(self, x: np.ndarray) -> np.ndarray:
        flat = x.reshape(x.shape[0], -1)
        norm = np.sqrt(np.sum(np.square(flat), axis=1, keepdims=True)) + self.eps
        out_flat = flat / norm
        self._store(out_flat=out_flat, norm=norm, shape=np.array(x.shape))
        return out_flat.reshape(x.shape).astype(np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        out_flat = self._load("out_flat")
        norm = self._load("norm")
        shape = tuple(int(v) for v in self._load("shape"))
        grad_flat = grad_output.reshape(grad_output.shape[0], -1)
        dot = np.sum(grad_flat * out_flat, axis=1, keepdims=True)
        grad_input = (grad_flat - out_flat * dot) / norm
        return grad_input.reshape(shape).astype(np.float32)

    def extra_repr(self) -> str:
        return f"eps={self.eps}"
