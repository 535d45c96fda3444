"""Optimizers operating on :class:`~repro.nn.parameter.Parameter` lists."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.nn.parameter import Parameter


class Optimizer:
    """Base optimizer; subclasses implement :meth:`_update`."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self.lr_scale = 1.0

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update using the accumulated gradients."""
        for param in self.parameters:
            if not param.requires_grad or param.grad is None:
                continue
            self._update(param)

    def set_lr_scale(self, scale: float) -> None:
        """Multiplicative LR modifier (used by UI8's deviation counteraction)."""
        if scale <= 0:
            raise ValueError(f"lr scale must be positive, got {scale}")
        self.lr_scale = float(scale)

    @property
    def effective_lr(self) -> float:
        """Learning rate after applying the scale modifier."""
        return self.lr * self.lr_scale

    def _update(self, param: Parameter) -> None:
        raise NotImplementedError

    def state_bytes(self, bytes_per_element: int = 4) -> int:
        """Optimizer-state memory footprint (for the memory model)."""
        return 0


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {momentum}")
        if weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Dict[int, np.ndarray] = {}

    def _update(self, param: Parameter) -> None:
        grad = param.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        if self.momentum:
            buf = self._velocity.get(id(param))
            if buf is None:
                buf = np.zeros_like(param.data)
            buf = self.momentum * buf + grad
            self._velocity[id(param)] = buf
            grad = buf
        param.data -= self.effective_lr * grad

    def state_bytes(self, bytes_per_element: int = 4) -> int:
        if not self.momentum:
            return 0
        return sum(param.size for param in self.parameters) * bytes_per_element


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._steps: Dict[int, int] = {}

    def _update(self, param: Parameter) -> None:
        grad = param.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        key = id(param)
        m = self._m.get(key)
        v = self._v.get(key)
        if m is None:
            m = np.zeros_like(param.data)
            v = np.zeros_like(param.data)
        step = self._steps.get(key, 0) + 1
        m = self.beta1 * m + (1 - self.beta1) * grad
        v = self.beta2 * v + (1 - self.beta2) * grad * grad
        self._m[key], self._v[key], self._steps[key] = m, v, step
        m_hat = m / (1 - self.beta1**step)
        v_hat = v / (1 - self.beta2**step)
        param.data -= self.effective_lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_bytes(self, bytes_per_element: int = 4) -> int:
        return 2 * sum(param.size for param in self.parameters) * bytes_per_element


def build_optimizer(
    name: str, parameters: Iterable[Parameter], lr: float, **kwargs
) -> Optimizer:
    """Factory used by trainer configs (``"sgd"`` or ``"adam"``)."""
    name = name.lower()
    if name == "sgd":
        return SGD(parameters, lr=lr, **kwargs)
    if name == "adam":
        return Adam(parameters, lr=lr, **kwargs)
    raise ValueError(f"unknown optimizer {name!r}; expected 'sgd' or 'adam'")
