"""Container modules: sequential chains, residual blocks, SE gates.

Residual-style containers are first-class citizens here because the paper's
"look-ahead" scheme is motivated precisely by the FF algorithm's difficulty
with residual topologies (Section IV-C and Figure 6b).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

import numpy as np

from repro.nn.module import Identity, Module


class Sequential(Module):
    """Run child modules in order; backward runs them in reverse.

    ``inter_layer_grad_transform`` (optional callable) is applied to the
    gradient passed between consecutive children during the backward pass.
    The INT8 backpropagation baselines use it to quantize the back-propagated
    error signal at every layer boundary, which is where the paper's
    quantization-error accumulation (Section IV-A) happens.
    """

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._layer_order: List[str] = []
        self.inter_layer_grad_transform = None
        for index, layer in enumerate(layers):
            self.append(layer, name=str(index))

    def append(self, layer: Module, name: Optional[str] = None) -> "Sequential":
        """Add a layer at the end of the chain."""
        if name is None:
            name = str(len(self._layer_order))
        self.add_module(name, layer)
        self._layer_order.append(name)
        return self

    def layers(self) -> List[Module]:
        """Child layers in execution order."""
        return [self._modules[name] for name in self._layer_order]

    def __len__(self) -> int:
        return len(self._layer_order)

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers())

    def __getitem__(self, index: int) -> Module:
        return self.layers()[index]

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        for layer in self.layers():
            out = layer(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        layers = self.layers()
        for index, layer in enumerate(reversed(layers)):
            grad = layer.backward(grad)
            is_last = index == len(layers) - 1
            if self.inter_layer_grad_transform is not None and not is_last:
                grad = self.inter_layer_grad_transform(grad)
        return grad


class ResidualAdd(Module):
    """``y = branch(x) + shortcut(x)`` with exact gradient splitting.

    ``shortcut`` defaults to identity; ResNet downsampling blocks pass a
    1x1 convolution + BatchNorm projection instead.
    """

    def __init__(self, branch: Module, shortcut: Optional[Module] = None) -> None:
        super().__init__()
        self.branch = branch
        self.shortcut = shortcut if shortcut is not None else Identity()

    def forward(self, x: np.ndarray) -> np.ndarray:
        return (self.branch(x) + self.shortcut(x)).astype(np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_branch = self.branch.backward(grad_output)
        grad_shortcut = self.shortcut.backward(grad_output)
        return (grad_branch + grad_shortcut).astype(np.float32)


class SqueezeExcite(Module):
    """Squeeze-and-excitation channel gate used by EfficientNet MBConv blocks.

    ``y = x * sigmoid(W2 @ act(W1 @ mean_hw(x)))`` with per-channel scaling.
    """

    def __init__(self, gate: Module) -> None:
        super().__init__()
        # ``gate`` maps the (N, C) squeezed descriptor to per-channel weights
        # in [0, 1]; built by the model factory from Linear/activation layers.
        self.gate = gate

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"SqueezeExcite expects (N, C, H, W), got {x.shape}")
        squeezed = x.mean(axis=(2, 3))
        scale = self.gate(squeezed)
        self._store(x=x, scale=scale)
        return (x * scale[:, :, None, None]).astype(np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_squeezed = self.gate.backward(self.gate_grad(grad_output))
        return self.input_grad(grad_output, grad_squeezed)

    def gate_grad(self, grad_output: np.ndarray) -> np.ndarray:
        """Gradient at the gate's output, the per-channel scale."""
        return np.sum(grad_output * self._load("x"), axis=(2, 3))

    def input_grad(
        self, grad_output: np.ndarray, grad_squeezed: np.ndarray
    ) -> np.ndarray:
        """Input gradient, given the gate's gradient at the squeezed input."""
        x = self._load("x")
        scale = self._load("scale")
        height, width = x.shape[2], x.shape[3]
        # Gradient through the multiplicative gate.
        grad_x_direct = grad_output * scale[:, :, None, None]
        grad_x_gate = (
            grad_squeezed[:, :, None, None]
            * np.ones_like(x)
            / float(height * width)
        )
        return (grad_x_direct + grad_x_gate).astype(np.float32)


def chain(layers: Iterable[Module]) -> Sequential:
    """Build a :class:`Sequential` from an iterable of layers."""
    model = Sequential()
    for layer in layers:
        model.append(layer)
    return model
