"""Module base class for the NumPy deep-learning substrate.

Modules follow an explicit forward/backward contract:

* ``forward(x)`` computes the output and, while ``self.training`` is true and
  activation caching is enabled, stores whatever intermediate arrays the
  backward pass needs in ``self._cache``.
* ``backward(grad_output)`` consumes the cache, accumulates parameter
  gradients, and returns the gradient with respect to the module input.

Keeping the cache explicit (rather than hidden inside an autograd engine)
lets :mod:`repro.hardware.memory_model` measure exactly how many activation
bytes backpropagation must keep resident — the quantity the Forward-Forward
algorithm avoids.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.parameter import Parameter
from repro.runtime import instrument


class Module:
    """Base class for all neural-network layers and containers."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "cache_activations", True)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            if not value.name:
                value.name = name
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, param: Parameter) -> Parameter:
        """Explicitly register a parameter (used by container modules)."""
        self._parameters[name] = param
        if not param.name:
            param.name = name
        object.__setattr__(self, name, param)
        return param

    def add_module(self, name: str, module: "Module") -> "Module":
        """Explicitly register a child module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)
        return module

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def children(self) -> Iterator["Module"]:
        """Iterate over direct child modules."""
        yield from self._modules.values()

    def modules(self) -> Iterator["Module"]:
        """Iterate over this module and all descendants (pre-order)."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Iterate over ``(qualified_name, parameter)`` pairs."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> List[Parameter]:
        """Return all parameters of this module and its descendants."""
        return [param for _, param in self.named_parameters()]

    def num_parameters(self, trainable_only: bool = True) -> int:
        """Total number of scalar parameters."""
        return sum(
            param.size
            for param in self.parameters()
            if param.requires_grad or not trainable_only
        )

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat mapping of parameter names to copies of their values."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values saved by :meth:`state_dict`."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, values in state.items():
            params[name].copy_(values)

    # ------------------------------------------------------------------ #
    # training state
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects BatchNorm, Dropout, caching)."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Switch to inference mode recursively."""
        return self.train(False)

    def set_activation_caching(self, enabled: bool) -> "Module":
        """Enable/disable storing forward activations for the backward pass.

        Backpropagation trainers keep this on; Forward-Forward trainers turn
        it off for every layer except the one currently being trained, which
        is what produces the memory-footprint advantage measured in Table V.
        """
        for module in self.modules():
            object.__setattr__(module, "cache_activations", enabled)
        return self

    def zero_grad(self) -> None:
        """Clear parameter gradients for this module and descendants."""
        for param in self.parameters():
            param.zero_grad()

    def clear_cache(self) -> None:
        """Drop cached forward activations for this module and descendants."""
        for module in self.modules():
            module._cache.clear()

    def cached_activation_bytes(self) -> int:
        """Bytes currently held in forward caches (backprop graph footprint)."""
        total = 0
        for module in self.modules():
            for value in module._cache.values():
                if isinstance(value, np.ndarray):
                    total += value.nbytes
                elif isinstance(value, (list, tuple)):
                    total += sum(
                        item.nbytes for item in value if isinstance(item, np.ndarray)
                    )
        return total

    # ------------------------------------------------------------------ #
    # computation contract
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the module output for input ``x``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients and return the input gradient."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = self.forward(x)
        # The module tap: the hardware profiler (Table IV's op counts)
        # observes every module forward here, whatever backend executes the
        # kernels inside.
        if instrument.hooks_active():
            instrument.emit_module(self, x, out)
        return out

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def _store(self, **tensors) -> None:
        """Store backward-pass inputs if caching is enabled."""
        if self.training and self.cache_activations:
            self._cache.update(tensors)

    def _load(self, key: str) -> np.ndarray:
        """Fetch a cached tensor, raising a clear error if it is missing."""
        if key not in self._cache:
            raise RuntimeError(
                f"{type(self).__name__}.backward() called without a cached "
                f"'{key}'; run forward() in training mode with activation "
                "caching enabled first"
            )
        return self._cache[key]

    def extra_repr(self) -> str:
        """Extra information appended to ``repr`` (override in subclasses)."""
        return ""

    def __repr__(self) -> str:
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        child_lines = []
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            child_lines.append(f"  ({name}): {child_repr}")
        if child_lines:
            lines.extend(child_lines)
            lines.append(")")
            return "\n".join(lines)
        return lines[0] + ")"


class Identity(Module):
    """Pass-through module used for optional branches (e.g. skip projections)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output
