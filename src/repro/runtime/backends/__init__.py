"""Backend registry.

Backends are registered by name and instantiated once (they may hold
per-thread scratch state and worker pools).  ``reference`` is the seed NumPy
arithmetic, ``fast`` the BLAS-tiled exact-float32 variant, ``parallel`` the
row-block-threaded tiling of the fast kernels (plus float32/numba depthwise
products); all three are bit-identical on every input, so selection is
purely a performance knob —
:func:`repro.runtime.autopin.autopin` picks per layer from measured data.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro.runtime.backends.base import Backend
from repro.runtime.backends.fast import FastBackend, exact_f32_possible
from repro.runtime.backends.parallel import ParallelBackend
from repro.runtime.backends.reference import ReferenceBackend, integer_matmul

_FACTORIES: Dict[str, Callable[[], Backend]] = {}
_INSTANCES: Dict[str, Backend] = {}


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register a backend factory under ``name`` (overwrites any previous)."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_FACTORIES)


def get_backend(name: Union[str, Backend]) -> Backend:
    """Resolve a backend name (or pass a backend instance through)."""
    if isinstance(name, Backend):
        return name
    try:
        instance = _INSTANCES.get(name)
        if instance is None:
            instance = _FACTORIES[name]()
            _INSTANCES[name] = instance
        return instance
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None


register_backend("reference", ReferenceBackend)
register_backend("fast", FastBackend)
register_backend("parallel", ParallelBackend)

__all__ = [
    "Backend",
    "ReferenceBackend",
    "FastBackend",
    "ParallelBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "integer_matmul",
    "exact_f32_possible",
]
