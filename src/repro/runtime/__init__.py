"""``repro.runtime`` — compiled execution plans + pluggable kernel backends.

One execution layer for every workload:

* :func:`compile_plan` lowers an FF unit stack into a flat
  :class:`ExecutionPlan` of kernel steps, optionally pinning individual
  layers to a backend;
  :class:`PlanExecutor` runs it — training forward passes, goodness
  classification, readout features and batched serving all execute the
  same plan code.
* :mod:`repro.runtime.backends` hosts the kernel backends: ``reference``
  (the seed NumPy arithmetic), ``fast`` (exact-float32 BLAS integer GEMMs
  with preallocated scratch) and ``parallel`` (row-block thread tiling of
  the fast kernels plus float32/numba depthwise products).  Select with
  the ``REPRO_BACKEND`` environment variable, :func:`set_default_backend`,
  a config's ``backend`` field, the CLI ``--backend`` flag, or per layer
  with plan pins — hand-written specs or ``pins="auto"``, which resolves
  each layer to the measured winner via :mod:`repro.runtime.autopin`;
  every backend is bit-identical.
* :mod:`repro.runtime.instrument` exposes the dispatch layer's
  instrumentation hooks — :class:`OpCounts`/:class:`OpCountingHook` for
  Table IV op accounting and arbitrary observers for profiling — which see
  every kernel whatever backend runs it.

The plan/executor halves import the nn layer, which itself reports into
``repro.runtime.instrument``; they are therefore imported lazily (PEP 562)
to keep the package import-cycle free.
"""

from __future__ import annotations

from repro.runtime import instrument
from repro.runtime.backends import (
    Backend,
    FastBackend,
    ParallelBackend,
    ReferenceBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.runtime.dispatch import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    active_backend,
    default_backend_name,
    pin_backend,
    set_default_backend,
    use_backend,
)
from repro.runtime.instrument import (
    Instrumentation,
    OpCountingHook,
    OpCounts,
    counting,
    instrumented,
)

_LAZY = {
    "KernelStep": "repro.runtime.plan",
    "ExecutionPlan": "repro.runtime.plan",
    "compile_plan": "repro.runtime.plan",
    "step_kind": "repro.runtime.plan",
    "STEP_KINDS": "repro.runtime.plan",
    "AUTO_PINS": "repro.runtime.plan",
    "PlanExecutor": "repro.runtime.executor",
    "forward_through_units": "repro.runtime.executor",
    "autopin": "repro.runtime.autopin",
    "calibrate": "repro.runtime.autopin",
    "AUTOPIN_CANDIDATES": "repro.runtime.autopin",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.runtime' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


__all__ = [
    "Backend",
    "ReferenceBackend",
    "FastBackend",
    "ParallelBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "active_backend",
    "default_backend_name",
    "set_default_backend",
    "use_backend",
    "pin_backend",
    "instrument",
    "Instrumentation",
    "OpCounts",
    "OpCountingHook",
    "counting",
    "instrumented",
    "KernelStep",
    "ExecutionPlan",
    "compile_plan",
    "step_kind",
    "STEP_KINDS",
    "AUTO_PINS",
    "PlanExecutor",
    "forward_through_units",
    "autopin",
    "calibrate",
    "AUTOPIN_CANDIDATES",
]
