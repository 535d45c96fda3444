"""``repro.runtime`` — compiled execution plans + pluggable kernel backends.

One execution layer for every workload:

* :func:`compile_plan` lowers an FF unit stack into a flat
  :class:`ExecutionPlan` of kernel steps; :class:`PlanExecutor` runs it — training forward passes, goodness
  classification, readout features and batched serving all execute the
  same plan code.
* :mod:`repro.runtime.backends` hosts the kernel backends: ``reference``
  (the seed NumPy arithmetic, the correctness oracle) and ``fast``
  (exact-float32 BLAS integer GEMMs and depthwise einsums with
  preallocated scratch).  Select with the ``REPRO_BACKEND`` environment
  variable, :func:`set_default_backend`, a config's ``backend`` field or
  the CLI ``--backend`` flag; both backends are bit-identical.
* :mod:`repro.runtime.instrument` is the module tap: an
  :class:`Instrumentation` hook sees every module forward whatever backend
  runs it.  The hardware profiler behind Table IV's op counts is such a
  hook; per-step wall time is the executor's :mod:`repro.obs` spans.

The plan/executor halves import the nn layer, which itself reports into
``repro.runtime.instrument``; they are therefore imported lazily (PEP 562)
to keep the package import-cycle free.
"""

from __future__ import annotations

from repro.runtime import instrument
from repro.runtime.backends import (
    Backend,
    FastBackend,
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
    set_default_backend,
    use_backend,
)
from repro.runtime.instrument import Instrumentation, instrumented

_LAZY = {
    "KernelStep": "repro.runtime.plan",
    "ExecutionPlan": "repro.runtime.plan",
    "compile_plan": "repro.runtime.plan",
    "step_kind": "repro.runtime.plan",
    "STEP_KINDS": "repro.runtime.plan",
    "PlanExecutor": "repro.runtime.executor",
    "forward_through_units": "repro.runtime.executor",
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
    "register_backend",
    "available_backends",
    "get_backend",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "active_backend",
    "default_backend_name",
    "set_default_backend",
    "use_backend",
    "instrument",
    "Instrumentation",
    "instrumented",
    "KernelStep",
    "ExecutionPlan",
    "compile_plan",
    "step_kind",
    "STEP_KINDS",
    "PlanExecutor",
    "forward_through_units",
]
