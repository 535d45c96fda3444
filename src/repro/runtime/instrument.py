"""The module tap: observers of every module forward the runtime executes.

Every ``Module.__call__`` reports its completed forward here.  Observers
register an :class:`Instrumentation` hook and see every module whatever
backend runs its kernels — the hardware profiler behind Table IV plugs in
this way (:class:`~repro.hardware.op_counter.ProfileHook`), so it needs no
code inside the kernels themselves.

Per-step wall time is not a hook: the executor records one
``unit{i}.{kind}`` span per plan step in :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Tuple


class Instrumentation:
    """Base hook: override :meth:`on_module` (defaults to a no-op).

    Events fire synchronously on the executing thread; hooks must be cheap
    and must not call back into the runtime.
    """

    def on_module(self, module: Any, inputs: Any, output: Any) -> None:
        """A module's forward completed (fires for every ``Module.__call__``)."""


# --------------------------------------------------------------------------- #
# hook registry
# --------------------------------------------------------------------------- #
# Hooks are global (not thread-local) so that a profiler wrapped around a
# multi-threaded serving engine still observes worker-thread modules.  The
# registry is an immutable tuple rebound atomically under the lock: emit
# paths iterate whatever tuple they loaded, so a concurrent unregister on
# another thread can never make them skip or double-fire a hook mid-walk
# (mutating a shared list while iterating it could do both).
_HOOKS: Tuple[Instrumentation, ...] = ()
_REGISTRY_LOCK = threading.Lock()


def hooks_active() -> bool:
    """Cheap guard for the emit call site on the hot path."""
    return bool(_HOOKS)


def register_hook(hook: Instrumentation) -> Instrumentation:
    """Attach an instrumentation hook to the module tap."""
    global _HOOKS
    with _REGISTRY_LOCK:
        _HOOKS = _HOOKS + (hook,)
    return hook


def unregister_hook(hook: Instrumentation) -> None:
    """Detach a previously registered hook (no-op if absent)."""
    global _HOOKS
    with _REGISTRY_LOCK:
        if hook in _HOOKS:
            hooks = list(_HOOKS)
            hooks.remove(hook)
            _HOOKS = tuple(hooks)


@contextmanager
def instrumented(hook: Instrumentation) -> Iterator[Instrumentation]:
    """Register ``hook`` for the duration of the block."""
    register_hook(hook)
    try:
        yield hook
    finally:
        unregister_hook(hook)


def emit_module(module: Any, inputs: Any, output: Any) -> None:
    """Record a completed module forward (guard with :func:`hooks_active`)."""
    for hook in _HOOKS:
        hook.on_module(module, inputs, output)


__all__ = [
    "Instrumentation",
    "hooks_active",
    "register_hook",
    "unregister_hook",
    "instrumented",
    "emit_module",
]
