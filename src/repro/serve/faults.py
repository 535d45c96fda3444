"""Deterministic fault injection for the serving stack.

The robustness tests (and ``serve-bench``'s chaos smoke) need failures that
are *repeatable*: a replica that dies on exactly the third batch, a stall
of exactly 200 ms on the first call.  This module provides those as data,
not monkey-patching:

* :class:`FaultSchedule` — which engine calls fail, which stall, and for
  how long, keyed by the call index (0-based, counted across the engine's
  lifetime).
* :class:`FaultyEngine` — wraps any engine the
  :class:`~repro.serve.batcher.MicroBatcher` accepts and applies a
  schedule to its ``predict``.  Everything else (``input_shape``,
  ``apply_pins``, ``close``…) proxies through, so a wrapped
  :class:`~repro.serve.engine.Int8InferenceEngine` is indistinguishable
  from a healthy one between injected faults.
* :func:`flaky_factory` — an engine factory whose first *N* constructions
  yield engines that fail immediately: the knob for exercising the
  supervisor's capped-exponential restart backoff.
* :func:`flood` — saturates an intake queue with concurrent submissions
  to provoke shedding (and, during a drain, ``draining`` sheds).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np


class InjectedFault(RuntimeError):
    """The error raised by scheduled engine failures."""


class FaultSchedule:
    """Deterministic per-call fault plan for a :class:`FaultyEngine`.

    Parameters
    ----------
    fail_calls:
        Call indices (0-based) that raise :class:`InjectedFault`.
    stall_calls:
        ``{call_index: seconds}`` — calls that sleep before answering,
        modelling a slow replica rather than a dead one.
    fail_after:
        If set, every call with index >= ``fail_after`` fails — a replica
        that dies and stays dead until the supervisor replaces it.
    """

    def __init__(
        self,
        fail_calls: Iterable[int] = (),
        stall_calls: Optional[Dict[int, float]] = None,
        fail_after: Optional[int] = None,
    ) -> None:
        self.fail_calls = frozenset(int(i) for i in fail_calls)
        self.stall_calls = {
            int(i): float(s) for i, s in (stall_calls or {}).items()
        }
        self.fail_after = None if fail_after is None else int(fail_after)

    def stall_s(self, call_index: int) -> float:
        return self.stall_calls.get(call_index, 0.0)

    def should_fail(self, call_index: int) -> bool:
        if self.fail_after is not None and call_index >= self.fail_after:
            return True
        return call_index in self.fail_calls


class FaultyEngine:
    """An engine wrapper that fails and stalls on schedule.

    ``predict`` counts calls (thread-safely) and consults the schedule;
    every other attribute — ``input_shape``, ``num_classes``,
    ``apply_pins`` — resolves on the wrapped engine, so the batcher's
    config-enforcement handshakes all still work.
    """

    def __init__(self, engine, schedule: Optional[FaultSchedule] = None,
                 stall_sleep: Callable[[float], None] = None) -> None:
        self._engine = engine
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self._calls = 0
        self._calls_lock = threading.Lock()
        self._stall_sleep = stall_sleep
        self.closed = False

    @property
    def calls(self) -> int:
        with self._calls_lock:
            return self._calls

    def predict(self, batch: np.ndarray):
        with self._calls_lock:
            call_index = self._calls
            self._calls += 1
        stall = self.schedule.stall_s(call_index)
        if stall > 0.0:
            sleep = self._stall_sleep
            if sleep is None:
                import time

                sleep = time.sleep
            sleep(stall)
        if self.schedule.should_fail(call_index):
            raise InjectedFault(
                f"injected engine fault on call {call_index}"
            )
        predict = getattr(self._engine, "predict", None)
        if callable(predict):
            return predict(batch)
        return self._engine(batch)

    def close(self) -> None:
        self.closed = True
        close = getattr(self._engine, "close", None)
        if callable(close):
            close()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)


def flaky_factory(
    base_factory: Callable[[], object],
    fail_first: int = 0,
    schedule_for: Optional[Callable[[int], Optional[FaultSchedule]]] = None,
) -> Callable[[], object]:
    """An engine factory whose early constructions produce broken engines.

    The first ``fail_first`` engines built fail on every call
    (``fail_after=0``), so a supervisor restarting through them exercises
    its backoff ladder; construction ``fail_first`` onward is healthy.
    ``schedule_for(build_index)`` overrides the per-build schedule when
    finer control is needed (return ``None`` for a healthy engine).
    Deterministic and thread-safe.
    """
    lock = threading.Lock()
    builds = [0]

    def factory() -> object:
        with lock:
            index = builds[0]
            builds[0] += 1
        engine = base_factory()
        if schedule_for is not None:
            schedule = schedule_for(index)
        elif index < fail_first:
            schedule = FaultSchedule(fail_after=0)
        else:
            schedule = None
        if schedule is None:
            return engine
        return FaultyEngine(engine, schedule)

    factory.builds = builds  # type: ignore[attr-defined]
    return factory


def flood(
    submit: Callable[[np.ndarray], Any],
    sample: np.ndarray,
    count: int,
) -> List[Any]:
    """Fire ``count`` submissions as fast as possible; return the results.

    Each entry is either the future/result ``submit`` returned or the
    exception it raised (``RequestShed`` under saturation) — callers
    assert on the mix.  Submission order is sequential and deterministic.
    """
    outcomes: List[Any] = []
    for _ in range(int(count)):
        try:
            outcomes.append(submit(sample))
        except Exception as error:  # noqa: BLE001 — the outcome *is* the data
            outcomes.append(error)
    return outcomes


__all__ = [
    "InjectedFault",
    "FaultSchedule",
    "FaultyEngine",
    "flaky_factory",
    "flood",
]
