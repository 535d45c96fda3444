"""Canary rollout controller: watch a candidate, roll back on regression.

A swap is all-or-nothing; a *canary* is how you earn the right to swap.
The :class:`CanaryController` routes a seeded deterministic fraction of a
model's traffic to a candidate version (via the registry's routing
snapshot), accumulates per-version sliding windows of latency and error
observations, and compares candidate against stable once both windows have
enough samples:

* error rate above stable by more than ``error_margin``     → regression
* mean latency above ``latency_ratio`` × stable's (floored) → regression

A regression triggers an automatic **rollback**: the canary split is
cleared atomically (new requests all land on stable again) and the model
enters a **hold-off** window before another canary may start — doubling on
every consecutive failure and capped, exactly the adaptive-backoff shape
802.11 DCF uses for retransmissions: a flapping candidate must not thunder
back into the traffic path.  A successful :meth:`promote` swaps the
candidate to stable and resets the hold-off.

Counters: ``repro_canary_rollbacks_total`` counts rollbacks;
``repro_canary_fraction{model=...}`` gauges the live split per model.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.registry import get_registry
from repro.serve.errors import ServeError


class CanaryHeldOff(ServeError):
    """A canary start was refused because the model is in hold-off."""

    def __init__(self, message: str, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class _Window:
    """Sliding window of (ok, latency_ms) observations."""

    __slots__ = ("entries",)

    def __init__(self, size: int) -> None:
        self.entries: Deque[Tuple[bool, float]] = deque(maxlen=size)

    def add(self, ok: bool, latency_ms: float) -> None:
        self.entries.append((bool(ok), float(latency_ms)))

    def __len__(self) -> int:
        return len(self.entries)

    def error_rate(self) -> float:
        if not self.entries:
            return 0.0
        return sum(1 for ok, _ in self.entries if not ok) / len(self)

    def mean_latency_ms(self) -> float:
        if not self.entries:
            return 0.0
        return sum(lat for _, lat in self.entries) / len(self)


class _Holdoff:
    """Capped doubling hold-off state for one model name."""

    __slots__ = ("fail_count", "retry_at", "holdoff_s")

    def __init__(self) -> None:
        self.fail_count = 0
        self.retry_at = 0.0
        self.holdoff_s = 0.0


class CanaryController:
    """Drives canary rollouts over a :class:`ModelRegistry`.

    Two verdicts, error rate and latency, both over the outcomes the
    front-end feeds :meth:`observe` for each routed version.

    Parameters
    ----------
    registry:
        The :class:`~repro.serve.registry.ModelRegistry` whose routing
        snapshot this controller mutates (``set_canary`` /
        ``clear_canary`` / ``swap``).
    window / min_samples:
        Sliding-window length per (name, version) and the per-side sample
        floor before a verdict is attempted.
    latency_ratio / latency_floor_ms:
        Candidate regresses when its mean latency exceeds
        ``latency_ratio × max(stable mean, latency_floor_ms)`` — the floor
        keeps microsecond-fast stables from flagging harmless noise.
    error_margin:
        Absolute error-rate headroom over stable before rollback.
    holdoff_base_s / holdoff_max_s:
        Capped doubling hold-off between failed promotions.
    on_rollback / on_promote:
        ``(name, version, reason)`` / ``(name, version)`` callbacks,
        invoked outside the controller lock (the frontend retires
        replica sets here).
    """

    def __init__(
        self,
        registry,
        *,
        window: int = 64,
        min_samples: int = 16,
        latency_ratio: float = 1.5,
        latency_floor_ms: float = 1.0,
        error_margin: float = 0.05,
        holdoff_base_s: float = 0.5,
        holdoff_max_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        on_rollback: Optional[Callable[[str, str, str], None]] = None,
        on_promote: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if window <= 0 or min_samples <= 0:
            raise ValueError("window and min_samples must be positive")
        if latency_ratio <= 1.0:
            raise ValueError("latency_ratio must exceed 1.0")
        if holdoff_base_s <= 0 or holdoff_max_s < holdoff_base_s:
            raise ValueError("need 0 < holdoff_base_s <= holdoff_max_s")
        self.registry = registry
        self.window = int(window)
        self.min_samples = int(min_samples)
        self.latency_ratio = float(latency_ratio)
        self.latency_floor_ms = float(latency_floor_ms)
        self.error_margin = float(error_margin)
        self.holdoff_base_s = float(holdoff_base_s)
        self.holdoff_max_s = float(holdoff_max_s)
        self.clock = clock
        self.on_rollback = on_rollback
        self.on_promote = on_promote
        self._lock = threading.Lock()
        self._windows: "Dict[Tuple[str, str], _Window]" = {}
        self._holdoffs: "Dict[str, _Holdoff]" = {}
        self._rollbacks = 0
        self._last_rollback: "Dict[str, Tuple[str, str]]" = {}
        obs = get_registry()
        self._obs_rollbacks = obs.counter(
            "repro_canary_rollbacks_total",
            help="Canary candidates rolled back on regression.")
        self._obs_fraction_for: "Dict[str, object]" = {}

    # ------------------------------------------------------------------ #
    def _fraction_gauge(self, name: str):
        gauge = self._obs_fraction_for.get(name)
        if gauge is None:
            gauge = get_registry().gauge(
                "repro_canary_fraction",
                help="Live canary traffic fraction per model.",
                model=str(name))
            self._obs_fraction_for[name] = gauge
        return gauge

    def _window_for_locked(self, name: str, version: str) -> _Window:
        key = (name, version)
        window = self._windows.get(key)
        if window is None:
            window = _Window(self.window)
            self._windows[key] = window
        return window

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self, name: str, version: str, fraction: float,
              seed: int = 0, force: bool = False) -> None:
        """Begin a canary rollout of ``name@version`` at ``fraction``.

        Raises :class:`CanaryHeldOff` while the model's hold-off window is
        open (unless ``force``); both sides' comparison windows restart
        fresh so stale observations cannot pre-judge the candidate.
        """
        with self._lock:
            hold = self._holdoffs.get(name)
            now = self.clock()
            if hold is not None and not force and now < hold.retry_at:
                raise CanaryHeldOff(
                    f"canary for {name!r} held off another "
                    f"{hold.retry_at - now:.3f}s after "
                    f"{hold.fail_count} failed rollout(s)",
                    retry_after_s=hold.retry_at - now,
                )
        # set_canary validates (resolvable, not already stable) and flips
        # the routing snapshot atomically.
        self.registry.set_canary(name, version, fraction, seed=seed)
        with self._lock:
            stable = self.registry.serving(name)
            self._windows[(name, version)] = _Window(self.window)
            self._windows[(name, stable)] = _Window(self.window)
        self._fraction_gauge(name).set(float(fraction))

    def active(self, name: str) -> Optional[str]:
        """The candidate version under canary for ``name``, if any."""
        canary = self.registry.canary_of(name)
        return canary[0] if canary is not None else None

    # ------------------------------------------------------------------ #
    # observation + verdict
    # ------------------------------------------------------------------ #
    def observe(self, name: str, version: str, latency_ms: float,
                ok: bool = True) -> None:
        """Feed one request outcome; evaluates the live canary, if any."""
        with self._lock:
            self._window_for_locked(name, version).add(ok, latency_ms)
        canary = self.registry.canary_of(name)
        if canary is None:
            return
        candidate = canary[0]
        if version not in (candidate, self.registry.serving(name)):
            return
        reason = self._verdict(name, candidate)
        if reason is not None:
            self.rollback(name, reason=reason)

    def _verdict(self, name: str, candidate: str) -> Optional[str]:
        """Compare candidate vs stable windows; a reason means rollback."""
        stable = self.registry.serving(name)
        with self._lock:
            cand = self._windows.get((name, candidate))
            base = self._windows.get((name, stable))
            if (cand is None or base is None
                    or len(cand) < self.min_samples
                    or len(base) < self.min_samples):
                return None
            cand_err, base_err = cand.error_rate(), base.error_rate()
            cand_lat, base_lat = (cand.mean_latency_ms(),
                                  base.mean_latency_ms())
        if cand_err > base_err + self.error_margin:
            return (f"error rate {cand_err:.3f} exceeds stable "
                    f"{base_err:.3f} + {self.error_margin}")
        floor = max(base_lat, self.latency_floor_ms)
        if cand_lat > self.latency_ratio * floor:
            return (f"latency {cand_lat:.3f}ms exceeds "
                    f"{self.latency_ratio}x stable {base_lat:.3f}ms")
        return None

    # ------------------------------------------------------------------ #
    # rollback / promote
    # ------------------------------------------------------------------ #
    def rollback(self, name: str, reason: str = "regression") -> bool:
        """Clear the canary split and open (or double) the hold-off.

        Returns ``False`` when no canary was active (idempotent under the
        observe/evaluate race: exactly one caller wins the clear).
        """
        cleared = self.registry.clear_canary(name)
        if cleared is None:
            return False
        with self._lock:
            hold = self._holdoffs.setdefault(name, _Holdoff())
            hold.fail_count += 1
            hold.holdoff_s = min(
                self.holdoff_max_s,
                self.holdoff_base_s * (2.0 ** (hold.fail_count - 1)),
            )
            hold.retry_at = self.clock() + hold.holdoff_s
            self._rollbacks += 1
            self._last_rollback[name] = (cleared, reason)
            self._windows.pop((name, cleared), None)
        self._obs_rollbacks.inc()
        self._fraction_gauge(name).set(0.0)
        if self.on_rollback is not None:
            self.on_rollback(name, cleared, reason)
        return True

    def promote(self, name: str) -> Tuple[str, str]:
        """Swap the candidate to stable; resets the hold-off."""
        canary = self.registry.canary_of(name)
        if canary is None:
            raise ValueError(f"model {name!r} has no active canary")
        candidate = canary[0]
        old, new = self.registry.swap(name, candidate)
        with self._lock:
            self._holdoffs.pop(name, None)
        self._fraction_gauge(name).set(0.0)
        if self.on_promote is not None:
            self.on_promote(name, candidate)
        return old, new

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def rollbacks(self) -> int:
        with self._lock:
            return self._rollbacks

    def holdoff_s(self, name: str) -> float:
        """Seconds until another canary may start for ``name`` (0 = now)."""
        with self._lock:
            hold = self._holdoffs.get(name)
            if hold is None:
                return 0.0
            return max(0.0, hold.retry_at - self.clock())

    def status(self, name: Optional[str] = None) -> List[Dict[str, object]]:
        """JSON-ready per-model canary state (the wire ``canary`` status)."""
        names = [name] if name is not None else self.registry.names()
        out: List[Dict[str, object]] = []
        for model_name in names:
            entry: Dict[str, object] = {"name": model_name}
            canary = self.registry.canary_of(model_name)
            if canary is not None:
                entry["candidate"] = canary[0]
                entry["fraction"] = canary[1]
                entry["seed"] = canary[2]
            with self._lock:
                hold = self._holdoffs.get(model_name)
                if hold is not None:
                    entry["failed_rollouts"] = hold.fail_count
                    entry["holdoff_s"] = max(
                        0.0, hold.retry_at - self.clock()
                    )
                last = self._last_rollback.get(model_name)
                if last is not None:
                    entry["last_rollback"] = {
                        "version": last[0], "reason": last[1],
                    }
            out.append(entry)
        return out


__all__ = ["CanaryController", "CanaryHeldOff"]
