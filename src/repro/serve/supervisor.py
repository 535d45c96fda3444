"""Supervised pool of inference-engine replicas with restart-and-reroute.

One engine (plus its micro-batcher) is a single point of failure: any
engine-pass exception takes the whole serving path down
with it.  The :class:`ReplicaSupervisor` removes
that coupling:

* **Replicas.**  Engines are grouped into per-model **replica sets** (one
  set per served ``name@version``; a single ``engine_factory`` at
  construction keeps the classic one-model pool).  Each replica is built
  by its set's factory and fronted by its own
  :class:`~repro.serve.batcher.MicroBatcher` (own queue, own workers), all
  sharing one :class:`~repro.serve.metrics.ServeMetrics` collector and one
  prediction cache (safe across versions: cache keys are namespaced by the
  engine's artifact fingerprint).
* **Routing.**  Requests go round-robin over the *healthy* replicas of
  their model's set; a replica marked failed (its engine pass raised) is
  routed around immediately — in-flight retries hop to the next healthy
  replica while the request's deadline still has budget.
* **Supervision.**  A monitor thread restarts failed replicas with capped
  exponential backoff (``restart_backoff_ms`` doubling up to
  ``restart_backoff_max_ms``): close the old engine (when it exposes
  ``close``), build a fresh one from the
  set's factory, probe it with a real forward pass, and only then route
  traffic back.  A set removed mid-restart (a hot-swap retired its
  version) is never resurrected: the restart discards the fresh engine
  instead of marking it healthy.  Restart counts are published as
  ``repro_replica_restarts_total``; the healthy count is the
  ``repro_replicas_healthy`` gauge.

The supervisor preserves the serving stack's **no-silent-drop** contract:
every submitted request resolves to a result, a
:class:`~repro.serve.errors.DeadlineExceeded`, a
:class:`~repro.serve.errors.RequestShed`, or — when every replica of the
routed set is down (or the set was just removed) — a
:class:`~repro.serve.errors.ReplicaUnavailable` that the front-end maps
to an explicit shed response.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError, Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from repro.obs.registry import get_registry
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import PredictionCache
from repro.serve.config import FrontendConfig
from repro.serve.errors import (
    DeadlineExceeded,
    ReplicaUnavailable,
    RequestShed,
)
from repro.serve.metrics import ServeMetrics

EngineFactory = Callable[[], object]

#: Replica-set key used by the classic single-factory constructor.
DEFAULT_MODEL_KEY = "default"

_HEALTHY = "healthy"
_FAILED = "failed"
_RESTARTING = "restarting"
_STOPPED = "stopped"


def _settle_result(future: "Future[object]", value: object) -> None:
    """Resolve ``future`` unless the caller already cancelled it."""
    try:
        future.set_result(value)
    except Exception:  # InvalidStateError: client abandoned the request
        pass


def _settle_exception(future: "Future[object]",
                      error: BaseException) -> None:
    try:
        future.set_exception(error)
    except Exception:
        pass


class _Replica:
    """One engine + batcher pair and its supervision state."""

    __slots__ = ("index", "owner", "engine", "batcher", "state",
                 "fail_count", "next_restart_at", "last_error")

    def __init__(self, index: int, owner: "_ReplicaSet") -> None:
        self.index = index
        self.owner = owner
        self.engine = None
        self.batcher: Optional[MicroBatcher] = None
        self.state = _STOPPED
        self.fail_count = 0
        self.next_restart_at = 0.0
        self.last_error: Optional[BaseException] = None


class _ReplicaSet:
    """The replicas serving one model key, with their factory and cursor."""

    __slots__ = ("key", "factory", "replicas", "rr")

    def __init__(self, key: str, factory: EngineFactory,
                 count: int) -> None:
        self.key = key
        self.factory = factory
        self.replicas = [_Replica(index, self) for index in range(count)]
        self.rr = 0


class ReplicaSupervisor:
    """Routes requests over per-model pools of supervised engine replicas.

    Parameters
    ----------
    engine_factory:
        Zero-argument callable returning a fresh engine (anything a
        :class:`MicroBatcher` accepts) — the supervisor's unit of
        recovery, registered as the default replica set.  Pass ``None``
        and add sets with :meth:`add_model` for multi-model serving (the
        registry-backed front-end does).
    config:
        A :class:`FrontendConfig` (replica count, restart backoff, health
        interval) whose inherited :class:`ServeConfig` half parameterizes
        each replica's micro-batcher.
    metrics / cache:
        Shared across every replica so the deployment reports one traffic
        picture; fresh defaults are created when omitted.
    """

    def __init__(
        self,
        engine_factory: Optional[EngineFactory] = None,
        config: Optional[FrontendConfig] = None,
        metrics: Optional[ServeMetrics] = None,
        cache: Optional[PredictionCache] = None,
    ) -> None:
        self.config = config if config is not None else FrontendConfig()
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.cache = (
            cache if cache is not None
            else PredictionCache(self.config.cache_capacity)
        )
        self._sets: "Dict[str, _ReplicaSet]" = {}
        if engine_factory is not None:
            self._sets[DEFAULT_MODEL_KEY] = _ReplicaSet(
                DEFAULT_MODEL_KEY, engine_factory,
                self.config.num_replicas,
            )
        self._lock = threading.RLock()
        self._running = False
        self._monitor: Optional[threading.Thread] = None
        self._monitor_wake = threading.Event()
        registry = get_registry()
        self._obs_restarts = registry.counter(
            "repro_replica_restarts_total",
            help="Replica engines restarted by the supervisor.")
        self._obs_healthy = registry.gauge(
            "repro_replicas_healthy", help="Replicas currently routable.")
        self._restarts = 0

    # ------------------------------------------------------------------ #
    # replica sets
    # ------------------------------------------------------------------ #
    @property
    def _replicas(self) -> List[_Replica]:
        """Flat replica view across sets (reports, tests)."""
        return [replica for replica_set in self._sets.values()
                for replica in replica_set.replicas]

    def models(self) -> List[str]:
        """Keys of the replica sets currently registered."""
        with self._lock:
            return list(self._sets)

    def has_model(self, key: str) -> bool:
        with self._lock:
            return key in self._sets

    def add_model(self, key: str, engine_factory: EngineFactory,
                  num_replicas: Optional[int] = None) -> "ReplicaSupervisor":
        """Register (idempotently) a replica set serving model ``key``.

        When the supervisor is already running the new set's replicas are
        built and started immediately — this is the hot-swap path: the new
        version's pool must be warm before routing flips to it.
        """
        with self._lock:
            if key in self._sets:
                return self
            count = (int(num_replicas) if num_replicas
                     else self.config.num_replicas)
            replica_set = _ReplicaSet(key, engine_factory, count)
            self._sets[key] = replica_set
            if self._running:
                for replica in replica_set.replicas:
                    self._start_replica_locked(replica)
                self._publish_health_locked()
        return self

    def remove_model(self, key: str, drain: bool = True,
                     drain_timeout: Optional[float] = None) -> bool:
        """Retire model ``key``'s replica set: drain, close, forget.

        The set is unregistered first (under the lock — new submissions
        for ``key`` get :class:`ReplicaUnavailable` immediately and the
        monitor stops restarting it), then its batchers drain and its
        engines close outside the lock.  Returns whether a set existed.
        """
        with self._lock:
            replica_set = self._sets.pop(key, None)
        if replica_set is None:
            return False
        timeout = (drain_timeout if drain_timeout is not None
                   else self.config.drain_timeout_s)
        for replica in replica_set.replicas:
            if replica.batcher is not None:
                replica.batcher.stop(drain=drain, drain_timeout=timeout)
        for replica in replica_set.replicas:
            self._close_engine(replica)
            replica.state = _STOPPED
        with self._lock:
            self._publish_health_locked()
        return True

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ReplicaSupervisor":
        """Build and start every replica plus the monitor thread."""
        with self._lock:
            if self._running:
                return self
            self._running = True
            for replica in self._replicas:
                self._start_replica_locked(replica)
            self._publish_health_locked()
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="replica-supervisor",
                daemon=True,
            )
            self._monitor.start()
        return self

    def _start_replica_locked(self, replica: _Replica) -> None:
        replica.engine = replica.owner.factory()
        replica.batcher = MicroBatcher(
            replica.engine, self.config,
            cache=self.cache, metrics=self.metrics,
            cache_namespace=replica.owner.key,
        ).start()
        replica.state = _HEALTHY
        replica.last_error = None

    def stop(self, drain: bool = True,
             drain_timeout: Optional[float] = None) -> None:
        """Deterministic shutdown: drain batchers, then close engines.

        The drain order is the graceful one the front-end documents: stop
        intake (each batcher sheds new work), flush in-flight batches
        (bounded by ``drain_timeout``, default the config's
        ``drain_timeout_s``), then close every engine that exposes
        ``close``.  Idempotent.
        """
        with self._lock:
            if not self._running:
                return
            self._running = False
            monitor, self._monitor = self._monitor, None
            replicas = list(self._replicas)
        self._monitor_wake.set()
        if monitor is not None:
            monitor.join(timeout=5.0)
        timeout = (drain_timeout if drain_timeout is not None
                   else self.config.drain_timeout_s)
        for replica in replicas:
            if replica.batcher is not None:
                replica.batcher.stop(drain=drain, drain_timeout=timeout)
        for replica in replicas:
            self._close_engine(replica)
            replica.state = _STOPPED
        self._publish_health_locked()
        self._monitor_wake.clear()

    def __enter__(self) -> "ReplicaSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @staticmethod
    def _close_engine(replica: _Replica) -> None:
        close = getattr(replica.engine, "close", None)
        if callable(close):
            try:
                close()
            except Exception:
                pass

    # ------------------------------------------------------------------ #
    # health accounting
    # ------------------------------------------------------------------ #
    def _publish_health_locked(self) -> None:
        healthy = sum(1 for r in self._replicas if r.state == _HEALTHY)
        self._obs_healthy.set(healthy)

    @property
    def healthy_replicas(self) -> int:
        """How many replicas are currently routable (all sets)."""
        with self._lock:
            return sum(1 for r in self._replicas if r.state == _HEALTHY)

    @property
    def restarts(self) -> int:
        """Replica restarts performed since construction."""
        return self._restarts

    def replica_states(self, model: Optional[str] = None) -> List[str]:
        """Per-replica state snapshot (test/report surface).

        Flat across sets by default (single-model deployments see the
        classic list); pass ``model`` for one set's view.
        """
        with self._lock:
            if model is not None:
                replica_set = self._sets.get(model)
                if replica_set is None:
                    raise KeyError(f"no replica set for model {model!r}")
                return [r.state for r in replica_set.replicas]
            return [replica.state for replica in self._replicas]

    def model_states(self) -> Dict[str, List[str]]:
        """Replica states grouped by model key."""
        with self._lock:
            return {key: [r.state for r in replica_set.replicas]
                    for key, replica_set in self._sets.items()}

    def _mark_failed(self, replica: _Replica,
                     error: BaseException) -> None:
        """Take a replica out of rotation and schedule its restart."""
        with self._lock:
            if replica.state != _HEALTHY:
                return
            replica.state = _FAILED
            replica.last_error = error
            replica.fail_count += 1
            backoff = min(
                self.config.restart_backoff_max_s,
                self.config.restart_backoff_s
                * (2.0 ** (replica.fail_count - 1)),
            )
            replica.next_restart_at = time.perf_counter() + backoff
            self._publish_health_locked()
        # Wake the monitor so the restart clock starts now, not at the
        # next poll boundary.
        self._monitor_wake.set()

    # ------------------------------------------------------------------ #
    # request routing
    # ------------------------------------------------------------------ #
    def _pick_set(self, model: Optional[str]) -> Optional[_ReplicaSet]:
        with self._lock:
            if model is not None:
                return self._sets.get(model)
            replica_set = self._sets.get(DEFAULT_MODEL_KEY)
            if replica_set is None and len(self._sets) == 1:
                replica_set = next(iter(self._sets.values()))
            return replica_set

    def _pick_healthy(self, replica_set: _ReplicaSet,
                      exclude: Set[int]) -> Optional[_Replica]:
        with self._lock:
            replicas = replica_set.replicas
            count = len(replicas)
            for offset in range(count):
                replica = replicas[(replica_set.rr + offset) % count]
                if replica.state == _HEALTHY and replica.index not in exclude:
                    replica_set.rr = (replica.index + 1) % count
                    return replica
        return None

    def submit(self, sample: np.ndarray,
               deadline_s: Optional[float] = None,
               model: Optional[str] = None) -> "Future[object]":
        """Route one sample to a healthy replica; returns its future.

        ``model`` selects the replica set (``None`` routes to the default
        set, or the only set when exactly one exists).  On an engine
        failure the request retries on the next healthy replica of the
        same set (each replica tried at most once) while the deadline
        still has budget; the failing replica is marked for supervised
        restart.  The returned future resolves to the label, or raises
        :class:`DeadlineExceeded` / :class:`RequestShed` /
        :class:`ReplicaUnavailable` — never hangs on a dead replica.
        """
        if not self._running:
            self.start()
        outer: "Future[object]" = Future()
        replica_set = self._pick_set(model)
        if replica_set is None:
            _settle_exception(outer, ReplicaUnavailable(
                "no replica set serves this request"
                if model is None else
                f"no replica set for model {model!r}"
            ))
            return outer
        self._try_submit(outer, replica_set, sample, deadline_s,
                         exclude=set())
        return outer

    def _try_submit(self, outer: "Future[object]",
                    replica_set: _ReplicaSet, sample: np.ndarray,
                    deadline_s: Optional[float], exclude: Set[int]) -> None:
        shed: Optional[RequestShed] = None
        while True:
            replica = self._pick_healthy(replica_set, exclude)
            if replica is None:
                _settle_exception(
                    outer,
                    shed if shed is not None else ReplicaUnavailable(
                        "no healthy replica available"
                    ),
                )
                return
            if deadline_s is not None and time.perf_counter() >= deadline_s:
                self.metrics.record_deadline_exceeded()
                _settle_exception(outer, DeadlineExceeded(
                    "deadline expired before a replica could serve"
                ))
                return
            try:
                inner = replica.batcher.submit(sample, deadline_s=deadline_s)
            except RequestShed as error:
                # This replica's intake is saturated (or draining); another
                # replica may still have headroom.
                exclude.add(replica.index)
                shed = error
                continue
            break

        def _relay(done: "Future[object]") -> None:
            if done.cancelled():
                outer.cancel()
                return
            error = done.exception()
            if error is None:
                _settle_result(outer, done.result())
            elif isinstance(error, (DeadlineExceeded, RequestShed)):
                # Explicit outcomes pass through: the deadline/shed was
                # the request's fate, not the replica's.
                _settle_exception(outer, error)
            else:
                # Engine failure: supervise the replica, retry elsewhere.
                self._mark_failed(replica, error)
                exclude.add(replica.index)
                if (deadline_s is not None
                        and time.perf_counter() >= deadline_s):
                    self.metrics.record_deadline_exceeded()
                    _settle_exception(outer, DeadlineExceeded(
                        "deadline expired during replica failover"
                    ))
                    return
                self._try_submit(outer, replica_set, sample, deadline_s,
                                 exclude)

        inner.add_done_callback(_relay)

    def predict(self, sample: np.ndarray,
                timeout: Optional[float] = None,
                model: Optional[str] = None) -> int:
        """Synchronous single-sample prediction through the pool."""
        timeout = (timeout if timeout is not None
                   else self.config.request_timeout_s)
        deadline = time.perf_counter() + timeout
        future = self.submit(sample, deadline_s=deadline, model=model)
        try:
            return int(future.result(timeout=timeout))
        except (FuturesTimeoutError, CancelledError):
            self.metrics.record_deadline_exceeded()
            raise DeadlineExceeded(
                "prediction timed out in the replica pool",
                deadline_ms=1000.0 * timeout,
            ) from None

    # ------------------------------------------------------------------ #
    # supervision loop
    # ------------------------------------------------------------------ #
    def _monitor_loop(self) -> None:
        while True:
            self._monitor_wake.wait(timeout=self.config.health_interval_s)
            self._monitor_wake.clear()
            if not self._running:
                return
            now = time.perf_counter()
            due: List[_Replica] = []
            with self._lock:
                for replica in self._replicas:
                    if (replica.state == _FAILED
                            and now >= replica.next_restart_at):
                        replica.state = _RESTARTING
                        due.append(replica)
            for replica in due:
                self._restart_replica(replica)

    def _probe(self, engine) -> None:
        """One real forward pass to verify a restarted engine serves.

        Uses the engine's declared ``input_shape`` when it has one; engines
        without it (bare callables) are probed optimistically by a no-op —
        their next real failure would simply re-enter the restart path.
        """
        shape = getattr(engine, "input_shape", None)
        predict = getattr(engine, "predict", None) or engine
        if shape:
            predict(np.zeros((1,) + tuple(shape), dtype=np.float32))

    def _set_registered_locked(self, replica: _Replica) -> bool:
        return self._sets.get(replica.owner.key) is replica.owner

    def _restart_replica(self, replica: _Replica) -> None:
        old_batcher = replica.batcher
        try:
            if old_batcher is not None:
                # No drain: the queue was already flushed by the failing
                # batch's error propagation, and a wedged engine must not
                # stall the restart.
                old_batcher.stop()
            self._close_engine(replica)
            engine = replica.owner.factory()
            self._probe(engine)
        except BaseException as error:
            # Failed restart: back off (exponentially, capped) and retry.
            with self._lock:
                if (not self._running
                        or not self._set_registered_locked(replica)):
                    replica.state = _STOPPED
                    return
                replica.state = _FAILED
                replica.last_error = error
                replica.fail_count += 1
                backoff = min(
                    self.config.restart_backoff_max_s,
                    self.config.restart_backoff_s
                    * (2.0 ** (replica.fail_count - 1)),
                )
                replica.next_restart_at = time.perf_counter() + backoff
            return
        with self._lock:
            if (not self._running
                    or not self._set_registered_locked(replica)):
                # Supervisor stopped — or a hot-swap retired this model
                # mid-restart.  Either way the fresh engine must not come
                # back into rotation (a rolled-back version stays gone).
                close = getattr(engine, "close", None)
                if callable(close):
                    close()
                replica.state = _STOPPED
                return
            replica.engine = engine
            replica.batcher = MicroBatcher(
                engine, self.config, cache=self.cache, metrics=self.metrics,
                cache_namespace=replica.owner.key,
            ).start()
            replica.state = _HEALTHY
            replica.fail_count = 0
            replica.last_error = None
            self._restarts += 1
            self._publish_health_locked()
        self._obs_restarts.inc()


__all__ = ["ReplicaSupervisor", "DEFAULT_MODEL_KEY"]
