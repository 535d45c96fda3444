"""Serving configuration.

Unlike the training-side dataclass configs, :class:`ServeConfig` follows the
Hugging Face ``PretrainedConfig`` idiom: explicit keyword arguments stored on
``self`` and derived fields computed in ``__init__``.  An unknown keyword
raises :class:`TypeError`, so a misspelled or removed field fails at
construction instead of being silently ignored.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.runtime.backends import Backend, get_backend


class ServeConfig:
    """Configuration of the batched INT8 inference service.

    Parameters
    ----------
    max_batch_size:
        Largest engine batch the micro-batcher will assemble.
    max_wait_ms:
        How long (milliseconds) a worker waits for additional requests after
        dequeuing the first one before dispatching a partial batch.  ``0``
        disables coalescing (every request runs alone — useful as a baseline).
    num_workers:
        Number of batch-serving worker threads.
    cache_capacity:
        Capacity of the LRU prediction cache; ``0`` disables caching.
    dedup_inflight:
        Coalesce requests whose input digest matches one already queued or
        executing: they share the original request's future instead of being
        re-batched.  Complements the cache, which only helps after the first
        answer lands.
    request_timeout_s:
        Default timeout when synchronously waiting for a prediction.
    backend:
        Runtime kernel backend for the engine (``"reference"``/``"fast"``);
        ``None`` defers to the ambient :mod:`repro.runtime`
        selection (``REPRO_BACKEND`` or the process default).
    """

    config_type = "serve"

    def __init__(
        self,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        num_workers: int = 1,
        cache_capacity: int = 256,
        dedup_inflight: bool = True,
        request_timeout_s: float = 30.0,
        backend: Any = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if cache_capacity < 0:
            raise ValueError(f"cache_capacity must be >= 0, got {cache_capacity}")
        if request_timeout_s <= 0:
            raise ValueError(f"request_timeout_s must be > 0, got {request_timeout_s}")

        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        self.num_workers = int(num_workers)
        self.cache_capacity = int(cache_capacity)
        self.dedup_inflight = bool(dedup_inflight)
        self.request_timeout_s = float(request_timeout_s)
        if backend is not None and not isinstance(backend, Backend):
            get_backend(backend)  # fail at construction, not in a worker
        self.backend = backend

        # Derived field used by the hot path (seconds, not milliseconds).
        self.max_wait_s = self.max_wait_ms / 1000.0

    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable view of the configuration."""
        return {
            "max_batch_size": self.max_batch_size,
            "max_wait_ms": self.max_wait_ms,
            "num_workers": self.num_workers,
            "cache_capacity": self.cache_capacity,
            "dedup_inflight": self.dedup_inflight,
            "request_timeout_s": self.request_timeout_s,
            "backend": getattr(self.backend, "name", self.backend),
        }

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={value!r}" for key, value in self.as_dict().items())
        return f"{type(self).__name__}({fields})"


class FrontendConfig(ServeConfig):
    """Configuration of the fault-tolerant network front-end.

    Extends :class:`ServeConfig` (each replica's micro-batcher is built
    from the shared batching knobs) with the wire / supervision layer:

    Parameters
    ----------
    host / port:
        Listen address.  ``port=0`` binds an ephemeral port (read it back
        from :attr:`ServeFrontend.port` — the test/benchmark idiom).
    num_replicas:
        Engine replicas in the supervised pool.  Each replica owns its own
        micro-batcher; the supervisor routes requests round-robin over the
        healthy ones and around any replica mid-restart.
    default_deadline_ms:
        Deadline applied to requests that do not carry their own.
    restart_backoff_ms / restart_backoff_max_ms:
        Capped exponential backoff between replica restart attempts: the
        first restart waits ``restart_backoff_ms``, each subsequent failure
        doubles the wait up to ``restart_backoff_max_ms``; a successful
        health probe resets the sequence.
    health_interval_ms:
        Supervisor monitor period: how often replica health is checked and
        due restarts are attempted.
    drain_timeout_s:
        Bound on the graceful-drain phase of shutdown (stop intake, flush
        in-flight batches) before engines are closed regardless.
    max_queue_depth:
        The one admission bound of the serving path: wire requests admitted
        but not yet answered.  At the bound the front-end sheds (a ``shed``
        response with a ``retry_after_ms`` hint) instead of queueing —
        deterministic degradation for the shed request rather than creeping
        latency for everyone.
    shed_retry_base_ms / shed_retry_per_depth_ms / shed_retry_cap_ms:
        The shed backoff hint: ``base + per_depth * queue_depth_EWMA``
        capped at ``cap`` — an idle service hands back the base, a
        saturated one approaches the cap, so well-behaved clients back off
        in proportion to the real backlog.
    """

    config_type = "frontend"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        num_replicas: int = 1,
        default_deadline_ms: float = 1000.0,
        restart_backoff_ms: float = 50.0,
        restart_backoff_max_ms: float = 2000.0,
        health_interval_ms: float = 25.0,
        drain_timeout_s: float = 10.0,
        max_queue_depth: int = 128,
        shed_retry_base_ms: float = 5.0,
        shed_retry_per_depth_ms: float = 2.0,
        shed_retry_cap_ms: float = 1000.0,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        if not 0 <= int(port) <= 65535:
            raise ValueError(
                f"port must be in [0, 65535] (0 binds ephemeral), got {port}"
            )
        if num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
        if default_deadline_ms <= 0:
            raise ValueError(
                f"default_deadline_ms must be > 0, got {default_deadline_ms}"
            )
        if restart_backoff_ms <= 0 or restart_backoff_max_ms < restart_backoff_ms:
            raise ValueError(
                "restart backoff requires 0 < restart_backoff_ms <= "
                f"restart_backoff_max_ms, got {restart_backoff_ms} / "
                f"{restart_backoff_max_ms}"
            )
        if health_interval_ms <= 0:
            raise ValueError(
                f"health_interval_ms must be > 0, got {health_interval_ms}"
            )
        if drain_timeout_s < 0:
            raise ValueError(
                f"drain_timeout_s must be >= 0, got {drain_timeout_s}"
            )
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if shed_retry_base_ms < 0 or shed_retry_per_depth_ms < 0:
            raise ValueError("shed retry hints must be >= 0")
        if shed_retry_cap_ms < shed_retry_base_ms:
            raise ValueError(
                f"shed_retry_cap_ms ({shed_retry_cap_ms}) must be >= "
                f"shed_retry_base_ms ({shed_retry_base_ms})"
            )
        self.host = str(host)
        self.port = int(port)
        self.num_replicas = int(num_replicas)
        self.default_deadline_ms = float(default_deadline_ms)
        self.restart_backoff_ms = float(restart_backoff_ms)
        self.restart_backoff_max_ms = float(restart_backoff_max_ms)
        self.health_interval_ms = float(health_interval_ms)
        self.drain_timeout_s = float(drain_timeout_s)
        self.max_queue_depth = int(max_queue_depth)
        self.shed_retry_base_ms = float(shed_retry_base_ms)
        self.shed_retry_per_depth_ms = float(shed_retry_per_depth_ms)
        self.shed_retry_cap_ms = float(shed_retry_cap_ms)
        # Derived (seconds) for the supervision hot loops.
        self.restart_backoff_s = self.restart_backoff_ms / 1000.0
        self.restart_backoff_max_s = self.restart_backoff_max_ms / 1000.0
        self.health_interval_s = self.health_interval_ms / 1000.0
        self.default_deadline_s = self.default_deadline_ms / 1000.0

    def as_dict(self) -> Dict[str, Any]:
        payload = super().as_dict()
        payload.update({
            "host": self.host,
            "port": self.port,
            "num_replicas": self.num_replicas,
            "default_deadline_ms": self.default_deadline_ms,
            "restart_backoff_ms": self.restart_backoff_ms,
            "restart_backoff_max_ms": self.restart_backoff_max_ms,
            "health_interval_ms": self.health_interval_ms,
            "drain_timeout_s": self.drain_timeout_s,
            "max_queue_depth": self.max_queue_depth,
            "shed_retry_base_ms": self.shed_retry_base_ms,
            "shed_retry_per_depth_ms": self.shed_retry_per_depth_ms,
            "shed_retry_cap_ms": self.shed_retry_cap_ms,
        })
        return payload
