"""Fault-tolerant network front-end: wire protocol, admission, deadlines.

This is where traffic finally enters the runtime over a socket instead of a
Python call.  The design goal is *explicit outcomes under failure*: every
request a client submits resolves to exactly one of

* ``ok``       — a label, computed within the deadline;
* ``shed``     — admission refused (queue saturated, draining, or no
  healthy replica), with an adaptive ``retry_after_ms`` backoff hint; or
* ``deadline_exceeded`` — the deadline passed before a result existed.

Nothing is dropped silently: overload degrades deterministically (the shed
request knows immediately and backs off), not by creeping latency for
everyone — the 802.11-DCF-shaped contract where the *server* publishes the
contention window and well-behaved clients spread themselves over it.

Wire protocol (version 1), symmetric in both directions::

    [4-byte big-endian header length][JSON header][payload_nbytes raw bytes]

The header is JSON; tensor payloads ride as raw bytes after it (shape and
dtype declared in the header), so a request costs one JSON parse plus one
zero-copy ``np.frombuffer``.  Request kinds: ``predict`` (optionally with
``deadline_ms`` and a ``model`` ref such as ``resnet18-mini@v2``),
``ping``, ``metrics``, and — on registry-backed servers — the admin kinds
``list-models``, ``swap`` and ``canary`` (start/rollback/status).

The server runs an asyncio loop in a background thread and feeds a
:class:`~repro.serve.supervisor.ReplicaSupervisor`; the synchronous
:class:`FrontendClient` is the reference client (and the ``serve-bench
--client`` engine).  Graceful drain follows a strict order: stop intake
(new requests shed with ``draining``), flush in-flight work, then close
engines deterministically.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import struct
import threading
import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.obs import trace as obs_trace
from repro.obs.registry import get_registry
from repro.serve.cache import input_digest
from repro.serve.canary import CanaryController, CanaryHeldOff
from repro.serve.config import FrontendConfig
from repro.serve.errors import (
    DeadlineExceeded,
    ReplicaUnavailable,
    RequestShed,
)
from repro.serve.registry import ModelNotFound, ModelRegistry
from repro.serve.supervisor import EngineFactory, ReplicaSupervisor

PROTOCOL_VERSION = 1

_LEN = struct.Struct(">I")

#: Upper bound on a single frame header (sanity guard against garbage).
MAX_HEADER_BYTES = 1 << 20

#: Upper bound on a tensor payload (64 MiB — far above any served sample).
MAX_PAYLOAD_BYTES = 64 << 20


def _encode_frame(header: Dict[str, Any], payload: bytes = b"") -> bytes:
    if payload:
        header = dict(header, payload_nbytes=len(payload))
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(raw)) + raw + payload


def _encode_sample(sample: np.ndarray) -> Tuple[Dict[str, Any], bytes]:
    sample = np.ascontiguousarray(sample, dtype=np.float32)
    return ({"shape": list(sample.shape), "dtype": "float32"},
            sample.tobytes())


def _decode_sample(header: Dict[str, Any], payload: bytes) -> np.ndarray:
    shape = tuple(int(v) for v in header.get("shape", ()))
    dtype = np.dtype(str(header.get("dtype", "float32")))
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if expected != len(payload):
        raise ValueError(
            f"payload is {len(payload)} bytes but shape {shape} "
            f"({dtype}) needs {expected}"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(shape)


# --------------------------------------------------------------------------- #
# server
# --------------------------------------------------------------------------- #
class ServeFrontend:
    """Asyncio socket front-end over a supervised replica pool.

    Parameters
    ----------
    engine_factory:
        Zero-argument engine builder, handed to the
        :class:`ReplicaSupervisor` as its unit of recovery.  An existing
        :class:`ReplicaSupervisor` may be passed via ``supervisor`` instead
        (fault-injection tests do this to wrap replicas), or a
        :class:`~repro.serve.registry.ModelRegistry` via ``registry`` for
        multi-model serving — exactly one of the three.
    config:
        :class:`FrontendConfig` — listen address, replica count, admission
        bound, default deadline, drain budget.
    registry / controller:
        A registry-backed front-end serves every routed model through
        per-model replica sets, accepts the ``model`` header field and the
        ``list-models`` / ``swap`` / ``canary`` admin kinds, and drives a
        :class:`~repro.serve.canary.CanaryController` (a configured one
        may be injected; by default rollbacks retire the candidate's
        replica set so a supervised restart cannot resurrect it).
    """

    def __init__(
        self,
        engine_factory: Optional[EngineFactory] = None,
        config: Optional[FrontendConfig] = None,
        supervisor: Optional[ReplicaSupervisor] = None,
        registry: Optional[ModelRegistry] = None,
        controller: Optional[CanaryController] = None,
    ) -> None:
        sources = sum(
            source is not None
            for source in (engine_factory, supervisor, registry)
        )
        if sources != 1:
            raise ValueError(
                "pass exactly one of engine_factory, supervisor or registry"
            )
        if controller is not None and registry is None:
            raise ValueError("controller requires a registry")
        self.config = config if config is not None else FrontendConfig()
        self.registry = registry
        if registry is not None:
            self.supervisor = ReplicaSupervisor(config=self.config)
            self.controller = (
                controller if controller is not None
                else CanaryController(registry)
            )
            # Chain (don't replace) any user rollback hook: the front-end
            # must always retire the rolled-back version's replica set.
            user_hook = self.controller.on_rollback
            def _rollback_hook(name: str, version: str,
                               reason: str) -> None:
                self._on_canary_rollback(name, version, reason)
                if user_hook is not None:
                    user_hook(name, version, reason)
            self.controller.on_rollback = _rollback_hook
        else:
            self.supervisor = (
                supervisor if supervisor is not None
                else ReplicaSupervisor(engine_factory, self.config)
            )
            self.controller = None
        self._swap_lock = threading.Lock()
        self.metrics = self.supervisor.metrics
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._lifecycle = threading.Lock()
        self._draining = False
        self._closed = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._conn_tasks: set = set()
        self._obs_queue_depth = get_registry().gauge(
            "repro_frontend_queue_depth",
            help="Requests admitted by the front-end, not yet answered.")

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ServeFrontend":
        """Start replicas, the event loop thread, and the listener."""
        with self._lifecycle:
            if self._server is not None:
                return self
            if self._closed:
                raise RuntimeError("front-end already closed")
            if self.registry is not None:
                # Warm a replica set per routed model before the listener
                # opens, so the first request never pays an engine build.
                for name in self.registry.names():
                    try:
                        serving = self.registry.serving(name)
                    except ModelNotFound:
                        continue  # registered but unrouted
                    self._ensure_serving(f"{name}@{serving}")
            self.supervisor.start()
            self._loop = asyncio.new_event_loop()
            self._thread = threading.Thread(
                target=self._loop.run_forever, name="serve-frontend",
                daemon=True,
            )
            self._thread.start()
            future = asyncio.run_coroutine_threadsafe(
                asyncio.start_server(
                    self._handle_connection,
                    host=self.config.host, port=self.config.port,
                ),
                self._loop,
            )
            self._server = future.result(timeout=10.0)
        return self

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        if self._server is None:
            raise RuntimeError("front-end not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> Tuple[str, int]:
        return (self.config.host, self.port)

    @property
    def inflight(self) -> int:
        """Admitted wire requests not yet answered."""
        with self._inflight_lock:
            return self._inflight

    def drain(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown, in the documented order.

        1. **Stop intake** — the listener closes and requests already on
           open connections shed with reason ``draining``.
        2. **Flush in-flight work** — admitted requests run to their
           explicit outcome, bounded by ``timeout`` (default the config's
           ``drain_timeout_s``).
        3. **Close the pool** — the supervisor drains each replica batcher
           and closes every engine.

        Idempotent; :meth:`close` calls it before stopping the loop.
        """
        timeout = (timeout if timeout is not None
                   else self.config.drain_timeout_s)
        with self._lifecycle:
            if self._draining:
                return
            self._draining = True
            server, loop = self._server, self._loop
        if server is not None and loop is not None:
            asyncio.run_coroutine_threadsafe(
                self._stop_listener(server), loop
            ).result(timeout=10.0)
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with self._inflight_lock:
                if self._inflight <= 0:
                    break
            time.sleep(0.001)
        self.supervisor.stop(drain=True, drain_timeout=max(
            0.0, deadline - time.perf_counter()
        ))

    @staticmethod
    async def _stop_listener(server: asyncio.AbstractServer) -> None:
        server.close()
        await server.wait_closed()

    def close(self) -> None:
        """Drain, then stop the event loop thread (idempotent)."""
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
        self.drain()
        loop, self._loop = self._loop, None
        thread, self._thread = self._thread, None
        self._server = None
        if loop is not None:
            async def _cancel_connections() -> None:
                tasks = list(self._conn_tasks)
                for task in tasks:
                    task.cancel()
                if tasks:
                    await asyncio.gather(*tasks, return_exceptions=True)
            try:
                asyncio.run_coroutine_threadsafe(
                    _cancel_connections(), loop
                ).result(timeout=5.0)
            except Exception:
                pass
            loop.call_soon_threadsafe(loop.stop)
            if thread is not None:
                thread.join(timeout=5.0)
            loop.close()

    def __enter__(self) -> "ServeFrontend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # model lifecycle (registry-backed front-ends)
    # ------------------------------------------------------------------ #
    def _require_registry(self) -> ModelRegistry:
        if self.registry is None:
            raise RuntimeError("this front-end serves no model registry")
        return self.registry

    def _ensure_serving(self, ref: str) -> str:
        """Make sure ``ref``'s replica set exists (idempotent); warm it."""
        registry = self._require_registry()
        model = registry.resolve(ref)
        self.supervisor.add_model(
            model.ref, registry.engine_factory(model.ref)
        )
        return model.ref

    def _routed_refs(self) -> set:
        """Every ``name@version`` the routing snapshot still references."""
        registry = self._require_registry()
        refs = set()
        for name in registry.names():
            try:
                refs.add(f"{name}@{registry.serving(name)}")
            except ModelNotFound:
                continue
            canary = registry.canary_of(name)
            if canary is not None:
                refs.add(f"{name}@{canary[0]}")
        return refs

    def _retire_unrouted(self, ref: str) -> None:
        """Drain and drop ``ref``'s replica set once routing left it."""
        if ref in self._routed_refs():
            return
        self.supervisor.remove_model(ref, drain=True)

    def _retire_async(self, ref: str) -> None:
        threading.Thread(
            target=self._retire_unrouted, args=(ref,),
            name=f"retire-{ref}", daemon=True,
        ).start()

    def swap(self, ref: str) -> Tuple[str, str]:
        """Atomic hot-swap: make ``ref`` the stable version of its model.

        Ordering is what makes it hitless: the new version's replica set
        is built and warmed *first*, then the routing snapshot flips under
        the registry lock (new requests land on the new version while
        in-flight batches finish on the old engine), and only then is the
        old version's set drained and retired — in the background, and
        only if nothing routes to it anymore.  Returns ``(old, new)``.
        """
        registry = self._require_registry()
        model = registry.resolve(ref)
        with self._swap_lock:
            self._ensure_serving(model.ref)
            old, new = registry.swap(model.name, model.version)
        if old != new:
            self._retire_async(f"{model.name}@{old}")
        return old, new

    def start_canary(self, ref: str, fraction: float, seed: int = 0,
                     force: bool = False) -> str:
        """Warm ``ref``'s replica set and open a canary split to it."""
        registry = self._require_registry()
        model = registry.resolve(ref)
        if self.controller is None:
            raise RuntimeError("front-end has no canary controller")
        with self._swap_lock:
            self._ensure_serving(model.ref)
            self.controller.start(model.name, model.version, fraction,
                                  seed=seed, force=force)
        return model.ref

    def rollback_canary(self, name: str, reason: str = "admin") -> bool:
        if self.controller is None:
            raise RuntimeError("front-end has no canary controller")
        return self.controller.rollback(name, reason=reason)

    def _on_canary_rollback(self, name: str, version: str,
                            reason: str) -> None:
        # Retire in the background: rollbacks fire from observe() on the
        # serving path, and draining a replica set there would stall it.
        self._retire_async(f"{name}@{version}")

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        write_lock = asyncio.Lock()
        pending: set = set()
        try:
            while True:
                try:
                    frame = await self._read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if frame is None:
                    break
                header, payload = frame
                # Requests pipeline: each runs as its own task so one slow
                # predict does not head-of-line-block the connection.
                request_task = asyncio.ensure_future(
                    self._serve_request(header, payload, writer, write_lock)
                )
                pending.add(request_task)
                request_task.add_done_callback(pending.discard)
        except asyncio.CancelledError:
            pass
        finally:
            if pending:
                try:
                    await asyncio.gather(*pending, return_exceptions=True)
                except asyncio.CancelledError:
                    pass
            try:
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                pass
            if task is not None:
                self._conn_tasks.discard(task)

    async def _read_frame(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[Dict[str, Any], bytes]]:
        raw_len = await reader.readexactly(4)
        (header_len,) = _LEN.unpack(raw_len)
        if not 0 < header_len <= MAX_HEADER_BYTES:
            raise ConnectionError(f"bad header length {header_len}")
        header = json.loads(await reader.readexactly(header_len))
        payload = b""
        nbytes = int(header.get("payload_nbytes", 0))
        if nbytes:
            if nbytes > MAX_PAYLOAD_BYTES:
                raise ConnectionError(f"payload too large ({nbytes} bytes)")
            payload = await reader.readexactly(nbytes)
        return header, payload

    async def _respond(self, writer: asyncio.StreamWriter,
                       write_lock: asyncio.Lock,
                       header: Dict[str, Any]) -> None:
        async with write_lock:
            writer.write(_encode_frame(header))
            try:
                await writer.drain()
            except ConnectionError:
                pass

    def _shed_header(self, request_id: Any, reason: str) -> Dict[str, Any]:
        """Count one shed and answer it with the backoff hint.

        Every shed of the serving path ends here, so each is counted once
        and carries the hint from this front-end's ``shed_retry_*`` knobs.
        """
        self.metrics.record_shed()
        config = self.config
        retry_after_ms = self.metrics.retry_after_ms(
            base_ms=config.shed_retry_base_ms,
            per_depth_ms=config.shed_retry_per_depth_ms,
            cap_ms=config.shed_retry_cap_ms,
        )
        return {"id": request_id, "status": "shed", "reason": reason,
                "retry_after_ms": retry_after_ms}

    async def _serve_request(
        self,
        header: Dict[str, Any],
        payload: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        kind = header.get("kind", "predict")
        request_id = header.get("id")
        if kind == "ping":
            await self._respond(writer, write_lock, {
                "id": request_id, "status": "ok", "pong": True,
                "draining": self._draining,
                "protocol": PROTOCOL_VERSION,
            })
            return
        if kind == "metrics":
            response = {
                "id": request_id, "status": "ok",
                "metrics": self.metrics.snapshot(),
                "replicas": self.supervisor.replica_states(),
                "restarts": self.supervisor.restarts,
                "obs": get_registry().snapshot(),
            }
            if self.registry is not None:
                response["models"] = self.registry.describe()
                response["model_replicas"] = self.supervisor.model_states()
            await self._respond(writer, write_lock, response)
            return
        if kind in ("list-models", "swap", "canary"):
            await self._serve_admin(kind, header, request_id,
                                    writer, write_lock)
            return
        if kind != "predict":
            await self._respond(writer, write_lock, {
                "id": request_id, "status": "error",
                "error": f"unknown request kind {kind!r}",
            })
            return
        await self._serve_predict(header, payload, request_id,
                                  writer, write_lock)

    async def _serve_admin(
        self,
        kind: str,
        header: Dict[str, Any],
        request_id: Any,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        """Registry admin kinds; sync work runs off the event loop."""
        loop = asyncio.get_running_loop()

        def _run() -> Dict[str, Any]:
            registry = self._require_registry()
            if kind == "list-models":
                return {"status": "ok", "models": registry.describe(),
                        "stats": registry.stats()}
            if kind == "swap":
                ref = header.get("model")
                if not ref:
                    return {"status": "error",
                            "error": "swap needs a model ref"}
                old, new = self.swap(str(ref))
                return {"status": "ok",
                        "swapped": {"from": old, "to": new}}
            action = str(header.get("action", "status"))
            if action == "start":
                ref = header.get("model")
                if not ref:
                    return {"status": "error",
                            "error": "canary start needs a model ref"}
                served = self.start_canary(
                    str(ref),
                    float(header.get("fraction", 0.1)),
                    seed=int(header.get("seed", 0)),
                    force=bool(header.get("force", False)),
                )
                return {"status": "ok", "canary": served}
            if action == "rollback":
                name = header.get("model")
                if not name:
                    return {"status": "error",
                            "error": "canary rollback needs a model name"}
                rolled = self.rollback_canary(
                    str(name), reason=str(header.get("reason", "admin")))
                return {"status": "ok", "rolled_back": rolled}
            if action == "status":
                if self.controller is None:
                    return {"status": "error",
                            "error": "no canary controller"}
                name = header.get("model")
                return {"status": "ok",
                        "canary": self.controller.status(
                            str(name) if name else None)}
            return {"status": "error",
                    "error": f"unknown canary action {action!r}"}

        try:
            response = await loop.run_in_executor(None, _run)
        except CanaryHeldOff as held:
            response = {"status": "error", "error": str(held),
                        "retry_after_s": held.retry_after_s}
        except (ModelNotFound, ValueError, RuntimeError) as error:
            response = {"status": "error", "error": str(error)}
        response["id"] = request_id
        await self._respond(writer, write_lock, response)

    async def _serve_predict(
        self,
        header: Dict[str, Any],
        payload: bytes,
        request_id: Any,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        # --- admission control -------------------------------------- #
        if self._draining:
            await self._respond(writer, write_lock,
                                self._shed_header(request_id, "draining"))
            return
        admitted = False
        with self._inflight_lock:
            if self._inflight < self.config.max_queue_depth:
                self._inflight += 1
                admitted = True
                depth = self._inflight
        if not admitted:
            await self._respond(writer, write_lock,
                                self._shed_header(request_id, "queue_full"))
            return
        self._obs_queue_depth.set(depth)
        trace = obs_trace.maybe_trace("frontend.request")
        started = time.perf_counter()
        try:
            outcome = await self._predict_outcome(header, payload, started)
        finally:
            with self._inflight_lock:
                self._inflight -= 1
                depth = self._inflight
            self._obs_queue_depth.set(depth)
        if trace is not None:
            trace.record_span("frontend.predict", started,
                              time.perf_counter(),
                              outcome=outcome.get("status"))
            trace.attrs["outcome"] = outcome.get("status")
            obs_trace.finish_trace(trace)
        outcome["id"] = request_id
        outcome["server_ms"] = 1000.0 * (time.perf_counter() - started)
        await self._respond(writer, write_lock, outcome)

    async def _predict_outcome(
        self, header: Dict[str, Any], payload: bytes, started: float
    ) -> Dict[str, Any]:
        """Run one admitted predict to its explicit outcome header."""
        try:
            sample = _decode_sample(header, payload)
        except Exception as error:
            return {"status": "error", "error": f"bad tensor frame: {error}"}
        model_ref = header.get("model")
        route = None
        model_key: Optional[str] = None
        if self.registry is not None:
            try:
                route = self.registry.route(
                    str(model_ref) if model_ref else None,
                    key=input_digest(sample),
                )
            except (ModelNotFound, ValueError) as error:
                return {"status": "error", "error": str(error)}
            model_key = route.ref
            if not self.supervisor.has_model(model_key):
                # Raced a retire (the set is gone but a stale pin or a
                # just-rolled-back canary asked for it): shed explicitly.
                return self._shed_header(None, "no_replica")
        elif model_ref:
            return {"status": "error",
                    "error": "server has no model registry; "
                             "omit the model field"}
        deadline_ms = float(
            header.get("deadline_ms") or self.config.default_deadline_ms
        )
        deadline_s = started + deadline_ms / 1000.0
        outcome = await self._routed_outcome(
            sample, model_key, deadline_ms, deadline_s
        )
        if route is not None:
            status = outcome.get("status")
            if status in ("ok", "error", "deadline_exceeded") or (
                    status == "shed"
                    and outcome.get("reason") == "no_replica"):
                # Version-attributed outcomes: results and failures the
                # routed version owns (its engine erred, stalled past the
                # deadline, or its whole set is down) — the canary
                # controller's comparison feed.  Pre-engine load sheds
                # (queue_full, draining) are admission, not the version.
                latency_ms = 1000.0 * (time.perf_counter() - started)
                ok = status == "ok"
                self.metrics.record_model_request(
                    route.name, route.version, latency_ms, ok=ok)
                if self.controller is not None:
                    self.controller.observe(
                        route.name, route.version, latency_ms, ok=ok)
            if outcome.get("status") == "ok":
                outcome["model"] = route.ref
                if route.canary:
                    outcome["canary"] = True
        return outcome

    async def _routed_outcome(
        self,
        sample: np.ndarray,
        model_key: Optional[str],
        deadline_ms: float,
        deadline_s: float,
    ) -> Dict[str, Any]:
        future = self.supervisor.submit(
            sample, deadline_s=deadline_s, model=model_key
        )
        try:
            remaining = max(0.0, deadline_s - time.perf_counter())
            label = await asyncio.wait_for(
                asyncio.wrap_future(future), timeout=remaining
            )
            return {"status": "ok", "label": int(label)}
        except asyncio.TimeoutError:
            # The replica may still be computing; cancelling decides who
            # accounts the outcome (see MicroBatcher._triage_batch).
            if future.cancel():
                self.metrics.record_deadline_exceeded()
            return {"status": "deadline_exceeded",
                    "deadline_ms": deadline_ms}
        except DeadlineExceeded:
            return {"status": "deadline_exceeded",
                    "deadline_ms": deadline_ms}
        except RequestShed as shed:
            # A replica draining under a swap or shutdown.
            return self._shed_header(None, shed.reason)
        except ReplicaUnavailable:
            return self._shed_header(None, "no_replica")
        except asyncio.CancelledError:
            # Drain cancelled the connection task mid-predict: still an
            # explicit outcome for the client.
            self.metrics.record_deadline_exceeded()
            return {"status": "deadline_exceeded",
                    "deadline_ms": deadline_ms}
        except Exception as error:
            # Engine errors that survived every replica retry: surfaced,
            # never swallowed.
            return {"status": "error",
                    "error": f"{type(error).__name__}: {error}"}


# --------------------------------------------------------------------------- #
# client
# --------------------------------------------------------------------------- #
class FrontendClient:
    """Synchronous reference client for the wire protocol.

    One socket, strict request/response (run several clients for
    concurrency — ``serve-bench --client`` does).  Shed responses raise
    :class:`RequestShed` with the server's ``retry_after_ms`` hint;
    :meth:`predict_with_retry` honours it with DCF-style adaptive backoff —
    the contention window doubles on every consecutive shed and collapses
    on success, so a fleet of well-behaved clients spreads itself over the
    server's published drain time instead of retrying in lockstep.
    """

    def __init__(self, host: str, port: int,
                 connect_timeout: float = 5.0, seed: int = 0) -> None:
        self.host, self.port = host, int(port)
        self._sock = socket.create_connection(
            (host, int(port)), timeout=connect_timeout
        )
        self._lock = threading.Lock()
        self._next_id = 0
        self._rng = random.Random(seed)
        self._window = 1.0  # DCF contention window multiplier
        self.sheds_seen = 0
        self.retry_sleep_s = 0.0

    # -------------------------------------------------------------- #
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "FrontendClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _recv_exact(self, nbytes: int) -> bytes:
        chunks = []
        while nbytes:
            chunk = self._sock.recv(nbytes)
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks.append(chunk)
            nbytes -= len(chunk)
        return b"".join(chunks)

    def _roundtrip(self, header: Dict[str, Any], payload: bytes = b"",
                   timeout: Optional[float] = None) -> Dict[str, Any]:
        with self._lock:
            self._next_id += 1
            header = dict(header, id=self._next_id)
            self._sock.settimeout(timeout if timeout is not None else 30.0)
            self._sock.sendall(_encode_frame(header, payload))
            (header_len,) = _LEN.unpack(self._recv_exact(4))
            response = json.loads(self._recv_exact(header_len))
            nbytes = int(response.get("payload_nbytes", 0))
            if nbytes:
                self._recv_exact(nbytes)
            return response

    # -------------------------------------------------------------- #
    def ping(self) -> Dict[str, Any]:
        return self._roundtrip({"kind": "ping"})

    def server_metrics(self) -> Dict[str, Any]:
        """The server-side metrics snapshot + replica states."""
        return self._roundtrip({"kind": "metrics"})

    def list_models(self) -> Dict[str, Any]:
        """Registry summary of a registry-backed server."""
        return self._roundtrip({"kind": "list-models"})

    def swap(self, model_ref: str) -> Dict[str, Any]:
        """Ask the server to hot-swap ``name@version`` to stable."""
        response = self._roundtrip(
            {"kind": "swap", "model": str(model_ref)}, timeout=60.0)
        if response.get("status") != "ok":
            raise RuntimeError(
                f"swap failed: {response.get('error', response)}")
        return response

    def canary_start(self, model_ref: str, fraction: float,
                     seed: int = 0, force: bool = False) -> Dict[str, Any]:
        response = self._roundtrip({
            "kind": "canary", "action": "start", "model": str(model_ref),
            "fraction": float(fraction), "seed": int(seed),
            "force": bool(force),
        }, timeout=60.0)
        if response.get("status") != "ok":
            raise RuntimeError(
                f"canary start failed: {response.get('error', response)}")
        return response

    def canary_rollback(self, name: str,
                        reason: str = "admin") -> Dict[str, Any]:
        response = self._roundtrip({
            "kind": "canary", "action": "rollback", "model": str(name),
            "reason": str(reason),
        }, timeout=60.0)
        if response.get("status") != "ok":
            raise RuntimeError(
                f"canary rollback failed: "
                f"{response.get('error', response)}")
        return response

    def canary_status(self, name: Optional[str] = None) -> Dict[str, Any]:
        header: Dict[str, Any] = {"kind": "canary", "action": "status"}
        if name is not None:
            header["model"] = str(name)
        return self._roundtrip(header)

    def predict(self, sample: np.ndarray,
                deadline_ms: Optional[float] = None,
                model: Optional[str] = None) -> int:
        """One wire prediction; raises the explicit non-result outcomes."""
        return self.predict_routed(sample, deadline_ms=deadline_ms,
                                   model=model)[0]

    def predict_routed(
        self,
        sample: np.ndarray,
        deadline_ms: Optional[float] = None,
        model: Optional[str] = None,
    ) -> Tuple[int, Optional[str]]:
        """Predict and report which model version answered.

        Returns ``(label, model_ref)`` — the ref is the server-routed
        ``name@version`` (``None`` from non-registry servers), the echoed
        version tag the swap/canary soak asserts on.
        """
        meta, payload = _encode_sample(np.asarray(sample))
        header = {"kind": "predict", **meta}
        if deadline_ms is not None:
            header["deadline_ms"] = float(deadline_ms)
        if model is not None:
            header["model"] = str(model)
        socket_timeout = ((deadline_ms or 30000.0) / 1000.0) + 10.0
        response = self._roundtrip(header, payload, timeout=socket_timeout)
        status = response.get("status")
        if status == "ok":
            return int(response["label"]), response.get("model")
        if status == "shed":
            self.sheds_seen += 1
            raise RequestShed(
                retry_after_ms=float(response.get("retry_after_ms", 0.0)),
                reason=str(response.get("reason", "queue_full")),
            )
        if status == "deadline_exceeded":
            raise DeadlineExceeded(
                "server reported deadline exceeded",
                deadline_ms=response.get("deadline_ms"),
            )
        raise RuntimeError(
            f"server error: {response.get('error', response)}"
        )

    def predict_with_retry(
        self,
        sample: np.ndarray,
        deadline_ms: Optional[float] = None,
        max_attempts: int = 6,
        sleep=time.sleep,
        model: Optional[str] = None,
    ) -> int:
        """Predict, backing off adaptively on shed responses.

        Each shed sleeps ``retry_after_ms`` scaled by a uniformly-drawn
        point in the current contention window; the window doubles per
        consecutive shed (capped) and halves on success.  Deterministic
        for a given client ``seed``.
        """
        last: Optional[RequestShed] = None
        for _ in range(max(1, int(max_attempts))):
            try:
                label = self.predict(sample, deadline_ms=deadline_ms,
                                     model=model)
                self._window = max(1.0, self._window / 2.0)
                return label
            except RequestShed as shed:
                last = shed
                wait_s = (shed.retry_after_ms / 1000.0) * (
                    1.0 + self._rng.random() * self._window
                )
                self._window = min(self._window * 2.0, 16.0)
                self.retry_sleep_s += wait_s
                sleep(wait_s)
        raise last if last is not None else RuntimeError("no attempts made")


__all__ = [
    "ServeFrontend",
    "FrontendClient",
    "PROTOCOL_VERSION",
    "MAX_HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
]
