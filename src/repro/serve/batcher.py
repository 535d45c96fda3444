"""Thread-safe micro-batching request queue in front of the INT8 engine.

Single-sample inference wastes most of its time in per-call overhead; the
engine's INT8 GEMMs only approach peak throughput on real batches.  The
micro-batcher bridges the two: clients submit individual samples, worker
threads coalesce whatever is queued (up to ``max_batch_size``, waiting at
most ``max_wait_ms`` for stragglers) and run one engine pass per batch.
Because the engine quantizes activations per sample, coalescing never
changes a prediction — only its latency.

The batcher also fronts the engine with the LRU prediction cache, coalesces
requests whose input digest matches one already in flight (they share the
original future — the cache can only help *after* the first answer lands),
and feeds the metrics collector, so it is the one object a deployment
interacts with.

Both halves of serve autoscaling read the same queue-depth EWMA signal:
``autoscale_wait`` adapts the coalescing window per batch, and
``autoscale_workers`` spawns/retires worker threads between
``min_workers`` and ``max_workers`` when the pressure is sustained
(cooldown-limited, so one burst cannot thrash the pool).
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import CancelledError, Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import trace as obs_trace
from repro.obs.registry import get_registry
from repro.runtime.dispatch import use_backend
from repro.serve.cache import PredictionCache, input_digest
from repro.serve.config import ServeConfig
from repro.serve.errors import DeadlineExceeded, RequestShed
from repro.serve.metrics import ServeMetrics

PredictFn = Callable[[np.ndarray], np.ndarray]

_SHUTDOWN = object()
_RETIRE = object()


class _Request:
    """One queued sample together with its completion future.

    ``deadline`` is an absolute ``time.perf_counter()`` instant (or ``None``
    for no deadline): workers check it when they dequeue the request, so an
    expired request resolves to :class:`DeadlineExceeded` instead of burning
    an engine-pass slot on an answer nobody is waiting for.
    """

    __slots__ = ("sample", "key", "future", "enqueued_at", "deadline",
                 "trace")

    def __init__(self, sample: np.ndarray, key: Optional[str],
                 enqueued_at: float,
                 deadline: Optional[float] = None,
                 trace: Optional[obs_trace.Trace] = None) -> None:
        self.sample = sample
        self.key = key
        self.future: "Future[object]" = Future()
        self.enqueued_at = enqueued_at
        self.deadline = deadline
        self.trace = trace


class MicroBatcher:
    """Coalesces single-sample requests into batched engine calls.

    Parameters
    ----------
    engine:
        Either an object with a ``predict(batch) -> labels`` method (such as
        :class:`~repro.serve.engine.Int8InferenceEngine`) or a bare callable
        with the same signature.
    config:
        Batching knobs (see :class:`~repro.serve.config.ServeConfig`).
    cache / metrics:
        Injected for tests and shared deployments; sensible defaults are
        created from the config otherwise.
    """

    def __init__(
        self,
        engine: Union[PredictFn, object],
        config: Optional[ServeConfig] = None,
        cache: Optional[PredictionCache] = None,
        metrics: Optional[ServeMetrics] = None,
        cache_namespace: Optional[str] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        predict = getattr(engine, "predict", None)
        self._predict: PredictFn = predict if callable(predict) else engine
        if not callable(self._predict):
            raise TypeError(
                "engine must expose predict(batch) or itself be callable"
            )
        self.cache = (
            cache
            if cache is not None
            else PredictionCache(self.config.cache_capacity)
        )
        self.metrics = metrics if metrics is not None else ServeMetrics()
        # Engines that declare a cache namespace (the artifact fingerprint)
        # get their cache/dedup keys prefixed with it, so engines sharing
        # one PredictionCache — replicas of different model versions, or a
        # post-swap engine — can never serve another version's entries,
        # while fingerprint-identical versions still share them.
        # The engine's own namespace (the artifact fingerprint) wins, so
        # fingerprint-identical versions keep sharing entries; the caller's
        # fallback (e.g. the supervisor's replica-set key) isolates engines
        # that declare nothing.
        namespace = (getattr(engine, "cache_namespace", None)
                     or cache_namespace)
        self._cache_namespace = str(namespace) if namespace else None
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._lifecycle_lock = threading.Lock()
        self._running = False
        # In-flight requests by input digest, for request coalescing.
        self._pending: dict = {}
        self._pending_lock = threading.Lock()
        # Admission/drain state: how many accepted requests have not yet
        # resolved (queued or mid-batch), and whether the batcher is
        # draining (new submissions shed, in-flight ones finish).
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._draining = False
        # Adaptive coalescing window (autoscale_wait); plain float writes
        # are atomic, so workers update it lock-free.
        self._current_wait_s = self.config.max_wait_s
        # Worker autoscaling (autoscale_workers): sequence number for
        # thread names, last scale-op timestamp for the cooldown, and a
        # running log of scale events for reporting.
        self._worker_seq = 0
        self._last_scale_at = 0.0
        self._scale_ups = 0
        self._scale_downs = 0
        # Autoscaling state published into the observability registry: the
        # live worker count, the adaptive window, and scale events — the
        # signals that show whether the EWMA policy is doing its job.
        registry = get_registry()
        self._obs_workers = registry.gauge(
            "repro_serve_workers", help="Live serve worker threads.")
        self._obs_wait_ms = registry.gauge(
            "repro_serve_wait_window_ms",
            help="Current adaptive coalescing window, ms.")
        self._obs_scale_ups = registry.counter(
            "repro_serve_scale_ups_total", help="Worker scale-up events.")
        self._obs_scale_downs = registry.counter(
            "repro_serve_scale_downs_total", help="Worker scale-down events.")

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _spawn_worker_locked(self) -> None:
        """Create and start one worker thread (lifecycle lock held)."""
        thread = threading.Thread(
            target=self._worker_loop,
            name=f"serve-worker-{self._worker_seq}",
            daemon=True,
        )
        self._worker_seq += 1
        self._threads.append(thread)
        self._obs_workers.set(len(self._threads))
        thread.start()

    def start(self) -> "MicroBatcher":
        """Spawn the worker threads (idempotent)."""
        with self._lifecycle_lock:
            if self._running:
                return self
            self._running = True
            for _ in range(self.config.num_workers):
                self._spawn_worker_locked()
        return self

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop intake and wait until every accepted request has resolved.

        New submissions shed (:class:`RequestShed`, reason ``"draining"``)
        from the moment this is called; requests already accepted keep
        their no-silent-drop guarantee — each resolves to a result, a
        deadline error, or the engine error that killed its batch.  Returns
        ``True`` when the in-flight count reached zero within ``timeout``
        seconds (default: the config's ``request_timeout_s``).  The
        batcher keeps running — call :meth:`stop` (or ``stop(drain=True)``
        which does both) to also retire the workers.
        """
        self._draining = True
        deadline = time.perf_counter() + (
            timeout if timeout is not None else self.config.request_timeout_s
        )
        while time.perf_counter() < deadline:
            with self._inflight_lock:
                if self._inflight <= 0:
                    return True
            time.sleep(0.001)
        with self._inflight_lock:
            return self._inflight <= 0

    def stop(self, drain: bool = False,
             drain_timeout: Optional[float] = None) -> None:
        """Signal every worker to exit and join them.

        With ``drain=True`` intake closes first and the in-flight requests
        are flushed (bounded by ``drain_timeout``) before the workers are
        retired — the graceful half of the front-end's shutdown order.
        Without it, queued requests simply survive for a later
        :meth:`start` (the historical contract).
        """
        if drain:
            self.drain(timeout=drain_timeout)
        with self._lifecycle_lock:
            if not self._running:
                self._draining = False
                return
            self._running = False
            threads, self._threads = self._threads, []
            self._obs_workers.set(0)
        for _ in threads:
            self._queue.put(_SHUTDOWN)
        for thread in threads:
            thread.join()
        # Swallow leftover lifecycle tokens (a retire enqueued just before
        # stop, or a shutdown token a retiring worker never consumed) so a
        # later start() begins with a clean queue.
        drained = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN and item is not _RETIRE:
                drained.append(item)
        for item in drained:
            self._queue.put(item)
        # A drained batcher reopens intake once fully stopped, so a later
        # start() serves again.
        self._draining = False

    def __enter__(self) -> "MicroBatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # request API
    # ------------------------------------------------------------------ #
    def submit(self, sample: np.ndarray,
               deadline_s: Optional[float] = None) -> "Future[object]":
        """Enqueue one sample; returns a future resolving to its label.

        ``deadline_s`` is an absolute ``time.perf_counter()`` instant; a
        request still unserved when it passes resolves to
        :class:`DeadlineExceeded` instead of silently occupying the queue.
        Raises :class:`RequestShed` when admission control refuses the
        request (intake queue at ``max_queue_depth``, or draining) — the
        exception carries the adaptive ``retry_after_ms`` backoff hint.

        When tracing is enabled and this request is sampled, its whole life
        — cache/dedup verdicts here, the coalesce wait, the engine pass and
        every kernel step under it — lands in one trace; otherwise the
        ``trace is None`` branches cost one comparison each.
        """
        return self._submit(sample, deadline_s)[0]

    def retry_after_ms(self) -> float:
        """The adaptive backoff hint attached to shed responses."""
        config = self.config
        return self.metrics.retry_after_ms(
            base_ms=getattr(config, "shed_retry_base_ms", 5.0),
            per_depth_ms=getattr(config, "shed_retry_per_depth_ms", 2.0),
            cap_ms=getattr(config, "shed_retry_cap_ms", 1000.0),
        )

    def _shed(self, reason: str) -> RequestShed:
        self.metrics.record_shed()
        return RequestShed(self.retry_after_ms(), reason=reason)

    def _submit(
        self, sample: np.ndarray, deadline_s: Optional[float] = None
    ) -> Tuple["Future[object]", Optional[_Request]]:
        """Shared submit path; returns ``(future, request-or-None)``.

        The request handle (``None`` for cache hits and dedup riders, which
        own no queue slot) is what :meth:`predict` needs to *abandon* a
        timed-out request — releasing its dedup/pending slot instead of
        leaving a dead future other submitters would coalesce onto.
        """
        if not self._running:
            self.start()
        if self._draining:
            raise self._shed("draining")
        max_depth = int(getattr(self.config, "max_queue_depth", 0) or 0)
        if max_depth > 0:
            with self._inflight_lock:
                saturated = self._inflight >= max_depth
            if saturated:
                raise self._shed("queue_full")
        trace = obs_trace.maybe_trace("serve.request")
        sample = np.asarray(sample, dtype=np.float32)
        key: Optional[str] = None
        if self.cache.capacity > 0 or self.config.dedup_inflight:
            key = input_digest(sample)
            if self._cache_namespace is not None:
                key = f"{self._cache_namespace}:{key}"
        if key is not None and self.cache.capacity > 0:
            lookup_started = time.perf_counter() if trace is not None else 0.0
            hit = self.cache.get(key)
            if trace is not None:
                trace.record_span(
                    "batcher.cache", lookup_started, time.perf_counter(),
                    hit=hit is not None,
                )
            if hit is not None:
                self.metrics.record_cached()
                if trace is not None:
                    obs_trace.finish_trace(trace)
                future: "Future[object]" = Future()
                future.set_result(hit)
                return future, None
        request = _Request(sample, key, time.perf_counter(),
                           deadline=deadline_s, trace=trace)
        if key is not None and self.config.dedup_inflight:
            with self._pending_lock:
                existing = self._pending.get(key)
                if existing is not None:
                    self.metrics.record_deduped()
                    if trace is not None:
                        now = time.perf_counter()
                        trace.record_span(
                            "batcher.dedup", request.enqueued_at, now,
                            coalesced_onto=(
                                existing.trace.trace_id
                                if existing.trace is not None else None
                            ),
                        )
                        obs_trace.finish_trace(trace)
                    return existing.future, None
                self._pending[key] = request
        with self._inflight_lock:
            self._inflight += 1
        depth = self._queue.qsize()
        self.metrics.record_enqueue(depth)
        self._queue.put(request)
        if trace is not None:
            now = time.perf_counter()
            trace.record_span(
                "batcher.enqueue", request.enqueued_at, now,
                queue_depth=depth,
            )
        return request.future, request

    def _abandon(self, request: _Request) -> None:
        """Release a timed-out request's slots so nothing waits on it.

        The dedup/pending slot is freed first — a later identical key must
        submit fresh instead of coalescing onto a future nobody will
        resolve — then the future is cancelled so a worker that dequeues
        the request later drops it instead of computing an unwanted
        answer.  When the cancel loses the race (a worker already marked
        the batch running), the in-flight engine pass resolves the future
        normally; either way exactly one outcome is observed per waiter.
        """
        self._release_pending(request)
        if request.future.cancel():
            # The worker will never see this request complete; its queue
            # slot is accounted for when the worker dequeues and drops it.
            pass

    def predict(self, sample: np.ndarray, timeout: Optional[float] = None) -> int:
        """Synchronous single-sample prediction through the batcher.

        A timeout is a first-class :class:`DeadlineExceeded` outcome: the
        request's dedup/pending slot is released and its queue entry
        cancelled before the exception propagates, so a later identical
        key never waits on the dead future (and an unserved entry never
        wastes an engine pass).
        """
        timeout = timeout if timeout is not None else self.config.request_timeout_s
        deadline = time.perf_counter() + timeout
        future, request = self._submit(sample, deadline_s=deadline)
        try:
            return int(future.result(timeout=timeout))
        except FuturesTimeoutError:
            if request is not None:
                self._abandon(request)
            self.metrics.record_deadline_exceeded()
            raise DeadlineExceeded(
                "prediction timed out", deadline_ms=1000.0 * timeout
            ) from None
        except CancelledError:
            # A dedup rider whose leader abandoned the shared future: the
            # leader released the slot, so this waiter resolves the same
            # way the leader did.
            self.metrics.record_deadline_exceeded()
            raise DeadlineExceeded(
                "coalesced request abandoned before completion",
                deadline_ms=1000.0 * timeout,
            ) from None

    def predict_many(
        self, samples: Sequence[np.ndarray], timeout: Optional[float] = None
    ) -> np.ndarray:
        """Submit a burst of samples and gather their labels in order."""
        timeout = timeout if timeout is not None else self.config.request_timeout_s
        deadline = time.perf_counter() + timeout
        submissions = [self._submit(sample, deadline_s=deadline)
                       for sample in samples]
        labels = []
        for future, request in submissions:
            try:
                labels.append(int(future.result(timeout=timeout)))
            except (FuturesTimeoutError, CancelledError):
                if request is not None:
                    self._abandon(request)
                self.metrics.record_deadline_exceeded()
                raise DeadlineExceeded(
                    "burst prediction timed out",
                    deadline_ms=1000.0 * timeout,
                ) from None
        return np.asarray(labels, dtype=np.int64)

    @property
    def inflight(self) -> int:
        """Accepted requests not yet resolved (queued or mid-batch)."""
        with self._inflight_lock:
            return self._inflight

    @property
    def draining(self) -> bool:
        """True while intake is closed for a graceful drain."""
        return self._draining

    @property
    def current_wait_ms(self) -> float:
        """The coalescing window workers currently apply (milliseconds)."""
        return 1000.0 * self._current_wait_s

    @property
    def current_num_workers(self) -> int:
        """How many serve workers are live right now."""
        with self._lifecycle_lock:
            return len(self._threads)

    @property
    def autoscale_events(self) -> dict:
        """Worker scale operations performed so far (``up``/``down``)."""
        return {"up": self._scale_ups, "down": self._scale_downs}

    def format_report(self, title: str = "serving metrics") -> str:
        """Metrics report including the cache hit-rate and autoscale state."""
        extra_rows = []
        if getattr(self.config, "autoscale_wait", False):
            extra_rows.append(["adaptive max_wait (ms)", self.current_wait_ms])
        if getattr(self.config, "autoscale_workers", False):
            extra_rows.append(["workers (current)", self.current_num_workers])
            extra_rows.append(["worker scale-ups", self._scale_ups])
            extra_rows.append(["worker scale-downs", self._scale_downs])
        return self.metrics.format_report(
            title, cache_stats=self.cache.stats(),
            extra_rows=extra_rows or None,
        )

    # ------------------------------------------------------------------ #
    # worker internals
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        # Workers exit only by consuming a shutdown or retire token.  An
        # early-exit on the idle-poll path would leave its token in the
        # queue, where it would instantly kill a worker of a later start().
        while True:
            try:
                first = self._queue.get(timeout=self.config.poll_timeout_s)
            except queue.Empty:
                # Idle polls decay the queue-depth EWMA toward the live
                # depth (no enqueues means nothing else updates it) and
                # then evaluate autoscaling, so a pool scaled up for a
                # burst drains back to min_workers afterwards.
                if getattr(self.config, "autoscale_workers", False):
                    self.metrics.observe_queue_depth(self._queue.qsize())
                self._maybe_autoscale()
                continue
            if first is _SHUTDOWN:
                return
            if first is _RETIRE:
                if self._retire_self():
                    return
                continue
            batch = self._gather_batch(first)
            self._serve_batch(batch)
            self._maybe_autoscale()

    def _retire_self(self) -> bool:
        """Consume a retire token; True when this worker should exit.

        Stale tokens (left over from before a stop/start cycle, or racing a
        concurrent retire that already brought the count to the floor) are
        swallowed instead of underflowing ``min_workers``.
        """
        with self._lifecycle_lock:
            if (
                self._running
                and len(self._threads) > self.config.min_workers
            ):
                current = threading.current_thread()
                if current in self._threads:
                    self._threads.remove(current)
                    # Counted here, at consumption: tokens swallowed at the
                    # floor must not show up as scale-downs in the report.
                    self._scale_downs += 1
                    self._obs_scale_downs.inc()
                    self._obs_workers.set(len(self._threads))
                    return True
        return False

    def _maybe_autoscale(self) -> None:
        """Spawn or retire one worker when queue pressure is sustained.

        The queue-depth EWMA is the same signal the adaptive coalescing
        window uses: above ``max_batch_size`` a full batch is always
        waiting, so one more worker drains real backlog; below a quarter
        of it the extra worker only adds contention.  The cooldown keeps
        reactions to *sustained* pressure — one burst cannot thrash the
        pool.
        """
        config = self.config
        if not getattr(config, "autoscale_workers", False):
            return
        ewma = self.metrics.queue_depth_ewma()
        with self._lifecycle_lock:
            # Cooldown, decision and the event log all live under the one
            # lock: two workers crossing the threshold together must not
            # both stamp a scale event for a single pool change.
            now = time.perf_counter()
            if now - self._last_scale_at < config.autoscale_cooldown_s:
                return
            if not self._running:
                return
            count = len(self._threads)
            if (
                ewma > config.max_batch_size
                and count < config.max_workers
                # Live-queue gate: sustained *history* alone must not grow
                # an idle pool — there has to be backlog right now for a
                # new worker to drain.
                and self._queue.qsize() > 0
            ):
                self._spawn_worker_locked()
                self._scale_ups += 1
                self._obs_scale_ups.inc()
                self._last_scale_at = now
                return
            if (
                ewma < 0.25 * config.max_batch_size
                and count > config.min_workers
            ):
                self._last_scale_at = now
                self._queue.put(_RETIRE)

    def _wait_window_s(self) -> float:
        """The coalescing window for the next batch (adaptive when enabled).

        Queue-depth EWMA near ``max_batch_size`` means batches fill from the
        backlog on their own, so waiting only adds latency — the window
        shrinks toward ``min_wait_ms``.  An idle queue earns the full
        ``max_wait_ms`` to coalesce stragglers.
        """
        config = self.config
        if not getattr(config, "autoscale_wait", False):
            return config.max_wait_s
        fill = min(1.0, self.metrics.queue_depth_ewma() / config.max_batch_size)
        wait = config.max_wait_s - (config.max_wait_s - config.min_wait_s) * fill
        # Clamp: the interpolation can land an ulp outside the bounds.
        wait = min(max(wait, config.min_wait_s), config.max_wait_s)
        self._current_wait_s = wait
        self._obs_wait_ms.set(1000.0 * wait)
        return wait

    def _gather_batch(self, first: _Request) -> List[_Request]:
        """Collect up to ``max_batch_size`` requests within the wait window."""
        batch = [first]
        deadline = time.perf_counter() + self._wait_window_s()
        while len(batch) < self.config.max_batch_size:
            remaining = deadline - time.perf_counter()
            try:
                if remaining <= 0:
                    item = self._queue.get_nowait()
                else:
                    item = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if item is _SHUTDOWN or item is _RETIRE:
                # Keep the lifecycle token available for another worker (or
                # this one's next loop turn) and serve what we gathered.
                self._queue.put(item)
                break
            batch.append(item)
            if remaining <= 0:
                break
        return batch

    def _release_pending(self, request: _Request) -> None:
        if request.key is not None and self.config.dedup_inflight:
            with self._pending_lock:
                if self._pending.get(request.key) is request:
                    del self._pending[request.key]

    def _retire_request(self, request: _Request) -> None:
        """Account one accepted request as resolved (any outcome)."""
        self._release_pending(request)
        with self._inflight_lock:
            self._inflight -= 1

    def _triage_batch(self, batch: List[_Request]) -> List[_Request]:
        """Drop abandoned/expired requests; mark the rest running.

        Every dropped request still resolves explicitly: an abandoned one
        was already cancelled (its client raised ``DeadlineExceeded`` and
        released the slots), an expired one gets ``DeadlineExceeded`` set
        here.  Marking survivors *running* closes the abandon race — a
        client's ``Future.cancel`` can no longer win after this point, so
        each future has exactly one resolver.
        """
        now = time.perf_counter()
        live: List[_Request] = []
        for request in batch:
            expired = request.deadline is not None and now >= request.deadline
            if not request.future.set_running_or_notify_cancel():
                # Abandoned by its client; outcome was counted there.
                self._retire_request(request)
                if request.trace is not None:
                    request.trace.attrs["outcome"] = "abandoned"
                    obs_trace.finish_trace(request.trace)
                continue
            if expired:
                request.future.set_exception(DeadlineExceeded(
                    "deadline expired while queued",
                    deadline_ms=1000.0 * (request.deadline
                                          - request.enqueued_at),
                ))
                self.metrics.record_deadline_exceeded()
                self._retire_request(request)
                if request.trace is not None:
                    request.trace.attrs["outcome"] = "deadline_exceeded"
                    obs_trace.finish_trace(request.trace)
                continue
            live.append(request)
        return live

    def _serve_batch(self, batch: List[_Request]) -> None:
        batch = self._triage_batch(batch)
        if not batch:
            return
        inputs = np.stack([request.sample for request in batch])
        # Traced requests get a coalesce-wait span; the first of them
        # "leads" the batch — the engine pass runs bound to its trace, so
        # per-KernelStep spans nest under its engine.predict.  The other
        # traced riders get a shared engine.predict span pointing at the
        # leader, since one engine pass served them all.
        traced = [request for request in batch if request.trace is not None]
        gathered = time.perf_counter() if traced else 0.0
        for request in traced:
            request.trace.record_span(
                "batcher.coalesce_wait", request.enqueued_at, gathered,
                batch_size=len(batch),
            )
        leader = traced[0] if traced else None
        try:
            # Worker threads do not inherit the submitter's thread-local
            # backend override, so the config's backend selection is applied
            # here (None defers to the ambient runtime default).
            with use_backend(getattr(self.config, "backend", None)):
                if leader is not None:
                    with obs_trace.use_trace(leader.trace):
                        with obs_trace.span(
                            "engine.predict", batch_size=len(batch)
                        ):
                            labels = self._predict(inputs)
                else:
                    labels = self._predict(inputs)
        except BaseException as error:  # propagate to every waiting client
            for request in batch:
                request.future.set_exception(error)
                self._retire_request(request)
            for request in traced:
                request.trace.attrs["error"] = type(error).__name__
                obs_trace.finish_trace(request.trace)
            return
        finished = time.perf_counter()
        labels = np.asarray(labels)
        latencies_ms = [
            1000.0 * (finished - request.enqueued_at) for request in batch
        ]
        self.metrics.record_batch(latencies_ms)
        for request, label in zip(batch, labels):
            value = int(label)
            if request.key is not None and self.cache.capacity > 0:
                self.cache.put(request.key, value)
            request.future.set_result(value)
            self._retire_request(request)
        for request in traced:
            if request is not leader:
                request.trace.record_span(
                    "engine.predict", gathered, finished,
                    batch_size=len(batch),
                    shared_with_trace=leader.trace.trace_id,
                )
            obs_trace.finish_trace(request.trace)
