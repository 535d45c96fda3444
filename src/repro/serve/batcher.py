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

Admission is not the batcher's concern: the front-end bounds the requests
it admits and answers sheds with the backoff hint.  The batcher refuses
work only while draining, which is lifecycle, not load.
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
from repro.runtime.dispatch import use_backend
from repro.serve.cache import PredictionCache, input_digest
from repro.serve.config import ServeConfig
from repro.serve.errors import DeadlineExceeded, RequestShed
from repro.serve.metrics import ServeMetrics

PredictFn = Callable[[np.ndarray], np.ndarray]

_SHUTDOWN = object()


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
        # Drain state: how many accepted requests have not yet resolved
        # (queued or mid-batch), and whether the batcher is draining (new
        # submissions shed, in-flight ones finish).
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._draining = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "MicroBatcher":
        """Spawn the worker threads (idempotent)."""
        with self._lifecycle_lock:
            if self._running:
                return self
            self._running = True
            for index in range(self.config.num_workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"serve-worker-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
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
        Without it, requests queued before the call are still served:
        the shutdown tokens queue behind them.
        """
        if drain:
            self.drain(timeout=drain_timeout)
        with self._lifecycle_lock:
            if not self._running:
                self._draining = False
                return
            self._running = False
            threads, self._threads = self._threads, []
        # One token per worker; each worker exits on the first token it
        # consumes, so none is left behind for a later start().
        for _ in threads:
            self._queue.put(_SHUTDOWN)
        for thread in threads:
            thread.join()
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
        Raises :class:`RequestShed` (reason ``"draining"``) while a drain
        has intake closed.

        When tracing is enabled and this request is sampled, its whole life
        — cache/dedup verdicts here, the coalesce wait, the engine pass and
        every kernel step under it — lands in one trace; otherwise the
        ``trace is None`` branches cost one comparison each.
        """
        return self._submit(sample, deadline_s)[0]

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
            raise RequestShed(reason="draining")
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

    def format_report(self, title: str = "serving metrics") -> str:
        """Metrics report including the cache hit-rate."""
        return self.metrics.format_report(title, cache_stats=self.cache.stats())

    # ------------------------------------------------------------------ #
    # worker internals
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        # Workers exit only by consuming a shutdown token.
        while True:
            first = self._queue.get()
            if first is _SHUTDOWN:
                return
            self._serve_batch(self._gather_batch(first))

    def _gather_batch(self, first: _Request) -> List[_Request]:
        """Collect up to ``max_batch_size`` requests within the wait window."""
        batch = [first]
        deadline = time.perf_counter() + self.config.max_wait_s
        while len(batch) < self.config.max_batch_size:
            remaining = deadline - time.perf_counter()
            try:
                if remaining <= 0:
                    item = self._queue.get_nowait()
                else:
                    item = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                # Keep the shutdown token available for another worker (or
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
            # Inside the try: a sample shaped unlike its batch-mates makes
            # np.stack raise, and that error must reach every client of the
            # batch rather than kill the worker thread.
            inputs = np.stack([request.sample for request in batch])
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
