"""Serving metrics: latency percentiles, throughput and queue-depth stats.

The serving stack is judged by tail latency, not by mean throughput alone.
The collector keeps a bounded **reservoir** of per-request latencies: below
the cap (default 8192 samples) percentiles are exact; above it the
reservoir is a uniform random sample of everything seen (Algorithm R with a
fixed seed), so percentiles become an unbiased approximation while counts,
means and maxima stay exact from running aggregates.  The cap is what makes
a long-lived serving process safe — the previous design kept every sample
and grew without bound under sustained traffic.

Every collector also publishes into the process-wide observability
registry (:mod:`repro.obs.registry`): request/batch/cache/dedup counters, a
fixed-bucket latency histogram, and the queue-depth EWMA gauge — the
scrapeable view (`repro_serve_*`) of the same traffic this object
summarizes per-report.  Registry writes happen per *batch*, outside this
collector's lock, so the hot path pays one histogram fold per dispatch, not
per request.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis import format_table
from repro.obs.registry import MetricsRegistry, get_registry

PERCENTILES = (50.0, 95.0, 99.0)

#: default reservoir capacity: exact percentiles for every benchmark-scale
#: run, a few hundred KB at most for a long-lived server.
DEFAULT_SAMPLE_CAP = 8192


def latency_percentiles(
    latencies_ms: Sequence[float], percentiles: Sequence[float] = PERCENTILES
) -> Dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` for a latency sample."""
    if not len(latencies_ms):
        return {f"p{int(p)}": 0.0 for p in percentiles}
    values = np.asarray(latencies_ms, dtype=np.float64)
    return {
        f"p{int(p)}": float(np.percentile(values, p)) for p in percentiles
    }


class _Reservoir:
    """Bounded uniform sample with exact running count/sum/max.

    Algorithm R: the first ``cap`` values are kept verbatim (exact
    percentiles); from then on value ``n`` replaces a random slot with
    probability ``cap/n``, keeping the sample uniform over everything seen.
    The RNG is seeded, so runs are reproducible.  Not thread-safe — the
    owning collector serializes access under its own lock.
    """

    __slots__ = ("cap", "count", "total", "peak", "_samples", "_rng")

    def __init__(self, cap: int, seed: int = 0) -> None:
        if cap < 1:
            raise ValueError(f"reservoir cap must be >= 1, got {cap}")
        self.cap = int(cap)
        self.count = 0
        self.total = 0.0
        self.peak = 0.0
        self._samples: List[float] = []
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.count == 1 or value > self.peak:
            self.peak = value
        if len(self._samples) < self.cap:
            self._samples.append(value)
            return
        slot = self._rng.randrange(self.count)
        if slot < self.cap:
            self._samples[slot] = value

    def extend(self, values: Sequence[float]) -> None:
        for value in values:
            self.add(value)

    def samples(self) -> List[float]:
        return list(self._samples)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def clear(self) -> None:
        self.count = 0
        self.total = 0.0
        self.peak = 0.0
        self._samples.clear()


class ModelSeries:
    """Labeled per-(model, version) request series in the obs registry.

    One memoized triple per (model, version): a request counter, an error
    counter and a latency histogram, all labeled ``{model=..., version=
    ...}`` — the per-version comparison feed the canary controller and the
    ``serve-bench`` records read.  :class:`ServeMetrics` owns one and the
    front-end feeds it every version-attributed outcome.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry if registry is not None else get_registry()
        self._lock = threading.Lock()
        self._series: dict = {}

    def _for(self, model: str, version: str):
        key = (str(model), str(version))
        with self._lock:
            entry = self._series.get(key)
            if entry is None:
                labels = {"model": key[0], "version": key[1]}
                entry = (
                    self._registry.counter(
                        "repro_model_requests_total",
                        help="Requests served per model version.",
                        **labels),
                    self._registry.counter(
                        "repro_model_errors_total",
                        help="Failed requests per model version.",
                        **labels),
                    self._registry.histogram(
                        "repro_model_latency_ms",
                        help="Per-request latency per model version, ms.",
                        **labels),
                )
                self._series[key] = entry
        return entry

    def record(self, model: str, version: str, latency_ms: float,
               ok: bool = True) -> None:
        requests, errors, latency = self._for(model, version)
        requests.inc()
        if not ok:
            errors.inc()
        latency.observe(float(latency_ms))


class ServeMetrics:
    """Thread-safe collector for the micro-batching inference service.

    ``ewma_alpha`` weights the exponentially-weighted moving average of the
    sampled queue depths — the load signal the front-end's shed backoff
    hint reads (higher alpha reacts faster, lower alpha smooths bursts).  ``sample_cap`` bounds the latency/batch/queue
    reservoirs (memory stays O(cap) forever; percentiles are exact below
    the cap and uniformly sampled above it).  ``registry`` is the
    observability registry the collector publishes counters into; it
    defaults to the process-wide one.
    """

    def __init__(
        self,
        clock=time.perf_counter,
        ewma_alpha: float = 0.2,
        sample_cap: int = DEFAULT_SAMPLE_CAP,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self._clock = clock
        self._ewma_alpha = float(ewma_alpha)
        self._lock = threading.Lock()
        self.sample_cap = int(sample_cap)
        self._latencies = _Reservoir(self.sample_cap)
        self._batch_sizes = _Reservoir(self.sample_cap)
        self._queue_depths = _Reservoir(self.sample_cap)
        self._queue_depth_ewma = 0.0
        self._batches = 0
        self._cached_requests = 0
        self._deduped_requests = 0
        self._shed_requests = 0
        self._deadline_exceeded_requests = 0
        self._first_ts: Optional[float] = None
        self._last_ts: Optional[float] = None
        registry = registry if registry is not None else get_registry()
        self._obs_requests = registry.counter(
            "repro_serve_requests_total", help="Requests answered.")
        self._obs_batches = registry.counter(
            "repro_serve_batches_total", help="Engine batches dispatched.")
        self._obs_cached = registry.counter(
            "repro_serve_cached_total",
            help="Requests served from the prediction cache.")
        self._obs_deduped = registry.counter(
            "repro_serve_deduped_total",
            help="Requests coalesced onto identical in-flight ones.")
        self._obs_latency = registry.histogram(
            "repro_serve_latency_ms", help="Per-request latency, ms.")
        self._obs_queue_ewma = registry.gauge(
            "repro_serve_queue_depth_ewma",
            help="EWMA of the sampled batcher queue depth.")
        self._obs_shed = registry.counter(
            "repro_requests_shed_total",
            help="Requests refused admission (load shedding).")
        self._obs_deadline = registry.counter(
            "repro_request_deadline_exceeded_total",
            help="Requests whose deadline expired before a result.")
        self.models = ModelSeries(registry)

    def record_model_request(self, model: str, version: str,
                             latency_ms: float, ok: bool = True) -> None:
        """Attribute one answered request to a (model, version) series."""
        self.models.record(model, version, latency_ms, ok=ok)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_enqueue(self, queue_depth: int) -> None:
        """Note a request entering the queue (samples the queue depth)."""
        with self._lock:
            if self._first_ts is None:
                self._first_ts = self._clock()
            self._queue_depths.add(int(queue_depth))
            alpha = self._ewma_alpha
            self._queue_depth_ewma = (
                (1.0 - alpha) * self._queue_depth_ewma + alpha * queue_depth
            )

    def queue_depth_ewma(self) -> float:
        """Current exponentially-weighted moving average of the queue depth."""
        with self._lock:
            return self._queue_depth_ewma

    def record_batch(self, latencies_ms: Sequence[float]) -> None:
        """Record one dispatched engine batch and its per-request latencies."""
        now = self._clock()
        latencies = [float(value) for value in latencies_ms]
        with self._lock:
            if self._first_ts is None:
                self._first_ts = now
            self._last_ts = now
            self._batches += 1
            self._batch_sizes.add(len(latencies))
            self._latencies.extend(latencies)
            ewma = self._queue_depth_ewma
        # Registry publication outside the lock: one counter add, one
        # histogram fold and one gauge write per dispatched batch.
        self._obs_requests.inc(len(latencies))
        self._obs_batches.inc()
        self._obs_latency.observe_many(latencies)
        self._obs_queue_ewma.set(ewma)

    def record_cached(self, latency_ms: float = 0.0) -> None:
        """Record a request answered straight from the prediction cache."""
        now = self._clock()
        with self._lock:
            if self._first_ts is None:
                self._first_ts = now
            self._last_ts = now
            self._cached_requests += 1
            self._latencies.add(float(latency_ms))
        self._obs_requests.inc()
        self._obs_cached.inc()
        self._obs_latency.observe(float(latency_ms))

    def record_shed(self) -> None:
        """Record a request refused admission (load shedding).

        Shed requests never enter the latency reservoirs — they were never
        served — but they are first-class outcomes: the shed rate is the
        front-end's primary overload signal.
        """
        now = self._clock()
        with self._lock:
            if self._first_ts is None:
                self._first_ts = now
            self._last_ts = now
            self._shed_requests += 1
        self._obs_shed.inc()

    def record_deadline_exceeded(self) -> None:
        """Record a request whose deadline expired before a result."""
        now = self._clock()
        with self._lock:
            if self._first_ts is None:
                self._first_ts = now
            self._last_ts = now
            self._deadline_exceeded_requests += 1
        self._obs_deadline.inc()

    def retry_after_ms(
        self,
        base_ms: float = 5.0,
        per_depth_ms: float = 2.0,
        cap_ms: float = 1000.0,
    ) -> float:
        """Adaptive backoff hint for shed responses, from the queue EWMA.

        The hint grows linearly with the sustained backlog (the queue-depth
        EWMA the batchers' enqueues feed): an idle service hands back
        ``base_ms``, a saturated one approaches ``cap_ms``.  The front-end
        is its one caller, with the ``shed_retry_*`` knobs of its
        :class:`~repro.serve.config.FrontendConfig`.
        Well-behaved clients sleeping this long spread a thundering herd
        over the time the backlog actually needs to drain — adaptive
        backoff with the *server* publishing the contention window.
        """
        with self._lock:
            ewma = self._queue_depth_ewma
        return float(min(cap_ms, base_ms + per_depth_ms * max(0.0, ewma)))

    def record_deduped(self) -> None:
        """Record a request coalesced onto an identical in-flight one.

        Deduplicated requests share the original's future, so their own
        latency is not sampled separately.
        """
        with self._lock:
            self._deduped_requests += 1
        self._obs_deduped.inc()

    def reset(self) -> None:
        """Drop all recorded samples (registry counters keep accumulating)."""
        with self._lock:
            self._latencies.clear()
            self._batch_sizes.clear()
            self._queue_depths.clear()
            self._queue_depth_ewma = 0.0
            self._batches = 0
            self._cached_requests = 0
            self._deduped_requests = 0
            self._shed_requests = 0
            self._deadline_exceeded_requests = 0
            self._first_ts = None
            self._last_ts = None

    # ------------------------------------------------------------------ #
    # derived statistics
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, float]:
        """Aggregate statistics over everything recorded so far.

        Counts, means and maxima come from exact running aggregates;
        latency percentiles come from the reservoir — exact while the
        request count is within ``sample_cap``, a uniform-sample
        approximation beyond it (``latency_samples`` vs ``requests`` tells
        which regime a snapshot is in).
        """
        with self._lock:
            requests = self._latencies.count
            latency_mean = self._latencies.mean()
            latency_max = self._latencies.peak
            latency_samples = self._latencies.samples()
            batches = self._batches
            batch_mean = self._batch_sizes.mean()
            batch_max = self._batch_sizes.peak
            depth_mean = self._queue_depths.mean()
            depth_max = self._queue_depths.peak
            queue_ewma = self._queue_depth_ewma
            cached = self._cached_requests
            deduped = self._deduped_requests
            shed = self._shed_requests
            deadline_exceeded = self._deadline_exceeded_requests
            first_ts, last_ts = self._first_ts, self._last_ts

        elapsed_s = (last_ts - first_ts) if (first_ts is not None and
                                             last_ts is not None) else 0.0
        summary: Dict[str, float] = {
            "requests": float(requests),
            "batches": float(batches),
            "cached_requests": float(cached),
            "deduped_requests": float(deduped),
            "shed_requests": float(shed),
            "deadline_exceeded_requests": float(deadline_exceeded),
            "shed_rate": (
                shed / (requests + shed) if (requests + shed) else 0.0
            ),
            "elapsed_s": float(elapsed_s),
            "throughput_rps": requests / elapsed_s if elapsed_s > 0 else 0.0,
            "mean_batch_size": float(batch_mean),
            "max_batch_size": float(batch_max),
            "mean_queue_depth": float(depth_mean),
            "max_queue_depth": float(depth_max),
            "queue_depth_ewma": float(queue_ewma),
            "mean_latency_ms": float(latency_mean),
            "max_latency_ms": float(latency_max),
            "latency_samples": float(len(latency_samples)),
            "sample_cap": float(self.sample_cap),
        }
        summary.update(latency_percentiles(latency_samples))
        return summary

    def format_report(
        self,
        title: str = "serving metrics",
        cache_stats: Optional[Dict[str, float]] = None,
    ) -> str:
        """Render the snapshot as the repo's standard ASCII table.

        ``cache_stats`` (a :meth:`PredictionCache.stats` snapshot) appends
        the prediction cache's hit-rate to the report.
        """
        snap = self.snapshot()
        approx = snap["latency_samples"] < snap["requests"]
        rows = [
            ["requests", snap["requests"]],
            ["batches dispatched", snap["batches"]],
            ["cache-served requests", snap["cached_requests"]],
            ["deduped in-flight requests", snap["deduped_requests"]],
            ["shed requests", snap["shed_requests"]],
            ["deadline-exceeded requests", snap["deadline_exceeded_requests"]],
            ["throughput (req/s)", snap["throughput_rps"]],
            ["mean batch size", snap["mean_batch_size"]],
            ["max queue depth", snap["max_queue_depth"]],
            ["latency p50 (ms)", snap["p50"]],
            ["latency p95 (ms)", snap["p95"]],
            ["latency p99 (ms)", snap["p99"]],
            ["latency max (ms)", snap["max_latency_ms"]],
            [
                "latency samples"
                + (" (reservoir, approx pcts)" if approx else " (exact pcts)"),
                snap["latency_samples"],
            ],
            ["latency sample cap", snap["sample_cap"]],
        ]
        if cache_stats is not None:
            rows.append(["cache hit rate", float(cache_stats["hit_rate"])])
            rows.append(["cache entries", float(cache_stats["entries"])])
        return format_table(["metric", "value"], rows, title=title,
                            float_format="{:.3f}")
