"""Tests for the serving runtime: config, cache, metrics, micro-batcher."""

import threading
import time

import numpy as np
import pytest

from repro.serve import (
    FrontendConfig,
    MicroBatcher,
    PredictionCache,
    ServeConfig,
    ServeMetrics,
    input_digest,
    latency_percentiles,
)


class TestServeConfig:
    def test_defaults_and_derived_fields(self):
        config = ServeConfig()
        assert config.max_batch_size == 32
        assert config.max_wait_s == config.max_wait_ms / 1000.0

    @pytest.mark.parametrize("kwargs", [
        {"max_batch_size": 0},
        {"max_wait_ms": -1.0},
        {"num_workers": 0},
        {"cache_capacity": -1},
        {"backend": "no-such-backend"},
        {"request_timeout_s": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_unknown_keywords_rejected(self):
        cases = [
            # A misspelled field must not leave the real one at its default.
            (ServeConfig, "max_batchsize", 4),
            (FrontendConfig, "replica", 3),
            # A removed field fails loudly instead of being ignored.
            (ServeConfig, "autoscale_wait", True),
            # Admission belongs to the front-end, not the batcher config.
            (ServeConfig, "max_queue_depth", 4),
        ]
        for config_type, keyword, value in cases:
            with pytest.raises(TypeError, match=keyword):
                config_type(**{keyword: value})


class TestPredictionCache:
    def test_hit_miss_counters(self):
        cache = PredictionCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", 3)
        assert cache.get("a") == 3
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate() == 0.5

    def test_lru_eviction_order(self):
        cache = PredictionCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" becomes LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_zero_capacity_disables(self):
        cache = PredictionCache(capacity=0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_stats_payload(self):
        cache = PredictionCache(capacity=3)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        stats = cache.stats()
        assert stats == {"capacity": 3, "entries": 1, "hits": 1,
                         "misses": 1, "hit_rate": 0.5}

    def test_input_digest_content_addressed(self):
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        b = a.copy()
        assert input_digest(a) == input_digest(b)
        assert input_digest(a) != input_digest(a.reshape(4, 3))
        b[0, 0] += 1
        assert input_digest(a) != input_digest(b)

    def test_thread_safety_smoke(self):
        cache = PredictionCache(capacity=16)

        def hammer(offset):
            for i in range(200):
                cache.put(str((offset + i) % 32), i)
                cache.get(str(i % 32))

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) <= 16


class TestServeMetrics:
    def test_percentiles_match_numpy(self):
        latencies = list(range(1, 101))
        stats = latency_percentiles(latencies)
        for name, q in (("p50", 50), ("p95", 95), ("p99", 99)):
            assert stats[name] == pytest.approx(np.percentile(latencies, q))

    def test_empty_percentiles_are_zero(self):
        assert latency_percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_snapshot_aggregates(self):
        metrics = ServeMetrics()
        metrics.record_enqueue(0)
        metrics.record_enqueue(3)
        metrics.record_batch([2.0, 4.0])
        metrics.record_batch([6.0])
        metrics.record_cached()
        snap = metrics.snapshot()
        assert snap["requests"] == 4
        assert snap["batches"] == 2
        assert snap["cached_requests"] == 1
        assert snap["mean_batch_size"] == 1.5
        assert snap["max_queue_depth"] == 3
        assert snap["max_latency_ms"] == 6.0
        assert snap["throughput_rps"] > 0

    def test_reset(self):
        metrics = ServeMetrics()
        metrics.record_batch([1.0])
        metrics.reset()
        snap = metrics.snapshot()
        assert snap["requests"] == 0
        assert snap["throughput_rps"] == 0.0

    def test_format_report_renders_table(self):
        metrics = ServeMetrics()
        metrics.record_batch([1.0, 2.0, 3.0])
        report = metrics.format_report(title="report")
        assert "report" in report
        assert "latency p95 (ms)" in report
        assert "throughput (req/s)" in report


class _CountingModel:
    """Deterministic stand-in engine: label = argmax over feature sums."""

    def __init__(self, delay_s: float = 0.0):
        self.batch_sizes = []
        self.calls = 0
        self.delay_s = delay_s
        self._lock = threading.Lock()

    def predict(self, batch: np.ndarray) -> np.ndarray:
        with self._lock:
            self.calls += 1
            self.batch_sizes.append(len(batch))
        if self.delay_s:
            time.sleep(self.delay_s)
        return (batch.reshape(len(batch), -1).sum(axis=1) > 0).astype(np.int64)


class TestMicroBatcher:
    def _samples(self, count, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(6,)).astype(np.float32) for _ in range(count)]

    def test_results_match_direct_prediction(self):
        model = _CountingModel()
        samples = self._samples(40)
        config = ServeConfig(max_batch_size=8, max_wait_ms=5.0,
                             cache_capacity=0)
        with MicroBatcher(model, config) as batcher:
            labels = batcher.predict_many(samples)
        expected = model.predict(np.stack(samples))
        np.testing.assert_array_equal(labels, expected)

    def test_requests_are_coalesced(self):
        model = _CountingModel(delay_s=0.002)
        samples = self._samples(32)
        config = ServeConfig(max_batch_size=16, max_wait_ms=20.0,
                             cache_capacity=0)
        with MicroBatcher(model, config) as batcher:
            batcher.predict_many(samples)
        # the serving calls (all but the warm-up-free first burst) must have
        # coalesced multiple requests per engine call
        serving_calls = model.batch_sizes
        assert sum(serving_calls) == 32
        assert max(serving_calls) > 1
        assert len(serving_calls) < 32

    def test_max_batch_size_is_respected(self):
        model = _CountingModel(delay_s=0.002)
        config = ServeConfig(max_batch_size=4, max_wait_ms=20.0,
                             cache_capacity=0)
        with MicroBatcher(model, config) as batcher:
            batcher.predict_many(self._samples(24))
        assert max(model.batch_sizes) <= 4

    def test_cache_short_circuits_repeats(self):
        model = _CountingModel()
        sample = self._samples(1)[0]
        config = ServeConfig(max_batch_size=4, max_wait_ms=1.0,
                             cache_capacity=8)
        with MicroBatcher(model, config) as batcher:
            first = batcher.predict(sample)
            calls_after_first = model.calls
            for _ in range(5):
                assert batcher.predict(sample) == first
        assert model.calls == calls_after_first
        assert batcher.cache.hits == 5
        assert batcher.metrics.snapshot()["cached_requests"] == 5

    def test_inflight_duplicates_are_coalesced(self):
        model = _CountingModel(delay_s=0.005)
        sample = self._samples(1)[0]
        config = ServeConfig(max_batch_size=4, max_wait_ms=1.0,
                             cache_capacity=0, dedup_inflight=True)
        with MicroBatcher(model, config) as batcher:
            futures = [batcher.submit(sample) for _ in range(12)]
            labels = {future.result(timeout=5.0) for future in futures}
        assert len(labels) == 1
        # every duplicate burst rode on at most a couple of engine calls
        assert sum(model.batch_sizes) < 12
        assert batcher.metrics.snapshot()["deduped_requests"] > 0

    def test_dedup_can_be_disabled(self):
        model = _CountingModel(delay_s=0.002)
        sample = self._samples(1)[0]
        config = ServeConfig(max_batch_size=4, max_wait_ms=10.0,
                             cache_capacity=0, dedup_inflight=False)
        with MicroBatcher(model, config) as batcher:
            futures = [batcher.submit(sample) for _ in range(8)]
            for future in futures:
                future.result(timeout=5.0)
        assert sum(model.batch_sizes) == 8
        assert batcher.metrics.snapshot()["deduped_requests"] == 0

    def test_engine_exceptions_propagate_to_clients(self):
        def broken(batch):
            raise RuntimeError("engine on fire")

        config = ServeConfig(max_batch_size=4, max_wait_ms=1.0,
                             cache_capacity=0)
        with MicroBatcher(broken, config) as batcher:
            future = batcher.submit(np.zeros(3, dtype=np.float32))
            with pytest.raises(RuntimeError, match="engine on fire"):
                future.result(timeout=5.0)

    def test_mismatched_sample_shapes_fail_the_batch_not_the_worker(self):
        model = _CountingModel()
        config = ServeConfig(max_batch_size=4, max_wait_ms=50.0,
                             cache_capacity=0)
        with MicroBatcher(model, config) as batcher:
            # Both land in one batch, which np.stack cannot assemble.
            futures = [batcher.submit(np.ones(3, dtype=np.float32)),
                       batcher.submit(np.ones(4, dtype=np.float32))]
            for future in futures:
                with pytest.raises(ValueError):
                    future.result(timeout=5.0)
            assert batcher.inflight == 0
            # The worker survived: a well-shaped request is still answered.
            assert batcher.predict(np.ones(3, dtype=np.float32),
                                   timeout=5.0) == 1

    def test_multiple_workers(self):
        model = _CountingModel(delay_s=0.001)
        samples = self._samples(48)
        config = ServeConfig(max_batch_size=8, max_wait_ms=2.0,
                             num_workers=3, cache_capacity=0)
        with MicroBatcher(model, config) as batcher:
            labels = batcher.predict_many(samples)
        np.testing.assert_array_equal(labels,
                                      model.predict(np.stack(samples)))

    def test_stop_is_idempotent_and_restartable(self):
        model = _CountingModel()
        batcher = MicroBatcher(model, ServeConfig(cache_capacity=0))
        batcher.start()
        batcher.stop()
        batcher.stop()
        # a new submit transparently restarts the workers
        assert batcher.predict(np.ones(3, dtype=np.float32)) in (0, 1)
        batcher.stop()

    def test_restart_consumes_all_shutdown_tokens(self):
        # an idle stop/start cycle must never leave a stale shutdown token
        # that would kill the next generation's worker on arrival
        model = _CountingModel()
        config = ServeConfig(num_workers=1, cache_capacity=0,
                             request_timeout_s=2.0)
        batcher = MicroBatcher(model, config)
        for _ in range(5):
            batcher.start()
            batcher.stop()
            assert batcher._queue.qsize() == 0
        for _ in range(3):
            assert batcher.predict(np.ones(3, dtype=np.float32)) in (0, 1)
        batcher.stop()

    def test_rejects_non_callable_engine(self):
        with pytest.raises(TypeError, match="predict"):
            MicroBatcher(object())

    def test_metrics_capture_batches(self):
        model = _CountingModel()
        config = ServeConfig(max_batch_size=8, max_wait_ms=5.0,
                             cache_capacity=0)
        with MicroBatcher(model, config) as batcher:
            batcher.predict_many(self._samples(20))
        snap = batcher.metrics.snapshot()
        assert snap["requests"] == 20
        assert snap["batches"] == model.calls
        assert snap["p95"] >= snap["p50"] >= 0.0


class TestAdaptiveWait:
    """The queue-depth EWMA behind the front-end's shed backoff hint."""

    def test_queue_depth_ewma_tracks_load(self):
        from repro.serve.metrics import ServeMetrics

        metrics = ServeMetrics(ewma_alpha=0.5)
        assert metrics.queue_depth_ewma() == 0.0
        for depth in (8, 8, 8, 8):
            metrics.record_enqueue(depth)
        high = metrics.queue_depth_ewma()
        assert 6.0 < high <= 8.0
        for _ in range(8):
            metrics.record_enqueue(0)
        assert metrics.queue_depth_ewma() < high
        assert "queue_depth_ewma" in metrics.snapshot()
        metrics.reset()
        assert metrics.queue_depth_ewma() == 0.0
