"""Tests for ``repro.obs`` — tracing, the metrics registry, and their wiring
into the executor and serve metrics (reservoir bounds, step-timing hooks)."""

from __future__ import annotations

import re
import threading

import numpy as np
import pytest

from repro.models import build_mlp
from repro.obs import (
    MetricsRegistry,
    clear_buffer,
    disable_tracing,
    enable_tracing,
    finish_trace,
    format_trace,
    has_active_trace,
    maybe_trace,
    slowest_traces,
    span,
    trace_buffer,
    tracing_enabled,
    use_trace,
)
from repro.obs import trace as trace_module
from repro.runtime import instrument
from repro.runtime.executor import PlanExecutor
from repro.serve.metrics import DEFAULT_SAMPLE_CAP, ServeMetrics, _Reservoir


@pytest.fixture(autouse=True)
def _clean_tracing_state():
    """Every test starts and ends tracing-off with an empty buffer."""
    disable_tracing()
    clear_buffer()
    yield
    disable_tracing()
    clear_buffer()


def _mlp_units(hidden_layers=2, hidden_units=32, seed=0):
    bundle = build_mlp(input_shape=(1, 8, 8), hidden_layers=hidden_layers,
                       hidden_units=hidden_units, seed=seed)
    return bundle.ff_units()


# ---------------------------------------------------------------------- #
# metrics registry
# ---------------------------------------------------------------------- #
class TestRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", help="t")
        counter.inc()
        counter.inc(41)
        assert counter.value() == 42
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_test_workers")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 3

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_test_ms", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 50.0):
            histogram.observe(value)
        snap = histogram.value()
        assert snap["buckets"] == {"1": 2, "10": 3, "+Inf": 4}
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(56.2)

    def test_observe_many_matches_individual_observes(self):
        registry = MetricsRegistry()
        values = list(np.random.default_rng(0).uniform(0, 2000, size=500))
        one = registry.histogram("repro_one_ms")
        many = registry.histogram("repro_many_ms")
        for value in values:
            one.observe(value)
        many.observe_many(values)
        assert one.value() == many.value()

    def test_get_or_create_is_idempotent_per_series(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_hits_total", backend="fast")
        b = registry.counter("repro_hits_total", backend="fast")
        other = registry.counter("repro_hits_total", backend="parallel")
        assert a is b
        assert a is not other
        a.inc()
        assert b.value() == 1 and other.value() == 0

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_thing_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_thing_total")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("0bad-name")
        with pytest.raises(ValueError):
            registry.counter("repro_ok_total", **{"0bad": "value"})

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total").inc(7)
        registry.gauge("repro_depth").set(2.5)
        registry.histogram("repro_lat_ms", buckets=(1.0,)).observe(0.3)
        snap = registry.snapshot()
        assert snap["counters"] == {"repro_requests_total": 7}
        assert snap["gauges"] == {"repro_depth": 2.5}
        assert snap["histograms"]["repro_lat_ms"]["count"] == 1
        # labelled series render exposition-style keys
        registry.counter("repro_steps_total", backend="fast").inc()
        snap = registry.snapshot()
        assert 'repro_steps_total{backend="fast"}' in snap["counters"]

    def test_reset_drops_metrics(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total").inc()
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="
    r'"[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? '
    r"[0-9.eE+-]+(e[+-]?[0-9]+)?$"
)


class TestPrometheusExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", help="Requests.").inc(3)
        registry.gauge("repro_workers", help="Workers.").set(2)
        registry.histogram(
            "repro_latency_ms", buckets=(1.0, 5.0), help="Latency."
        ).observe_many([0.5, 2.0, 50.0])
        registry.counter("repro_steps_total", backend="fast").inc(4)
        registry.counter("repro_steps_total", backend="parallel").inc(1)
        return registry

    def test_every_line_is_valid_exposition_text(self):
        text = self._registry().render_prometheus()
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert SAMPLE_LINE.match(line), f"invalid sample line: {line!r}"

    def test_type_header_precedes_samples_once_per_family(self):
        text = self._registry().render_prometheus()
        lines = text.splitlines()
        type_lines = [line for line in lines if line.startswith("# TYPE ")]
        families = [line.split()[2] for line in type_lines]
        assert len(families) == len(set(families))
        # both labelled series live under the single # TYPE block
        type_index = lines.index("# TYPE repro_steps_total counter")
        assert 'repro_steps_total{backend="fast"} 4' in lines[type_index:]
        assert 'repro_steps_total{backend="parallel"} 1' in lines[type_index:]

    def test_histogram_renders_cumulative_buckets_and_count(self):
        text = self._registry().render_prometheus()
        assert 'repro_latency_ms_bucket{le="1"} 1' in text
        assert 'repro_latency_ms_bucket{le="5"} 2' in text
        assert 'repro_latency_ms_bucket{le="+Inf"} 3' in text
        assert "repro_latency_ms_count 3" in text
        assert "repro_latency_ms_sum 52.5" in text


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #
class TestTracing:
    def test_off_by_default_and_allocation_free(self):
        assert not tracing_enabled()
        assert maybe_trace("serve.request") is None
        with span("anything", rows=3) as attrs:
            attrs["backend"] = "fast"  # must be a harmless no-op
        assert trace_buffer() == []

    def test_sampling_stride(self):
        enable_tracing(sample=0.5)  # every 2nd request
        traces = [maybe_trace("r") for _ in range(8)]
        assert sum(t is not None for t in traces) == 4

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            enable_tracing(sample=0.0)
        with pytest.raises(ValueError):
            enable_tracing(sample=1.5)

    def test_span_nesting_records_parent_links(self):
        enable_tracing()
        trace = maybe_trace("serve.request")
        with use_trace(trace):
            with span("engine.predict"):
                with span("unit0.gemm", rows=8) as attrs:
                    attrs["backend"] = "fast"
        finish_trace(trace)
        spans = {entry.name: entry for entry in trace.spans()}
        assert spans["engine.predict"].parent_id == 0
        assert spans["unit0.gemm"].parent_id == spans[
            "engine.predict"
        ].span_id
        assert spans["unit0.gemm"].attrs == {"rows": 8, "backend": "fast"}
        assert trace.duration_ms > 0

    def test_use_trace_is_thread_local(self):
        enable_tracing()
        trace = maybe_trace("r")
        seen = {}

        def other_thread():
            seen["active"] = has_active_trace()

        with use_trace(trace):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
            assert has_active_trace()
        assert seen["active"] is False
        assert not has_active_trace()

    def test_buffer_is_bounded(self):
        enable_tracing()
        maxlen = trace_module._STATE.buffer.maxlen
        for index in range(maxlen + 10):
            finish_trace(maybe_trace(f"r{index}"))
        buffered = trace_buffer()
        assert len(buffered) == maxlen
        # oldest traces were evicted, newest kept
        assert buffered[-1].name == f"r{maxlen + 9}"

    def test_slowest_traces_orders_by_duration(self):
        enable_tracing()
        for duration_s in (0.003, 0.001, 0.002):
            trace = maybe_trace("r")
            finish_trace(trace, end_s=trace.start_s + duration_s)
        slowest = slowest_traces(2)
        assert [round(t.duration_ms) for t in slowest] == [3, 2]

    def test_format_trace_renders_tree(self):
        enable_tracing()
        trace = maybe_trace("serve.request")
        with use_trace(trace):
            with span("batcher.enqueue", queue_depth=3):
                pass
            with span("engine.predict"):
                with span("unit0.gemm", backend="fast"):
                    pass
        finish_trace(trace)
        text = format_trace(trace)
        lines = text.splitlines()
        assert lines[0].startswith(f"trace #{trace.trace_id} serve.request")
        assert "├─ batcher.enqueue" in lines[1]
        assert "[queue_depth=3]" in lines[1]
        assert "└─ engine.predict" in lines[2]
        assert lines[3].startswith("   ") and "unit0.gemm" in lines[3]

    def test_as_dict_is_json_shaped(self):
        enable_tracing()
        trace = maybe_trace("r", model="mlp")
        with use_trace(trace):
            with span("step"):
                pass
        finish_trace(trace)
        payload = trace.as_dict()
        assert payload["spans"][0]["span_id"] == 0
        assert payload["spans"][0]["attrs"] == {"model": "mlp"}
        assert payload["spans"][1]["name"] == "step"


# ---------------------------------------------------------------------- #
# serve metrics reservoir (unbounded-memory fix)
# ---------------------------------------------------------------------- #
class TestReservoir:
    def test_exact_below_cap(self):
        reservoir = _Reservoir(cap=100)
        values = list(range(50))
        reservoir.extend(values)
        assert reservoir.samples() == [float(v) for v in values]
        assert reservoir.count == 50
        assert reservoir.peak == 49

    def test_bounded_above_cap_with_exact_aggregates(self):
        reservoir = _Reservoir(cap=64)
        for value in range(10_000):
            reservoir.add(value)
        assert len(reservoir.samples()) == 64
        assert reservoir.count == 10_000
        assert reservoir.total == sum(range(10_000))
        assert reservoir.peak == 9_999
        # the sample stays representative of the full stream
        assert np.mean(reservoir.samples()) == pytest.approx(
            4999.5, rel=0.25
        )

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            _Reservoir(cap=0)


class TestServeMetricsBounded:
    def _metrics(self, **kwargs):
        kwargs.setdefault("registry", MetricsRegistry())
        return ServeMetrics(**kwargs)

    def test_memory_stays_bounded_under_sustained_traffic(self):
        metrics = self._metrics(sample_cap=128)
        for _ in range(100):
            metrics.record_batch([1.0] * 50)
        assert len(metrics._latencies._samples) == 128
        snap = metrics.snapshot()
        assert snap["requests"] == 5_000
        assert snap["latency_samples"] == 128
        assert snap["sample_cap"] == 128

    def test_percentiles_exact_below_cap(self):
        metrics = self._metrics()
        latencies = [float(v) for v in range(1, 101)]
        metrics.record_batch(latencies)
        snap = metrics.snapshot()
        assert snap["sample_cap"] == DEFAULT_SAMPLE_CAP
        assert snap["latency_samples"] == 100
        assert snap["p50"] == pytest.approx(
            np.percentile(latencies, 50)
        )
        assert snap["p99"] == pytest.approx(
            np.percentile(latencies, 99)
        )
        assert snap["mean_latency_ms"] == pytest.approx(50.5)
        assert snap["max_latency_ms"] == 100.0

    def test_format_report_surfaces_sampling_regime(self):
        metrics = self._metrics(sample_cap=8)
        metrics.record_batch([1.0] * 4)
        report = metrics.format_report()
        assert "latency samples (exact pcts)" in report
        assert "latency sample cap" in report
        metrics.record_batch([1.0] * 10)
        report = metrics.format_report()
        assert "latency samples (reservoir, approx pcts)" in report

    def test_publishes_into_registry_per_batch(self):
        registry = MetricsRegistry()
        metrics = self._metrics(registry=registry)
        metrics.record_batch([0.5, 2.0, 20.0])
        metrics.record_cached()
        metrics.record_deduped()
        snap = registry.snapshot()
        # cache-served requests are answered requests too: 3 batched + 1
        assert snap["counters"]["repro_serve_requests_total"] == 4
        assert snap["counters"]["repro_serve_batches_total"] == 1
        assert snap["counters"]["repro_serve_cached_total"] == 1
        assert snap["counters"]["repro_serve_deduped_total"] == 1
        assert snap["histograms"]["repro_serve_latency_ms"]["count"] == 4
        # reset() drops report samples but never the monotonic counters
        metrics.reset()
        assert metrics.snapshot()["requests"] == 0
        snap = registry.snapshot()
        assert snap["counters"]["repro_serve_requests_total"] == 4


# ---------------------------------------------------------------------- #
# step timing + executor integration
# ---------------------------------------------------------------------- #
class TestStepTiming:
    @pytest.mark.parametrize("backend", ["reference", "fast", "parallel"])
    def test_timing_hook_never_changes_outputs(self, backend):
        units = _mlp_units()
        x = np.random.default_rng(1).normal(size=(6, 64)).astype(np.float32)
        executor = PlanExecutor.for_units(units, flatten_input=True,
                                          backend=backend)
        baseline = executor.forward(x)
        with instrument.step_timing() as hook:
            observed = executor.forward(x)
        np.testing.assert_array_equal(baseline, observed)
        timings = hook.timings()
        # One aggregate per step, each attributed to the backend that ran it.
        assert len(timings) == len(executor.plan.steps)
        for (_, step_backend), timing in timings.items():
            assert step_backend == backend
            assert timing.calls == 1
            assert timing.rows == 6
            assert timing.total_ms >= 0.0
        assert "backend" in hook.format_report()

    def test_traced_forward_attributes_backends_to_steps(self):
        units = _mlp_units()
        executor = PlanExecutor.for_units(units, flatten_input=True,
                                          backend="fast")
        x = np.random.default_rng(2).normal(size=(4, 64)).astype(np.float32)
        enable_tracing()
        trace = maybe_trace("engine.predict")
        with executor.inference_mode(), use_trace(trace):
            executor.forward(x)
        finish_trace(trace)
        step_spans = [s for s in trace.spans() if s.name.startswith("unit")]
        assert [s.name for s in step_spans] == [
            f"unit{unit}.{kind}"
            for unit in (0, 1)
            for kind in ("norm", "gemm", "activation")
        ]
        for entry in step_spans:
            assert entry.attrs["backend"] == "fast"
            assert entry.attrs["rows"] == 4

    def test_register_unregister_race_during_execution(self):
        units = _mlp_units()
        executor = PlanExecutor.for_units(units, flatten_input=True)
        x = np.random.default_rng(3).normal(size=(4, 64)).astype(np.float32)
        baseline = executor.forward(x)
        stop = threading.Event()
        errors = []

        def churn():
            try:
                while not stop.is_set():
                    hook = instrument.StepTimingHook()
                    instrument.register_hook(hook)
                    instrument.unregister_hook(hook)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        churners = [threading.Thread(target=churn) for _ in range(4)]
        for worker in churners:
            worker.start()
        try:
            for _ in range(200):
                np.testing.assert_array_equal(executor.forward(x), baseline)
        finally:
            stop.set()
            for worker in churners:
                worker.join()
        assert errors == []
        assert not instrument.hooks_active()

    def test_unregister_absent_hook_is_noop(self):
        hook = instrument.StepTimingHook()
        instrument.unregister_hook(hook)  # must not raise
        assert not instrument.hooks_active()
