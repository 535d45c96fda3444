"""Serve-engine plan memoization tests.

The engine caches compiled plans per ``(units_fingerprint, pins)`` key
so ``apply_pins`` (and the micro-batcher re-applying config pins) stops
recompiling, and a closed engine serves again from its cached plans.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_model
from repro.serve import MicroBatcher, ServeConfig, build_engine, export_artifact


def _conv_artifact(seed=0, input_shape=(3, 16, 16)):
    bundle = build_model("resnet18-mini", input_shape=input_shape, seed=seed)
    units = bundle.ff_units()
    return export_artifact(
        units, bundle, overlay_amplitude=2.0,
        registry_name="resnet18-mini",
        registry_kwargs={"input_shape": list(input_shape)},
    )


@pytest.fixture()
def conv_engine():
    artifact = _conv_artifact()
    engine = build_engine(
        artifact, build_model("resnet18-mini", input_shape=(3, 16, 16),
                              seed=1),
    )
    yield engine
    engine.close()


class TestPlanCache:
    def test_repeated_apply_pins_hits_memoized_plan(self, conv_engine):
        assert conv_engine.plan_compiles == 1  # the construction compile
        first = conv_engine.apply_pins({"conv": "parallel"}).executor
        assert conv_engine.plan_compiles == 2
        again = conv_engine.apply_pins({"conv": "parallel"}).executor
        assert again is first  # object identity: the compile-counter proof
        assert conv_engine.plan_compiles == 2
        stats = conv_engine.plan_cache_stats()
        assert stats == {"compiles": 2, "hits": 1, "entries": 2}

    def test_distinct_pin_specs_miss(self, conv_engine):
        first = conv_engine.apply_pins({"conv": "parallel"}).executor
        other = conv_engine.apply_pins({"conv": "fast"}).executor
        assert other is not first
        assert conv_engine.plan_compiles == 3
        # Returning to a seen spec is a hit again.
        assert conv_engine.apply_pins({"conv": "parallel"}).executor is first

    def test_pin_spec_key_is_order_insensitive(self, conv_engine):
        first = conv_engine.apply_pins(
            {"conv": "parallel", "unit0": "fast"}
        ).executor
        again = conv_engine.apply_pins(
            {"unit0": "fast", "conv": "parallel"}
        ).executor
        assert again is first

    def test_none_pins_reuses_construction_plan(self, conv_engine):
        construction = conv_engine.executor
        assert conv_engine.apply_pins(None).executor is construction
        assert conv_engine.plan_compiles == 1

    def test_auto_pins_memoized_per_batch_height(self, conv_engine, tmp_path,
                                                 monkeypatch):
        # Point auto-pinning at a synthetic record so no calibration runs.
        from repro.runtime.autopin import KERNEL_MICRO_ENV_VAR
        from repro.utils.sysinfo import machine_meta

        record = {
            "parameters": {
                "rowwise_serve": [320, 196, 64],
                "gemm_large": [512, 784, 256],
            },
            "results": {"kernels": {
                "rowwise_serve": {"fast": 1.0, "parallel": 2.0},
                "gemm_large": {"fast": 1.0, "parallel": 2.0},
            }},
            "meta": machine_meta(),
        }
        path = tmp_path / "kernel_micro.json"
        import json

        path.write_text(json.dumps(record))
        monkeypatch.setenv(KERNEL_MICRO_ENV_VAR, str(path))
        first = conv_engine.apply_pins("auto", batch_size=8).executor
        assert conv_engine.apply_pins("auto", batch_size=8).executor is first
        # A different measurement height is a different resolution.
        other = conv_engine.apply_pins("auto", batch_size=64).executor
        assert other is not first

    def test_micro_batcher_restart_reuses_cached_plan(self, conv_engine):
        config = ServeConfig(max_batch_size=4, max_wait_ms=0.0,
                             pins={"conv": "fast"}, cache_capacity=0)
        with MicroBatcher(conv_engine, config):
            pinned = conv_engine.executor
            compiles = conv_engine.plan_compiles
        # A second deployment over the same engine re-applies the same
        # pins: plan-cache hit, no recompilation.
        with MicroBatcher(conv_engine, config) as batcher:
            assert conv_engine.executor is pinned
            assert conv_engine.plan_compiles == compiles
            sample = np.zeros((3, 16, 16), dtype=np.float32)
            assert batcher.predict(sample) == conv_engine.predict(
                sample[None]
            )[0]

    def test_closed_engine_serves_again_from_cached_plan(self, conv_engine):
        pinned = conv_engine.apply_pins({"conv": "parallel"}).executor
        x = np.random.default_rng(0).normal(size=(2, 3, 16, 16)).astype(
            np.float32
        )
        before = conv_engine.predict(x)
        conv_engine.close()
        # The memoized plan survives close; kernel pools come back lazily
        # and the answers do not move.
        assert conv_engine.apply_pins({"conv": "parallel"}).executor is pinned
        np.testing.assert_array_equal(conv_engine.predict(x), before)
