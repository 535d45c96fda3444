"""Tests for measured auto-pinning (``pins="auto"`` / ``--pin auto``)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.models import build_mlp
from repro.quant import QuantConfig, prepare_int8
from repro.runtime import autopin as autopin_fn  # lazy re-export
from repro.runtime import dispatch
from repro.runtime.autopin import (
    AUTOPIN_CANDIDATES,
    KERNEL_MICRO_ENV_VAR,
    TimingCase,
    autopin_steps,
    calibrate,
    cases_from_record,
    clear_calibration_cache,
    gemm_shape,
    load_recorded_cases,
    record_is_fresh,
    resolve_backend,
)
from repro.runtime.executor import PlanExecutor
from repro.runtime.plan import AUTO_PINS, compile_plan, validate_pins
from repro.utils.sysinfo import machine_meta


def _int8_units(hidden_units=16, seed=0):
    bundle = build_mlp(input_shape=(1, 8, 8), hidden_layers=2,
                       hidden_units=hidden_units, seed=seed)
    units = bundle.ff_units()
    for index, unit in enumerate(units):
        prepare_int8(unit, QuantConfig(rounding="nearest"), seed=seed + index)
        unit.eval()
        unit.set_activation_caching(False)
    return units


def _record(timings_small, timings_large, meta=None):
    """A kernel_micro.json-shaped record with the given per-case timings."""
    return {
        "parameters": {
            "rowwise_serve": [320, 196, 64],
            "gemm_large": [512, 784, 256],
        },
        "results": {
            "kernels": {
                "rowwise_serve": timings_small,
                "gemm_large": timings_large,
            }
        },
        "meta": meta if meta is not None else machine_meta(),
    }


_FULL = {"fast": 1.0, "parallel": 2.0, "reference": 9.0}


class TestResolution:
    def test_nearest_case_wins_in_log_space(self):
        cases = [
            TimingCase(320, 196, 64, {"fast": 0.1, "parallel": 0.5}),
            TimingCase(512, 784, 256, {"fast": 2.0, "parallel": 1.0}),
        ]
        assert resolve_backend(320, 196, cases) == "fast"
        assert resolve_backend(512, 784, cases) == "parallel"
        # A huge narrow batch is still nearer (log-space) to the serve case.
        assert resolve_backend(5000, 196, cases) == "fast"

    def test_only_candidates_are_considered(self):
        cases = [TimingCase(320, 196, 64, {"reference": 0.001, "fast": 1.0})]
        assert resolve_backend(320, 196, cases) == "fast"

    def test_no_usable_case_returns_none(self):
        assert resolve_backend(320, 196, []) is None
        cases = [TimingCase(320, 196, 64, {"reference": 0.1})]
        assert resolve_backend(320, 196, cases) is None

    def test_gemm_shape_reads_quantized_and_plain_linear(self):
        units = _int8_units()
        plan = compile_plan(units, flatten_input=True)
        shapes = [gemm_shape(step) for step in plan.steps]
        # norm, gemm, activation per unit; 8x8 flattened -> 16 hidden.
        assert shapes == [None, (64, 16), None, None, (16, 16), None]

        from repro.nn.linear import Linear
        from repro.runtime.plan import KernelStep

        plain = Linear(12, 5)
        step = KernelStep("gemm", plain, 0)
        assert gemm_shape(step) == (12, 5)
        assert gemm_shape(KernelStep("norm", None, 0)) is None


class TestAutopinSteps:
    def test_steps_pinned_to_measured_winner(self):
        units = _int8_units()
        plan = compile_plan(units, flatten_input=True)
        cases = [TimingCase(320, 64, 16, {"fast": 0.5, "parallel": 0.1})]
        pinned = autopin_steps(plan.steps, batch_rows=320, cases=cases)
        assert [step.backend for step in pinned] == [
            "parallel" if step.kind == "gemm" else None for step in pinned
        ]

    def test_non_gemm_steps_pass_through(self):
        units = _int8_units()
        plan = compile_plan(units, flatten_input=True)
        cases = [TimingCase(320, 64, 16, {"fast": 0.1})]
        pinned = autopin_steps(plan.steps, cases=cases)
        for step in pinned:
            if step.kind == "gemm":
                assert step.backend == "fast"
            else:
                assert step.backend is None

    def test_autopin_wrapper_returns_new_plan(self):
        units = _int8_units()
        plan = compile_plan(units, flatten_input=True)
        cases = [TimingCase(320, 64, 16, {"fast": 0.1, "parallel": 0.2})]
        pinned = autopin_fn(plan, cases=cases)
        assert pinned is not plan
        assert all(step.backend is None for step in plan.steps)
        assert [step.backend for step in pinned.steps] == [
            "fast" if step.kind == "gemm" else None for step in pinned.steps
        ]

    def test_dispatch_reexport(self):
        units = _int8_units()
        plan = compile_plan(units, flatten_input=True)
        cases = [TimingCase(320, 64, 16, {"fast": 0.1, "parallel": 0.2})]
        pinned = dispatch.autopin(plan, cases=cases)
        assert all(
            step.backend == "fast"
            for step in pinned.steps if step.kind == "gemm"
        )


class TestRecordedTimings:
    def test_fresh_record_round_trips(self, tmp_path, monkeypatch):
        path = tmp_path / "kernel_micro.json"
        path.write_text(json.dumps(_record(_FULL, _FULL)))
        monkeypatch.setenv(KERNEL_MICRO_ENV_VAR, str(path))
        cases = load_recorded_cases()
        assert cases is not None and len(cases) == 2
        assert cases[0].rows == 320 and cases[1].reduce_dim == 784

    def test_stale_meta_is_rejected(self, tmp_path, monkeypatch):
        meta = machine_meta()
        meta["cpu_count"] = (meta.get("cpu_count") or 1) + 64
        path = tmp_path / "kernel_micro.json"
        path.write_text(json.dumps(_record(_FULL, _FULL, meta=meta)))
        monkeypatch.setenv(KERNEL_MICRO_ENV_VAR, str(path))
        assert load_recorded_cases() is None

    def test_missing_candidate_backend_is_stale(self, tmp_path, monkeypatch):
        partial = {"fast": 1.0}  # no parallel timings
        path = tmp_path / "kernel_micro.json"
        path.write_text(json.dumps(_record(partial, partial)))
        monkeypatch.setenv(KERNEL_MICRO_ENV_VAR, str(path))
        assert load_recorded_cases() is None
        assert load_recorded_cases(candidates=("fast",)) is not None

    def test_record_with_retired_shard_meta_key_is_fresh(self):
        # Committed records measured before the shard backend was removed
        # still carry ``shard_workers_env: null`` in their meta block.
        legacy = dict(machine_meta(), shard_workers_env=None)
        assert record_is_fresh(_record(_FULL, _FULL, meta=legacy),
                               AUTOPIN_CANDIDATES)

    def test_absent_or_garbage_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(KERNEL_MICRO_ENV_VAR, str(tmp_path / "missing.json"))
        assert load_recorded_cases() is None
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        monkeypatch.setenv(KERNEL_MICRO_ENV_VAR, str(path))
        assert load_recorded_cases() is None

    def test_record_is_fresh_checks_blas(self):
        record = _record(_FULL, _FULL)
        assert record_is_fresh(record, AUTOPIN_CANDIDATES)
        record["meta"]["blas"] = {"name": "some-other-blas"}
        assert not record_is_fresh(record, AUTOPIN_CANDIDATES)

    def test_cases_from_record_shapes(self):
        cases = cases_from_record(_record(_FULL, _FULL))
        assert [(c.rows, c.reduce_dim, c.cols) for c in cases] == [
            (320, 196, 64), (512, 784, 256),
        ]

    def test_synthetic_record_steers_compile_plan(self, tmp_path, monkeypatch):
        # End to end: pins="auto" + a synthetic record that makes `parallel`
        # the unambiguous winner everywhere.
        timings = {"fast": 5.0, "parallel": 0.1, "reference": 50.0}
        path = tmp_path / "kernel_micro.json"
        path.write_text(json.dumps(_record(timings, timings)))
        monkeypatch.setenv(KERNEL_MICRO_ENV_VAR, str(path))
        units = _int8_units()
        plan = compile_plan(units, flatten_input=True, pins="auto")
        assert [
            step.backend for step in plan.steps if step.kind == "gemm"
        ] == ["parallel", "parallel"]


class TestCalibrationFallback:
    def test_calibrate_times_requested_shapes(self):
        clear_calibration_cache()
        cases = calibrate([(64, 32, 8)], candidates=("fast", "parallel"),
                          repeats=1)
        assert len(cases) == 1
        assert set(cases[0].timings) == {"fast", "parallel"}
        assert all(ms > 0 for ms in cases[0].timings.values())

    def test_calibration_is_cached(self, monkeypatch):
        clear_calibration_cache()
        backend = dispatch.get_backend("fast")
        calls = {"n": 0}
        real_kernel = type(backend).rowwise_quantized_gemm

        def counting_kernel(self, *args, **kwargs):
            calls["n"] += 1
            return real_kernel(self, *args, **kwargs)

        monkeypatch.setattr(type(backend), "rowwise_quantized_gemm",
                            counting_kernel)
        calibrate([(64, 32, 8)], candidates=("fast",), repeats=1)
        first = calls["n"]
        assert first > 0
        calibrate([(64, 32, 8)], candidates=("fast",), repeats=1)
        assert calls["n"] == first  # second call served from the cache

    def test_calibration_releases_pools_it_started(self, monkeypatch):
        # Timing the parallel candidate spawns its thread pool; when the
        # pool was idle before calibration it must be idle after, or a
        # losing candidate leaks threads no engine will ever close.
        clear_calibration_cache()
        parallel = dispatch.get_backend("parallel")
        parallel.shutdown()
        assert not parallel.pool_active
        saved = (parallel.num_workers, parallel.min_rows_per_tile)
        parallel.num_workers, parallel.min_rows_per_tile = 2, 1
        started = []
        real_executor = type(parallel)._executor

        def recording_executor(self):
            pool = real_executor(self)
            started.append(pool)
            return pool

        monkeypatch.setattr(type(parallel), "_executor", recording_executor)
        try:
            calibrate([(512, 32, 8)], candidates=("fast", "parallel"),
                      repeats=1)
            assert started  # the measurement really started the pool
            assert not parallel.pool_active
        finally:
            parallel.num_workers, parallel.min_rows_per_tile = saved
            parallel.shutdown()
            clear_calibration_cache()

    def test_stale_record_falls_back_to_calibration(self, tmp_path,
                                                    monkeypatch):
        clear_calibration_cache()
        monkeypatch.setenv(KERNEL_MICRO_ENV_VAR, str(tmp_path / "nope.json"))
        units = _int8_units()
        plan = compile_plan(units, flatten_input=True, pins="auto",
                            auto_rows=64)
        # Every GEMM step must be resolved to one of the exact candidates.
        for step in plan.steps:
            if step.kind == "gemm":
                assert step.backend in AUTOPIN_CANDIDATES

    def test_autopinned_plan_stays_bit_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv(KERNEL_MICRO_ENV_VAR, str(tmp_path / "nope.json"))
        units = _int8_units()
        auto_exec = PlanExecutor.for_units(units, flatten_input=True,
                                           pins="auto")
        ref_exec = PlanExecutor.for_units(units, flatten_input=True,
                                          backend="reference")
        x = np.random.default_rng(0).normal(size=(24, 64)).astype(np.float32)
        np.testing.assert_array_equal(auto_exec.forward(x),
                                      ref_exec.forward(x))


class TestConfigSurfaces:
    def test_validate_pins_accepts_auto(self):
        assert validate_pins(AUTO_PINS) == AUTO_PINS

    def test_ff_config_accepts_auto(self):
        from repro.core.ff_trainer import FFConfig

        config = FFConfig(pins="auto")
        assert config.pins == "auto"

    def test_serve_config_accepts_auto(self):
        from repro.serve import ServeConfig

        config = ServeConfig(pins="auto")
        assert config.pins == "auto"
        assert config.as_dict()["pins"] == "auto"

    def test_cli_parses_pin_auto(self):
        from repro.cli import _parse_pins, build_parser

        args = build_parser().parse_args(["serve-bench", "--pin", "auto"])
        assert _parse_pins(args) == "auto"

    def test_cli_rejects_mixed_auto_and_explicit(self):
        from repro.cli import _parse_pins, build_parser

        args = build_parser().parse_args(
            ["serve-bench", "--pin", "auto", "--pin", "gemm=fast"]
        )
        with pytest.raises(SystemExit):
            _parse_pins(args)
