"""Tests for ``repro.runtime``: plans, backends, dispatch and instrumentation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FFGoodnessClassifier
from repro.data.overlay import LabelOverlay
from repro.models import build_mlp, build_model
from repro.nn.linear import Linear
from repro.quant import QuantConfig, prepare_int8
from repro.runtime import (
    available_backends,
    compile_plan,
    get_backend,
    instrumented,
    register_backend,
    set_default_backend,
    use_backend,
)
from repro.runtime import dispatch, instrument
from repro.runtime.backends import FastBackend, ReferenceBackend
from repro.runtime.backends.fast import EXACT_GRAD_ROWS, exact_f32_possible
from repro.runtime.executor import PlanExecutor, forward_through_units


def _mlp_units(hidden_layers=2, hidden_units=32, seed=0):
    bundle = build_mlp(input_shape=(1, 8, 8), hidden_layers=hidden_layers,
                       hidden_units=hidden_units, seed=seed)
    return bundle, bundle.ff_units()


class TestPlanCompilation:
    def test_mlp_plan_steps(self):
        _, units = _mlp_units()
        plan = compile_plan(units, flatten_input=True)
        assert plan.num_units == 2
        kinds = [step.kind for step in plan.steps]
        assert kinds == ["norm", "gemm", "activation"] * 2
        # Exactly one output boundary per unit, at the unit's last step.
        boundaries = [step.unit_index for step in plan.steps
                      if step.is_unit_output]
        assert boundaries == [0, 1]
        assert plan.unit_step_counts == [3, 3]

    def test_conv_model_keeps_structured_blocks_opaque(self):
        bundle = build_model("resnet18-mini", input_shape=(3, 16, 16))
        plan = compile_plan(bundle.ff_units())
        kinds = {step.kind for step in plan.steps}
        # Residual blocks cannot be flattened into a linear chain.
        assert "module" in kinds
        assert plan.num_units == len(bundle.backbone_blocks)

    def test_describe_lists_every_step(self):
        _, units = _mlp_units()
        plan = compile_plan(units, flatten_input=True)
        text = plan.describe()
        assert "gemm" in text and "unit-out" in text
        assert "FFLayerNorm" in text and "Linear" in text
        assert len(text.splitlines()) == len(plan.steps) + 1

    def test_quantized_flag_reflects_attached_engines(self):
        _, units = _mlp_units()
        plan = compile_plan(units)
        assert not any(step.quantized for step in plan.steps)
        for unit in units:
            prepare_int8(unit, QuantConfig(), seed=0)
        assert [step.quantized for step in plan.steps] == [
            step.kind == "gemm" for step in plan.steps
        ]

    def test_empty_units_rejected(self):
        with pytest.raises(ValueError):
            compile_plan([])


class TestExecutor:
    def test_unit_outputs_match_module_walk(self):
        _, units = _mlp_units()
        x = np.random.default_rng(0).normal(size=(4, 64)).astype(np.float32)
        expected = []
        hidden = x
        for unit in units:
            hidden = unit(hidden)
            expected.append(hidden)
        actual = PlanExecutor.for_units(units).unit_outputs(x)
        assert len(actual) == len(expected)
        for a, b in zip(actual, expected):
            np.testing.assert_array_equal(a, b)

    def test_limit_stops_at_unit_boundary(self):
        _, units = _mlp_units(hidden_layers=3)
        x = np.random.default_rng(1).normal(size=(2, 64)).astype(np.float32)
        executor = PlanExecutor.for_units(units)
        partial = executor.unit_outputs(x, limit=2)
        assert len(partial) == 2
        np.testing.assert_array_equal(partial[1],
                                      executor.unit_outputs(x)[1])

    def test_forward_through_units_shim(self):
        _, units = _mlp_units()
        x = np.random.default_rng(2).normal(size=(3, 64)).astype(np.float32)
        outs = forward_through_units(units, x)
        assert len(outs) == 2

    def test_observed_run_executes_every_step_module_once(self):
        """A traced run executes each step module once, as the plain walk."""
        from repro.obs import trace as obs_trace

        _, units = _mlp_units()
        for unit in units:
            unit.eval()
        x = np.random.default_rng(3).normal(size=(4, 64)).astype(np.float32)
        executor = PlanExecutor.for_units(units, backend="fast")
        plain = executor.unit_outputs(x)
        seen = []

        class Recorder(instrument.Instrumentation):
            def on_module(self, module, inputs, output):
                seen.append(module)

        trace = obs_trace.Trace(0, "test", 0.0, {})
        with obs_trace.use_trace(trace), instrumented(Recorder()):
            observed = executor.unit_outputs(x)
        assert seen == [step.module for step in executor.plan.steps]
        step_spans = [s for s in trace.spans() if s.name.startswith("unit")]
        assert len(step_spans) == len(seen)
        for a, b in zip(plain, observed):
            np.testing.assert_array_equal(a, b)

    def test_inference_mode_restores_training_flags(self):
        _, units = _mlp_units()
        units[0].train(True)
        units[1].train(False)
        executor = PlanExecutor.for_units(units)
        with executor.inference_mode():
            assert not units[0].training and not units[1].training
        assert units[0].training and not units[1].training


class TestBackendRegistry:
    def test_builtin_backends_available(self):
        names = available_backends()
        assert "reference" in names and "fast" in names

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("no-such-backend")

    def test_builtin_backends_are_exactly_two(self):
        assert available_backends() == ["fast", "reference"]

    def test_removed_shard_backend_is_unknown(self, monkeypatch, capsys):
        """Removed backends are gone everywhere a backend name is accepted."""
        from repro.cli import build_parser

        for name in ("shard", "parallel"):
            expected = (rf"unknown backend '{name}'; "
                        r"available: \['fast', 'reference'\]")
            with pytest.raises(ValueError, match=expected):
                get_backend(name)
            monkeypatch.setenv(dispatch.BACKEND_ENV_VAR, name)
            with pytest.raises(ValueError, match=expected):
                dispatch.active_backend()
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(["serve-bench", "--backend", name])
            assert exit_info.value.code == 2
            assert f"invalid choice: '{name}'" in capsys.readouterr().err

    def test_instance_passthrough(self):
        backend = FastBackend()
        assert get_backend(backend) is backend

    def test_register_custom_backend(self):
        class Custom(ReferenceBackend):
            name = "custom-test"

        register_backend("custom-test", Custom)
        try:
            assert isinstance(get_backend("custom-test"), Custom)
            assert "custom-test" in available_backends()
        finally:
            from repro.runtime.backends import _FACTORIES, _INSTANCES
            _FACTORIES.pop("custom-test", None)
            _INSTANCES.pop("custom-test", None)


class TestBackendSelection:
    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(dispatch.BACKEND_ENV_VAR, "reference")
        assert dispatch.active_backend().name == "reference"
        monkeypatch.setenv(dispatch.BACKEND_ENV_VAR, "fast")
        assert dispatch.active_backend().name == "fast"

    def test_use_backend_overrides_and_nests(self):
        with use_backend("reference"):
            assert dispatch.active_backend().name == "reference"
            with use_backend("fast"):
                assert dispatch.active_backend().name == "fast"
            assert dispatch.active_backend().name == "reference"

    def test_use_backend_none_is_passthrough(self):
        with use_backend("reference"):
            with use_backend(None):
                assert dispatch.active_backend().name == "reference"

    def test_set_default_backend(self):
        set_default_backend("reference")
        try:
            assert dispatch.default_backend_name() == "reference"
        finally:
            set_default_backend(None)

    def test_set_default_backend_validates(self):
        with pytest.raises(ValueError):
            set_default_backend("bogus")

    def test_configs_validate_backend_eagerly(self):
        from repro.core.ff_trainer import FFConfig
        from repro.serve import ServeConfig

        with pytest.raises(ValueError, match="unknown backend"):
            ServeConfig(backend="fats")
        with pytest.raises(ValueError, match="unknown backend"):
            FFConfig(backend="fats")
        assert ServeConfig(backend="reference").backend == "reference"
        assert FFConfig(backend="fast").backend == "fast"

    def test_profile_hook_scoped_to_model(self):
        from repro.hardware.op_counter import ProfileHook

        bundle = build_mlp(input_shape=(1, 8, 8), hidden_layers=1,
                           hidden_units=8, seed=0)
        model = bundle.bp_model()
        other = Linear(6, 4, rng=0)
        hook = ProfileHook(model)
        with instrumented(hook):
            other(np.zeros((2, 6), dtype=np.float32))
        assert hook.records == [] and hook.activation_elements == 0.0


class TestBackendParity:
    """The fast backend must be bit-identical to the reference backend."""

    @given(
        rows=st.integers(1, 12),
        inner=st.integers(1, 600),
        cols=st.integers(1, 12),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=30, deadline=None)
    def test_int8_gemm_parity(self, rows, inner, cols, seed):
        rng = np.random.default_rng(seed)
        lhs = rng.integers(-127, 128, size=(rows, inner)).astype(np.int8)
        rhs = rng.integers(-127, 128, size=(inner, cols)).astype(np.int8)
        ref = ReferenceBackend().int8_gemm(lhs, rhs)
        fast = FastBackend().int8_gemm(lhs, rhs)
        np.testing.assert_array_equal(
            np.asarray(ref, dtype=np.int64), np.asarray(fast, dtype=np.int64)
        )

    @given(
        rows=st.integers(1, 8),
        inner=st.integers(1, 300),
        cols=st.integers(1, 8),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=30, deadline=None)
    def test_rowwise_quantized_gemm_parity(self, rows, inner, cols, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, inner)).astype(np.float32)
        rhs = rng.integers(-127, 128, size=(inner, cols)).astype(np.int8)
        acc_ref, scales_ref = ReferenceBackend().rowwise_quantized_gemm(
            x, rhs, 127
        )
        acc_fast, scales_fast = FastBackend().rowwise_quantized_gemm(
            x, rhs, 127
        )
        np.testing.assert_array_equal(scales_ref, scales_fast)
        np.testing.assert_array_equal(
            np.asarray(acc_ref, dtype=np.float64),
            np.asarray(acc_fast, dtype=np.float64),
        )

    @given(
        hidden_layers=st.integers(1, 3),
        hidden_units=st.integers(4, 48),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_model_prediction_parity(
        self, hidden_layers, hidden_units, seed
    ):
        rng = np.random.default_rng(seed)
        inputs = rng.normal(size=(5, 64)).astype(np.float32)
        overlay = LabelOverlay(num_classes=10, amplitude=1.0)
        matrices = {}
        for backend in ("reference", "fast"):
            bundle, units = _mlp_units(hidden_layers, hidden_units, seed=seed)
            # Fresh engines per backend so the stochastic-rounding streams
            # are consumed identically.
            for index, unit in enumerate(units):
                prepare_int8(unit, QuantConfig(), seed=seed + index)
            classifier = FFGoodnessClassifier(
                units, overlay, flatten_input=True, backend=backend
            )
            matrices[backend] = classifier.goodness_matrix(inputs)
        np.testing.assert_array_equal(
            matrices["reference"], matrices["fast"]
        )

    def test_exact_f32_guard(self):
        assert exact_f32_possible(1000)
        assert not exact_f32_possible(2000)
        # Beyond the exact window the fast backend falls back to integers.
        rng = np.random.default_rng(0)
        lhs = rng.integers(-127, 128, size=(2, 2048)).astype(np.int8)
        rhs = rng.integers(-127, 128, size=(2048, 3)).astype(np.int8)
        fast = FastBackend().int8_gemm(lhs, rhs)
        assert fast.dtype == np.int32
        np.testing.assert_array_equal(
            fast, lhs.astype(np.int64) @ rhs.astype(np.int64)
        )

    def test_int8_min_value_near_exactness_boundary(self):
        # -128 squares to 128^2 > 127^2: a K in (1023, 1040] would pass the
        # old qmax=127 bound but overflow float32's exact-integer range.
        # The guard must account for the full int8 range on raw operands.
        K = 1040
        lhs = np.full((1, K), -128, dtype=np.int8)
        lhs[0, -1] = 1
        rhs = lhs.reshape(K, 1).copy()
        ref = ReferenceBackend().int8_gemm(lhs, rhs)
        fast = FastBackend().int8_gemm(lhs, rhs)
        np.testing.assert_array_equal(
            np.asarray(ref, dtype=np.int64), np.asarray(fast, dtype=np.int64)
        )

    def test_wide_operand_fallback(self):
        lhs = np.full((2, 4), 300, dtype=np.int16)
        rhs = np.full((4, 2), 300, dtype=np.int16)
        for backend in (ReferenceBackend(), FastBackend()):
            out = backend.int8_gemm(lhs, rhs)
            assert out.dtype == np.int64
            assert out[0, 0] == 4 * 300 * 300


class TestInstrumentation:
    def test_instrumented_registers_in_the_hook_registry(self):
        assert not instrument.hooks_active()
        with instrumented(instrument.Instrumentation()) as hook:
            assert instrument.hooks_active()
            assert hook in instrument._HOOKS
        assert not instrument.hooks_active()

    def test_fp32_macs_counted_for_plain_linear(self):
        """The profiler's module tap counts a plain (FP32) Linear's MACs."""
        from repro.hardware.op_counter import ProfileHook

        layer = Linear(6, 4, rng=0)
        x = np.zeros((3, 6), dtype=np.float32)
        with instrumented(ProfileHook(layer)) as hook:
            layer(x)
        assert [record.macs for record in hook.records] == [3 * 6 * 4]

    def test_hooks_observe_any_backend(self):
        _, units = _mlp_units()
        x = np.random.default_rng(4).normal(size=(2, 64)).astype(np.float32)
        seen = {}
        for backend in ("reference", "fast"):
            for index, unit in enumerate(units):
                prepare_int8(unit, QuantConfig(rounding="nearest"), seed=index)
            calls = seen[backend] = []

            class Recorder(instrument.Instrumentation):
                def on_module(self, module, inputs, output):
                    calls.append((module, inputs.shape, output.tobytes()))

            with instrumented(Recorder()):
                PlanExecutor.for_units(units, backend=backend).unit_outputs(x)
        assert seen["reference"] == seen["fast"]
        assert len(seen["reference"]) >= len(compile_plan(units).steps)

    def test_profile_identical_across_backends(self):
        from repro.hardware import profile_bundle

        bundle = build_mlp(input_shape=(1, 8, 8), hidden_layers=2,
                           hidden_units=16, seed=0)
        profiles = {}
        for backend in ("reference", "fast"):
            with use_backend(backend):
                profiles[backend] = profile_bundle(bundle, batch_size=2)
        assert (profiles["reference"].forward_macs
                == profiles["fast"].forward_macs)
        assert (profiles["reference"].total_activation_elements
                == profiles["fast"].total_activation_elements)

    def test_unregister_is_idempotent(self):
        hook = instrument.Instrumentation()
        instrument.register_hook(hook)
        instrument.unregister_hook(hook)
        instrument.unregister_hook(hook)
        assert not instrument.hooks_active()


class TestPlanMatchesReference:
    """Plan execution against the ``reference`` module walk: every check
    here compares the compiled plan on an optimized backend with the seed
    arithmetic."""

    @pytest.mark.parametrize("backend", ["fast"])
    def test_plan_matches_reference_all_activations(self, backend):
        from repro.nn.activations import (
            LeakyReLU, ReLU, ReLU6, Sigmoid, SiLU, Tanh,
        )
        from repro.nn.containers import Sequential
        from repro.nn.linear import Linear
        from repro.nn.norm import FFLayerNorm

        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 12)).astype(np.float32)
        for act_type in (ReLU, ReLU6, LeakyReLU, Sigmoid, SiLU, Tanh):
            unit = Sequential(
                FFLayerNorm(), Linear(12, 7, rng=1), act_type()
            ).eval()
            got = PlanExecutor.for_units([unit], backend=backend)
            expected = PlanExecutor.for_units([unit], backend="reference")
            np.testing.assert_array_equal(
                got.forward(x), expected.forward(x),
                err_msg=f"{act_type.__name__} diverged on {backend}",
            )

    def test_plan_matches_reference_on_nonfinite_inputs(self):
        """NaN/inf/-0.0 rows leave optimized and reference plans equal."""
        _, units = _mlp_units(seed=3)
        for unit in units:
            unit.eval()
        x = np.random.default_rng(3).normal(size=(6, 64)).astype(np.float32)
        x[0, 0] = np.nan
        x[1, :] = np.inf
        x[2, :] = -0.0
        x[3, 5] = -np.inf
        got = PlanExecutor.for_units(units, backend="fast")
        expected = PlanExecutor.for_units(units, backend="reference")
        with np.errstate(invalid="ignore"):  # inf/inf norms, intentionally
            for a, b in zip(got.unit_outputs(x), expected.unit_outputs(x)):
                np.testing.assert_array_equal(a, b)

    def test_training_mode_falls_back_and_fills_caches(self):
        _, units = _mlp_units()
        for unit in units:
            unit.train()
            unit.set_activation_caching(True)
        x = np.random.default_rng(5).normal(size=(4, 64)).astype(np.float32)
        PlanExecutor.for_units(units, backend="fast").unit_outputs(x)
        cached = [
            module
            for unit in units
            for module in unit.modules()
            if module._cache
        ]
        assert cached, "plan execution starved the training caches"

    def test_seed_fingerprint_reference(self):
        """Seeded INT8 predictions on ``reference`` are pinned labels.

        Guards the whole lowering pipeline: if any plan rewrite perturbed
        reference arithmetic, the argmax labels of this fixed seeded model
        would shift.
        """
        _, units = _mlp_units(2, 24, seed=11)
        for index, unit in enumerate(units):
            prepare_int8(unit, QuantConfig(rounding="nearest"), seed=11 + index)
        overlay = LabelOverlay(num_classes=10, amplitude=1.5)
        classifier = FFGoodnessClassifier(
            units, overlay, flatten_input=True, backend="reference"
        )
        inputs = np.random.default_rng(11).normal(size=(16, 64)).astype(
            np.float32
        )
        labels = classifier.predict(inputs).tolist()
        assert labels == [0, 0, 5, 9, 0, 5, 9, 9, 0, 1, 3, 7, 9, 9, 3, 9]


class TestFastDepthwise:
    """``fast``'s float32 depthwise kernels against the integer einsums."""

    @staticmethod
    def _assert_parity(cols, weight, grad):
        reference, fast = ReferenceBackend(), FastBackend()
        for want, got in (
            (reference.int8_depthwise(cols, weight),
             fast.int8_depthwise(cols, weight)),
            (reference.int8_depthwise_grad(grad, cols),
             fast.int8_depthwise_grad(grad, cols)),
        ):
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @given(
        positions=st.integers(1, 400),
        channels=st.integers(1, 24),
        kernel=st.integers(1, 25),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=25, deadline=None)
    def test_depthwise_parity(self, positions, channels, kernel, seed):
        rng = np.random.default_rng(seed)
        self._assert_parity(
            _int8(rng, (positions, channels, kernel)),
            _int8(rng, (channels, kernel)),
            _int8(rng, (positions, channels)),
        )

    def test_depthwise_grad_beyond_exact_window(self):
        # More positions than one exact-float32 tile can hold: the partial
        # sums must chain through the int64 cross-tile reduction.
        positions = 2 * EXACT_GRAD_ROWS + 554
        cols = np.full((positions, 3, 9), -128, dtype=np.int8)
        cols[::7] = 127
        grad = np.full((positions, 3), -128, dtype=np.int8)
        grad[::3] = 127
        weight = np.full((3, 9), -128, dtype=np.int8)
        self._assert_parity(cols, weight, grad)
        # All -128: every tile sits at the top of the exact window.
        cols[:] = -128
        grad[:] = -128
        self._assert_parity(cols, weight, grad)
        assert FastBackend().int8_depthwise_grad(grad, cols)[0, 0] == (
            positions * 128 * 128
        )

    def test_wide_operands_fall_back_to_integers(self):
        rng = np.random.default_rng(4)
        cols = rng.integers(-300, 300, size=(50, 4, 9)).astype(np.int16)
        weight = rng.integers(-300, 300, size=(4, 9)).astype(np.int16)
        grad = rng.integers(-300, 300, size=(50, 4)).astype(np.int16)
        self._assert_parity(cols, weight, grad)

    def test_zero_positions(self):
        cols = np.zeros((0, 4, 9), dtype=np.int8)
        weight = np.ones((4, 9), dtype=np.int8)
        grad = np.zeros((0, 4), dtype=np.int8)
        self._assert_parity(cols, weight, grad)
        assert FastBackend().int8_depthwise(cols, weight).shape == (0, 4)
        assert not FastBackend().int8_depthwise_grad(grad, cols).any()


def _int8(rng, shape):
    return rng.integers(-128, 128, size=shape).astype(np.int8)
