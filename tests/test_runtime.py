"""Tests for ``repro.runtime``: plans, backends, dispatch and instrumentation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FFGoodnessClassifier
from repro.data.overlay import LabelOverlay
from repro.models import build_mlp, build_model
from repro.nn.functional import im2col
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
from repro.runtime.backends import fast as fast_backend
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

    def test_exact_f32_guard(self, no_integer_matmul):
        assert exact_f32_possible(1000)
        assert not exact_f32_possible(2000)
        # Beyond the exact window the fast backend tiles the reduction into
        # exact float32 sgemms; it never falls back to integers.
        rng = np.random.default_rng(0)
        lhs = rng.integers(-127, 128, size=(2, 2048)).astype(np.int8)
        rhs = rng.integers(-127, 128, size=(2048, 3)).astype(np.int8)
        np.testing.assert_array_equal(
            FastBackend().int8_gemm(lhs, rhs),
            lhs.astype(np.int64) @ rhs.astype(np.int64),
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


@pytest.fixture
def no_integer_matmul(monkeypatch):
    """Fail any call ``fast`` makes to the integer fallback GEMM."""
    def forbidden(lhs_q, rhs_q):
        raise AssertionError(
            f"fast fell back to integer_matmul on {lhs_q.dtype} operands")

    monkeypatch.setattr(fast_backend, "integer_matmul", forbidden)


class TestTiledGemm:
    """``fast``'s INT8 GEMM past one exact tile: 1023-row float32 sgemms
    summed in int64, bit-identical to the reference integer matmul."""

    @staticmethod
    def _assert_exact(lhs, rhs):
        want = ReferenceBackend().int8_gemm(lhs, rhs)
        got = FastBackend().int8_gemm(lhs, rhs)
        assert got.shape == want.shape
        np.testing.assert_array_equal(
            np.asarray(got, dtype=np.int64), np.asarray(want, dtype=np.int64))
        return got

    @pytest.mark.parametrize("inner", [1023, 1024, 1040, 2046, 2047, 16384])
    def test_matches_reference(self, inner, no_integer_matmul):
        rng = np.random.default_rng(inner)
        self._assert_exact(_int8(rng, (5, inner)), _int8(rng, (inner, 7)))

    @pytest.mark.parametrize("inner", [1023, 1024, 1040, 2046, 2047, 16384])
    def test_all_minus_128_is_the_worst_case(self, inner, no_integer_matmul):
        # Every product is +128^2, so each partial sum is 128^2 * K: past
        # 2^24 for any K >= 1024, where one float32 sgemm would round.
        lhs = np.full((2, inner), -128, dtype=np.int8)
        rhs = np.full((inner, 3), -128, dtype=np.int8)
        got = self._assert_exact(lhs, rhs)
        assert (got == inner * 128 * 128).all()

    def test_odd_sums_past_two_to_the_24(self, no_integer_matmul):
        # K = 2 x 2047: K - 1 products of 127^2 plus one of 1 sum to an odd
        # integer far past 2^24, which float32 cannot even represent.
        inner = 2 * 2047
        lhs = np.full((2, inner), 127, dtype=np.int8)
        rhs = np.full((inner, 1), 127, dtype=np.int8)
        lhs[:, -1] = rhs[-1] = 1
        got = self._assert_exact(lhs, rhs)
        assert (got == (inner - 1) * 127 * 127 + 1).all()

    def test_batched_lhs(self, no_integer_matmul):
        rng = np.random.default_rng(1)
        inner = 2 * 2047
        lhs = _int8(rng, (3, 4, inner))
        rhs = _int8(rng, (inner, 5))
        assert self._assert_exact(lhs, rhs).shape == (3, 4, 5)

    def test_non_contiguous_operands(self, no_integer_matmul):
        rng = np.random.default_rng(2)
        inner = 2 * 2047
        lhs = _int8(rng, (inner, 6)).T
        rhs = _int8(rng, (2 * inner, 4))[::2]
        assert not lhs.flags.c_contiguous and not rhs.flags.c_contiguous
        self._assert_exact(lhs, rhs)

    def test_wide_k_rowwise_serving_gemm(self, no_integer_matmul):
        # Past the serving kernel's exact window the float32 levels run
        # through the same tiles; scales and accumulator match reference.
        inner = 2048
        assert not exact_f32_possible(inner, 127)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, inner)).astype(np.float32)
        rhs = _int8(rng, (inner, 5))
        acc_ref, scales_ref = ReferenceBackend().rowwise_quantized_gemm(
            x, rhs, 127)
        acc_fast, scales_fast = FastBackend().rowwise_quantized_gemm(
            x, rhs, 127)
        np.testing.assert_array_equal(scales_fast, scales_ref)
        np.testing.assert_array_equal(
            np.asarray(acc_fast, dtype=np.int64),
            np.asarray(acc_ref, dtype=np.int64))


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


class TestDepthwiseTaps:
    """The shifted-tap depthwise kernels: ``fast`` against ``reference``
    bit for bit, and both against the column-form kernels over im2col."""

    @staticmethod
    def _assert_parity(x_q, weight_q, grad_q, stride, padding):
        kernel = weight_q.shape[1:]
        reference, fast = ReferenceBackend(), FastBackend()
        want = reference.int8_depthwise_taps(x_q, weight_q, stride, padding)
        got = fast.int8_depthwise_taps(x_q, weight_q, stride, padding)
        assert got.shape == want.shape == grad_q.shape
        np.testing.assert_array_equal(got, want)
        want_grad = reference.int8_depthwise_taps_grad(
            grad_q, x_q, kernel, stride, padding)
        got_grad = fast.int8_depthwise_taps_grad(
            grad_q, x_q, kernel, stride, padding)
        assert got_grad.dtype == want_grad.dtype == np.int64
        np.testing.assert_array_equal(got_grad, want_grad)
        return want, want_grad

    @given(
        batch=st.integers(1, 3),
        channels=st.integers(1, 6),
        size=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        kernel=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        padding=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=40, deadline=None)
    def test_taps_match_column_kernels(self, batch, channels, size, kernel,
                                       stride, padding, seed):
        out_size = [(size[i] + 2 * padding[i] - kernel[i]) // stride[i] + 1
                    for i in range(2)]
        if min(out_size) <= 0:
            return
        rng = np.random.default_rng(seed)
        x_q = _int8(rng, (batch, *size, channels))
        weight_q = _int8(rng, (channels, *kernel))
        grad_q = _int8(rng, (batch, *out_size, channels))
        out, grad_w = self._assert_parity(x_q, weight_q, grad_q, stride,
                                          padding)
        cols = im2col(x_q.transpose(0, 3, 1, 2), kernel, stride, padding)
        cols = cols.reshape(-1, channels, kernel[0] * kernel[1])
        reference = ReferenceBackend()
        np.testing.assert_array_equal(
            out.reshape(-1, channels),
            reference.int8_depthwise(cols, weight_q.reshape(channels, -1)))
        np.testing.assert_array_equal(
            grad_w.reshape(channels, -1),
            reference.int8_depthwise_grad(grad_q.reshape(-1, channels), cols))

    def test_tap_grad_beyond_exact_window(self):
        # 3 x 24 x 32 = 2304 positions per tap: more than two exact-float32
        # tiles, so the partial sums chain through the int64 reduction.
        # Products of one sign and random parity: a float32 sum past 2^24,
        # in any order, would round.
        assert 3 * 24 * 32 > 2 * EXACT_GRAD_ROWS
        rng = np.random.default_rng(6)
        x_q = rng.integers(100, 128, size=(3, 26, 34, 2)).astype(np.int8)
        grad_q = rng.integers(100, 128, size=(3, 24, 32, 2)).astype(np.int8)
        weight_q = np.full((2, 3, 3), -128, dtype=np.int8)
        _, grad_w = self._assert_parity(x_q, weight_q, grad_q, (1, 1), (0, 0))
        assert (grad_w > 2 ** 24).all()
        # All -128: every tile sits at the top of the exact window.
        x_q[:] = -128
        grad_q[:] = -128
        _, grad_w = self._assert_parity(x_q, weight_q, grad_q, (1, 1), (0, 0))
        assert (grad_w == 3 * 24 * 32 * 128 * 128).all()

    @pytest.mark.parametrize("kernel, stride, padding", [
        ((1, 1), (1, 1), (0, 0)),
        ((3, 3), (1, 1), (1, 1)),
        ((5, 5), (2, 2), (2, 2)),
        ((7, 7), (1, 1), (3, 3)),
    ], ids=["1x1", "3x3", "5x5-stride2", "7x7"])
    def test_extreme_operands_stay_exact(self, kernel, stride, padding):
        # All -128: the largest products, one sign, at the top of the
        # forward's exact window; interior outputs see every tap.
        x_q = np.full((2, 9, 9, 3), -128, dtype=np.int8)
        weight_q = np.full((3, *kernel), -128, dtype=np.int8)
        out_h = (9 + 2 * padding[0] - kernel[0]) // stride[0] + 1
        out_w = (9 + 2 * padding[1] - kernel[1]) // stride[1] + 1
        grad_q = np.full((2, out_h, out_w, 3), -128, dtype=np.int8)
        out, grad_w = self._assert_parity(x_q, weight_q, grad_q, stride,
                                          padding)
        row = padding[0] // stride[0]
        col = padding[1] // stride[1]
        assert (out[:, row, col] == kernel[0] * kernel[1] * 128 * 128).all()
        assert out.max() == kernel[0] * kernel[1] * 128 * 128
        assert (grad_w > 0).all()

    def test_kernel_area_past_exact_window_falls_back(self):
        # 33 x 33 taps of 127 * 127 sum to 17,564,481: odd and past 2^24,
        # so a float32 accumulation would round it.
        assert not exact_f32_possible(33 * 33, qmax=128, rhs_max=128)
        x_q = np.full((1, 33, 33, 2), 127, dtype=np.int8)
        weight_q = np.full((2, 33, 33), 127, dtype=np.int8)
        grad_q = np.ones((1, 1, 1, 2), dtype=np.int8)
        out, _ = self._assert_parity(x_q, weight_q, grad_q, (1, 1), (0, 0))
        assert (out == 33 * 33 * 127 * 127).all()
        assert 33 * 33 * 127 * 127 > 2 ** 24

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_strided_operands_match_contiguous_copies(self, backend):
        # NHWC views of NCHW arrays, as a transposed layer input is.
        rng = np.random.default_rng(8)
        x_q = _int8(rng, (2, 4, 7, 6)).transpose(0, 2, 3, 1)
        grad_q = _int8(rng, (2, 4, 4, 3)).transpose(0, 2, 3, 1)
        weight_q = _int8(rng, (4, 3, 3))
        assert not x_q.flags.c_contiguous and not grad_q.flags.c_contiguous
        args = ((2, 2), (1, 1))
        np.testing.assert_array_equal(
            dispatch.int8_depthwise_taps(x_q, weight_q, *args,
                                         backend=backend),
            dispatch.int8_depthwise_taps(np.ascontiguousarray(x_q), weight_q,
                                         *args, backend="reference"))
        np.testing.assert_array_equal(
            dispatch.int8_depthwise_taps_grad(grad_q, x_q, (3, 3), *args,
                                              backend=backend),
            dispatch.int8_depthwise_taps_grad(
                np.ascontiguousarray(grad_q), np.ascontiguousarray(x_q),
                (3, 3), *args, backend="reference"))

    def test_wide_operands_fall_back_to_integers(self):
        rng = np.random.default_rng(5)
        x_q = rng.integers(-300, 300, size=(2, 5, 5, 3)).astype(np.int16)
        weight_q = rng.integers(-300, 300, size=(3, 3, 3)).astype(np.int16)
        grad_q = rng.integers(-300, 300, size=(2, 5, 5, 3)).astype(np.int16)
        self._assert_parity(x_q, weight_q, grad_q, (1, 1), (1, 1))

    def test_empty_batch(self):
        x_q = np.zeros((0, 4, 4, 2), dtype=np.int8)
        weight_q = np.ones((2, 3, 3), dtype=np.int8)
        grad_q = np.zeros((0, 4, 4, 2), dtype=np.int8)
        _, grad_w = self._assert_parity(x_q, weight_q, grad_q, (1, 1), (1, 1))
        assert not grad_w.any()


def _int8(rng, shape):
    return rng.integers(-128, 128, size=shape).astype(np.int8)
