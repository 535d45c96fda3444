"""Tests for the quantization substrate (SUQ, rounding, INT8 kernels)."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro import FFInt8Config, FFInt8Trainer, build_model
from repro.data import synthetic_cifar10
from repro.nn import Conv2d, Linear, Sequential
from repro.nn.functional import im2col
from repro.quant import (
    Int8Engine,
    QuantConfig,
    compute_scale,
    dequantize,
    fake_quantize,
    prepare_int8,
    quantizable_layers,
    quantization_error,
    quantize,
    round_nearest,
    round_stochastic,
)
from repro.quant.suq import CHUNK
from repro.runtime import dispatch


def reference_gemm(lhs_q, rhs_q):
    """The reference backend's integer GEMM, with dispatch's operand checks."""
    return dispatch.int8_gemm(lhs_q, rhs_q, backend="reference")


class TestQuantConfig:
    def test_int8_levels(self):
        config = QuantConfig(bits=8)
        assert config.qmax == 127
        assert config.qmin == -127

    def test_other_bit_widths(self):
        assert QuantConfig(bits=4).qmax == 7
        assert QuantConfig(bits=16).qmax == 32767

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            QuantConfig(bits=1)

    def test_invalid_rounding(self):
        with pytest.raises(ValueError):
            QuantConfig(rounding="floor")

    def test_fields_are_bits_and_rounding(self):
        assert [field.name for field in dataclasses.fields(QuantConfig)] == [
            "bits", "rounding"]


class TestRounding:
    def test_nearest_half_away_from_zero(self):
        values = np.array([-1.5, -0.4, 0.5, 1.4])
        np.testing.assert_array_equal(round_nearest(values), [-2.0, -0.0, 1.0, 1.0])

    def test_stochastic_unbiased(self):
        rng = np.random.default_rng(0)
        values = np.full(20000, 0.3)
        rounded = round_stochastic(values, rng=rng)
        assert set(np.unique(rounded)).issubset({0.0, 1.0})
        assert abs(rounded.mean() - 0.3) < 0.02

    def test_stochastic_exact_integers_unchanged(self):
        values = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(round_stochastic(values, rng=0), values)

    def test_stochastic_needs_a_generator(self):
        with pytest.raises(ValueError, match="generator"):
            round_stochastic(np.array([0.5, 1.5]))


class TestSUQ:
    def test_scale_covers_max(self):
        values = np.array([-6.35, 1.0, 3.0])
        scale = compute_scale(values, qmax=127)
        assert scale == pytest.approx(6.35 / 127)

    def test_quantize_dequantize_error_bound(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(50, 50)).astype(np.float32)
        config = QuantConfig(rounding="nearest")
        q, scale = quantize(values, config)
        assert q.dtype == np.int8
        reconstructed = dequantize(q, scale)
        assert np.max(np.abs(values - reconstructed)) <= scale * 0.5 + 1e-7

    def test_stochastic_quantization_error_bound(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(40, 40)).astype(np.float32)
        config = QuantConfig(rounding="stochastic")
        q, scale = quantize(values, config, rng=np.random.default_rng(3))
        reconstructed = dequantize(q, scale)
        assert np.max(np.abs(values - reconstructed)) <= scale + 1e-7

    def test_per_channel_scales(self):
        values = np.stack([np.full(8, 0.1), np.full(8, 10.0)])
        config = QuantConfig(rounding="nearest")
        q, scale = quantize(values, config, axis=0)
        assert scale.shape == (2,)
        assert scale[1] / scale[0] == pytest.approx(100.0, rel=1e-3)
        reconstructed = dequantize(q, scale, axis=0)
        np.testing.assert_allclose(reconstructed, values, rtol=1e-2)

    def test_quantization_error_positive(self):
        values = np.random.default_rng(4).normal(size=1000).astype(np.float32)
        assert quantization_error(values, QuantConfig(rounding="nearest")) > 0.0

    def test_zero_tensor(self):
        q, scale = quantize(np.zeros(10, dtype=np.float32), QuantConfig(), rng=0)
        np.testing.assert_array_equal(q, np.zeros(10, dtype=np.int8))
        assert scale > 0


class TestStreamingQuantize:
    def test_seed_zero_is_honoured(self):
        values = np.random.default_rng(5).normal(size=(64, 64)).astype(np.float32)
        expected, _ = quantize(values, QuantConfig(), rng=np.random.default_rng(0))
        q, _ = quantize(values, QuantConfig(), rng=0)
        np.testing.assert_array_equal(q, expected)

    def test_stochastic_rounding_needs_a_generator(self):
        values = np.ones(4, dtype=np.float32)
        with pytest.raises(ValueError, match="generator"):
            quantize(values, QuantConfig())
        with pytest.raises(ValueError, match="generator"):
            fake_quantize(values, QuantConfig())
        with pytest.raises(ValueError, match="generator"):
            Int8Engine(QuantConfig())
        # Nearest rounding draws nothing and needs none.
        quantize(values, QuantConfig(rounding="nearest"))
        Int8Engine(QuantConfig(rounding="nearest"))

    @pytest.mark.parametrize("rounding", ["stochastic", "nearest"])
    def test_strided_input_matches_contiguous_copy(self, rounding):
        """Layout does not matter: an NHWC-strided (N, C, H, W) tensor, as
        Conv2d, BatchNorm and ReLU6 return it, and an F-ordered or reversed
        view give its contiguous copy's levels and leave the generator in
        the same state.  Each spans two chunks, split mid-row."""
        base = np.random.default_rng(7).normal(size=(9, 7, 11, 32))
        views = [base.astype(np.float32).transpose(0, 3, 1, 2)]
        odd = np.random.default_rng(8).normal(size=(11, 3, 1031))
        views += [np.asfortranarray(odd.astype(np.float32)),
                  odd.astype(np.float32)[:, ::-1, ::2]]
        config = QuantConfig(rounding=rounding)
        for values in views:
            assert not values.flags.c_contiguous and values.size > CHUNK
            rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
            q, scale = quantize(values, config, rng=rng_a)
            want, want_scale = quantize(np.ascontiguousarray(values), config,
                                        rng=rng_b)
            np.testing.assert_array_equal(q, want)
            assert scale == want_scale
            assert rng_a.integers(2 ** 62) == rng_b.integers(2 ** 62)
        q, scale = quantize(views[0], config, axis=1, rng=0)
        want, want_scale = quantize(np.ascontiguousarray(views[0]), config,
                                    axis=1, rng=0)
        np.testing.assert_array_equal(q, want)
        np.testing.assert_array_equal(scale, want_scale)

    @pytest.mark.parametrize("axis", [0, 2, 3, -1])
    @pytest.mark.parametrize("rounding", ["stochastic", "nearest"])
    def test_strided_per_axis_scales_match_contiguous_copy(self, rounding,
                                                           axis):
        """Per-channel scales along any axis of an NHWC-strided (N, C, H, W)
        tensor give its contiguous copy's levels, scales and end state."""
        base = np.random.default_rng(10).normal(size=(9, 7, 11, 32))
        values = base.astype(np.float32).transpose(0, 3, 1, 2)
        assert not values.flags.c_contiguous and values.size > CHUNK
        config = QuantConfig(rounding=rounding)
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        q, scale = quantize(values, config, axis=axis, rng=rng_a)
        want, want_scale = quantize(np.ascontiguousarray(values), config,
                                    axis=axis, rng=rng_b)
        np.testing.assert_array_equal(q, want)
        np.testing.assert_array_equal(scale, want_scale)
        assert scale.shape == (values.shape[axis],)
        assert rng_a.integers(2 ** 62) == rng_b.integers(2 ** 62)

    def test_levels_divide_in_float64(self):
        # 2.5 / (1 + 1e-10) lies just below 2.5 in float64, at 2.5 in float32.
        values = np.array([2.5, -2.5], dtype=np.float32)
        q, _ = quantize(values, QuantConfig(rounding="nearest"), scale=1.0 + 1e-10)
        np.testing.assert_array_equal(q, [2, -2])

    def test_peak_memory_is_output_plus_chunk(self):
        """Besides the int8 output, only chunk-sized temporaries: no
        full-size float64 copy for the scale, the levels or the noise."""
        values = np.random.default_rng(6).normal(size=(16384, 16, 9)).astype(np.float32)
        tracemalloc.start()
        try:
            q, _ = quantize(values, QuantConfig(), rng=np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= q.nbytes + 128 * CHUNK

    def test_ff_int8_fit_ends_on_recorded_loss(self):
        """Pins the quantizer's levels and RNG draws end to end: Int8Engine,
        the look-ahead sweep and the optimizer over two λ > 0 epochs.  The
        constant was recorded with NumPy 2 on x86-64; a change that moves it
        changes the arithmetic or the random draws of training."""
        train_set, _ = synthetic_cifar10(num_train=64, num_test=16, seed=3, image_size=16)
        bundle = build_model("mobilenet_v2-mini", input_shape=(3, 16, 16), seed=3)
        config = FFInt8Config(epochs=3, batch_size=32, evaluate_every=10 ** 6, seed=3)
        history = FFInt8Trainer(config).fit(bundle, train_set)
        assert history.records[-1].lambda_value > 0.0
        assert history.train_losses[-1] == 210.75821501503933


class TestStochasticRoundingStatistics:
    """Moments of SUQ's stochastic rounding over many draws of one tensor.

    With scale 1 the levels are the values themselves.  Exact stochastic
    rounding has zero mean error and per-element variance
    ``frac * (1 - frac)``; 16-bit thresholds stay within 2**-16 of that
    mean, while 8-bit thresholds would be ~2e-3 levels low on average."""

    DRAWS = 2000

    @pytest.fixture(scope="class")
    def moments(self):
        values = np.random.default_rng(11).uniform(-120.0, 120.0, 4096).astype(np.float32)
        config, rng = QuantConfig(), np.random.default_rng(12)
        total = np.zeros(values.size)
        squares = np.zeros(values.size)
        largest = 0.0
        for _ in range(self.DRAWS):
            q, _ = quantize(values, config, scale=1.0, rng=rng)
            error = q - values.astype(np.float64)
            total += error
            squares += error * error
            largest = max(largest, float(np.abs(error).max()))
        mean = total / self.DRAWS
        variance = squares / self.DRAWS - mean * mean
        return values.astype(np.float64), mean, variance, largest

    def test_mean_bias_below_1e_minus_3_levels(self, moments):
        _, mean, _, _ = moments
        assert abs(mean.mean()) <= 1e-3

    def test_variance_matches_exact_stochastic_rounding(self, moments):
        values, _, variance, _ = moments
        fraction = values - np.floor(values)
        exact = np.mean(fraction * (1.0 - fraction))
        assert abs(variance.mean() / exact - 1.0) <= 0.02

    def test_every_draw_within_one_level(self, moments):
        _, _, _, largest = moments
        assert largest < 1.0

    def test_exact_levels_unchanged(self):
        levels = np.arange(-127, 128, dtype=np.float32)
        # A power-of-two scale makes every level exact in float32.
        q, _ = quantize(levels / 4, QuantConfig(), scale=0.25, rng=np.random.default_rng(13))
        np.testing.assert_array_equal(q, levels)


class TestInt8Matmul:
    def test_matches_float_matmul(self):
        rng = np.random.default_rng(6)
        a = rng.integers(-127, 128, size=(5, 8)).astype(np.int8)
        b = rng.integers(-127, 128, size=(8, 3)).astype(np.int8)
        result = reference_gemm(a, b)
        assert result.dtype == np.int32
        np.testing.assert_array_equal(result, a.astype(np.int64) @ b.astype(np.int64))

    def test_requires_int8(self):
        with pytest.raises(TypeError):
            reference_gemm(np.ones((2, 2), dtype=np.float32), np.ones((2, 2), dtype=np.int8))

    def test_shape_check(self):
        with pytest.raises(ValueError):
            reference_gemm(np.ones((2, 3), dtype=np.int8), np.ones((2, 3), dtype=np.int8))


class TestInt8Engine:
    def test_linear_forward_close_to_fp32(self):
        rng = np.random.default_rng(7)
        engine = Int8Engine(QuantConfig(rounding="nearest"))
        x = rng.normal(size=(16, 32)).astype(np.float32)
        w = rng.normal(size=(8, 32)).astype(np.float32)
        approx = engine.linear_forward(x, w)
        exact = x @ w.T
        error = np.abs(approx - exact).mean() / (np.abs(exact).mean() + 1e-9)
        assert error < 0.05

    def test_weight_grad_close_to_fp32(self):
        rng = np.random.default_rng(8)
        engine = Int8Engine(QuantConfig(rounding="nearest"))
        grad = rng.normal(size=(16, 8)).astype(np.float32)
        x = rng.normal(size=(16, 32)).astype(np.float32)
        approx = engine.linear_weight_grad(grad, x)
        exact = grad.T @ x
        error = np.abs(approx - exact).mean() / (np.abs(exact).mean() + 1e-9)
        assert error < 0.05

    def test_op_counts_accumulate(self, monkeypatch):
        """A linear forward is one INT8 GEMM over both quantized operands."""
        from repro.quant import int8_ops

        macs, quantized = [], []
        gemm, quantize_fn = dispatch.int8_gemm, int8_ops.quantize

        def gemm_spy(lhs_q, rhs_q, *args, **kwargs):
            assert lhs_q.dtype == rhs_q.dtype == np.int8
            macs.append(lhs_q.shape[0] * lhs_q.shape[1] * rhs_q.shape[1])
            return gemm(lhs_q, rhs_q, *args, **kwargs)

        def quantize_spy(values, *args, **kwargs):
            quantized.append(values.size)
            return quantize_fn(values, *args, **kwargs)

        monkeypatch.setattr(dispatch, "int8_gemm", gemm_spy)
        monkeypatch.setattr(int8_ops, "quantize", quantize_spy)
        engine = Int8Engine(QuantConfig(), rng=0)
        x = np.ones((4, 6), dtype=np.float32)
        w = np.ones((3, 6), dtype=np.float32)
        engine.linear_forward(x, w)
        assert macs == [4 * 6 * 3]
        assert quantized == [4 * 6, 3 * 6]

    def test_depthwise_forward(self):
        rng = np.random.default_rng(10)
        engine = Int8Engine(QuantConfig(rounding="nearest"))
        x = rng.normal(size=(2, 4, 5, 6)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3)).astype(np.float32)
        approx = engine.depthwise_forward(x, w, (1, 1), (1, 1))
        cols = im2col(x, (3, 3), (1, 1), (1, 1)).reshape(-1, 4, 9)
        exact = np.einsum("pck,ck->pc", cols, w.reshape(4, 9))
        approx = approx.reshape(-1, 4)
        error = np.abs(approx - exact).mean() / (np.abs(exact).mean() + 1e-9)
        assert error < 0.06


    @pytest.mark.parametrize("step", ["forward", "weight_grad"])
    def test_depthwise_rounds_each_input_element_once(self, step):
        """Stochastic rounding of the depthwise input draws once per element
        of x in NHWC order, not once per im2col replica: the engine equals
        quantizing x itself and leaves the generator where that does."""
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 4, 6, 5)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3)).astype(np.float32)
        grad = rng.normal(size=(2, 6, 5, 4)).astype(np.float32)
        config = QuantConfig()
        engine = Int8Engine(config, rng=np.random.default_rng(13))
        manual = np.random.default_rng(13)
        x_nhwc = x.transpose(0, 2, 3, 1)
        if step == "forward":
            got = engine.depthwise_forward(x, w, (1, 1), (1, 1))
            x_q, x_scale = quantize(x_nhwc, config, rng=manual)
            w_q, w_scale = quantize(w, config, rng=manual)
            acc = dispatch.int8_depthwise_taps(x_q, w_q, (1, 1), (1, 1))
            scales = float(x_scale) * float(w_scale)
        else:
            got = engine.depthwise_weight_grad(grad, x, (3, 3), (1, 1),
                                               (1, 1))
            g_q, g_scale = quantize(grad, config, rng=manual)
            x_q, x_scale = quantize(x_nhwc, config, rng=manual)
            acc = dispatch.int8_depthwise_taps_grad(g_q, x_q, (3, 3), (1, 1),
                                                    (1, 1))
            scales = float(g_scale) * float(x_scale)
        want = (acc.astype(np.float64) * scales).astype(np.float32)
        assert got.tobytes() == want.tobytes()
        assert engine._rng.integers(2 ** 62) == manual.integers(2 ** 62)


class TestPrepare:
    def _model(self):
        return Sequential(Conv2d(1, 2, 3, padding=1, rng=0), Linear(2 * 4 * 4, 5, rng=1))

    def test_prepare_attaches_one_engine_per_layer(self):
        model = self._model()
        layers = quantizable_layers(model)
        assert len(layers) == 2
        assert all(layer.quant_engine is None for layer in layers)
        prepare_int8(model, QuantConfig(), seed=0)
        engines = [layer.quant_engine for layer in layers]
        assert all(isinstance(engine, Int8Engine) for engine in engines)
        assert engines[0]._rng is not engines[1]._rng

    def test_prepared_forward_close_to_fp32(self):
        rng = np.random.default_rng(11)
        model = Sequential(Linear(16, 8, rng=0))
        x = rng.normal(size=(4, 16)).astype(np.float32)
        exact = model(x)
        prepare_int8(model, QuantConfig(rounding="nearest"), seed=0)
        approx = model(x)
        error = np.abs(approx - exact).mean() / (np.abs(exact).mean() + 1e-9)
        assert error < 0.05
