"""Tests for the quantization substrate (SUQ, rounding, INT8 kernels)."""

import tracemalloc

import numpy as np
import pytest

from repro import FFInt8Config, FFInt8Trainer, build_model
from repro.data import synthetic_cifar10
from repro.nn import Conv2d, Linear, Sequential
from repro.quant import (
    Int8Engine,
    MinMaxObserver,
    MovingAverageObserver,
    PercentileObserver,
    QuantConfig,
    QuantizedTensor,
    compute_scale,
    dequantize,
    fake_quantize,
    int8_config,
    is_int8_prepared,
    prepare_int8,
    quantizable_layers,
    quantization_error,
    quantize,
    round_nearest,
    round_stochastic,
    strip_int8,
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

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            QuantConfig(percentile=0.0)

    def test_int8_config_helper(self):
        config = int8_config(rounding="nearest")
        assert config.bits == 8 and config.rounding == "nearest"


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
        config = QuantConfig(rounding="stochastic", seed=3)
        q, scale = quantize(values, config)
        reconstructed = dequantize(q, scale)
        assert np.max(np.abs(values - reconstructed)) <= scale + 1e-7

    def test_per_channel_scales(self):
        values = np.stack([np.full(8, 0.1), np.full(8, 10.0)])
        config = QuantConfig(per_channel=True, rounding="nearest")
        q, scale = quantize(values, config, axis=0)
        assert scale.shape == (2,)
        assert scale[1] / scale[0] == pytest.approx(100.0, rel=1e-3)
        reconstructed = dequantize(q, scale, axis=0)
        np.testing.assert_allclose(reconstructed, values, rtol=1e-2)

    def test_percentile_clipping_reduces_bulk_error(self):
        """With one huge outlier, percentile scaling preserves the bulk better."""
        rng = np.random.default_rng(3)
        values = rng.normal(scale=0.01, size=10000).astype(np.float32)
        values[0] = 5.0
        naive = QuantConfig(rounding="nearest")
        clipped = QuantConfig(rounding="nearest", percentile=99.0)
        bulk = values[1:]
        naive_err = np.abs(fake_quantize(values, naive)[1:] - bulk).mean()
        clipped_err = np.abs(fake_quantize(values, clipped)[1:] - bulk).mean()
        assert clipped_err < naive_err * 0.2

    def test_quantization_error_positive(self):
        values = np.random.default_rng(4).normal(size=1000).astype(np.float32)
        assert quantization_error(values, QuantConfig(rounding="nearest")) > 0.0

    def test_zero_tensor(self):
        q, scale = quantize(np.zeros(10, dtype=np.float32), QuantConfig())
        np.testing.assert_array_equal(q, np.zeros(10, dtype=np.int8))
        assert scale > 0


class TestStreamingQuantize:
    def test_seed_zero_is_honoured(self):
        values = np.random.default_rng(5).normal(size=(64, 64)).astype(np.float32)
        expected, _ = quantize(values, QuantConfig(seed=3), rng=np.random.default_rng(0))
        for seed in (1, 2):
            q, _ = quantize(values, QuantConfig(seed=seed), rng=0)
            np.testing.assert_array_equal(q, expected)

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
        assert history.train_losses[-1] == 210.72480939109786


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


class TestQuantizedTensor:
    def test_round_trip(self):
        values = np.random.default_rng(5).normal(size=(4, 6)).astype(np.float32)
        qt = QuantizedTensor.from_float(values, QuantConfig(rounding="nearest"))
        assert qt.shape == (4, 6)
        np.testing.assert_allclose(qt.to_float(), values, atol=float(qt.scale))

    def test_nbytes(self):
        qt = QuantizedTensor.from_float(np.ones((10, 10), dtype=np.float32), QuantConfig())
        assert qt.nbytes() == 100


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
        engine = Int8Engine(QuantConfig())
        x = np.ones((4, 6), dtype=np.float32)
        w = np.ones((3, 6), dtype=np.float32)
        engine.linear_forward(x, w)
        assert macs == [4 * 6 * 3]
        assert quantized == [4 * 6, 3 * 6]

    def test_per_channel_weights(self):
        rng = np.random.default_rng(9)
        engine = Int8Engine(QuantConfig(rounding="nearest", per_channel=True))
        x = rng.normal(size=(10, 16)).astype(np.float32)
        w = rng.normal(size=(4, 16)).astype(np.float32)
        w[0] *= 100.0  # very different channel ranges
        approx = engine.linear_forward(x, w)
        exact = x @ w.T
        error = np.abs(approx - exact).mean() / (np.abs(exact).mean() + 1e-9)
        assert error < 0.05

    def test_depthwise_forward(self):
        rng = np.random.default_rng(10)
        engine = Int8Engine(QuantConfig(rounding="nearest"))
        cols = rng.normal(size=(20, 4, 9)).astype(np.float32)
        w = rng.normal(size=(4, 9)).astype(np.float32)
        approx = engine.depthwise_forward(cols, w)
        exact = np.einsum("pck,ck->pc", cols, w)
        error = np.abs(approx - exact).mean() / (np.abs(exact).mean() + 1e-9)
        assert error < 0.06


class TestObservers:
    def test_minmax_tracks_running_max(self):
        observer = MinMaxObserver()
        observer.observe(np.array([1.0, -3.0]))
        observer.observe(np.array([2.0]))
        assert observer.abs_max == 3.0
        assert observer.scale(127) == pytest.approx(3.0 / 127)

    def test_moving_average_smooths(self):
        observer = MovingAverageObserver(momentum=0.5)
        observer.observe(np.array([4.0]))
        observer.observe(np.array([0.0, 2.0]))
        assert observer.abs_max == pytest.approx(3.0)

    def test_percentile_ignores_outlier(self):
        observer = PercentileObserver(percentile=90.0)
        values = np.ones(1000)
        values[0] = 1000.0
        observer.observe(values)
        assert observer.scale(127) < 10.0 / 127

    def test_reset(self):
        for observer in (MinMaxObserver(), MovingAverageObserver(), PercentileObserver()):
            observer.observe(np.array([5.0]))
            observer.reset()
            assert observer.count == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MovingAverageObserver(momentum=1.0)
        with pytest.raises(ValueError):
            PercentileObserver(percentile=0.0)


class TestPrepare:
    def _model(self):
        return Sequential(Conv2d(1, 2, 3, padding=1, rng=0), Linear(2 * 4 * 4, 5, rng=1))

    def test_prepare_and_strip(self):
        model = self._model()
        assert not is_int8_prepared(model)
        prepare_int8(model, QuantConfig(), seed=0)
        assert is_int8_prepared(model)
        assert len(quantizable_layers(model)) == 2
        strip_int8(model)
        assert not is_int8_prepared(model)

    def test_prepared_forward_close_to_fp32(self):
        rng = np.random.default_rng(11)
        model = Sequential(Linear(16, 8, rng=0))
        x = rng.normal(size=(4, 16)).astype(np.float32)
        exact = model(x)
        prepare_int8(model, QuantConfig(rounding="nearest"), seed=0)
        approx = model(x)
        error = np.abs(approx - exact).mean() / (np.abs(exact).mean() + 1e-9)
        assert error < 0.05
