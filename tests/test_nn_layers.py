"""Tests for normalization, activation, pooling and dropout layers."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Dropout,
    FFLayerNorm,
    Flatten,
    GlobalAvgPool2d,
    LeakyReLU,
    MaxPool2d,
    ReLU,
    ReLU6,
    Sigmoid,
    SiLU,
    Tanh,
)
from tests.gradcheck import check_input_gradient, check_parameter_gradients


class TestBatchNorm:
    def test_normalizes_batch_statistics(self):
        rng = np.random.default_rng(0)
        bn = BatchNorm1d(6)
        x = rng.normal(loc=3.0, scale=2.0, size=(64, 6)).astype(np.float32)
        out = bn(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_used_in_eval(self):
        rng = np.random.default_rng(1)
        bn = BatchNorm1d(4, momentum=0.5)
        x = rng.normal(loc=2.0, size=(32, 4)).astype(np.float32)
        for _ in range(20):
            bn(x)
        bn.eval()
        out = bn(x)
        # After enough updates the running stats approach the batch stats, so
        # eval output should be close to the train-mode normalized output.
        assert abs(float(out.mean())) < 0.2

    def test_2d_shapes(self):
        bn = BatchNorm2d(3)
        out = bn(np.random.default_rng(2).normal(size=(4, 3, 5, 5)).astype(np.float32))
        assert out.shape == (4, 3, 5, 5)

    def test_rejects_wrong_features(self):
        bn = BatchNorm1d(4)
        with pytest.raises(ValueError, match="expected 4"):
            bn(np.zeros((8, 5), dtype=np.float32))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match=r"\(N, F\)"):
            BatchNorm1d(4)(np.zeros((2, 4, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError, match=r"\(N, C, H, W\)"):
            BatchNorm2d(4)(np.zeros((2, 4), dtype=np.float32))

    def test_input_gradient_1d(self):
        bn = BatchNorm1d(3)
        x = np.random.default_rng(3).normal(size=(8, 3))
        check_input_gradient(bn, x, rtol=2e-2, atol=2e-3)

    def test_input_gradient_2d(self):
        bn = BatchNorm2d(2)
        x = np.random.default_rng(4).normal(size=(3, 2, 4, 4))
        check_input_gradient(bn, x, rtol=2e-2, atol=2e-3)

    def test_parameter_gradients(self):
        bn = BatchNorm1d(3)
        x = np.random.default_rng(5).normal(size=(10, 3))
        check_parameter_gradients(bn, x, rtol=2e-2, atol=2e-3)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(6, 4), (3, 4, 5, 5)])
    def test_forward_matches_out_of_place_formula(self, shape, dtype, training):
        rng = np.random.default_rng(12)
        bn = (BatchNorm1d if len(shape) == 2 else BatchNorm2d)(4)
        bn.running_mean = rng.normal(size=4).astype(np.float32)
        bn.running_var = rng.random(4).astype(np.float32) + 0.25
        bn.gamma.data[...] = rng.normal(size=4).astype(np.float32)
        bn.beta.data[...] = rng.normal(size=4).astype(np.float32)
        bn.train(training)
        x = rng.normal(size=shape).astype(dtype)
        original = x.copy()
        axes = (0,) if len(shape) == 2 else (0, 2, 3)
        stat_shape = (1, 4) + (1,) * (len(shape) - 2)
        if training:
            mean, var = x.mean(axis=axes), x.var(axis=axes)
        else:
            mean, var = bn.running_mean, bn.running_var
        inv_std = 1.0 / np.sqrt(var + bn.eps)
        x_hat = (x - mean.reshape(stat_shape)) * inv_std.reshape(stat_shape)
        expected = (
            bn.gamma.data.reshape(stat_shape) * x_hat
            + bn.beta.data.reshape(stat_shape)
        ).astype(np.float32)
        out = bn(x)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(x, original)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(6, 4), (3, 4, 5, 5)])
    def test_input_grad_matches_out_of_place_formula(self, shape, dtype):
        rng = np.random.default_rng(13)
        bn = (BatchNorm1d if len(shape) == 2 else BatchNorm2d)(4)
        bn.gamma.data[...] = rng.normal(size=4).astype(np.float32)
        bn(rng.normal(size=shape).astype(dtype))
        grad = rng.normal(size=shape).astype(dtype)
        original = grad.copy()
        x_hat = bn._load("x_hat").copy()
        inv_std = bn._load("inv_std")
        axes = (0,) if len(shape) == 2 else (0, 2, 3)
        stat_shape = (1, 4) + (1,) * (len(shape) - 2)
        grad_xhat = grad * bn.gamma.data.reshape(stat_shape)
        expected = (inv_std.reshape(stat_shape) * (
            grad_xhat
            - grad_xhat.mean(axis=axes).reshape(stat_shape)
            - x_hat * (grad_xhat * x_hat).mean(axis=axes).reshape(stat_shape)
        )).astype(np.float32)
        first = bn.input_grad(grad)
        assert first.dtype == np.float32
        np.testing.assert_array_equal(first, expected)
        assert not np.shares_memory(first, grad)
        assert not np.shares_memory(first, bn._load("x_hat"))
        # The in-place arithmetic leaves the gradient and the cached x_hat
        # alone: a second call returns the same values.
        np.testing.assert_array_equal(grad, original)
        np.testing.assert_array_equal(bn._load("x_hat"), x_hat)
        np.testing.assert_array_equal(bn.input_grad(grad), first)


class TestFFLayerNorm:
    def test_unit_norm_output(self):
        norm = FFLayerNorm()
        x = np.random.default_rng(6).normal(size=(5, 12)).astype(np.float32)
        out = norm(x)
        np.testing.assert_allclose(
            np.linalg.norm(out.reshape(5, -1), axis=1), 1.0, atol=1e-4
        )

    def test_4d_input_normalized_per_sample(self):
        norm = FFLayerNorm()
        x = np.random.default_rng(7).normal(size=(3, 2, 4, 4)).astype(np.float32)
        out = norm(x)
        assert out.shape == x.shape
        np.testing.assert_allclose(
            np.linalg.norm(out.reshape(3, -1), axis=1), 1.0, atol=1e-4
        )

    def test_input_gradient(self):
        norm = FFLayerNorm()
        x = np.random.default_rng(8).normal(size=(4, 6)) + 0.5
        check_input_gradient(norm, x, rtol=2e-2, atol=2e-3)

    def test_gradient_orthogonal_to_output(self):
        """The Jacobian of x/||x|| maps the output direction to (nearly) zero."""
        norm = FFLayerNorm()
        x = np.random.default_rng(9).normal(size=(1, 8)).astype(np.float32)
        out = norm(x)
        grad_in = norm.backward(out)  # upstream gradient along the output
        assert float(np.abs(grad_in).max()) < 1e-3


class TestActivations:
    @pytest.mark.parametrize(
        "layer_cls", [ReLU, ReLU6, LeakyReLU, Sigmoid, SiLU, Tanh]
    )
    def test_input_gradient(self, layer_cls):
        layer = layer_cls()
        x = np.random.default_rng(10).normal(size=(4, 7)) * 2.0
        check_input_gradient(layer, x, rtol=2e-2, atol=2e-3)

    @pytest.mark.parametrize("layer_cls, old_backward", [
        (ReLU, lambda x, g, out: (g * (x > 0)).astype(np.float32)),
        (ReLU6, lambda x, g, out: (g * ((x > 0) & (x < 6.0))).astype(
            np.float32)),
        (LeakyReLU, lambda x, g, out: (
            g * np.where(x > 0, 1.0, 0.01)).astype(np.float32)),
        (Sigmoid, lambda x, g, out: (g * out * (1.0 - out)).astype(
            np.float32)),
    ], ids=["relu", "relu6", "leaky_relu", "sigmoid"])
    def test_backward_matches_copying_formula(self, layer_cls, old_backward):
        rng = np.random.default_rng(14)
        x = (rng.normal(size=(4, 3, 5, 5)) * 4.0).astype(np.float32)
        grad = rng.normal(size=x.shape).astype(np.float32)
        original = grad.copy()
        layer = layer_cls()
        out = layer(x)
        first = layer.backward(grad)
        assert first.dtype == np.float32
        np.testing.assert_array_equal(first, old_backward(x, grad, out))
        assert not np.shares_memory(first, grad)
        np.testing.assert_array_equal(grad, original)
        np.testing.assert_array_equal(layer.backward(grad), first)

    def test_relu_clips_negative(self):
        out = ReLU()(np.array([[-1.0, 2.0]], dtype=np.float32))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_relu6_clips_above_six(self):
        out = ReLU6()(np.array([[-1.0, 3.0, 9.0]], dtype=np.float32))
        np.testing.assert_array_equal(out, [[0.0, 3.0, 6.0]])

    def test_relu6_caches_mask_only_when_training_with_caching(self):
        x = np.array([[-1.0, 3.0, 9.0]], dtype=np.float32)
        layer = ReLU6()
        layer(x)
        assert "mask" in layer._cache
        layer.clear_cache()
        layer.set_activation_caching(False)
        layer(x)
        assert not layer._cache
        layer.set_activation_caching(True)
        layer.eval()
        np.testing.assert_array_equal(layer(x), [[0.0, 3.0, 6.0]])
        assert not layer._cache

    def test_sigmoid_range(self):
        out = Sigmoid()(np.linspace(-50, 50, 11).reshape(1, -1).astype(np.float32))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.all(np.isfinite(out))

    def test_silu_matches_definition(self):
        x = np.random.default_rng(11).normal(size=(3, 5)).astype(np.float32)
        expected = x / (1.0 + np.exp(-x))
        np.testing.assert_allclose(SiLU()(x), expected, rtol=1e-4, atol=1e-5)


class TestPooling:
    def test_maxpool_values(self):
        pool = MaxPool2d(2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = pool(x)
        np.testing.assert_array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_maxpool_backward_routes_to_argmax(self):
        pool = MaxPool2d(2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        pool(x)
        grad = pool.backward(np.ones((1, 1, 2, 2), dtype=np.float32))
        assert grad[0, 0, 1, 1] == 1.0  # position of 5
        assert grad[0, 0, 0, 0] == 0.0
        assert grad.sum() == 4.0

    def test_maxpool_input_gradient(self):
        pool = MaxPool2d(2, stride=2)
        x = np.random.default_rng(12).normal(size=(2, 2, 6, 6))
        check_input_gradient(pool, x)

    def test_avgpool_values(self):
        pool = AvgPool2d(2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = pool(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avgpool_input_gradient(self):
        pool = AvgPool2d(2)
        x = np.random.default_rng(13).normal(size=(2, 1, 4, 4))
        check_input_gradient(pool, x)

    def test_global_avgpool(self):
        pool = GlobalAvgPool2d()
        x = np.random.default_rng(14).normal(size=(3, 5, 4, 4)).astype(np.float32)
        out = pool(x)
        assert out.shape == (3, 5)
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)), rtol=1e-5)

    def test_global_avgpool_input_gradient(self):
        pool = GlobalAvgPool2d()
        x = np.random.default_rng(15).normal(size=(2, 3, 3, 3))
        check_input_gradient(pool, x)

    def test_flatten_round_trip(self):
        flat = Flatten()
        x = np.random.default_rng(16).normal(size=(4, 2, 3, 3)).astype(np.float32)
        out = flat(x)
        assert out.shape == (4, 18)
        back = flat.backward(out)
        np.testing.assert_array_equal(back, x)


class TestDropout:
    def test_identity_in_eval_mode(self):
        drop = Dropout(0.5, rng=0)
        drop.eval()
        x = np.ones((4, 10), dtype=np.float32)
        np.testing.assert_array_equal(drop(x), x)

    def test_scaling_preserves_expectation(self):
        drop = Dropout(0.3, rng=0)
        x = np.ones((200, 200), dtype=np.float32)
        out = drop(x)
        assert abs(float(out.mean()) - 1.0) < 0.02

    def test_backward_uses_same_mask(self):
        drop = Dropout(0.5, rng=0)
        x = np.ones((8, 8), dtype=np.float32)
        out = drop(x)
        grad = drop.backward(np.ones_like(x))
        np.testing.assert_array_equal((out > 0), (grad > 0))

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)
