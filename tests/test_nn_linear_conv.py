"""Gradient and shape tests for Linear, Conv2d and DepthwiseConv2d."""

import numpy as np
import pytest

from repro.nn import Conv2d, DepthwiseConv2d, Linear
from repro.nn.functional import col2im
from tests.gradcheck import check_input_gradient, check_parameter_gradients


class TestLinear:
    def test_output_shape(self):
        layer = Linear(12, 7, rng=0)
        out = layer(np.random.default_rng(0).normal(size=(5, 12)).astype(np.float32))
        assert out.shape == (5, 7)

    def test_forward_matches_manual_matmul(self):
        rng = np.random.default_rng(1)
        layer = Linear(6, 4, rng=0)
        x = rng.normal(size=(3, 6)).astype(np.float32)
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(x), expected, rtol=1e-5)

    def test_no_bias(self):
        layer = Linear(6, 4, bias=False, rng=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_flattens_higher_rank_input(self):
        layer = Linear(12, 3, rng=0)
        x = np.ones((2, 3, 4), dtype=np.float32)
        assert layer(x).shape == (2, 3)

    def test_rejects_wrong_feature_count(self):
        layer = Linear(8, 3, rng=0)
        with pytest.raises(ValueError, match="8 input features"):
            layer(np.ones((2, 9), dtype=np.float32))

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_input_gradient(self):
        layer = Linear(9, 5, rng=0)
        x = np.random.default_rng(2).normal(size=(4, 9))
        check_input_gradient(layer, x)

    def test_parameter_gradients(self):
        layer = Linear(7, 4, rng=0)
        x = np.random.default_rng(3).normal(size=(3, 7))
        check_parameter_gradients(layer, x)

    def test_split_backward_matches_backward(self):
        rng = np.random.default_rng(4)
        layer = Linear(6, 3, rng=0)
        x = rng.normal(size=(5, 6)).astype(np.float32)
        grad_out = rng.normal(size=(5, 3)).astype(np.float32)
        layer(x)
        grad_in = layer.backward(grad_out)
        weight_grad = layer.weight.grad.copy()
        layer.zero_grad()
        layer.accumulate_param_grads(grad_out)
        np.testing.assert_array_equal(layer.weight.grad, weight_grad)
        np.testing.assert_array_equal(layer.input_grad(grad_out), grad_in)

    def test_backward_without_forward_raises(self):
        layer = Linear(4, 2, rng=0)
        with pytest.raises(RuntimeError, match="cached"):
            layer.backward(np.ones((2, 2), dtype=np.float32))


class TestConv2d:
    def test_output_shape_padding_stride(self):
        conv = Conv2d(3, 8, 3, stride=2, padding=1, rng=0)
        x = np.zeros((2, 3, 8, 8), dtype=np.float32)
        out = conv(x)
        assert out.shape == (2, 8, 4, 4)
        assert conv.output_shape(x.shape) == (2, 8, 4, 4)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(5)
        conv = Conv2d(2, 3, 3, stride=1, padding=1, rng=0)
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        out = conv(x)
        # Direct computation of one output element.
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        patch = padded[0, :, 1:4, 2:5]
        expected = np.sum(patch * conv.weight.data[1]) + conv.bias.data[1]
        np.testing.assert_allclose(out[0, 1, 1, 2], expected, rtol=1e-4)

    def test_rejects_wrong_channel_count(self):
        conv = Conv2d(3, 4, 3, rng=0)
        with pytest.raises(ValueError, match="3 input channels"):
            conv(np.zeros((1, 2, 8, 8), dtype=np.float32))

    def test_rejects_non_4d_input(self):
        conv = Conv2d(3, 4, 3, rng=0)
        with pytest.raises(ValueError, match=r"\(N, C, H, W\)"):
            conv(np.zeros((3, 8, 8), dtype=np.float32))

    def test_input_gradient(self):
        conv = Conv2d(2, 3, 3, stride=1, padding=1, rng=0)
        x = np.random.default_rng(6).normal(size=(2, 2, 5, 5))
        check_input_gradient(conv, x)

    def test_input_gradient_strided(self):
        conv = Conv2d(2, 2, 3, stride=2, padding=1, rng=0)
        x = np.random.default_rng(7).normal(size=(2, 2, 6, 6))
        check_input_gradient(conv, x)

    def test_parameter_gradients(self):
        conv = Conv2d(2, 2, 3, stride=1, padding=0, rng=0)
        x = np.random.default_rng(8).normal(size=(2, 2, 5, 5))
        check_parameter_gradients(conv, x)

    def test_input_grad_matches_copying_formula(self):
        rng = np.random.default_rng(9)
        conv = Conv2d(3, 4, 3, stride=2, padding=1, rng=0)
        x = rng.normal(size=(2, 3, 7, 7)).astype(np.float32)
        grad = rng.normal(size=conv(x).shape).astype(np.float32)
        original = grad.copy()
        grad_matrix = np.ascontiguousarray(
            grad.transpose(0, 2, 3, 1).reshape(-1, 4))
        expected = col2im(
            grad_matrix @ conv.weight.data.reshape(4, -1), x.shape,
            conv.kernel_size, conv.stride, conv.padding,
        ).astype(np.float32)
        first = conv.input_grad(grad)
        assert first.dtype == np.float32
        np.testing.assert_array_equal(first, expected)
        assert not np.shares_memory(first, grad)
        np.testing.assert_array_equal(grad, original)
        np.testing.assert_array_equal(conv.input_grad(grad), first)

    def test_kernel_size_pair(self):
        conv = Conv2d(1, 1, (3, 1), stride=(1, 1), padding=(1, 0), rng=0)
        out = conv(np.zeros((1, 1, 6, 6), dtype=np.float32))
        assert out.shape == (1, 1, 6, 6)


class TestDepthwiseConv2d:
    def test_output_shape(self):
        conv = DepthwiseConv2d(4, 3, stride=1, padding=1, rng=0)
        out = conv(np.zeros((2, 4, 6, 6), dtype=np.float32))
        assert out.shape == (2, 4, 6, 6)

    def test_channel_independence(self):
        """Perturbing channel 0 of the input must not change channel 1 output."""
        rng = np.random.default_rng(9)
        conv = DepthwiseConv2d(3, 3, stride=1, padding=1, rng=0)
        x = rng.normal(size=(1, 3, 6, 6)).astype(np.float32)
        base = conv(x)
        x2 = x.copy()
        x2[:, 0] += 1.0
        out2 = conv(x2)
        np.testing.assert_allclose(out2[:, 1:], base[:, 1:], rtol=1e-5)
        assert not np.allclose(out2[:, 0], base[:, 0])

    def test_rejects_wrong_channels(self):
        conv = DepthwiseConv2d(3, 3, rng=0)
        with pytest.raises(ValueError, match="DepthwiseConv2d expects"):
            conv(np.zeros((1, 4, 6, 6), dtype=np.float32))

    def test_input_gradient(self):
        conv = DepthwiseConv2d(2, 3, stride=1, padding=1, rng=0)
        x = np.random.default_rng(10).normal(size=(2, 2, 5, 5))
        check_input_gradient(conv, x)

    def test_parameter_gradients(self):
        conv = DepthwiseConv2d(2, 3, stride=2, padding=1, bias=True, rng=0)
        x = np.random.default_rng(11).normal(size=(2, 2, 6, 6))
        check_parameter_gradients(conv, x)
