"""Tests for functional primitives, initializers and supervised losses."""

import math

import numpy as np
import pytest

from repro.nn import CrossEntropyLoss, MSELoss, accuracy
from repro.nn import init
from repro.nn.functional import (
    col2im,
    conv_output_size,
    flatten_batch,
    im2col,
    l2_normalize,
    log_softmax,
    one_hot,
    sigmoid,
    softmax,
    softplus,
)


class TestIm2Col:
    def test_round_trip_counts_overlaps(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 6, 6)).astype(np.float32)
        cols = im2col(x, (3, 3), (1, 1), (1, 1))
        assert cols.shape == (2 * 6 * 6, 3 * 9)
        folded = col2im(cols, x.shape, (3, 3), (1, 1), (1, 1))
        # col2im sums overlapping contributions: interior pixels appear in 9
        # windows, so folding the unfolded tensor multiplies them by 9.
        np.testing.assert_allclose(folded[:, :, 2:4, 2:4], 9 * x[:, :, 2:4, 2:4], rtol=1e-5)

    def test_stride_reduces_positions(self):
        x = np.zeros((1, 1, 8, 8), dtype=np.float32)
        cols = im2col(x, (2, 2), (2, 2), (0, 0))
        assert cols.shape == (16, 4)

    def test_output_size_error(self):
        with pytest.raises(ValueError, match="non-positive"):
            conv_output_size(2, 5, 1, 0)

    def test_known_patch_content(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        cols = im2col(x, (2, 2), (1, 1), (0, 0))
        np.testing.assert_array_equal(cols[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(cols[-1], [10, 11, 14, 15])


class TestPointwiseIm2Col:
    """1x1, stride 1, unpadded: im2col is the NHWC pixels and col2im their
    NCHW fold, as the zeros-then-add general path gives them."""

    def test_im2col_is_an_nhwc_copy(self):
        base = np.random.default_rng(2).normal(size=(2, 5, 4, 3))
        for x in (base.astype(np.float32),
                  base.astype(np.float32).transpose(0, 3, 1, 2)):
            cols = im2col(x, (1, 1), (1, 1), (0, 0))
            want = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(
                -1, x.shape[1])
            assert cols.flags.c_contiguous and cols.dtype == x.dtype
            assert cols.tobytes() == want.tobytes()
            assert not np.shares_memory(cols, x)

    def test_col2im_folds_with_positive_zeros(self):
        cols = np.random.default_rng(3).normal(size=(2 * 5 * 4, 3)).astype(
            np.float32)
        cols[::2, 1] = -0.0
        folded = col2im(cols, (2, 3, 5, 4), (1, 1), (1, 1), (0, 0))
        want = np.zeros((2, 3, 5, 4), dtype=np.float32)
        want += cols.reshape(2, 5, 4, 3).transpose(0, 3, 1, 2)
        assert folded.flags.c_contiguous and folded.dtype == np.float32
        assert folded.tobytes() == want.tobytes()
        zeros = folded[:, 1][folded[:, 1] == 0.0]
        assert zeros.size and not np.signbit(zeros).any()


    @pytest.mark.parametrize("stride, padding", [
        ((2, 2), (0, 0)),
        ((1, 1), (1, 1)),
        ((1, 2), (0, 0)),
        ((1, 1), (0, 1)),
    ], ids=["stride2", "padded", "stride-w", "padded-w"])
    def test_strided_or_padded_1x1_matches_naive_loops(self, stride,
                                                       padding):
        """A 1x1 kernel that strides or pads is not a pointwise copy; both
        directions still match a loop over output positions."""
        x = np.random.default_rng(4).normal(size=(2, 3, 5, 4)).astype(
            np.float32)
        padded = np.pad(x, ((0, 0), (0, 0), (padding[0],) * 2,
                            (padding[1],) * 2))
        pixels = padded[:, :, ::stride[0], ::stride[1]]
        want = np.ascontiguousarray(pixels.transpose(0, 2, 3, 1)).reshape(
            -1, 3)
        cols = im2col(x, (1, 1), stride, padding)
        assert cols.tobytes() == want.tobytes()
        folded_padded = np.zeros_like(padded)
        folded_padded[:, :, ::stride[0], ::stride[1]] += want.reshape(
            pixels.shape[0], pixels.shape[2], pixels.shape[3], 3).transpose(
            0, 3, 1, 2)
        folded = col2im(cols, x.shape, (1, 1), stride, padding)
        want_folded = folded_padded[:, :, padding[0]:padding[0] + 5,
                                    padding[1]:padding[1] + 4]
        np.testing.assert_array_equal(folded, want_folded)


class TestSoftmaxFamily:
    def test_softmax_sums_to_one(self):
        logits = np.random.default_rng(1).normal(size=(5, 7)) * 10
        probs = softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-6)

    def test_softmax_stable_for_large_logits(self):
        probs = softmax(np.array([[1e4, 0.0]]))
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs[0, 0], 1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        logits = np.random.default_rng(2).normal(size=(4, 6))
        np.testing.assert_allclose(
            log_softmax(logits), np.log(softmax(logits)), rtol=1e-6
        )

    def test_softplus_matches_reference(self):
        x = np.array([-100.0, -1.0, 0.0, 1.0, 100.0])
        expected = np.array([0.0, math.log1p(math.exp(-1)), math.log(2.0), 1.0 + math.log1p(math.exp(-1)), 100.0])
        np.testing.assert_allclose(softplus(x), expected, rtol=1e-6, atol=1e-8)

    def test_sigmoid_extremes_finite(self):
        out = sigmoid(np.array([-1e4, 0.0, 1e4]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-7)


class TestSmallHelpers:
    def test_one_hot(self):
        encoded = one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(encoded, [[1, 0, 0], [0, 0, 1]])

    def test_one_hot_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="lie in"):
            one_hot(np.array([3]), 3)

    def test_one_hot_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            one_hot(np.zeros((2, 2), dtype=int), 3)

    def test_l2_normalize(self):
        x = np.random.default_rng(3).normal(size=(4, 9)).astype(np.float32)
        out = l2_normalize(x, axis=1)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=1e-5)

    def test_flatten_batch(self):
        x = np.zeros((3, 2, 4, 4))
        assert flatten_batch(x).shape == (3, 32)


class TestInitializers:
    def test_kaiming_normal_std(self):
        weights = init.kaiming_normal((400, 200), rng=0)
        expected_std = math.sqrt(2.0 / 200)
        assert abs(weights.std() - expected_std) / expected_std < 0.1

    def test_kaiming_uniform_bound(self):
        weights = init.kaiming_uniform((50, 100), rng=0)
        bound = math.sqrt(2.0) * math.sqrt(3.0 / 100)
        assert np.all(np.abs(weights) <= bound + 1e-6)

    def test_xavier_uniform_bound(self):
        weights = init.xavier_uniform((30, 60), rng=0)
        bound = math.sqrt(6.0 / 90)
        assert np.all(np.abs(weights) <= bound + 1e-6)

    def test_conv_fan_in(self):
        weights = init.kaiming_normal((8, 4, 3, 3), rng=0)
        expected_std = math.sqrt(2.0 / (4 * 9))
        assert abs(weights.std() - expected_std) / expected_std < 0.15

    def test_unsupported_shape(self):
        with pytest.raises(ValueError, match="unsupported"):
            init.kaiming_normal((3,), rng=0)

    def test_zeros_ones(self):
        assert init.zeros((3,)).sum() == 0.0
        assert init.ones((3,)).sum() == 3.0


class TestCrossEntropyLoss:
    def test_uniform_logits_loss(self):
        loss_fn = CrossEntropyLoss(4)
        loss, grad = loss_fn(np.zeros((6, 4), dtype=np.float32), np.zeros(6, dtype=int))
        np.testing.assert_allclose(loss, math.log(4.0), rtol=1e-5)
        assert grad.shape == (6, 4)

    def test_perfect_prediction_low_loss(self):
        loss_fn = CrossEntropyLoss(3)
        logits = np.array([[20.0, 0.0, 0.0]], dtype=np.float32)
        loss, _ = loss_fn(logits, np.array([0]))
        assert loss < 1e-6

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        loss_fn = CrossEntropyLoss(5)
        logits = rng.normal(size=(3, 5)).astype(np.float64)
        labels = np.array([1, 4, 0])
        _, grad = loss_fn(logits, labels)
        eps = 1e-5
        for i in (0, 2):
            for j in (1, 3):
                perturbed = logits.copy()
                perturbed[i, j] += eps
                up, _ = loss_fn(perturbed, labels)
                perturbed[i, j] -= 2 * eps
                down, _ = loss_fn(perturbed, labels)
                np.testing.assert_allclose(
                    grad[i, j], (up - down) / (2 * eps), rtol=1e-3, atol=1e-6
                )

    def test_shape_validation(self):
        loss_fn = CrossEntropyLoss(3)
        with pytest.raises(ValueError, match="logits"):
            loss_fn(np.zeros((2, 4)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="batch mismatch"):
            loss_fn(np.zeros((2, 3)), np.zeros(3, dtype=int))

    def test_needs_at_least_two_classes(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss(1)


class TestMSEAndAccuracy:
    def test_mse_zero_for_equal(self):
        loss, grad = MSELoss()(np.ones((3, 2)), np.ones((3, 2)))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros((3, 2)))

    def test_mse_gradient_sign(self):
        loss, grad = MSELoss()(np.array([[2.0]]), np.array([[1.0]]))
        assert loss == pytest.approx(1.0)
        assert grad[0, 0] > 0

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            MSELoss()(np.ones((2, 2)), np.ones((2, 3)))

    def test_accuracy(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.7]], dtype=np.float32)
        assert accuracy(logits, np.array([1, 0, 0])) == pytest.approx(2 / 3)

    def test_accuracy_empty(self):
        assert accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int)) == 0.0
