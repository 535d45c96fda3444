"""Property-based tests (hypothesis) for core invariants.

These cover the quantizer, the rounding schemes, the FF losses, the goodness
functions, label overlays and the im2col/col2im adjoint relationship.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.goodness import MeanSquaredGoodness, SumSquaredGoodness
from repro.core.losses import (
    negative_loss,
    negative_loss_grad,
    positive_loss,
    positive_loss_grad,
)
from repro.data.overlay import LabelOverlay
from repro.nn.functional import col2im, im2col, l2_normalize, softmax
from repro.quant.qconfig import QuantConfig
from repro.quant.rounding import round_nearest, round_stochastic
from repro.quant.suq import CHUNK, dequantize, quantize

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False, width=32
)


def float_arrays(max_side=12, min_dims=1, max_dims=2):
    return hnp.arrays(
        dtype=np.float32,
        shape=hnp.array_shapes(min_dims=min_dims, max_dims=max_dims,
                               min_side=1, max_side=max_side),
        elements=finite_floats,
    )


class TestQuantizationProperties:
    @given(values=float_arrays())
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_error_bounded_by_scale(self, values):
        config = QuantConfig(rounding="nearest")
        q, scale = quantize(values, config)
        reconstructed = dequantize(q, scale)
        assert np.max(np.abs(values - reconstructed)) <= float(scale) * 0.5 + 1e-6

    @given(values=float_arrays())
    @settings(max_examples=60, deadline=None)
    def test_levels_within_int8_range(self, values):
        config = QuantConfig(rounding="stochastic", seed=0)
        q, _ = quantize(values, config)
        assert q.dtype == np.int8
        assert q.min() >= -127 and q.max() <= 127

    @given(values=float_arrays())
    @settings(max_examples=40, deadline=None)
    def test_quantization_sign_preserving_for_large_values(self, values):
        """Values larger than one quantization step keep their sign."""
        config = QuantConfig(rounding="nearest")
        q, scale = quantize(values, config)
        reconstructed = dequantize(q, scale)
        significant = np.abs(values) > float(scale)
        assert np.all(np.sign(reconstructed[significant]) == np.sign(values[significant]))

    @given(values=float_arrays(max_side=8))
    @settings(max_examples=40, deadline=None)
    def test_nearest_rounding_idempotent_on_reconstruction(self, values):
        config = QuantConfig(rounding="nearest")
        q, scale = quantize(values, config)
        reconstructed = dequantize(q, scale)
        q2, _ = quantize(reconstructed, config, scale=scale)
        np.testing.assert_array_equal(q, q2)

    @given(
        values=hnp.arrays(dtype=np.float64, shape=(200,),
                          elements=st.floats(min_value=-3, max_value=3,
                                             allow_nan=False)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_stochastic_rounding_within_one_unit(self, values, seed):
        rounded = round_stochastic(values, rng=seed)
        assert np.all(np.abs(rounded - values) < 1.0)

    @given(values=hnp.arrays(dtype=np.float64, shape=(50,),
                             elements=st.floats(min_value=-1e3, max_value=1e3,
                                                allow_nan=False)))
    @settings(max_examples=40, deadline=None)
    def test_nearest_rounding_within_half_unit(self, values):
        rounded = round_nearest(values)
        assert np.all(np.abs(rounded - values) <= 0.5 + 1e-9)


def reference_scale(values, config, axis):
    """SUQ scale from a float64 ``|values|``, one per tensor or per channel."""
    if not values.size:
        return np.float64(1e-12 / config.qmax)
    magnitude = np.abs(values.astype(np.float64))
    if axis is not None:
        magnitude = np.moveaxis(magnitude, axis, 0).reshape(values.shape[axis], -1)
    if config.percentile is None:
        extreme = magnitude.max(axis=None if axis is None else 1)
    else:
        extreme = np.percentile(magnitude, config.percentile,
                                axis=None if axis is None else 1)
    return np.maximum(extreme, 1e-12) / config.qmax


def reference_quantize(values, config, scale, axis, rng):
    """Unchunked SUQ: round the whole tensor at once, then clip and cast.

    Nearest rounding divides by the scale in float64.  Stochastic rounding
    scales by the float32 reciprocal and floors after adding one 16-bit
    threshold per element, taken in C order from ``ceil(size / 4)`` raw
    64-bit words drawn in a single call."""
    scale_b = scale
    if axis is not None:
        shape = [1] * values.ndim
        shape[axis] = -1
        scale_b = np.reshape(scale, shape)
    if config.rounding == "nearest":
        rounded = round_nearest(values / scale_b)
    else:
        levels = values * np.asarray(1.0 / scale_b, dtype=np.float32)
        words = rng.bit_generator.random_raw(-(-values.size // 4))
        thresholds = words.view(np.uint16)[:values.size].astype(np.float32)
        rounded = np.floor(levels + thresholds.reshape(values.shape) / 65536)
    dtype = {4: np.int8, 8: np.int8, 16: np.int16}[config.bits]
    return np.clip(rounded, config.qmin, config.qmax).astype(dtype)


@st.composite
def streaming_cases(draw):
    """Tensors around the chunk boundaries, in every scale and layout mode."""
    size = draw(st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]))
    rows = draw(st.sampled_from([r for r in (1, 2, 3, 5, 11) if size % r == 0]))
    shape = (rows, size // rows)
    transposed = draw(st.booleans())
    data = np.random.default_rng(draw(st.integers(0, 2**16))).normal(
        scale=3.0, size=shape[::-1] if transposed else shape).astype(np.float32)
    fill = draw(st.sampled_from(["normal", "zero", "nan"]))
    if fill == "zero":
        data[...] = 0.0
    elif fill == "nan" and data.size:
        data.flat[draw(st.integers(0, data.size - 1))] = np.nan
    values = data.T if transposed else data
    mode = draw(st.sampled_from(["tensor", "channel0", "channel1"]))
    config = QuantConfig(
        bits=draw(st.sampled_from([4, 8, 16])),
        rounding=draw(st.sampled_from(["stochastic", "nearest"])),
        per_channel=mode != "tensor",
        percentile=draw(st.sampled_from([None, 99.0])),
        seed=draw(st.integers(0, 2**16)),
    )
    axis = {"tensor": None, "channel0": 0, "channel1": 1}[mode]
    explicit = draw(st.booleans())
    return values, config, axis, explicit


class TestStreamingQuantizerProperties:
    @given(case=streaming_cases(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_unchunked_formula_and_rng_stream(self, case, seed):
        values, config, axis, explicit = case
        if axis is not None:
            assume(values.size > 0)
        with np.errstate(invalid="ignore"):
            expected_scale = reference_scale(values, config, axis)
            scale = expected_scale * 1.5 if explicit else None
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            q, got_scale = quantize(values, config, scale=scale, axis=axis, rng=rng)
            expected = reference_quantize(
                values, config, got_scale if explicit else expected_scale, axis,
                reference_rng)
        np.testing.assert_array_equal(
            got_scale, expected_scale * 1.5 if explicit else expected_scale)
        assert q.dtype == expected.dtype and q.shape == values.shape
        np.testing.assert_array_equal(q, expected)
        assert rng.bit_generator.random_raw() == reference_rng.bit_generator.random_raw()


class TestFFLossProperties:
    goodness_arrays = hnp.arrays(
        dtype=np.float64, shape=(16,),
        elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
    )

    @given(goodness=goodness_arrays, theta=st.floats(0.5, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_losses_non_negative(self, goodness, theta):
        assert np.all(positive_loss(goodness, theta) >= 0)
        assert np.all(negative_loss(goodness, theta) >= 0)

    @given(goodness=goodness_arrays, theta=st.floats(0.5, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_grad_signs(self, goodness, theta):
        """Positive loss always pushes goodness up; negative pushes it down."""
        assert np.all(positive_loss_grad(goodness, theta) <= 0)
        assert np.all(negative_loss_grad(goodness, theta) >= 0)

    @given(goodness=goodness_arrays, theta=st.floats(0.5, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_pos_neg_symmetry(self, goodness, theta):
        """L_neg(G) == L_pos(2θ - G): the two losses mirror around θ."""
        np.testing.assert_allclose(
            negative_loss(goodness, theta),
            positive_loss(2 * theta - goodness, theta),
            rtol=1e-5, atol=1e-6,
        )

    @given(activity=float_arrays(max_side=10, min_dims=2, max_dims=2))
    @settings(max_examples=60, deadline=None)
    def test_goodness_non_negative_and_grad_direction(self, activity):
        for goodness in (SumSquaredGoodness(), MeanSquaredGoodness()):
            values = goodness.value(activity)
            assert np.all(values >= 0)
            # Moving along the gradient increases the goodness.
            grad = goodness.grad(activity)
            stepped = goodness.value(activity + 1e-3 * grad)
            assert np.all(stepped >= values - 1e-6)


class TestDataProperties:
    @given(
        labels=hnp.arrays(dtype=np.int64, shape=(20,),
                          elements=st.integers(0, 9)),
        amplitude=st.floats(0.5, 4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_overlay_embeds_exactly_one_hot(self, labels, amplitude):
        overlay = LabelOverlay(10, amplitude=amplitude)
        x = np.zeros((20, 64), dtype=np.float32)
        out = overlay.positive(x, labels)
        np.testing.assert_allclose(out[:, :10].sum(axis=1), amplitude, rtol=1e-5)
        np.testing.assert_allclose(out[np.arange(20), labels], amplitude, rtol=1e-5)

    @given(
        labels=hnp.arrays(dtype=np.int64, shape=(30,), elements=st.integers(0, 9)),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_negative_labels_never_match(self, labels, seed):
        overlay = LabelOverlay(10)
        x = np.zeros((30, 64), dtype=np.float32)
        _, wrong = overlay.negative(x, labels, rng=seed)
        assert np.all(wrong != labels)

    @given(batch=float_arrays(max_side=6, min_dims=2, max_dims=2))
    @settings(max_examples=40, deadline=None)
    def test_l2_normalize_unit_norm_or_zero(self, batch):
        out = l2_normalize(batch, axis=1)
        norms = np.linalg.norm(out, axis=1)
        assert np.all((norms < 1.0 + 1e-3))

    @given(logits=float_arrays(max_side=8, min_dims=2, max_dims=2))
    @settings(max_examples=40, deadline=None)
    def test_softmax_is_distribution(self, logits):
        probs = softmax(logits, axis=1)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-4)


class TestIm2ColAdjointProperty:
    @given(
        data=st.data(),
        channels=st.integers(1, 3),
        size=st.integers(4, 8),
        kernel=st.integers(1, 3),
        stride=st.integers(1, 2),
    )
    @settings(max_examples=30, deadline=None)
    def test_adjoint_identity(self, data, channels, size, kernel, stride):
        """<im2col(x), y> == <x, col2im(y)> — col2im is the exact adjoint."""
        if kernel > size:
            pytest.skip("kernel larger than input")
        padding = kernel // 2
        x = data.draw(hnp.arrays(np.float32, (1, channels, size, size),
                                 elements=finite_floats))
        cols = im2col(x, (kernel, kernel), (stride, stride), (padding, padding))
        y = np.random.default_rng(0).normal(size=cols.shape).astype(np.float32)
        lhs = float(np.sum(cols.astype(np.float64) * y))
        folded = col2im(y, x.shape, (kernel, kernel), (stride, stride),
                        (padding, padding))
        rhs = float(np.sum(x.astype(np.float64) * folded))
        assert lhs == pytest.approx(rhs, rel=1e-3, abs=1e-2)
