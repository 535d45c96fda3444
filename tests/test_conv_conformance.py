"""Cross-backend conv conformance suite.

The conv serving path (im2col'd INT8 GEMMs, eval-mode BatchNorm,
float32 depthwise products) is only trusted because the optimized backend
is proven bit-identical to the seed reference walk — the same gate DALC
applies to its optimized decode path.  This suite sweeps kernel size /
stride / padding / channels across both backends, float and
frozen-INT8, and pins down:

* conv / depthwise / conv+BN / conv+BN+activation outputs equal the
  ``reference`` backend's module walk bit for bit — including 1x1
  convolutions, single-row feature maps, and non-contiguous inputs;
* engines over *trained* BatchNorm running statistics give ResNet/MobileNet
  logits bit-identical to the ``reference`` engine on every backend;
* a stored golden digest of the mobilenet_v2-mini goodness matrix catches
  any drift in eval-mode BatchNorm (or other conv-path) arithmetic, which
  the ``reference`` comparison cannot — it runs the very same modules;
* training mode updates the BatchNorm running statistics on every forward
  and still matches the ``reference`` plan.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.models import build_model
from repro.nn.activations import ReLU, ReLU6
from repro.nn.containers import Sequential
from repro.nn.conv import Conv2d, DepthwiseConv2d
from repro.nn.norm import BatchNorm2d
from repro.nn.functional import col2im, im2col
from repro.quant.int8_ops import Int8Engine
from repro.quant.qconfig import QuantConfig
from repro.quant.suq import quantize
from repro.runtime import dispatch
from repro.runtime.backends import available_backends
from repro.runtime.dispatch import use_backend
from repro.runtime.executor import PlanExecutor
from repro.serve import build_engine, export_artifact
from repro.serve.engine import FrozenInt8Kernel

BACKENDS = available_backends()

#: (kernel, stride, padding, in_channels, out_channels, height, width)
CONV_CASES = [
    pytest.param((3, 3), (1, 1), (1, 1), 3, 8, 8, 8, id="3x3-same"),
    pytest.param((1, 1), (1, 1), (0, 0), 4, 6, 5, 5, id="1x1-pointwise"),
    pytest.param((3, 3), (2, 2), (1, 1), 3, 5, 9, 9, id="3x3-stride2"),
    pytest.param((1, 3), (1, 2), (0, 1), 2, 4, 1, 7, id="single-row"),
    pytest.param((2, 2), (2, 2), (0, 0), 3, 4, 6, 6, id="2x2-valid"),
]

#: (kernel, stride, padding, channels, height, width)
DEPTHWISE_CASES = [
    pytest.param((3, 3), (1, 1), (1, 1), 6, 8, 8, id="3x3-same"),
    pytest.param((3, 3), (2, 2), (1, 1), 4, 9, 9, id="3x3-stride2"),
    pytest.param((1, 3), (1, 1), (0, 1), 3, 1, 9, id="single-row"),
]


#: DEPTHWISE_CASES plus 5x5 and 7x7 kernels, an unpadded 3x3, a 3x3 padded
#: past its half-width, a stride-2 3x3 on an even size and a column kernel
#: strided along rows only, for the tap oracles below.
TAP_CASES = DEPTHWISE_CASES + [
    pytest.param((5, 5), (1, 1), (2, 2), 3, 7, 7, id="5x5-same"),
    pytest.param((5, 5), (2, 2), (2, 2), 2, 8, 8, id="5x5-stride2"),
    pytest.param((3, 3), (1, 1), (0, 0), 2, 6, 7, id="3x3-valid"),
    pytest.param((7, 7), (1, 1), (3, 3), 2, 9, 9, id="7x7-same"),
    pytest.param((3, 3), (1, 1), (2, 2), 2, 5, 6, id="3x3-pad2"),
    pytest.param((3, 3), (2, 2), (1, 1), 3, 8, 8, id="3x3-stride2-even"),
    pytest.param((3, 1), (2, 1), (1, 0), 3, 7, 5, id="3x1-row-stride2"),
]


def _randomize_bn(unit: Sequential, rng: np.random.Generator) -> None:
    """Non-trivial BatchNorm statistics so the normalization is not a no-op."""
    for module in unit.modules():
        if isinstance(module, BatchNorm2d):
            module.running_mean = rng.normal(
                size=module.num_features
            ).astype(np.float32)
            module.running_var = (
                rng.random(module.num_features).astype(np.float32) + 0.25
            )
            module.gamma.data[...] = rng.normal(
                size=module.num_features
            ).astype(np.float32)
            module.beta.data[...] = rng.normal(
                size=module.num_features
            ).astype(np.float32)


def _freeze_int8(unit: Sequential) -> None:
    """Attach frozen INT8 kernels, as artifact restoration would."""
    config = QuantConfig(bits=8, rounding="nearest")
    for module in unit.modules():
        if isinstance(module, (Conv2d, DepthwiseConv2d)):
            weight = module.weight.data
            matrix = np.ascontiguousarray(weight.reshape(weight.shape[0], -1))
            q, scale = quantize(matrix, config)
            module.quant_engine = FrozenInt8Kernel(
                np.ascontiguousarray(q), np.asarray(scale, dtype=np.float64)
            )


def _conv_unit(kernel, stride, padding, in_c, out_c, with_bn, act, seed):
    layers = [
        Conv2d(in_c, out_c, kernel, stride=stride, padding=padding,
               bias=not with_bn, rng=seed),
    ]
    if with_bn:
        layers.append(BatchNorm2d(out_c))
    if act is not None:
        layers.append(act())
    return Sequential(*layers)


def _depthwise_unit(kernel, stride, padding, channels, with_bn, act, seed):
    layers = [
        DepthwiseConv2d(channels, kernel, stride=stride, padding=padding,
                        bias=not with_bn, rng=seed),
    ]
    if with_bn:
        layers.append(BatchNorm2d(channels))
    if act is not None:
        layers.append(act())
    return Sequential(*layers)


def _eval_units(units, rng, quantized):
    for unit in units:
        _randomize_bn(unit, rng)
        if quantized:
            _freeze_int8(unit)
        unit.eval()
        unit.set_activation_caching(False)
    return units


def _assert_conformance(units, x):
    """Every backend equals the reference module walk."""
    expected = PlanExecutor.for_units(units, backend="reference").forward(x)
    for name in BACKENDS:
        got = PlanExecutor.for_units(units, backend=name).forward(x)
        np.testing.assert_array_equal(
            got, expected,
            err_msg=f"backend={name} diverged from the seed reference "
                    f"forward",
        )


class TestConvConformance:
    """Conv sweep: every backend vs the seed walk."""

    @pytest.mark.parametrize("quantized", [False, True],
                             ids=["float", "int8"])
    @pytest.mark.parametrize(
        "kernel, stride, padding, in_c, out_c, height, width", CONV_CASES
    )
    def test_conv_bn_act_bit_identical(
        self, kernel, stride, padding, in_c, out_c, height, width, quantized
    ):
        rng = np.random.default_rng(7)
        units = _eval_units(
            [_conv_unit(kernel, stride, padding, in_c, out_c, True, ReLU, 0)],
            rng, quantized,
        )
        x = rng.normal(size=(3, in_c, height, width)).astype(np.float32)
        _assert_conformance(units, x)

    @pytest.mark.parametrize(
        "kernel, stride, padding, in_c, out_c, height, width", CONV_CASES[:2]
    )
    def test_conv_without_norm_or_activation(
        self, kernel, stride, padding, in_c, out_c, height, width
    ):
        rng = np.random.default_rng(11)
        units = _eval_units(
            [
                _conv_unit(kernel, stride, padding, in_c, out_c, False, None, 1),
                _conv_unit((1, 1), (1, 1), (0, 0), out_c, out_c, True, None, 2),
            ],
            rng, quantized=False,
        )
        x = rng.normal(size=(2, in_c, height, width)).astype(np.float32)
        _assert_conformance(units, x)

    @pytest.mark.parametrize("quantized", [False, True],
                             ids=["float", "int8"])
    @pytest.mark.parametrize(
        "kernel, stride, padding, channels, height, width", DEPTHWISE_CASES
    )
    def test_depthwise_bn_act_bit_identical(
        self, kernel, stride, padding, channels, height, width, quantized
    ):
        rng = np.random.default_rng(13)
        units = _eval_units(
            [_depthwise_unit(kernel, stride, padding, channels, True,
                             ReLU6, 3)],
            rng, quantized,
        )
        x = rng.normal(size=(3, channels, height, width)).astype(np.float32)
        _assert_conformance(units, x)

    def test_linear_batchnorm_activation_bit_identical(self):
        """gemm→BatchNorm1d→activation (dense-model flavor)."""
        from repro.nn.linear import Linear
        from repro.nn.norm import BatchNorm1d

        rng = np.random.default_rng(29)
        unit = Sequential(Linear(12, 9, rng=0), BatchNorm1d(9), ReLU())
        bn = next(m for m in unit.modules() if isinstance(m, BatchNorm1d))
        bn.running_mean = rng.normal(size=9).astype(np.float32)
        bn.running_var = rng.random(9).astype(np.float32) + 0.5
        bn.gamma.data[...] = rng.normal(size=9).astype(np.float32)
        bn.beta.data[...] = rng.normal(size=9).astype(np.float32)
        unit.eval()
        unit.set_activation_caching(False)
        x = rng.normal(size=(7, 12)).astype(np.float32)
        _assert_conformance([unit], x)

    def test_non_contiguous_inputs(self):
        rng = np.random.default_rng(17)
        units = _eval_units(
            [_conv_unit((3, 3), (1, 1), (1, 1), 3, 6, True, ReLU, 4)],
            rng, quantized=True,
        )
        base = rng.normal(size=(4, 3, 8, 16)).astype(np.float32)
        for x in (
            np.asfortranarray(base),        # F-ordered
            base[::2],                      # strided batch view
            base[:, :, :, ::2],             # strided spatial view
        ):
            assert not x.flags["C_CONTIGUOUS"] or x.base is not None
            _assert_conformance(units, x)


# --------------------------------------------------------------------------- #
# trained-BatchNorm engines and the golden goodness digest
# --------------------------------------------------------------------------- #
#: blake2b-128 of the float32 goodness matrix :func:`_trained_engine` serves
#: for mobilenet_v2-mini (seed 0, 3x16x16 inputs).  Identical on every
#: backend; any change to the conv path's arithmetic moves it, including
#: the FP32 training-mode forwards that fill the BatchNorm statistics
#: (:data:`MOBILENET_SERVING_DIGEST` pins the serving path alone).
MOBILENET_GOODNESS_DIGEST = "ed64c2b0241df38306daaa0fdc36b2b4"

#: blake2b-128 of the float32 goodness matrix an engine serves for
#: mobilenet_v2-mini (seed 0) with drawn BatchNorm statistics: it depends
#: on the export and serving arithmetic only.
MOBILENET_SERVING_DIGEST = "29b75f753e80ece412c4c9b8b6afed58"


def _trained_engine(model_name, input_shape, backend, seed=0):
    """(engine, inputs) for an artifact frozen over trained BN statistics."""
    bundle = build_model(model_name, input_shape=input_shape, seed=seed)
    units = bundle.ff_units()
    rng = np.random.default_rng(seed + 100)
    # A couple of training-mode forwards populate the BatchNorm running
    # statistics exactly as FF training would — the "trained checkpoint".
    for _ in range(2):
        hidden = rng.normal(size=(8,) + input_shape).astype(np.float32)
        for unit in units:
            unit.train(True)
            unit.set_activation_caching(False)
            hidden = unit(hidden)
    for unit in units:
        unit.eval()
    artifact = export_artifact(units, bundle, overlay_amplitude=2.0)
    engine = build_engine(
        artifact, build_model(model_name, input_shape=input_shape,
                              seed=seed + 1),
        backend=backend,
    )
    inputs = rng.normal(size=(5,) + input_shape).astype(np.float32)
    return engine, inputs


class TestTrainedBatchNormGolden:
    """Trained BatchNorm statistics: every backend, and a stored digest."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model, shape", [
        ("resnet18-mini", (3, 16, 16)),
        ("mobilenet_v2-mini", (3, 16, 16)),
    ])
    def test_folded_logits_match_unfolded_seed_forward(
        self, model, shape, backend
    ):
        engine, inputs = _trained_engine(model, shape, backend)
        expected, _ = _trained_engine(model, shape, "reference")
        np.testing.assert_array_equal(
            engine.goodness_matrix(inputs),
            expected.goodness_matrix(inputs),
            err_msg=f"{model} goodness diverged on {backend}",
        )
        np.testing.assert_array_equal(
            engine.predict(inputs), expected.predict(inputs)
        )

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_mobilenet_goodness_matches_golden_digest(self, backend):
        engine, inputs = _trained_engine(
            "mobilenet_v2-mini", (3, 16, 16), backend
        )
        matrix = np.ascontiguousarray(
            engine.goodness_matrix(inputs), dtype=np.float32
        )
        digest = hashlib.blake2b(matrix.tobytes(), digest_size=16)
        assert matrix.shape == (5, 10)
        assert digest.hexdigest() == MOBILENET_GOODNESS_DIGEST

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_mobilenet_serving_matches_golden_digest(self, backend):
        """The serving path alone, pinned: BatchNorm statistics are drawn,
        not trained, so no training-mode arithmetic reaches the digest."""
        bundle = build_model("mobilenet_v2-mini", input_shape=(3, 16, 16),
                             seed=0)
        units = bundle.ff_units()
        rng = np.random.default_rng(31)
        for unit in units:
            _randomize_bn(unit, rng)
            unit.eval()
        artifact = export_artifact(units, bundle, overlay_amplitude=2.0)
        engine = build_engine(
            artifact, build_model("mobilenet_v2-mini", input_shape=(3, 16, 16),
                                  seed=1),
            backend=backend,
        )
        inputs = rng.normal(size=(5, 3, 16, 16)).astype(np.float32)
        matrix = np.ascontiguousarray(
            engine.goodness_matrix(inputs), dtype=np.float32
        )
        digest = hashlib.blake2b(matrix.tobytes(), digest_size=16)
        assert digest.hexdigest() == MOBILENET_SERVING_DIGEST

    def test_training_mode_refuses_to_fold(self):
        """Training mode normalizes by batch statistics and updates them."""
        rng = np.random.default_rng(23)
        unit = _conv_unit((3, 3), (1, 1), (1, 1), 3, 6, True, ReLU, 8)
        _randomize_bn(unit, rng)
        unit.train(True)
        unit.set_activation_caching(False)
        bn = next(m for m in unit.modules() if isinstance(m, BatchNorm2d))
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)

        # The reference training walk is the ground truth: BN normalizes by
        # batch statistics and mutates the running buffers.
        mean_before = bn.running_mean.copy()
        reference = PlanExecutor.for_units(
            [unit], backend="reference"
        ).forward(x)
        mean_after_walk = bn.running_mean.copy()
        assert not np.array_equal(mean_before, mean_after_walk)

        # The fast plan gives the same output AND another running-statistics
        # update.
        fast_out = PlanExecutor.for_units([unit], backend="fast").forward(x)
        np.testing.assert_array_equal(fast_out, reference)
        assert not np.array_equal(bn.running_mean, mean_after_walk)

        # Back in eval mode the statistics stop moving and the backends
        # still agree.
        unit.eval()
        frozen = bn.running_mean.copy()
        eval_fast = PlanExecutor.for_units([unit], backend="fast").forward(x)
        eval_reference = PlanExecutor.for_units(
            [unit], backend="reference"
        ).forward(x)
        np.testing.assert_array_equal(eval_fast, eval_reference)
        np.testing.assert_array_equal(bn.running_mean, frozen)


# --------------------------------------------------------------------------- #
# shifted-tap depthwise training against the im2col lowering
# --------------------------------------------------------------------------- #
def _im2col_columns(x, kernel, stride, padding):
    channels = x.shape[1]
    return im2col(x, kernel, stride, padding).reshape(
        -1, channels, kernel[0] * kernel[1])


def _out_size(height, width, kernel, stride, padding):
    return tuple((size + 2 * pad - k) // step + 1 for size, k, step, pad in
                 zip((height, width), kernel, stride, padding))


def _rescaled(acc, scale_a, scale_b):
    return (acc.astype(np.float64) * (float(scale_a) * float(scale_b))).astype(
        np.float32)


class TestDepthwiseTapOracles:
    """The training depthwise layer quantizes its input once and sums shifted
    taps; these oracles are the im2col form it replaced.  Under nearest
    rounding the two quantize the same values on the same scales (every
    input element lies in some window of these cases), so the forward and
    the weight gradient match bit for bit; the input gradient matches
    ``col2im`` of the per-tap products for any rounding."""

    NEAREST = QuantConfig(bits=8, rounding="nearest")

    @staticmethod
    def _inputs(rng, channels, height, width, layout):
        shape = (3, channels, height, width)
        if layout == "nhwc":
            # The layout Conv2d, BatchNorm and ReLU6 outputs have.
            nhwc = rng.normal(size=(3, height, width, channels))
            return nhwc.astype(np.float32).transpose(0, 3, 1, 2)
        return rng.normal(size=shape).astype(np.float32)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    @pytest.mark.parametrize(
        "kernel, stride, padding, channels, height, width", TAP_CASES
    )
    def test_int8_nearest_matches_im2col(
        self, kernel, stride, padding, channels, height, width, layout,
        backend,
    ):
        rng = np.random.default_rng(41)
        layer = DepthwiseConv2d(channels, kernel, stride=stride,
                                padding=padding, rng=5)
        layer.quant_engine = Int8Engine(self.NEAREST)
        x = self._inputs(rng, channels, height, width, layout)
        with use_backend(backend):
            out = layer(x)
        cols = _im2col_columns(x, kernel, stride, padding)
        c_q, c_scale = quantize(cols, self.NEAREST)
        w_q, w_scale = quantize(
            layer.weight.data.reshape(channels, -1), self.NEAREST)
        want = _rescaled(
            dispatch.int8_depthwise(c_q, w_q, backend="reference"),
            c_scale, w_scale)
        got = out.transpose(0, 2, 3, 1).reshape(-1, channels)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

        grad_output = rng.normal(size=out.shape).astype(np.float32)
        with use_backend(backend):
            layer.accumulate_param_grads(grad_output)
        grad_matrix = np.ascontiguousarray(
            grad_output.transpose(0, 2, 3, 1).reshape(-1, channels))
        g_q, g_scale = quantize(grad_matrix, self.NEAREST)
        want_grad = _rescaled(
            dispatch.int8_depthwise_grad(g_q, c_q, backend="reference"),
            g_scale, c_scale)
        assert layer.weight.grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize(
        "kernel, stride, padding, channels, height, width", TAP_CASES
    )
    def test_input_grad_matches_col2im(
        self, kernel, stride, padding, channels, height, width
    ):
        rng = np.random.default_rng(43)
        layer = DepthwiseConv2d(channels, kernel, stride=stride,
                                padding=padding, rng=6)
        # Zero weights and signed zero gradients give -0.0 products; channel
        # 0 receives nothing else, and its sums must be +0.0.
        layer.weight.data[:, :, 0, 0] = 0.0
        x = self._inputs(rng, channels, height, width, "nhwc")
        out = layer(x)
        grad_output = rng.normal(size=out.shape).astype(np.float32)
        grad_output[:, 0] = -0.0
        grad_output[:, :, ::3] = -0.0
        grad_output[:, :, 1::3] = 0.0
        got = layer.input_grad(grad_output)
        assert (got[:, 0] == 0.0).all() and not np.signbit(got[:, 0]).any()
        grad_matrix = grad_output.transpose(0, 2, 3, 1).reshape(-1, channels)
        grad_cols = np.einsum(
            "pc,ck->pck", grad_matrix,
            layer.weight.data.reshape(channels, -1)).reshape(len(grad_matrix), -1)
        want = col2im(grad_cols, x.shape, kernel, stride, padding).astype(
            np.float32)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "kernel, stride, padding, channels, height, width", TAP_CASES
    )
    def test_fp32_matches_im2col_within_float32_rounding(
        self, kernel, stride, padding, channels, height, width
    ):
        """FP32 taps sum the same products in another order: each result is
        within ``terms * eps32`` of the sum of the products' magnitudes."""
        rng = np.random.default_rng(47)
        layer = DepthwiseConv2d(channels, kernel, stride=stride,
                                padding=padding, rng=7)
        x = self._inputs(rng, channels, height, width, "nhwc")
        out = layer(x)
        grad_output = rng.normal(size=out.shape).astype(np.float32)
        layer.accumulate_param_grads(grad_output)
        cols = _im2col_columns(x, kernel, stride, padding).astype(np.float64)
        weight = layer.weight.data.reshape(channels, -1).astype(np.float64)
        grad_matrix = grad_output.transpose(0, 2, 3, 1).reshape(
            -1, channels).astype(np.float64)
        eps = float(np.finfo(np.float32).eps)
        for got, want, magnitude, terms in (
            (out.transpose(0, 2, 3, 1).reshape(-1, channels),
             np.einsum("pck,ck->pc", cols, weight),
             np.einsum("pck,ck->pc", np.abs(cols), np.abs(weight)),
             weight.shape[1]),
            (layer.weight.grad.reshape(channels, -1),
             np.einsum("pc,pck->ck", grad_matrix, cols),
             np.einsum("pc,pck->ck", np.abs(grad_matrix), np.abs(cols)),
             len(cols)),
        ):
            assert (np.abs(got - want) <= terms * eps * magnitude).all()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "kernel, stride, padding, channels, height, width", DEPTHWISE_CASES
    )
    def test_frozen_kernel_patches_match_im2col_in_any_layout(
        self, kernel, stride, padding, channels, height, width, backend
    ):
        """Serving builds its per-position patches from x itself: an
        NHWC-strided input serves the bytes of its contiguous copy, and both
        equal per-row quantized im2col columns through ``int8_depthwise``."""
        rng = np.random.default_rng(53)
        weight_q = rng.integers(-127, 128, size=(channels, *kernel)).astype(
            np.int8)
        weight_scale = np.float64(0.02)
        frozen = FrozenInt8Kernel(weight_q.reshape(channels, -1),
                                  weight_scale, backend=backend)
        x = self._inputs(rng, channels, height, width, "nhwc")
        got = frozen.depthwise_forward(x, weight_q, stride, padding)
        contiguous = frozen.depthwise_forward(
            np.ascontiguousarray(x), weight_q, stride, padding)
        assert got.tobytes() == contiguous.tobytes()
        cols = _im2col_columns(x, kernel, stride, padding)
        c_q, c_scales = dispatch.rowwise_quantize(cols, 127,
                                                  backend="reference")
        acc = dispatch.int8_depthwise(c_q, weight_q.reshape(channels, -1),
                                      backend="reference")
        want = acc.astype(np.float32)
        want *= c_scales[:, None]
        want *= np.float32(weight_scale)
        assert got.shape == (3, *_out_size(height, width, kernel, stride,
                                           padding), channels)
        assert got.reshape(-1, channels).tobytes() == want.tobytes()
