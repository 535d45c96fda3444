"""The one-sweep look-ahead, pinned against the two-sweep formula it replaced.

A unit's backward is linear in its output gradient, so the look-ahead
weight gradient ``(1 − λ)·∂L_i/∂W_i + λ·∂S/∂W_i`` is the weight gradient of
the single signal ``g_i + λ·u_i``.  These tests hold the sweep in
:func:`accumulate_lookahead_gradients` to that identity (FP32), to the
parameter gradients the two-sweep code produced bit for bit where both
quantize the same signals (INT8, λ = 0), and to its cost: one
weight-gradient GEMM per quantized layer and no input gradient below the
bottom unit.

The two-sweep formula also had a ``"local"`` reading that drops the
cross-unit terms; it is λ = 0 at every λ, which is why λ is the only
look-ahead control.
"""

import hashlib
import inspect

import numpy as np
import pytest

from repro.core.goodness import build_goodness
from repro.core.lookahead import (
    accumulate_lookahead_gradients,
    unit_losses_and_grads,
)
from repro.core.losses import FFLoss
from repro.data import LabelOverlay
from repro.models import build_model
from repro.nn import conv
from repro.quant.prepare import prepare_int8, quantizable_layers
from repro.quant.qconfig import QuantConfig
from repro.runtime.executor import PlanExecutor

INPUT_SHAPES = {
    "mlp-mini": (1, 14, 14),
    "mobilenet_v2-mini": (3, 16, 16),
    "resnet18-mini": (3, 16, 16),  # ResidualAdd with projection shortcuts
    "efficientnet_b0-mini": (3, 16, 16),  # SqueezeExcite gates
}


def _setup(model, int8, batch=8, seed=0, rounding="stochastic"):
    """FF units of ``model`` with a positive and a negative half-batch."""
    shape = INPUT_SHAPES[model]
    bundle = build_model(model, input_shape=shape, seed=seed)
    units = bundle.ff_units()
    if int8:
        config = QuantConfig(bits=8, rounding=rounding)
        for index, unit in enumerate(units):
            prepare_int8(unit, config, seed=seed + index)
    rng = np.random.default_rng(seed)
    images = rng.random((batch,) + shape, dtype=np.float32)
    if bundle.flatten_input:
        images = images.reshape(batch, -1)
    labels = rng.integers(0, 10, size=batch)
    overlay = LabelOverlay(num_classes=10)
    halves = ((True, overlay.positive(images, labels)),
              (False, overlay.negative(images, labels, rng=rng)[0]))
    for unit in units:
        unit.train()
        unit.set_activation_caching(True)
        unit.zero_grad()
    return units, PlanExecutor.for_units(units), halves


def _activity_grads(executor, batch, positive):
    activations = executor.unit_outputs(batch)
    return unit_losses_and_grads(
        activations, build_goodness("sum_squares"), FFLoss(theta=2.0),
        positive)[1]


def _params(units):
    return [param for unit in units for param in unit.parameters()]


def _two_sweep(units, grads, lam, formula):
    """The look-ahead as two full backward sweeps (the replaced formula).

    ``formula`` is ``"chained"`` (Equation 4) or ``"local"`` (cross-unit
    terms dropped).  Call with zeroed gradients: it rescales whatever
    ``param.grad`` holds.
    """
    if formula == "local" or lam == 0.0:
        for unit, grad in zip(units, grads):
            unit.backward(grad)
        return
    local = {}
    if lam < 1.0:
        for unit, grad in zip(units, grads):
            unit.backward(grad)
        for param in _params(units):
            local[id(param)] = (1.0 - lam) * param.grad
            param.grad = None
    upstream = None
    for unit, grad in zip(reversed(units), reversed(grads)):
        upstream = unit.backward(grad if upstream is None else grad + upstream)
    for param in _params(units):
        param.grad = lam * param.grad
        if id(param) in local:
            param.grad += local[id(param)]


@pytest.mark.parametrize("model", sorted(INPUT_SHAPES))
@pytest.mark.parametrize("formula", ["chained", "local"])
@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_one_sweep_matches_two_sweep_formula_fp32(model, formula, lam):
    """Equal up to float rounding, in every unit and parameter.

    The chained formula at λ is the sweep at λ; the local formula at any λ
    is the sweep at λ = 0.  A conv bias ahead of BatchNorm has a true
    gradient of zero, so both sides hold rounding noise there; ``atol`` is
    therefore relative to the largest gradient in the same unit.
    """
    units, executor, halves = _setup(model, int8=False)
    positive, batch = halves[0]
    grads = _activity_grads(executor, batch, positive)
    _two_sweep(units, grads, lam, formula)
    expected = [[param.grad.copy() for param in unit.parameters()]
                for unit in units]
    for unit in units:
        unit.zero_grad()
    accumulate_lookahead_gradients(
        units, grads, lam if formula == "chained" else 0.0)
    for unit, wants in zip(units, expected):
        scale = max(float(np.abs(want).max()) for want in wants)
        for param, want in zip(unit.parameters(), wants):
            np.testing.assert_allclose(param.grad, want, rtol=1e-5,
                                       atol=1e-5 * scale, err_msg=param.name)


def _int8_step_digest(lam, model="mobilenet_v2-mini", rounding="stochastic"):
    units, executor, halves = _setup(model, int8=True, rounding=rounding)
    for positive, batch in halves:
        grads = _activity_grads(executor, batch, positive)
        accumulate_lookahead_gradients(units, grads, lam)
    digest = hashlib.blake2b(digest_size=16)
    for param in _params(units):
        digest.update(np.ascontiguousarray(param.grad).tobytes())
    return digest.hexdigest()


# The id names the two-sweep formula the digest was recorded with, and
# the digest's first eight hex digits.
@pytest.mark.parametrize("lam, expected", [
    pytest.param(0.0, "dbb18957092042b8a8ddc75bd47f1810",
                 id="0.0-chained-dbb18957"),
])
def test_int8_local_gradients_match_two_sweep_digest(lam, expected):
    """Where no cross-unit term exists, the quantized signals are unchanged.

    The digest was recorded with the two-sweep formula (``_two_sweep``):
    at λ = 0 both quantize each unit's own activity gradient, in the same
    order, so every parameter gradient is bit-identical.
    """
    assert _int8_step_digest(lam) == expected


# Recorded before the depthwise layer moved from im2col'd columns to
# shifted taps over its input: under nearest rounding both forms quantize
# the same values on the same scales and sum the same integer products, so
# the activity gradients and every parameter gradient are unchanged.
@pytest.mark.parametrize("model, expected", [
    ("mobilenet_v2-mini", "0de00e78173b4f501a8db7b00541e070"),
    ("efficientnet_b0-mini", "8a67bf19d91a67cb6839786372076a29"),
])
def test_int8_nearest_sweep_matches_im2col_digest(model, expected):
    assert _int8_step_digest(0.3, model, rounding="nearest") == expected


def test_one_weight_gradient_per_layer_and_no_input_gradient_below_unit_0(
        monkeypatch):
    units, executor, halves = _setup("mobilenet_v2-mini", int8=True)
    layers = [layer for unit in units for layer in quantizable_layers(unit)]
    calls = {id(layer): 0 for layer in layers}
    for layer in layers:
        engine = layer.quant_engine
        for name in ("linear_weight_grad", "depthwise_weight_grad"):
            def spy(*args, _inner=getattr(engine, name), _key=id(layer)):
                calls[_key] += 1
                return _inner(*args)
            monkeypatch.setattr(engine, name, spy)
    # Conv2d folds its input gradient with col2im; DepthwiseConv2d adds
    # its taps with depthwise_input_grad.
    callers = {"col2im": [], "depthwise_input_grad": []}
    for name, found in callers.items():
        def spy(*args, _inner=getattr(conv, name), _found=found):
            _found.append(inspect.currentframe().f_back.f_locals["self"])
            return _inner(*args)
        monkeypatch.setattr(conv, name, spy)
    for positive, batch in halves:
        grads = _activity_grads(executor, batch, positive)
        calls.update((key, 0) for key in calls)
        accumulate_lookahead_gradients(units, grads, 0.3)
        assert set(calls.values()) == {1}
    unit0 = {id(module) for module in units[0].modules()}
    for name, found in callers.items():
        assert found, f"units above unit 0 propagate input gradients ({name})"
        assert not any(id(caller) in unit0 for caller in found), name
