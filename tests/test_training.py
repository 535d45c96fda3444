"""Tests for optimizers, schedules, gradient transforms and the BP trainer."""

import hashlib

import numpy as np
import pytest

from repro.models import build_mlp
from repro.nn import Linear, Parameter, Sequential
from repro.quant import QuantConfig
from repro.training import (
    Adam,
    BPConfig,
    BPTrainer,
    ConstantLambda,
    ConstantLR,
    CosineLR,
    DirectInt8Gradient,
    GDAI8Gradient,
    GradientTransform,
    LinearLambda,
    SGD,
    StepLR,
    UI8Gradient,
    algorithm_properties,
    build_gradient_transform,
    build_optimizer,
    evaluate_classifier,
    make_bp_config,
    make_trainer,
    prediction_entropy,
)
from repro.training.history import EpochRecord, TrainingHistory


def quadratic_params(n=4, seed=0):
    """Parameters initialized away from the optimum of ``f(w) = ||w||^2 / 2``."""
    rng = np.random.default_rng(seed)
    return [Parameter(rng.normal(size=(n,)).astype(np.float32) + 2.0, name=f"p{i}")
            for i in range(2)]


class TestOptimizers:
    @pytest.mark.parametrize("factory", [
        lambda p: SGD(p, lr=0.1),
        lambda p: SGD(p, lr=0.1, momentum=0.9),
        lambda p: Adam(p, lr=0.1),
    ])
    def test_minimizes_quadratic(self, factory):
        params = quadratic_params()
        optimizer = factory(params)
        for _ in range(200):
            optimizer.zero_grad()
            for param in params:
                param.accumulate_grad(param.data)  # grad of ||w||^2/2
            optimizer.step()
        for param in params:
            assert float(np.abs(param.data).max()) < 0.05

    def test_weight_decay_shrinks_weights(self):
        param = Parameter(np.ones(4, dtype=np.float32))
        optimizer = SGD([param], lr=0.1, weight_decay=0.5)
        param.accumulate_grad(np.zeros(4, dtype=np.float32))
        optimizer.step()
        assert np.all(param.data < 1.0)

    def test_lr_scale(self):
        param = Parameter(np.zeros(2, dtype=np.float32))
        optimizer = SGD([param], lr=1.0)
        optimizer.set_lr_scale(0.5)
        param.accumulate_grad(np.ones(2, dtype=np.float32))
        optimizer.step()
        np.testing.assert_allclose(param.data, -0.5)

    def test_skips_params_without_grad(self):
        param = Parameter(np.ones(2, dtype=np.float32))
        SGD([param], lr=1.0).step()
        np.testing.assert_array_equal(param.data, np.ones(2))

    def test_state_bytes(self):
        params = [Parameter(np.zeros(10, dtype=np.float32))]
        assert SGD(params, lr=0.1).state_bytes() == 0
        assert SGD(params, lr=0.1, momentum=0.9).state_bytes() == 40
        assert Adam(params, lr=0.1).state_bytes() == 80

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(2))], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(2))], lr=0.1, betas=(1.0, 0.9))

    def test_build_optimizer_factory(self):
        params = [Parameter(np.zeros(2, dtype=np.float32))]
        assert isinstance(build_optimizer("sgd", params, 0.1), SGD)
        assert isinstance(build_optimizer("adam", params, 0.1), Adam)
        with pytest.raises(ValueError):
            build_optimizer("rmsprop", params, 0.1)


class TestSchedules:
    def test_constant(self):
        assert ConstantLR(0.1).lr_at(100) == 0.1

    def test_step(self):
        schedule = StepLR(1.0, step_size=10, gamma=0.1)
        assert schedule.lr_at(9) == 1.0
        assert schedule.lr_at(10) == pytest.approx(0.1)
        assert schedule.lr_at(25) == pytest.approx(0.01)

    def test_cosine_endpoints(self):
        schedule = CosineLR(1.0, total_epochs=50, min_lr=0.1)
        assert schedule.lr_at(0) == pytest.approx(1.0)
        assert schedule.lr_at(50) == pytest.approx(0.1)
        assert 0.1 < schedule.lr_at(25) < 1.0

    def test_linear_lambda_matches_paper_schedule(self):
        """Section V-A3: lambda starts at 0 and grows by 0.001 per epoch."""
        schedule = LinearLambda(initial=0.0, increment=0.001)
        assert schedule.value_at(0) == 0.0
        assert schedule.value_at(130) == pytest.approx(0.13)

    def test_linear_lambda_cap(self):
        schedule = LinearLambda(initial=0.0, increment=0.1, maximum=0.3)
        assert schedule.value_at(100) == 0.3

    def test_constant_lambda(self):
        assert ConstantLambda(0.2).value_at(5) == 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            StepLR(1.0, step_size=0)
        with pytest.raises(ValueError):
            CosineLR(1.0, total_epochs=0)
        with pytest.raises(ValueError):
            LinearLambda(initial=-1.0)
        with pytest.raises(ValueError):
            ConstantLambda(-0.1)


class TestGradientTransforms:
    def _gradient(self, sharp=False, seed=0):
        rng = np.random.default_rng(seed)
        grad = rng.normal(scale=0.001, size=(200, 100)).astype(np.float32)
        if sharp:
            grad[0, 0] = 1.0  # single large outlier
        return grad

    def test_identity_transform(self):
        transform = GradientTransform()
        grad = self._gradient()
        np.testing.assert_array_equal(transform("w", grad), grad)
        assert transform.lr_scale() == 1.0

    def test_direct_int8_loses_sharp_gradients(self):
        """With one large outlier the naive abs-max scale zeroes the bulk."""
        transform = DirectInt8Gradient()
        grad = self._gradient(sharp=True)
        quantized = transform("w", grad)
        bulk_zeroed = np.mean(quantized[1:] == 0.0)
        assert bulk_zeroed > 0.9

    def test_gdai8_preserves_sharp_gradients(self):
        transform = GDAI8Gradient(percentile=99.0)
        grad = self._gradient(sharp=True)
        quantized = transform("w", grad)
        cosine = float(
            np.dot(grad[1:].ravel(), quantized[1:].ravel())
            / (np.linalg.norm(grad[1:]) * np.linalg.norm(quantized[1:]) + 1e-12)
        )
        assert cosine > 0.95

    def test_ui8_deviation_damps_lr(self):
        transform = UI8Gradient(alpha=10.0)
        transform.reset()
        transform("w", self._gradient(sharp=True))
        assert transform.lr_scale() < 1.0
        transform.reset()
        assert transform.lr_scale() == 1.0

    def test_ui8_direction_never_worse_than_direct(self):
        """UI8's clip search includes the no-clip candidate, so its angular
        deviation can never exceed direct quantization's."""
        def cosine(a, b):
            return float(np.dot(a.ravel(), b.ravel())
                         / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))

        for seed in (3, 4, 5):
            grad = self._gradient(sharp=True, seed=seed)
            direct = DirectInt8Gradient()("w", grad)
            ui8 = UI8Gradient()("w", grad)
            assert cosine(grad, ui8) >= cosine(grad, direct) - 1e-9

    def test_gdai8_threshold_smoothing(self):
        transform = GDAI8Gradient(percentile=99.0, smoothing=0.9)
        transform("w", self._gradient(seed=1))
        first = transform._running_threshold["w"]
        transform("w", self._gradient(seed=2) * 10.0)
        second = transform._running_threshold["w"]
        assert second < 10 * first  # smoothing dampens the jump

    def test_zero_gradient_passthrough(self):
        grad = np.zeros((4, 4), dtype=np.float32)
        for transform in (DirectInt8Gradient(), UI8Gradient(), GDAI8Gradient()):
            out = transform("w", grad)
            np.testing.assert_array_equal(out, grad)

    def test_int8_and_gdai8_outputs_match_golden_digest(self):
        """Seeded outputs of both threshold quantizers, bit for bit.

        Covers calibrating and calibrated static scales, gradients flushed
        below the calibrated grid, and both rounding modes.
        """
        digest = hashlib.blake2b(digest_size=16)
        rng = np.random.default_rng(2024)
        transforms = [
            DirectInt8Gradient(rng=1),
            DirectInt8Gradient(QuantConfig(rounding="stochastic"), rng=2),
            GDAI8Gradient(rng=3),
            GDAI8Gradient(config=QuantConfig(rounding="nearest"), rng=4),
        ]
        for step in range(5):
            for key, shape in (("w0", (16, 8)), ("w1", (33,))):
                grad = (rng.standard_t(3, size=shape) * 10.0 ** -step).astype(
                    np.float32
                )
                for transform in transforms:
                    out = np.ascontiguousarray(transform(key, grad))
                    digest.update(out.dtype.str.encode())
                    digest.update(out.tobytes())
        assert digest.hexdigest() == "46e82c43b05f45fdb1c6507eb9d6a538"

    def test_factory(self):
        assert isinstance(build_gradient_transform("fp32"), GradientTransform)
        assert isinstance(build_gradient_transform("int8"), DirectInt8Gradient)
        assert isinstance(build_gradient_transform("ui8"), UI8Gradient)
        assert isinstance(build_gradient_transform("gdai8"), GDAI8Gradient)
        with pytest.raises(ValueError):
            build_gradient_transform("fp8")


class TestHistory:
    def _history(self):
        history = TrainingHistory("BP-FP32", "mlp", "mnist")
        for epoch, acc in enumerate([0.3, 0.5, 0.7, 0.65], start=1):
            history.append(EpochRecord(epoch, train_loss=1.0 / epoch,
                                       train_accuracy=acc, test_accuracy=acc))
        return history

    def test_properties(self):
        history = self._history()
        assert history.num_epochs == 4
        assert history.final_test_accuracy == 0.65
        assert history.best_test_accuracy == 0.7
        assert history.train_losses[0] == 1.0

    def test_epochs_to_accuracy(self):
        history = self._history()
        assert history.epochs_to_accuracy(0.5) == 2
        assert history.epochs_to_accuracy(0.9) is None

    def test_as_dict(self):
        payload = self._history().as_dict()
        assert payload["algorithm"] == "BP-FP32"
        assert len(payload["test_accuracies"]) == 4


class TestBPTrainer:
    def test_fp32_learns_tiny_mnist(self, tiny_mnist):
        train, test = tiny_mnist
        bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=1,
                           hidden_units=64, seed=0)
        trainer = BPTrainer(BPConfig(epochs=6, batch_size=32, lr=0.05, seed=0))
        history = trainer.fit(bundle, train, test)
        assert history.algorithm == "BP-FP32"
        assert history.num_epochs == 6
        assert history.final_test_accuracy > 0.5
        assert not history.diverged

    def test_history_metadata_contains_model(self, tiny_mnist):
        train, test = tiny_mnist
        bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=0,
                           hidden_units=16, seed=0)
        history = BPTrainer(BPConfig(epochs=1, batch_size=64)).fit(bundle, train, test)
        model = history.metadata["trained_model"]
        _, acc = evaluate_classifier(model, test, flatten_input=True)
        assert acc == pytest.approx(history.final_test_accuracy, abs=1e-6)

    def test_algorithm_names(self):
        assert make_bp_config("BP-FP32").algorithm_name() == "BP-FP32"
        assert make_bp_config("BP-INT8").algorithm_name() == "BP-INT8"
        assert make_bp_config("BP-UI8").algorithm_name() == "BP-UI8"
        assert make_bp_config("BP-GDAI8").algorithm_name() == "BP-GDAI8"

    def test_make_trainer_dispatch(self):
        from repro.core.ff_int8 import FFInt8Trainer

        assert isinstance(make_trainer("BP-GDAI8", epochs=1), BPTrainer)
        assert isinstance(make_trainer("FF-INT8", epochs=1), FFInt8Trainer)
        with pytest.raises(ValueError):
            make_trainer("BP-FP16")

    def test_unknown_bp_algorithm(self):
        with pytest.raises(ValueError):
            make_bp_config("FF-INT8")

    def test_algorithm_properties_table(self):
        assert algorithm_properties("FF-INT8")["backward_pass"] is False
        assert algorithm_properties("BP-FP32")["mac_precision"] == "fp32"
        assert algorithm_properties("bp-gdai8")["analysis_passes"] > 0
        with pytest.raises(ValueError):
            algorithm_properties("BP-FP16")

    def test_prediction_entropy_range(self):
        uniform = prediction_entropy(np.zeros((8, 10)))
        confident = prediction_entropy(
            np.eye(10, dtype=np.float32)[np.zeros(8, dtype=int)] * 50
        )
        assert uniform == pytest.approx(np.log(10), rel=1e-3)
        assert confident < 0.01

    def test_int8_forward_trainer_runs(self, tiny_mnist):
        train, test = tiny_mnist
        bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=1,
                           hidden_units=32, seed=0)
        trainer = make_trainer("BP-GDAI8", epochs=2, batch_size=32, lr=0.05)
        history = trainer.fit(bundle, train, test)
        assert history.algorithm == "BP-GDAI8"
        assert history.num_epochs == 2
