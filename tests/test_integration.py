"""Integration tests: whole training pipelines and cross-algorithm behaviour.

These exercise the same code paths the benchmark harnesses use, at reduced
scale so they stay fast.
"""

import numpy as np
import pytest

from repro.core import FFInt8Config, FFInt8Trainer
from repro.core.classifier import FFGoodnessClassifier
from repro.data import LabelOverlay, synthetic_mnist
from repro.hardware import TrainingCostModel, profile_bundle
from repro.models import build_mlp, build_model
from repro.quant import Int8Engine, quantizable_layers
from repro.training import BPConfig, BPTrainer, make_trainer
from repro.utils.serialization import load_parameters, save_parameters


class TestEndToEndMLP:
    def test_bp_and_ff_reach_nontrivial_accuracy(self, tiny_mnist):
        """Both training families must clearly beat chance on the same data."""
        train, test = tiny_mnist

        bp_bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=1,
                              hidden_units=64, seed=0)
        bp_history = BPTrainer(BPConfig(epochs=8, batch_size=32, lr=0.05,
                                        seed=0)).fit(bp_bundle, train, test)

        ff_bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=1,
                              hidden_units=64, seed=0)
        ff_config = FFInt8Config(epochs=25, batch_size=64, lr=0.02,
                                 overlay_amplitude=2.0, evaluate_every=25,
                                 eval_max_samples=96, train_eval_max_samples=32,
                                 seed=0)
        ff_history = FFInt8Trainer(ff_config).fit(ff_bundle, train, test)

        assert bp_history.final_test_accuracy > 0.5
        assert ff_history.final_test_accuracy > 0.3
        # Chance level is 0.1 on ten classes.
        assert ff_history.final_test_accuracy > 0.2

    def test_ff_int8_engines_actually_used(self, tiny_mnist, monkeypatch):
        """After FF-INT8 training, every Linear layer must have executed INT8 MACs."""
        ran = {"linear_forward": set(), "linear_weight_grad": set()}
        for method in ran:
            original = getattr(Int8Engine, method)

            def spy(engine, *args, _original=original, _ran=ran[method]):
                _ran.add(id(engine))
                return _original(engine, *args)

            monkeypatch.setattr(Int8Engine, method, spy)
        train, test = tiny_mnist
        bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=2,
                           hidden_units=32, seed=0)
        config = FFInt8Config(epochs=1, batch_size=64, evaluate_every=5, seed=0)
        history = FFInt8Trainer(config).fit(bundle, train, test)
        units = history.metadata["units"]
        for unit in units:
            for layer in quantizable_layers(unit):
                assert layer.quant_engine is not None
                for engines in ran.values():
                    assert id(layer.quant_engine) in engines

    def test_ff_trained_model_serializable(self, tiny_mnist, tmp_path):
        train, test = tiny_mnist
        bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=1,
                           hidden_units=32, seed=0)
        config = FFInt8Config(epochs=2, batch_size=64, evaluate_every=5, seed=0)
        history = FFInt8Trainer(config).fit(bundle, train, test)
        units = history.metadata["units"]
        classifier = history.metadata["classifier"]
        before = classifier.accuracy(test, max_samples=48)

        state = {}
        for index, unit in enumerate(units):
            for name, param in unit.named_parameters():
                state[f"unit{index}.{name}"] = param.data
        path = save_parameters(state, tmp_path / "ff_units.npz")
        loaded = load_parameters(path)

        fresh_bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=1,
                                 hidden_units=32, seed=99)
        fresh_units = fresh_bundle.ff_units()
        for index, unit in enumerate(fresh_units):
            for name, param in unit.named_parameters():
                param.copy_(loaded[f"unit{index}.{name}"])
        overlay = LabelOverlay(10, amplitude=config.overlay_amplitude)
        restored = FFGoodnessClassifier(fresh_units, overlay, flatten_input=True)
        after = restored.accuracy(test, max_samples=48)
        assert after == pytest.approx(before, abs=1e-6)


class TestQuantizedBackpropDegradation:
    """Reduced-scale version of the Table I / Figure 2 observation."""

    @pytest.fixture(scope="class")
    def depth_results(self):
        train, test = synthetic_mnist(num_train=384, num_test=128, seed=3,
                                      image_size=14)
        results = {}
        for depth in (0, 2):
            accs = {}
            for algorithm in ("BP-FP32", "BP-INT8"):
                bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=depth,
                                   hidden_units=64, seed=0)
                trainer = make_trainer(algorithm, epochs=6, batch_size=32,
                                       lr=0.05, seed=0)
                history = trainer.fit(bundle, train, test)
                accs[algorithm] = history.final_test_accuracy
            results[depth] = accs
        return results

    def test_fp32_benefits_from_depth(self, depth_results):
        assert depth_results[2]["BP-FP32"] >= depth_results[0]["BP-FP32"] - 0.05

    def test_int8_degradation_grows_with_depth(self, depth_results):
        """The FP32-INT8 accuracy gap must widen as the network gets deeper."""
        gap_shallow = depth_results[0]["BP-FP32"] - depth_results[0]["BP-INT8"]
        gap_deep = depth_results[2]["BP-FP32"] - depth_results[2]["BP-INT8"]
        assert gap_deep >= gap_shallow - 0.02

    def test_all_runs_completed(self, depth_results):
        for depth, accs in depth_results.items():
            for algorithm, acc in accs.items():
                assert 0.0 <= acc <= 1.0


class TestCostModelIntegration:
    def test_measured_mini_training_consistent_with_model_ordering(self, tiny_cifar):
        """The analytical model and the actual NumPy runs agree on the memory
        ordering: FF's peak per-layer activation cache is far below the full
        activation graph that backpropagation keeps resident."""
        train, _ = tiny_cifar
        bundle = build_model("resnet18-mini", input_shape=(3, 16, 16), seed=0)
        model = bundle.bp_model()
        model.train()
        model.set_activation_caching(True)
        batch = train.images[:8]
        model(batch)
        bp_cached = model.cached_activation_bytes()

        ff_bundle = build_model("resnet18-mini", input_shape=(3, 16, 16), seed=0)
        units = ff_bundle.ff_units()
        peak_ff = 0
        hidden = batch
        for unit in units:
            unit.train()
            unit.set_activation_caching(True)
            hidden = unit(hidden)
            peak_ff = max(peak_ff, unit.cached_activation_bytes())
            unit.clear_cache()
        assert peak_ff < 0.65 * bp_cached

        profile = profile_bundle(bundle, batch_size=1)
        estimates = TrainingCostModel().compare(
            profile, algorithms=["BP-FP32", "FF-INT8"], dataset_size=1000
        )
        assert estimates["FF-INT8"].memory_mb < estimates["BP-FP32"].memory_mb

    def test_full_scale_profiles_all_models(self):
        """Profiling the paper-scale architectures works and preserves the
        parameter-count ordering of Table II."""
        params = {}
        for name in ("mlp", "mobilenet_v2", "efficientnet_b0", "resnet18"):
            kwargs = {"hidden_layers": 2, "hidden_units": 500} if name == "mlp" else {}
            profile = profile_bundle(build_model(name, **kwargs), batch_size=1)
            params[name] = profile.total_parameters
        assert params["mlp"] < params["mobilenet_v2"] < params["efficientnet_b0"] \
            < params["resnet18"]


class TestLookaheadIntegration:
    def test_lookahead_history_tracks_lambda_ramp(self, tiny_mnist):
        train, test = tiny_mnist
        bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=2,
                           hidden_units=32, seed=0)
        config = FFInt8Config(epochs=3, batch_size=128, evaluate_every=10, seed=0)
        history = FFInt8Trainer(config).fit(bundle, train, test)
        lambdas = [record.lambda_value for record in history.records]
        assert lambdas == pytest.approx([0.0, 0.001, 0.002])

    def test_conv_model_ff_trains_one_epoch(self, tiny_cifar):
        """FF-INT8 with look-ahead runs end-to-end on a residual conv model."""
        train, test = tiny_cifar
        bundle = build_model("resnet18-mini", input_shape=(3, 16, 16), seed=0)
        config = FFInt8Config(epochs=1, batch_size=32, evaluate_every=1,
                              eval_max_samples=32, train_eval_max_samples=16,
                              goodness="mean_squares", theta=0.5, seed=0)
        history = FFInt8Trainer(config).fit(bundle, train, test)
        assert history.num_epochs == 1
        assert np.isfinite(history.records[0].train_loss)
