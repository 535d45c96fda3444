"""Additional edge-case coverage across packages.

Complements the per-module suites with behaviours at the boundaries: empty or
degenerate inputs, metadata filtering, flag combinations, and reproducibility
guarantees that downstream users rely on.
"""

import numpy as np
import pytest

from repro.core import FFGoodnessClassifier
from repro.data import ArrayDataset, DataLoader, LabelOverlay
from repro.hardware import estimate_memory, profile_bundle
from repro.hardware.cost_model import CostBreakdown, TrainingCostModel
from repro.models import build_mlp, scaled_width
from repro.nn import Linear, ReLU, ResidualAdd, Sequential
from repro.nn.norm import FFLayerNorm
from repro.training import make_trainer
from repro.training.history import EpochRecord, TrainingHistory
from repro.utils import spawn_rngs
from repro.analysis import ExperimentResult


class TestNnEdgeCases:
    def test_fflayernorm_zero_input_stays_finite(self):
        norm = FFLayerNorm()
        out = norm(np.zeros((3, 8), dtype=np.float32))
        assert np.all(np.isfinite(out))
        grad = norm.backward(np.ones((3, 8), dtype=np.float32))
        assert np.all(np.isfinite(grad))

    def test_inter_layer_transform_with_nested_residual(self):
        block = ResidualAdd(Sequential(Linear(6, 6, rng=0), ReLU()))
        model = Sequential(Linear(6, 6, rng=1), block, Linear(6, 4, rng=2))
        seen_shapes = []
        model.inter_layer_grad_transform = (
            lambda grad: (seen_shapes.append(grad.shape), grad)[1]
        )
        x = np.random.default_rng(0).normal(size=(2, 6)).astype(np.float32)
        out = model(x)
        grad_in = model.backward(np.ones_like(out))
        assert grad_in.shape == (2, 6)
        assert seen_shapes == [(2, 6), (2, 6)]

    def test_sequential_double_backward_uses_same_cache(self):
        model = Sequential(Linear(4, 3, rng=0), ReLU())
        x = np.random.default_rng(1).normal(size=(2, 4)).astype(np.float32)
        out = model(x)
        first = model.backward(np.ones_like(out))
        second = model.backward(np.ones_like(out))
        np.testing.assert_allclose(first, second)


class TestDataEdgeCases:
    def test_dataloader_reproducible_with_seed(self):
        ds = ArrayDataset(np.arange(40).reshape(40, 1).astype(np.float32),
                          np.zeros(40, dtype=int), num_classes=2)
        order_a = [labels.shape[0] and images[0, 0]
                   for images, labels in DataLoader(ds, 8, shuffle=True, rng=3)]
        order_b = [labels.shape[0] and images[0, 0]
                   for images, labels in DataLoader(ds, 8, shuffle=True, rng=3)]
        assert order_a == order_b

    def test_split_names_derive_from_parent(self):
        ds = ArrayDataset(np.zeros((10, 2), dtype=np.float32),
                          np.zeros(10, dtype=int), num_classes=2, name="demo")
        train, test = ds.split(0.7, rng=0)
        assert train.name.startswith("demo")
        assert test.name.startswith("demo")

    def test_overlay_image_width_too_small(self):
        overlay = LabelOverlay(num_classes=10)
        with pytest.raises(ValueError, match="width"):
            overlay.positive(np.zeros((1, 1, 8, 8), dtype=np.float32),
                             np.array([0]))

    def test_overlay_rejects_3d_input(self):
        overlay = LabelOverlay(num_classes=4)
        with pytest.raises(ValueError, match="inputs must be"):
            overlay.positive(np.zeros((2, 4, 4), dtype=np.float32),
                             np.array([0, 1]))


class TestTrainingEdgeCases:
    def test_history_as_dict_filters_objects(self):
        history = TrainingHistory("FF-INT8", "mlp", "mnist")
        history.append(EpochRecord(1, 0.5, 0.6, 0.55))
        history.metadata["units"] = [object()]
        history.metadata["epochs"] = 5
        payload = history.as_dict()
        assert "units" not in payload["metadata"]
        assert payload["metadata"]["epochs"] == 5

    def test_make_trainer_ff_kwargs_passthrough(self):
        trainer = make_trainer("FF-INT8", epochs=7, theta=3.0, lr=0.05)
        assert trainer.config.epochs == 7
        assert trainer.config.theta == 3.0
        assert trainer.config.lr == 0.05

    def test_classifier_explicit_no_skip(self):
        units = [Sequential(Linear(16, 8, rng=0)), Sequential(Linear(8, 8, rng=1))]
        classifier = FFGoodnessClassifier(units, LabelOverlay(10),
                                          skip_first_layer=False)
        assert classifier.skip_first_layer is False


class TestHardwareEdgeCases:
    @pytest.fixture(scope="class")
    def profile(self):
        return profile_bundle(build_mlp(hidden_layers=1, hidden_units=32), 1)

    def test_lookahead_memory_above_greedy_ff(self, profile):
        greedy = estimate_memory(profile, 32, stores_graph=False,
                                 mac_precision="int8", lookahead=False)
        lookahead = estimate_memory(profile, 32, stores_graph=False,
                                    mac_precision="int8", lookahead=True)
        assert lookahead.activations_mb > greedy.activations_mb
        # ... but still below the backprop graph.
        bp = estimate_memory(profile, 32, stores_graph=True, mac_precision="int8")
        assert lookahead.total_mb <= bp.total_mb + 1e-6

    def test_cost_breakdown_as_dict_consistent(self):
        breakdown = CostBreakdown(mac_time_s=1.0, traffic_time_s=2.0,
                                  overhead_time_s=3.0, mac_energy_j=4.0)
        payload = breakdown.as_dict()
        assert payload["total_time_s"] == pytest.approx(6.0)
        assert payload["total_energy_j"] == pytest.approx(4.0)

    def test_estimate_default_epochs_per_algorithm(self, profile):
        model = TrainingCostModel()
        bp = model.estimate(profile, "BP-FP32", dataset_size=1000)
        ff = model.estimate(profile, "FF-INT8", dataset_size=1000)
        assert ff.epochs > bp.epochs  # FF gets the larger default budget


class TestMiscEdgeCases:
    def test_spawn_rngs_from_generator(self):
        parent = np.random.default_rng(5)
        children = spawn_rngs(parent, 2)
        assert len(children) == 2
        assert children[0].random() != children[1].random()

    def test_scaled_width_floor(self):
        assert scaled_width(64, 0.001, floor=6) == 6

    def test_experiment_record_overwrite(self):
        result = ExperimentResult("exp", "Fig X", "demo")
        result.record("metric", 1.0)
        result.record("metric", 2.0)
        assert result.results["metric"] == 2.0
