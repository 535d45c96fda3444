"""Tests for artifact export and the batched INT8 inference engine."""

import hashlib
import json

import numpy as np
import pytest

from repro.core import (
    FFInt8Config,
    FFInt8Trainer,
    load_ff_checkpoint,
    restore_classifier,
    save_ff_checkpoint,
)
from repro.models import build_mlp, build_model
from repro.serve import (
    InferenceArtifact,
    build_engine,
    export_artifact,
    export_from_checkpoint,
    frozen_classifier,
    load_artifact,
    rowwise_quantize,
    save_artifact,
)
from repro.serve.engine import FrozenInt8Kernel
from repro.serve.export import QUANT_SUFFIX, SCALE_SUFFIX


# --------------------------------------------------------------------------- #
# model/goodness configurations for the equivalence matrix
# --------------------------------------------------------------------------- #
def _mlp_h2(seed):
    return build_mlp(input_shape=(1, 14, 14), hidden_layers=2,
                     hidden_units=32, seed=seed)


def _mlp_h1(seed):
    return build_mlp(input_shape=(1, 14, 14), hidden_layers=1,
                     hidden_units=24, seed=seed)


def _mlp_h3(seed):
    return build_mlp(input_shape=(1, 14, 14), hidden_layers=3,
                     hidden_units=16, seed=seed)


def _resnet_mini(seed):
    return build_model("resnet18-mini", input_shape=(3, 16, 16), seed=seed)


CONFIGS = [
    pytest.param(_mlp_h2, "sum_squares", (1, 14, 14), id="mlp-h2-sum"),
    pytest.param(_mlp_h1, "mean_squares", (1, 14, 14), id="mlp-h1-mean"),
    pytest.param(_mlp_h3, "sum_squares", (1, 14, 14), id="mlp-h3-sum"),
    pytest.param(_resnet_mini, "mean_squares", (3, 16, 16), id="resnet-mini-mean"),
]


def _export(factory, goodness):
    bundle = factory(seed=0)
    units = bundle.ff_units()
    return export_artifact(units, bundle, goodness=goodness,
                           overlay_amplitude=2.0)


def _inputs(shape, count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count,) + shape).astype(np.float32)


class TestBatchedEquivalence:
    """The acceptance property: batched == per-sample, bit for bit."""

    @pytest.mark.parametrize("factory, goodness, shape", CONFIGS)
    def test_batched_engine_matches_per_sample_classifier(
        self, factory, goodness, shape
    ):
        artifact = _export(factory, goodness)
        engine = build_engine(artifact, factory(seed=1))
        classifier = frozen_classifier(artifact, factory(seed=2))
        inputs = _inputs(shape, 11)

        batched = engine.goodness_matrix(inputs)
        per_sample = np.stack(
            [classifier.goodness_matrix(inputs[i:i + 1])[0]
             for i in range(len(inputs))]
        )
        np.testing.assert_array_equal(batched, per_sample)
        np.testing.assert_array_equal(engine.predict(inputs),
                                      classifier.predict(inputs))

    @pytest.mark.parametrize("factory, goodness, shape", CONFIGS)
    def test_predictions_invariant_to_batch_composition(
        self, factory, goodness, shape
    ):
        artifact = _export(factory, goodness)
        engine = build_engine(artifact, factory(seed=3))
        inputs = _inputs(shape, 13, seed=5)

        whole = engine.goodness_matrix(inputs)
        singles = np.stack(
            [engine.goodness_matrix(inputs[i:i + 1])[0]
             for i in range(len(inputs))]
        )
        halves = np.concatenate(
            [engine.goodness_matrix(inputs[:7]), engine.goodness_matrix(inputs[7:])]
        )
        np.testing.assert_array_equal(whole, singles)
        np.testing.assert_array_equal(whole, halves)

    def test_empty_batch_returns_empty_predictions(self):
        artifact = _export(_mlp_h2, "sum_squares")
        engine = build_engine(artifact, _mlp_h2(seed=4))
        empty = np.zeros((0, 1, 14, 14), dtype=np.float32)
        assert engine.goodness_matrix(empty).shape == (0, 10)
        assert engine.predict(empty).shape == (0,)

    def test_predict_one_matches_batch(self):
        artifact = _export(_mlp_h2, "sum_squares")
        engine = build_engine(artifact, _mlp_h2(seed=4))
        inputs = _inputs((1, 14, 14), 6)
        labels = engine.predict(inputs)
        for index in range(len(inputs)):
            assert engine.predict_one(inputs[index]) == labels[index]


class TestArtifact:
    def test_weights_are_int8_with_scales(self):
        artifact = _export(_mlp_h2, "sum_squares")
        keys = artifact.quantized_keys()
        assert len(keys) == 2  # one Linear per hidden block
        for base in keys:
            assert artifact.tensors[base + QUANT_SUFFIX].dtype == np.int8
            scale = artifact.tensors[base + SCALE_SUFFIX]
            assert np.all(np.asarray(scale) > 0)

    def test_save_load_round_trip(self, tmp_path):
        artifact = _export(_mlp_h2, "mean_squares")
        path = save_artifact(artifact, tmp_path / "artifact")
        assert path.exists()
        assert (tmp_path / "artifact.json").exists()

        loaded = load_artifact(tmp_path / "artifact")
        assert loaded.metadata == artifact.metadata
        assert sorted(loaded.tensors) == sorted(artifact.tensors)
        for key, tensor in artifact.tensors.items():
            np.testing.assert_array_equal(loaded.tensors[key], tensor)

        engine = build_engine(artifact, _mlp_h2(seed=6))
        reloaded = build_engine(loaded, _mlp_h2(seed=7))
        inputs = _inputs((1, 14, 14), 9)
        np.testing.assert_array_equal(
            engine.goodness_matrix(inputs), reloaded.goodness_matrix(inputs)
        )

    def test_dotted_output_names_are_not_mangled(self, tmp_path):
        artifact = _export(_mlp_h2, "sum_squares")
        save_artifact(artifact, tmp_path / "model.v1")
        save_artifact(artifact, tmp_path / "model.v2")
        assert (tmp_path / "model.v1.npz").exists()
        assert (tmp_path / "model.v1.json").exists()
        assert (tmp_path / "model.v2.npz").exists()
        loaded = load_artifact(tmp_path / "model.v1")
        assert loaded.metadata == artifact.metadata

    def test_batchnorm_buffers_survive_checkpoint_export(self, tmp_path):
        from repro.nn.norm import _BatchNormBase
        from repro.serve.export import BUFFER_SUFFIX
        from repro.core.ff_trainer import FFConfig

        bundle = _resnet_mini(seed=0)
        units = bundle.ff_units()
        # give the norm layers recognizable running statistics
        marker = 0.0
        for unit in units:
            for module in unit.modules():
                if isinstance(module, _BatchNormBase):
                    marker += 1.0
                    module.running_mean = np.full(module.num_features, marker,
                                                  dtype=np.float32)
                    module.running_var = np.full(module.num_features,
                                                 marker + 0.5,
                                                 dtype=np.float32)
        assert marker > 0, "resnet-mini should contain BatchNorm layers"

        path = save_ff_checkpoint(units, bundle, FFConfig(epochs=1),
                                  tmp_path / "conv")
        checkpoint = load_ff_checkpoint(path)
        artifact = export_from_checkpoint(checkpoint, _resnet_mini(seed=1))
        buffer_keys = [key for key in artifact.tensors
                       if key.endswith(BUFFER_SUFFIX)]
        assert buffer_keys
        stored = {float(artifact.tensors[key][0]) for key in buffer_keys}
        assert 1.0 in stored and 1.5 in stored  # markers, not defaults

        # and the frozen engine actually normalizes with them
        engine = build_engine(artifact, _resnet_mini(seed=2))
        for unit in engine.units:
            for module in unit.modules():
                if isinstance(module, _BatchNormBase):
                    assert module.running_mean[0] != 0.0
                    return

    def test_load_rejects_unknown_format_version(self, tmp_path):
        artifact = _export(_mlp_h2, "sum_squares")
        artifact.metadata["format_version"] = 99
        save_artifact(artifact, tmp_path / "bad")
        with pytest.raises(ValueError, match="format version"):
            load_artifact(tmp_path / "bad")

    def test_unit_count_mismatch_rejected(self):
        bundle = _mlp_h2(seed=0)
        units = bundle.ff_units()
        with pytest.raises(ValueError, match="backbone blocks"):
            export_artifact(units[:1], bundle)
        artifact = _export(_mlp_h2, "sum_squares")
        with pytest.raises(ValueError, match="mismatch"):
            build_engine(artifact, _mlp_h3(seed=0))

    def test_per_channel_scales(self):
        bundle = _mlp_h2(seed=0)
        artifact = export_artifact(bundle.ff_units(), bundle, per_channel=True)
        for base in artifact.quantized_keys():
            scale = artifact.tensors[base + SCALE_SUFFIX]
            assert scale.ndim == 1  # one scale per output channel
        engine = build_engine(artifact, _mlp_h2(seed=1))
        classifier = frozen_classifier(artifact, _mlp_h2(seed=2))
        inputs = _inputs((1, 14, 14), 8)
        np.testing.assert_array_equal(
            engine.goodness_matrix(inputs),
            np.stack([classifier.goodness_matrix(inputs[i:i + 1])[0]
                      for i in range(len(inputs))]),
        )

    @pytest.mark.parametrize("per_channel, expected", [
        (False, "c400be62a5008e04ab030ff5b7a01941"),
        (True, "e286ebc286a47e581a2d834e98bad8a4"),
    ], ids=["per-tensor", "per-channel"])
    def test_artifact_bytes_match_golden_digest(self, per_channel, expected):
        """Every tensor and metadata byte of a conv export, pinned."""
        bundle = _resnet_mini(seed=0)
        artifact = export_artifact(bundle.ff_units(), bundle,
                                   per_channel=per_channel)
        digest = hashlib.blake2b(digest_size=16)
        for key in sorted(artifact.tensors):
            tensor = np.ascontiguousarray(artifact.tensors[key])
            digest.update(f"{key}:{tensor.dtype.str}:{tensor.shape}".encode())
            digest.update(tensor.tobytes())
        digest.update(json.dumps(artifact.metadata, sort_keys=True).encode())
        assert digest.hexdigest() == expected

    def test_registry_metadata_rebuilds_bundle(self):
        bundle = build_model("mlp-mini", input_shape=(1, 14, 14))
        artifact = export_artifact(
            bundle.ff_units(), bundle, registry_name="mlp-mini",
            registry_kwargs={"input_shape": [1, 14, 14]},
        )
        engine = build_engine(artifact)  # no bundle passed
        inputs = _inputs((1, 14, 14), 4)
        assert engine.predict(inputs).shape == (4,)

    def test_missing_registry_metadata_requires_bundle(self):
        artifact = _export(_mlp_h2, "sum_squares")
        with pytest.raises(ValueError, match="registry"):
            build_engine(artifact)


class TestFrozenKernel:
    def test_rowwise_quantize_is_row_independent(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10, 17)).astype(np.float32)
        q_all, scales_all = rowwise_quantize(x)
        assert q_all.dtype == np.int8
        for row in range(len(x)):
            q_row, scale_row = rowwise_quantize(x[row:row + 1])
            np.testing.assert_array_equal(q_all[row], q_row[0])
            assert scales_all[row] == scale_row[0]

    def test_gradient_entry_points_raise(self):
        kernel = FrozenInt8Kernel(
            np.zeros((4, 3), dtype=np.int8), np.float64(0.1)
        )
        with pytest.raises(RuntimeError, match="inference-only"):
            kernel.linear_weight_grad(np.zeros((2, 4)), np.zeros((2, 3)))
        with pytest.raises(RuntimeError, match="inference-only"):
            kernel.depthwise_weight_grad(
                np.zeros((2, 1, 1, 4)), np.zeros((2, 4, 1, 1)), (1, 1),
                (1, 1), (0, 0))

    def test_rejects_non_int8_weights(self):
        with pytest.raises(TypeError, match="int8"):
            FrozenInt8Kernel(np.zeros((4, 3), dtype=np.float32), np.float64(0.1))

    def test_exact_f32_gemm_matches_int32_gemm(self):
        from repro.runtime import dispatch

        rng = np.random.default_rng(9)
        w_q = rng.integers(-127, 128, size=(8, 40)).astype(np.int8)
        kernel = FrozenInt8Kernel(w_q, np.float64(1.0))
        assert kernel._exact_f32
        x_q = rng.integers(-127, 128, size=(21, 40)).astype(np.int8)
        exact = x_q.astype(np.float32) @ kernel.weight_qT.astype(np.float32)
        reference = dispatch.int8_gemm(x_q, kernel.weight_qT,
                                       backend="reference")
        np.testing.assert_array_equal(exact.astype(np.int64),
                                      reference.astype(np.int64))

    def test_engine_counts_int8_macs(self, monkeypatch):
        """Every frozen layer's GEMM runs on INT8 weights, once per row."""
        from repro.runtime import dispatch

        macs = []
        gemm = dispatch.rowwise_quantized_gemm

        def spy(x, rhs_q, *args, **kwargs):
            assert rhs_q.dtype == np.int8
            macs.append(x.shape[0] * rhs_q.shape[0] * rhs_q.shape[1])
            return gemm(x, rhs_q, *args, **kwargs)

        monkeypatch.setattr(dispatch, "rowwise_quantized_gemm", spy)
        artifact = _export(_mlp_h2, "sum_squares")
        engine = build_engine(artifact, _mlp_h2(seed=8))
        engine.predict(_inputs((1, 14, 14), 3))
        kernels = [
            module.quant_engine for unit in engine.units
            for module in unit.modules()
            if isinstance(getattr(module, "quant_engine", None),
                          FrozenInt8Kernel)
        ]
        rows = 3 * engine.num_classes  # every label overlay folded in
        assert len(macs) == len(kernels) == 2
        assert macs == [rows * kernel.weight_q.size for kernel in kernels]


def _train_checkpoint(directory, seed):
    """FF-INT8 fit of a two-layer MLP; returns (checkpoint path, test set)."""
    from repro.data import synthetic_mnist

    train, test = synthetic_mnist(num_train=192, num_test=64, seed=7,
                                  image_size=14)
    bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=2,
                       hidden_units=48, seed=0)
    config = FFInt8Config(epochs=10, batch_size=64, lr=0.02,
                          overlay_amplitude=2.0, evaluate_every=10,
                          eval_max_samples=64, train_eval_max_samples=32,
                          seed=seed)
    history = FFInt8Trainer(config).fit(bundle, train, test)
    units = history.metadata["units"]
    return save_ff_checkpoint(units, bundle, config, directory / "run"), test


class TestTrainedRoundTrip:
    """checkpoint -> export -> engine agrees with the restored classifier."""

    #: Training seeds whose mean agreement is asserted: one seed pins a
    #: single draw of the stochastic-rounding stream, not the quantizer.
    AGREEMENT_SEEDS = (0, 1, 2, 3, 4)

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        return _train_checkpoint(tmp_path_factory.mktemp("ckpt"), seed=0)

    def _fresh_bundle(self, seed):
        return build_mlp(input_shape=(1, 14, 14), hidden_layers=2,
                         hidden_units=48, seed=seed)

    def test_engine_agrees_with_fp32_classifier(self, trained, tmp_path_factory):
        agreements = []
        for seed in self.AGREEMENT_SEEDS:
            path, test = trained if seed == 0 else _train_checkpoint(
                tmp_path_factory.mktemp("ckpt"), seed)
            checkpoint = load_ff_checkpoint(path)
            fp32 = restore_classifier(checkpoint, self._fresh_bundle(11))
            artifact = export_from_checkpoint(checkpoint, self._fresh_bundle(12))
            engine = build_engine(artifact, self._fresh_bundle(13))

            inputs = test.images[:64]
            agreements.append(
                float(np.mean(fp32.predict(inputs) == engine.predict(inputs))))
        agreement = float(np.mean(agreements))
        assert agreement >= 0.9, (
            f"INT8 serving flipped {100 * (1 - agreement):.1f}% of predictions "
            f"on average (per seed: {agreements})"
        )

    def test_engine_is_bit_identical_to_frozen_per_sample(self, trained):
        path, test = trained
        checkpoint = load_ff_checkpoint(path)
        artifact = export_from_checkpoint(checkpoint, self._fresh_bundle(14))
        engine = build_engine(artifact, self._fresh_bundle(15))
        classifier = frozen_classifier(artifact, self._fresh_bundle(16))

        inputs = test.images[:48]
        per_sample = np.concatenate(
            [classifier.predict(inputs[i:i + 1]) for i in range(len(inputs))]
        )
        np.testing.assert_array_equal(engine.predict(inputs), per_sample)

    def test_export_metadata_carries_training_settings(self, trained):
        path, _ = trained
        checkpoint = load_ff_checkpoint(path)
        artifact = export_from_checkpoint(checkpoint, self._fresh_bundle(17))
        assert artifact.overlay_amplitude == 2.0
        assert artifact.goodness_name == "sum_squares"
        assert artifact.metadata["source"] == "ff_checkpoint"
        assert isinstance(artifact, InferenceArtifact)
