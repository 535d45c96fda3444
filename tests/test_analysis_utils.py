"""Tests for gradient statistics, reporting helpers, experiment records, utils."""

import numpy as np
import pytest

from repro.analysis import (
    ExperimentResult,
    ExperimentSuite,
    collect_first_layer_gradients,
    format_relative,
    format_table,
    histogram_to_ascii,
    summarize_gradients,
)
from repro.models import build_mlp
from repro.utils import get_logger, load_json, new_rng, save_json, spawn_rngs
from repro.utils.serialization import load_parameters, save_parameters


class TestGradientStats:
    def test_summarize_basic_statistics(self):
        rng = np.random.default_rng(0)
        values = rng.normal(scale=0.5, size=10000)
        summary = summarize_gradients(values, name="test")
        assert summary.count == 10000
        assert abs(summary.mean) < 0.05
        assert abs(summary.std - 0.5) < 0.05
        assert summary.abs_max >= summary.percentile_99_9
        assert summary.int8_quantization_error > 0

    def test_sharpness_detects_heavy_tails(self):
        rng = np.random.default_rng(1)
        gaussian = summarize_gradients(rng.normal(size=20000))
        heavy = rng.normal(size=20000) * 0.01
        heavy[:5] = 3.0
        heavy_summary = summarize_gradients(heavy)
        assert heavy_summary.sharpness > gaussian.sharpness
        assert heavy_summary.kurtosis > gaussian.kurtosis

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_gradients(np.array([]))

    def test_as_dict_serializable(self):
        summary = summarize_gradients(np.random.default_rng(2).normal(size=100))
        payload = summary.as_dict()
        assert len(payload["histogram_counts"]) + 1 == len(payload["histogram_edges"])

    def test_collect_first_layer_gradients(self, tiny_mnist):
        train, _ = tiny_mnist
        bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=1,
                           hidden_units=32, seed=0)
        summary = collect_first_layer_gradients(bundle, train, num_batches=3,
                                                batch_size=32, rng=0)
        assert summary.count == 3 * 32 * 196 or summary.count == 3 * 196 * 32
        assert np.isfinite(summary.std)

    def test_deeper_network_has_smaller_first_layer_gradients(self, tiny_mnist):
        """The Figure 3 mechanism: in deeper MLPs the first-layer gradients
        concentrate in a narrower range (smaller bulk), which is exactly what
        makes direct INT8 quantization unable to resolve them; and all
        first-layer gradient distributions are heavier-tailed than Gaussian."""
        train, _ = tiny_mnist
        shallow = build_mlp(input_shape=(1, 14, 14), hidden_layers=0,
                            hidden_units=64, seed=0)
        deep = build_mlp(input_shape=(1, 14, 14), hidden_layers=3,
                         hidden_units=64, seed=0)
        shallow_stats = collect_first_layer_gradients(shallow, train,
                                                      num_batches=4, rng=0)
        deep_stats = collect_first_layer_gradients(deep, train,
                                                   num_batches=4, rng=0)
        assert deep_stats.std < shallow_stats.std
        assert deep_stats.kurtosis > 3.0  # heavier-tailed than Gaussian


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bbbb", 22.5]],
                            title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_none_cell(self):
        text = format_table(["a"], [[None]])
        assert "-" in text.splitlines()[-1]

    def test_format_relative(self):
        text = format_relative(90.0, 100.0)
        assert text.startswith("90.0")
        assert "-10.0%" in text

    def test_format_relative_zero_reference(self):
        assert format_relative(5.0, 0.0) == "5.0"

    def test_histogram_to_ascii(self):
        counts, edges = np.histogram(np.random.default_rng(3).normal(size=1000), bins=30)
        text = histogram_to_ascii(counts, edges, width=20, max_rows=10)
        assert "#" in text
        assert len(text.splitlines()) <= 12

    def test_histogram_edge_validation(self):
        with pytest.raises(ValueError):
            histogram_to_ascii([1, 2], [0.0, 1.0])


class TestExperimentRecords:
    def test_record_and_save(self, tmp_path):
        result = ExperimentResult(
            experiment_id="table1",
            paper_reference="Table I",
            description="depth vs precision",
            parameters={"depths": [0, 1, 2, 3]},
        )
        result.record("fp32_acc", [0.9, 0.91])
        path = result.save(tmp_path)
        loaded = load_json(path)
        assert loaded["experiment_id"] == "table1"
        assert loaded["results"]["fp32_acc"] == [0.9, 0.91]

    def test_suite_rejects_duplicates(self):
        suite = ExperimentSuite("session")
        suite.add(ExperimentResult("e1", "Fig 1", "demo"))
        with pytest.raises(ValueError):
            suite.add(ExperimentResult("e1", "Fig 1", "demo"))
        assert suite.get("e1") is not None
        assert suite.get("missing") is None

    def test_suite_save_all(self, tmp_path):
        suite = ExperimentSuite("session")
        suite.add(ExperimentResult("e1", "Fig 1", "demo"))
        suite.add(ExperimentResult("e2", "Fig 2", "demo"))
        paths = suite.save_all(tmp_path)
        assert len(paths) == 2
        assert all(path.exists() for path in paths)


class TestUtils:
    def test_new_rng_passthrough(self):
        rng = new_rng(5)
        assert new_rng(rng) is rng

    def test_spawn_rngs_independent(self):
        streams = spawn_rngs(0, 3)
        values = [stream.random() for stream in streams]
        assert len(set(values)) == 3

    def test_spawn_rngs_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_save_load_json_roundtrip(self, tmp_path):
        payload = {"a": np.float32(1.5), "b": np.arange(3), "c": {"d": [np.int64(2)]}}
        path = save_json(payload, tmp_path / "out.json")
        loaded = load_json(path)
        assert loaded["a"] == 1.5
        assert loaded["b"] == [0, 1, 2]
        assert loaded["c"]["d"] == [2]

    def test_save_load_parameters(self, tmp_path):
        params = {"w": np.random.default_rng(0).normal(size=(3, 3)).astype(np.float32)}
        path = save_parameters(params, tmp_path / "params.npz")
        loaded = load_parameters(path)
        np.testing.assert_array_equal(loaded["w"], params["w"])

    def test_get_logger_singleton_config(self):
        logger_a = get_logger("repro.test")
        logger_b = get_logger("repro.test")
        assert logger_a is logger_b
