"""Tests for the serving-related CLI commands and version metadata."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main


class TestVersion:
    def test_version_flag_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_version_consistent_with_setup_py(self):
        setup_py = Path(__file__).resolve().parents[1] / "setup.py"
        match = re.search(r'VERSION\s*=\s*"([^"]+)"', setup_py.read_text())
        assert match, "setup.py must pin VERSION"
        assert match.group(1) == repro.__version__

    def test_version_is_pep440ish(self):
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


class TestModelsCommand:
    def test_lists_models_with_parameter_counts(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "mlp-mini" in out
        assert "parameters" in out
        # every registry row carries a formatted parameter count
        for line in out.splitlines()[2:]:
            assert re.search(r"\d{1,3}(,\d{3})*", line), line


class TestExportCommand:
    def test_export_trains_and_writes_artifact(self, tmp_path, capsys):
        code = main([
            "export", "--model", "mlp-mini", "--epochs", "1",
            "--train-samples", "64", "--test-samples", "32",
            "--output", str(tmp_path / "artifact"),
        ])
        assert code == 0
        assert (tmp_path / "artifact.npz").exists()
        assert (tmp_path / "artifact.json").exists()
        out = capsys.readouterr().out
        assert "exported inference artifact" in out

        metadata = json.loads((tmp_path / "artifact.json").read_text())
        assert metadata["registry_name"] == "mlp-mini"
        assert metadata["bits"] == 8

    def test_export_from_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "run"
        code = main([
            "train", "--model", "mlp-mini", "--algorithm", "FF-INT8",
            "--epochs", "1", "--train-samples", "64", "--test-samples", "32",
            "--image-size", "14", "--save-checkpoint", str(ckpt),
        ])
        assert code == 0
        assert ckpt.with_suffix(".npz").exists()

        code = main([
            "export", "--model", "mlp-mini", "--checkpoint", str(ckpt),
            "--output", str(tmp_path / "from_ckpt"),
        ])
        assert code == 0
        assert (tmp_path / "from_ckpt.npz").exists()
        metadata = json.loads((tmp_path / "from_ckpt.json").read_text())
        assert metadata["source"] == "ff_checkpoint"


class TestServeBenchCommand:
    def test_serve_bench_reports_both_modes(self, tmp_path, capsys):
        artifact = tmp_path / "artifact"
        main([
            "export", "--model", "mlp-mini", "--epochs", "1",
            "--train-samples", "64", "--test-samples", "32",
            "--output", str(artifact),
        ])
        capsys.readouterr()
        code = main([
            "serve-bench", "--artifact", str(artifact),
            "--requests", "48", "--max-batch-size", "16",
            "--test-samples", "32",
            "--output", str(tmp_path / "bench.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "single-sample" in out
        assert "micro-batched" in out
        assert "speedup" in out

        summary = json.loads((tmp_path / "bench.json").read_text())
        assert summary["requests"] == 48
        assert summary["single"]["throughput_rps"] > 0
        assert summary["batched"]["throughput_rps"] > 0
        assert {"p50", "p95", "p99"} <= set(summary["batched"])

    def test_serve_bench_batched_predictions_match_engine(self, tmp_path,
                                                          capsys):
        artifact = tmp_path / "artifact"
        main([
            "export", "--model", "mlp-mini", "--epochs", "1",
            "--train-samples", "48", "--test-samples", "24",
            "--output", str(artifact),
        ])
        capsys.readouterr()
        main([
            "serve-bench", "--artifact", str(artifact), "--requests", "24",
            "--test-samples", "24",
        ])
        out = capsys.readouterr().out
        assert "WARNING" not in out


class _LabelEngine:
    """Stub engine: every prediction is its label (registry CLI tests)."""

    def __init__(self, label):
        self.label = int(label)
        self.input_shape = (3,)

    def predict(self, batch):
        return np.full(len(batch), self.label, dtype=np.int64)

    def close(self):
        pass


class TestRegistryCommand:
    def test_parser_requires_port_and_validates_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["registry", "list"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["registry", "bogus", "--port", "1"])
        args = build_parser().parse_args([
            "registry", "canary-start", "m@v2", "--port", "7071",
            "--fraction", "0.25", "--canary-seed", "9", "--force",
        ])
        assert args.command == "registry"
        assert args.action == "canary-start"
        assert args.ref == "m@v2"
        assert args.fraction == 0.25
        assert args.canary_seed == 9
        assert args.force

    def test_ref_needing_actions_reject_missing_ref(self):
        with pytest.raises(SystemExit, match="needs a model ref"):
            main(["registry", "swap", "--port", "1"])
        with pytest.raises(SystemExit, match="needs a model ref"):
            main(["registry", "canary-start", "--port", "1"])

    def test_serve_bench_rejects_malformed_model_ref(self):
        with pytest.raises(SystemExit, match="empty version"):
            main(["serve-bench", "--model", "mlp-mini@"])

    def test_live_admin_against_registry_frontend(self, capsys):
        from repro.serve import (
            CanaryController,
            FrontendConfig,
            InferenceArtifact,
            ModelRegistry,
            ServeFrontend,
        )

        def artifact(fill):
            return InferenceArtifact(
                tensors={"w": np.full((4,), float(fill),
                                      dtype=np.float32)},
                metadata={"model_name": "stub"},
            )

        registry = ModelRegistry()
        registry.register("m", "v1", artifact(1.0), engine=_LabelEngine(1))
        registry.register("m", "v2", artifact(2.0), engine=_LabelEngine(2))
        controller = CanaryController(registry, window=16, min_samples=4,
                                      holdoff_base_s=0.1)
        config = FrontendConfig(num_replicas=1, max_wait_ms=0.5, port=0,
                                cache_capacity=0)
        with ServeFrontend(registry=registry, config=config,
                           controller=controller) as frontend:
            port = str(frontend.port)
            assert main(["registry", "list", "--port", port]) == 0
            assert "m: serving v1 [v1 *, v2]" in capsys.readouterr().out
            assert main(["registry", "swap", "m@v2", "--port", port]) == 0
            assert "swapped: v1 -> v2" in capsys.readouterr().out
            assert main(["registry", "canary-start", "m@v1", "--port",
                         port, "--fraction", "0.5", "--force"]) == 0
            assert "canary started" in capsys.readouterr().out
            assert main(["registry", "canary-status", "m", "--port",
                         port]) == 0
            status = json.loads(capsys.readouterr().out)
            assert status[0]["candidate"] == "v1"
            assert status[0]["fraction"] == 0.5
            assert main(["registry", "canary-rollback", "m", "--port",
                         port]) == 0
            assert "canary rolled back" in capsys.readouterr().out
            assert main(["registry", "canary-rollback", "m", "--port",
                         port]) == 0
            assert "no active canary" in capsys.readouterr().out
            assert main(["registry", "list", "--port", port]) == 0
            assert "m: serving v2" in capsys.readouterr().out
