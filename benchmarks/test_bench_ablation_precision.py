"""Experiment E11 — ablation: operand bit-width for Forward-Forward training.

The paper argues FF's layer-local objective makes INT8 training stable.  This
ablation sweeps the quantizer bit-width (4, 8, 16) against the FP32 FF
reference, showing where the precision cliff sits for FF training.
"""

from __future__ import annotations

import pytest

from benchmarks._common import bench_epochs, emit, run_once, save_experiment
from repro.analysis import ExperimentResult, format_table
from repro.core import FFConfig, FFInt8Config, FFInt8Trainer, ForwardForwardTrainer
from repro.models import build_mlp
from repro.quant import QuantConfig
from repro.training.schedules import LinearLambda

EPOCHS = bench_epochs(18)
BIT_WIDTHS = (4, 8, 16)


def _run(bench_mnist):
    train, test = bench_mnist
    results = {}

    fp32_bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=2,
                            hidden_units=64, seed=0)
    fp32_config = FFConfig(
        epochs=EPOCHS, batch_size=64, lr=0.02, int8=False,
        lambda_schedule=LinearLambda(0.0, 0.001), overlay_amplitude=2.0,
        evaluate_every=EPOCHS, eval_max_samples=128,
        train_eval_max_samples=32, seed=0,
    )
    fp32_history = ForwardForwardTrainer(fp32_config).fit(fp32_bundle, train, test)
    results["FP32"] = 100.0 * fp32_history.final_test_accuracy

    for bits in BIT_WIDTHS:
        bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=2,
                           hidden_units=64, seed=0)
        config = FFInt8Config(
            epochs=EPOCHS, batch_size=64, lr=0.02, overlay_amplitude=2.0,
            quant_config=QuantConfig(bits=bits, rounding="stochastic"),
            evaluate_every=EPOCHS, eval_max_samples=128,
            train_eval_max_samples=32, seed=0,
        )
        history = FFInt8Trainer(config).fit(bundle, train, test)
        results[f"INT{bits}"] = 100.0 * history.final_test_accuracy
    return results


@pytest.mark.benchmark(group="ablation")
def test_ablation_precision(benchmark, bench_mnist):
    results = run_once(benchmark, lambda: _run(bench_mnist))

    emit("")
    emit(format_table(
        ["precision", "final accuracy %"],
        [[name, acc] for name, acc in results.items()],
        title="Ablation — Forward-Forward training precision sweep (MLP)",
        float_format="{:.1f}",
    ))

    result = ExperimentResult(
        experiment_id="ablation_precision",
        paper_reference="Section IV-B (INT8 choice)",
        description="FF training accuracy as a function of quantizer bit-width",
        parameters={"epochs": EPOCHS, "bit_widths": list(BIT_WIDTHS)},
        results=results,
    )
    save_experiment(result)

    assert all(0.0 <= acc <= 100.0 for acc in results.values())
    # INT8 FF training must hold up against the FP32 FF reference (the
    # paper's central claim); wider INT16 must not be worse than INT8 by a
    # large margin either.
    assert results["INT8"] >= results["FP32"] - 10.0
    assert results["INT16"] >= results["INT8"] - 10.0
