"""Experiment E8 — ablation: stochastic vs nearest rounding in FF-INT8.

Section IV-B quantizes the layer inputs and activity gradients with symmetric
uniform quantization *with stochastic rounding* (Gupta et al. 2015).  This
ablation swaps the rounding mode and also reports the raw quantization bias
that motivates the choice.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks._common import bench_epochs, emit, run_once, save_experiment
from repro.analysis import ExperimentResult, format_table
from repro.core import FFInt8Config, FFInt8Trainer
from repro.models import build_mlp
from repro.quant import QuantConfig, dequantize, quantize

EPOCHS = bench_epochs(18)


def _train(bench_mnist):
    train, test = bench_mnist
    accuracies = {}
    for rounding in ("stochastic", "nearest"):
        bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=2,
                           hidden_units=64, seed=0)
        config = FFInt8Config(
            epochs=EPOCHS, batch_size=64, lr=0.02, overlay_amplitude=2.0,
            quant_config=QuantConfig(bits=8, rounding=rounding),
            evaluate_every=EPOCHS, eval_max_samples=128,
            train_eval_max_samples=32, seed=0,
        )
        history = FFInt8Trainer(config).fit(bundle, train, test)
        accuracies[rounding] = 100.0 * history.final_test_accuracy
    return accuracies


def _rounding_bias() -> tuple[dict, dict]:
    """Bias and mean absolute error of accumulating quantized small updates.

    The bias is how much of the true sum is lost toward zero, averaged over
    coordinates: round-to-nearest flushes sub-step updates, stochastic
    rounding keeps them in expectation.  The absolute error also counts
    stochastic rounding's variance."""
    rng = np.random.default_rng(0)
    small_updates = rng.normal(scale=0.002, size=(200, 1000)).astype(np.float32)
    truth = small_updates.sum(axis=0)
    bias, error = {}, {}
    for rounding in ("stochastic", "nearest"):
        config = QuantConfig(bits=8, rounding=rounding)
        rounding_rng = np.random.default_rng(1)
        # A fixed scale chosen so the updates are sub-step: nearest rounding
        # flushes them to zero, stochastic rounding keeps them in expectation.
        scale = np.float64(0.01)
        accumulated = np.zeros(1000, dtype=np.float64)
        for update in small_updates:
            accumulated += dequantize(
                *quantize(update, config, scale=scale, rng=rounding_rng))
        lost = np.mean((truth - accumulated) * np.sign(truth))
        bias[rounding] = float(abs(lost))
        error[rounding] = float(np.mean(np.abs(accumulated - truth)))
    return bias, error


@pytest.mark.benchmark(group="ablation")
def test_ablation_rounding_mode(benchmark, bench_mnist):
    accuracies = run_once(benchmark, lambda: _train(bench_mnist))
    bias, error = _rounding_bias()

    emit("")
    emit(format_table(
        ["rounding", "FF-INT8 accuracy %", "sub-step accumulation bias",
         "mean |error|"],
        [[name, accuracies[name], bias[name], error[name]] for name in accuracies],
        title="Ablation — rounding mode for FF-INT8 quantization",
        float_format="{:.3f}",
    ))

    result = ExperimentResult(
        experiment_id="ablation_rounding",
        paper_reference="Section IV-B (stochastic rounding)",
        description="FF-INT8 accuracy and small-update accumulation bias and "
                    "mean absolute error for stochastic vs nearest rounding",
        parameters={"epochs": EPOCHS},
        results={"accuracy": accuracies, "bias": bias, "error": error},
    )
    save_experiment(result)

    assert all(0.0 <= acc <= 100.0 for acc in accuracies.values())
    # Stochastic rounding is unbiased for sub-step updates; round-to-nearest
    # flushes them, which is the motivation cited by the paper.
    assert bias["stochastic"] < bias["nearest"]
