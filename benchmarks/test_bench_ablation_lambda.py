"""Experiment E7 — ablation: the look-ahead coefficient schedule.

The paper initializes λ to 0 and increases it by 0.001 per epoch
(Section V-A3), arguing that early in training the later layers are too
unoptimized to provide useful feedback.  This ablation compares the paper's
ramp against a fixed λ and against no look-ahead at all.
"""

from __future__ import annotations

import pytest

from benchmarks._common import bench_epochs, emit, run_once, save_experiment
from repro.analysis import ExperimentResult, format_table
from repro.core import FFInt8Config, FFInt8Trainer
from repro.models import build_mlp
from repro.training.schedules import ConstantLambda, LinearLambda

EPOCHS = bench_epochs(18)

VARIANTS = {
    "no look-ahead": ConstantLambda(0.0),
    "fixed lambda=0.05": ConstantLambda(0.05),
    "ramp 0.001/epoch (paper)": LinearLambda(0.0, 0.001),
    "ramp 0.01/epoch": LinearLambda(0.0, 0.01),
}


def _run(bench_mnist):
    train, test = bench_mnist
    accuracies = {}
    for name, schedule in VARIANTS.items():
        bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=2,
                           hidden_units=64, seed=0)
        config = FFInt8Config(
            epochs=EPOCHS, batch_size=64, lr=0.02, overlay_amplitude=2.0,
            evaluate_every=EPOCHS, eval_max_samples=128,
            train_eval_max_samples=32, seed=0, lambda_schedule=schedule,
        )
        history = FFInt8Trainer(config).fit(bundle, train, test)
        accuracies[name] = 100.0 * history.final_test_accuracy
    return accuracies


@pytest.mark.benchmark(group="ablation")
def test_ablation_lambda_schedule(benchmark, bench_mnist):
    accuracies = run_once(benchmark, lambda: _run(bench_mnist))

    emit("")
    emit(format_table(
        ["lambda schedule", "final accuracy %"],
        [[name, acc] for name, acc in accuracies.items()],
        title="Ablation — look-ahead coefficient schedule (FF-INT8, MLP)",
        float_format="{:.1f}",
    ))

    result = ExperimentResult(
        experiment_id="ablation_lambda_schedule",
        paper_reference="Section IV-C / V-A3",
        description="FF-INT8 accuracy under different look-ahead coefficient "
                    "schedules",
        parameters={"epochs": EPOCHS},
        results=accuracies,
    )
    save_experiment(result)

    assert all(0.0 <= acc <= 100.0 for acc in accuracies.values())
    best = max(accuracies.values())
    # Look-ahead (any schedule) should be at least competitive with none.
    assert best >= accuracies["no look-ahead"] - 2.0
