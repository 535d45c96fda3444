"""Experiment E10 — ablation: exact vs approximate look-ahead gradients.

Equation 4 admits two readings: the exact gradient of the look-ahead loss
propagates goodness signals through later layers ("chained"), while
dropping the cross-layer terms ("local") updates each layer from its own
loss only.  Both cost one backward sweep per mini-batch (see
:mod:`repro.core.lookahead`).  This ablation trains FF-INT8 under both
interpretations plus the no-look-ahead baseline.
"""

from __future__ import annotations

import pytest

from benchmarks._common import bench_epochs, emit, run_once, save_experiment
from repro.analysis import ExperimentResult, format_table
from repro.core import FFInt8Config, FFInt8Trainer
from repro.models import build_mlp
from repro.training.schedules import LinearLambda

EPOCHS = bench_epochs(20)

VARIANTS = {
    "no look-ahead": {"lookahead": False, "lambda_schedule": None},
    "look-ahead, local grads": {
        "lookahead": True, "lookahead_mode": "local",
        "lambda_schedule": LinearLambda(0.0, 0.01),
    },
    "look-ahead, chained grads (exact Eq. 4)": {
        "lookahead": True, "lookahead_mode": "chained",
        "lambda_schedule": LinearLambda(0.0, 0.01),
    },
}


def _run(bench_mnist):
    train, test = bench_mnist
    results = {}
    for name, overrides in VARIANTS.items():
        bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=2,
                           hidden_units=64, seed=0)
        config = FFInt8Config(
            epochs=EPOCHS, batch_size=64, lr=0.02, overlay_amplitude=2.0,
            evaluate_every=EPOCHS, eval_max_samples=128,
            train_eval_max_samples=32, seed=0, **overrides,
        )
        history = FFInt8Trainer(config).fit(bundle, train, test)
        results[name] = 100.0 * history.final_test_accuracy
    return results


@pytest.mark.benchmark(group="ablation")
def test_ablation_lookahead_mode(benchmark, bench_mnist):
    results = run_once(benchmark, lambda: _run(bench_mnist))

    emit("")
    emit(format_table(
        ["variant", "final accuracy %"],
        [[name, acc] for name, acc in results.items()],
        title="Ablation — look-ahead gradient interpretation (FF-INT8, MLP)",
        float_format="{:.1f}",
    ))

    result = ExperimentResult(
        experiment_id="ablation_lookahead_mode",
        paper_reference="Equation 4",
        description="FF-INT8 accuracy with exact (chained) vs approximate "
                    "(local) look-ahead gradients",
        parameters={"epochs": EPOCHS},
        results=results,
    )
    save_experiment(result)

    assert all(0.0 <= acc <= 100.0 for acc in results.values())
    # The exact look-ahead gradient should be at least as good as dropping
    # the cross-layer terms, and both at least competitive with no look-ahead.
    chained = results["look-ahead, chained grads (exact Eq. 4)"]
    assert chained >= results["no look-ahead"] - 2.0
