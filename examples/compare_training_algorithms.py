"""Compare all five training algorithms of Table V on one small workload.

Trains the same reduced-scale MLP with BP-FP32, BP-INT8, BP-UI8, BP-GDAI8 and
FF-INT8 on synthetic MNIST, then prints measured accuracy next to the Jetson
Orin Nano cost estimates — a miniature, fully-runnable version of Table V.

Usage::

    python examples/compare_training_algorithms.py
"""

from __future__ import annotations

import time

from repro import TrainingCostModel, build_model, profile_bundle, synthetic_mnist
from repro.analysis import format_table
from repro.training import ALL_ALGORITHMS, make_trainer

BP_EPOCHS = 8
FF_EPOCHS = 30


def main() -> None:
    train_set, test_set = synthetic_mnist(num_train=512, num_test=160,
                                          seed=0, image_size=14)
    cost_model = TrainingCostModel()
    profile = profile_bundle(build_model("mlp-mini", hidden_units=64), batch_size=1)

    rows = []
    for algorithm in ALL_ALGORITHMS:
        bundle = build_model("mlp-mini", hidden_units=64)
        epochs = FF_EPOCHS if algorithm == "FF-INT8" else BP_EPOCHS
        if algorithm == "FF-INT8":
            trainer = make_trainer(algorithm, epochs=epochs, batch_size=64,
                                   lr=0.02, overlay_amplitude=2.0,
                                   evaluate_every=epochs, seed=0)
        else:
            trainer = make_trainer(algorithm, epochs=epochs, batch_size=32,
                                   lr=0.05, seed=0)
        started = time.perf_counter()
        history = trainer.fit(bundle, train_set, test_set)
        wall_clock = time.perf_counter() - started

        estimate = cost_model.estimate(profile, algorithm, epochs=epochs,
                                       dataset_size=len(train_set), batch_size=32)
        rows.append([
            algorithm,
            100.0 * (history.final_test_accuracy or 0.0),
            epochs,
            wall_clock,
            estimate.time_s,
            estimate.energy_j,
            estimate.memory_mb,
        ])

    print()
    print(format_table(
        ["algorithm", "accuracy %", "epochs", "wall-clock (s, this machine)",
         "Jetson time (s)", "Jetson energy (J)", "Jetson memory (MB)"],
        rows,
        title="Miniature Table V — measured accuracy + Jetson Orin Nano estimates",
        float_format="{:.1f}",
    ))
    print("\nNote: absolute Jetson numbers come from the calibrated hardware "
          "model (repro.hardware.device); the relative ordering is the result "
          "the paper reports.")


if __name__ == "__main__":
    main()
