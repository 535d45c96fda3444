"""Figure 6 as a runnable script: FF-INT8 convergence with/without look-ahead.

Trains the 2-hidden-layer MLP with FF-INT8 twice — once with the look-ahead
scheme, once without — and renders the two accuracy-per-epoch curves as an
ASCII chart, the runnable analogue of Figure 6(a).

Usage::

    python examples/lookahead_convergence.py [--epochs N]
"""

from __future__ import annotations

import argparse

from repro import FFInt8Config, FFInt8Trainer, synthetic_mnist
from repro.models import build_mlp
from repro.training.schedules import ConstantLambda, LinearLambda


def train_pair(epochs: int):
    """Train FF-INT8 with and without look-ahead; return both histories."""
    train_set, test_set = synthetic_mnist(num_train=512, num_test=160,
                                          seed=0, image_size=14)
    histories = {}
    for lookahead in (False, True):
        bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=2,
                           hidden_units=64, seed=0)
        config = FFInt8Config(
            epochs=epochs, batch_size=64, lr=0.02,
            # λ ramp scaled so the final λ matches the paper's ~0.13-0.18
            # despite the shorter epoch budget; λ = 0 is no look-ahead.
            lambda_schedule=(LinearLambda(0.0, 0.25 / epochs) if lookahead
                             else ConstantLambda(0.0)),
            overlay_amplitude=2.0, evaluate_every=2, eval_max_samples=160,
            train_eval_max_samples=32, seed=0,
        )
        histories[lookahead] = FFInt8Trainer(config).fit(bundle, train_set, test_set)
    return histories


def ascii_curves(histories, width: int = 60) -> str:
    """Render both accuracy curves on a shared ASCII axis."""
    series = {}
    for lookahead, history in histories.items():
        label = "with look-ahead   " if lookahead else "without look-ahead"
        series[label] = [
            (record.epoch, record.test_accuracy)
            for record in history.records
            if record.test_accuracy is not None
        ]
    lines = ["test accuracy per epoch (each column = one evaluation)"]
    for label, points in series.items():
        bar = "".join(
            str(min(9, int(accuracy * 10))) for _, accuracy in points
        )
        final = points[-1][1] if points else 0.0
        lines.append(f"{label} |{bar:<{width}}| final {final:.3f}")
    lines.append("(digits are accuracy deciles: 0 = <10%, 9 = >=90%)")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=30,
                        help="training epochs for both runs (default 30)")
    args = parser.parse_args()

    histories = train_pair(args.epochs)
    print()
    print(ascii_curves(histories))

    without = histories[False].final_test_accuracy
    with_la = histories[True].final_test_accuracy
    print(f"\nwithout look-ahead: {without:.3f}")
    print(f"with look-ahead:    {with_la:.3f}")
    epochs_to_40 = {
        "without": histories[False].epochs_to_accuracy(0.40),
        "with": histories[True].epochs_to_accuracy(0.40),
    }
    print(f"epochs to reach 40% accuracy: {epochs_to_40}")


if __name__ == "__main__":
    main()
