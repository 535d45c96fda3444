"""One FF-INT8 training run of ``mobilenet_v2-mini``, in its own process.

Protocol (JSON lines on stdout, commands on stdin)::

    -> {"event": "ready"}        first training step is about to run
    <- "go" | "quit"
    -> {"event": "result", ...}  after the last timed step

Epoch 0 runs at λ = 0 and skips the look-ahead sweep, so it is warm-up;
timing starts when the schedule first yields λ > 0.  A step's time runs
from the end of the previous step, so it includes the data loader and the
label overlay, and samples/s is timed samples over the timed window.
The run stops after ``--seconds`` of timed steps or after ``--steps``
timed steps, whichever is given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

MODEL = "mobilenet_v2-mini"
IMAGE_SIZE = 16
BATCH_SIZE = 64
TRAIN_SAMPLES = 256

#: Training-only spans; with the kernel spans their self times add up to
#: the step time.
TRAIN_SPANS = ("core.lookahead.sweep", "core.lookahead.loss_grad",
               "training.optim.step", "data.overlay")


class _Stop(Exception):
    """Raised from the step wrapper to end ``fit`` early."""


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--steps", type=int)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from layers import LayerTracer, install_training

        tracer = LayerTracer()
        install_training(tracer)

    from repro import FFInt8Config, FFInt8Trainer, build_model
    from repro.data import synthetic_cifar10

    train_set, _ = synthetic_cifar10(
        num_train=TRAIN_SAMPLES, num_test=BATCH_SIZE, seed=args.seed,
        image_size=IMAGE_SIZE,
    )
    bundle = build_model(
        MODEL, input_shape=(3, IMAGE_SIZE, IMAGE_SIZE), seed=args.seed)
    # Defaults of the paper's algorithm (stochastic rounding, chained
    # look-ahead, λ ramp); evaluation never runs inside the timed phase.
    config = FFInt8Config(epochs=1000, batch_size=BATCH_SIZE,
                          evaluate_every=10 ** 6, seed=args.seed)
    trainer = FFInt8Trainer(config)

    state = {"ready": False, "window_at": None, "last_end": None}
    step_s, losses, lambdas = [], [], []

    schedule_value_at = config.lambda_schedule.value_at

    def value_at(epoch: int) -> float:
        lam = schedule_value_at(epoch)
        if lam > 0.0 and state["window_at"] is None:
            state["window_at"] = state["last_end"] = time.perf_counter()
            if tracer is not None:
                tracer.recording = True
        return lam

    config.lambda_schedule.value_at = value_at
    train_step = trainer._train_step_all_layers

    def timed_step(*step_args):
        if not state["ready"]:
            state["ready"] = True
            emit({"event": "ready"})
            if sys.stdin.readline().strip() != "go":
                raise _Stop
        lam = step_args[-1]
        loss = train_step(*step_args)
        if state["window_at"] is None:
            return loss
        end = time.perf_counter()
        step_s.append(end - state["last_end"])
        state["last_end"] = end
        losses.append(loss)
        lambdas.append(lam)
        if (args.steps is not None and len(step_s) >= args.steps) or (
                args.seconds is not None
                and end - state["window_at"] >= args.seconds):
            if tracer is not None:
                tracer.recording = False
            raise _Stop
        return loss

    trainer._train_step_all_layers = timed_step
    try:
        trainer.fit(bundle, train_set)
    except _Stop:
        pass
    if not step_s:
        return 0
    result = {
        "event": "result",
        "step_s": step_s,
        "window_s": state["last_end"] - state["window_at"],
        "samples": BATCH_SIZE * len(step_s),
        "nonfinite_steps": sum(not math.isfinite(x) for x in losses),
        "final_loss": losses[-1],
        "min_lambda": min(lambdas),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = training_layers(tracer, len(step_s),
                                           sum(step_s))
    emit(result)
    return 0


def training_layers(tracer, steps: int, total_s: float) -> dict:
    """Per-step layer metrics from the traced timed window."""
    from layers import kernel_metrics, self_ms

    layers = kernel_metrics(tracer, per=steps)
    layers.update(self_ms(tracer, TRAIN_SPANS, steps))
    layers["runtime.int8_macs"] = (
        tracer.counters.get("runtime.int8_macs", 0.0) / steps)
    covered_ms = sum(value for name, value in layers.items()
                     if name.endswith("_ms"))
    layers["trace.cover_frac"] = covered_ms * steps / (1000.0 * total_s)
    return layers


if __name__ == "__main__":
    sys.exit(main())
