"""FF-INT8 core: the paper's primary contribution.

Contains the goodness functions, the Forward-Forward losses (Equations 1–2),
the look-ahead gradient sweep (Equations 3–4, Algorithm 1), the trainer
(FP32 or INT8, look-ahead set by its λ schedule; λ = 0 is vanilla FF), its
FF-INT8 preset and goodness-based classification.
"""

from repro.core.checkpoint import (
    FFCheckpoint,
    load_ff_checkpoint,
    restore_classifier,
    restore_units,
    save_ff_checkpoint,
)
from repro.core.classifier import FFGoodnessClassifier
from repro.core.ff_int8 import FFInt8Config, FFInt8Trainer
from repro.core.ff_trainer import FFConfig, ForwardForwardTrainer
from repro.core.goodness import (
    GoodnessFunction,
    MeanSquaredGoodness,
    SumSquaredGoodness,
    build_goodness,
)
from repro.core.lookahead import (
    accumulate_lookahead_gradients,
    unit_losses_and_grads,
)
from repro.core.losses import (
    FFLoss,
    negative_loss,
    negative_loss_grad,
    positive_loss,
    positive_loss_grad,
)
from repro.core.readout import ReadoutConfig, SoftmaxReadout
from repro.runtime.executor import forward_through_units

__all__ = [
    "FFConfig",
    "ForwardForwardTrainer",
    "FFInt8Config",
    "FFInt8Trainer",
    "FFGoodnessClassifier",
    "GoodnessFunction",
    "SumSquaredGoodness",
    "MeanSquaredGoodness",
    "build_goodness",
    "FFLoss",
    "positive_loss",
    "negative_loss",
    "positive_loss_grad",
    "negative_loss_grad",
    "forward_through_units",
    "unit_losses_and_grads",
    "accumulate_lookahead_gradients",
    "SoftmaxReadout",
    "ReadoutConfig",
    "FFCheckpoint",
    "save_ff_checkpoint",
    "load_ff_checkpoint",
    "restore_units",
    "restore_classifier",
]
