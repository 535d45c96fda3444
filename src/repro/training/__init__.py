"""Backpropagation-based trainers and shared training infrastructure.

The Forward-Forward trainers (the paper's contribution) live in
:mod:`repro.core`; this package provides the baselines they are compared
against (BP-FP32, BP-INT8, BP-UI8, BP-GDAI8) plus optimizers, λ schedules,
gradient-quantization transforms, metrics and run histories.
"""

from repro.training.algorithms import (
    ALL_ALGORITHMS,
    BP_ALGORITHMS,
    BP_FP32,
    BP_GDAI8,
    BP_INT8,
    BP_UI8,
    FF_INT8,
    algorithm_properties,
    make_bp_config,
    make_trainer,
)
from repro.training.bp import BPConfig, BPTrainer
from repro.training.gradient_transforms import (
    DirectInt8Gradient,
    GDAI8Gradient,
    GradientTransform,
    UI8Gradient,
)
from repro.training.history import EpochRecord, TrainingHistory
from repro.training.metrics import evaluate_classifier, prediction_entropy
from repro.training.optim import SGD, Adam, Optimizer, build_optimizer
from repro.training.schedules import ConstantLambda, LambdaSchedule, LinearLambda

__all__ = [
    "BPTrainer",
    "BPConfig",
    "TrainingHistory",
    "EpochRecord",
    "GradientTransform",
    "DirectInt8Gradient",
    "UI8Gradient",
    "GDAI8Gradient",
    "Optimizer",
    "SGD",
    "Adam",
    "build_optimizer",
    "LambdaSchedule",
    "ConstantLambda",
    "LinearLambda",
    "evaluate_classifier",
    "prediction_entropy",
    "make_trainer",
    "make_bp_config",
    "algorithm_properties",
    "ALL_ALGORITHMS",
    "BP_ALGORITHMS",
    "BP_FP32",
    "BP_INT8",
    "BP_UI8",
    "BP_GDAI8",
    "FF_INT8",
]
