"""Backpropagation trainer driving the FP32 baseline and all INT8 BP variants.

The trainer differences between BP-FP32, BP-INT8, BP-UI8 and BP-GDAI8 are
confined to (a) the gradient transform applied before the optimizer step and
(b) whether the forward/weight-gradient GEMMs execute on the INT8 engine.
Everything else — mini-batching, the cross-entropy objective, evaluation — is
shared, which mirrors how the paper treats them as one family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader
from repro.models.base import ModelBundle
from repro.nn.losses import CrossEntropyLoss, accuracy
from repro.quant.prepare import prepare_int8
from repro.quant.qconfig import QuantConfig
from repro.training.gradient_transforms import GradientTransform
from repro.training.history import EpochRecord, TrainingHistory
from repro.training.metrics import evaluate_classifier
from repro.training.optim import build_optimizer
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, new_rng

logger = get_logger("repro.training.bp")


@dataclass
class BPConfig:
    """Configuration of a backpropagation training run."""

    epochs: int = 10
    batch_size: int = 32
    lr: float = 0.01
    optimizer: str = "sgd"
    momentum: float = 0.9
    weight_decay: float = 0.0
    gradient_transform: Optional[GradientTransform] = None
    int8_forward: bool = False
    quantize_backward_signal: Optional[bool] = None
    quant_config: QuantConfig = field(default_factory=QuantConfig)
    evaluate_every: int = 1
    divergence_loss_threshold: float = 50.0
    seed: int = 0

    def algorithm_name(self) -> str:
        """Human-readable algorithm label (matches the paper's table rows)."""
        transform = self.gradient_transform
        if transform is None or transform.name == "fp32":
            return "BP-FP32"
        return f"BP-{transform.name.upper().replace('INT8-DIRECT', 'INT8')}"


class BPTrainer:
    """Mini-batch SGD/Adam trainer with pluggable gradient quantization."""

    def __init__(self, config: Optional[BPConfig] = None) -> None:
        self.config = config if config is not None else BPConfig()

    # ------------------------------------------------------------------ #
    def fit(
        self,
        bundle: ModelBundle,
        train_set: ArrayDataset,
        test_set: Optional[ArrayDataset] = None,
        rng: RngLike = None,
    ) -> TrainingHistory:
        """Train the bundle's end-to-end model and return the metric history."""
        config = self.config
        rng = new_rng(rng if rng is not None else config.seed)
        model = bundle.bp_model()
        model.train()
        model.set_activation_caching(True)
        if config.int8_forward:
            prepare_int8(model, config.quant_config, seed=config.seed)

        # INT8 BP baselines quantize the error signal that flows backward
        # between layers; this is the path along which quantization error
        # accumulates with depth (Section IV-A of the paper).
        quantize_signal = config.quantize_backward_signal
        if quantize_signal is None:
            quantize_signal = (
                config.int8_forward and config.gradient_transform is not None
            )
        if quantize_signal and config.gradient_transform is not None:
            transform = config.gradient_transform
            model.inter_layer_grad_transform = (
                lambda grad: transform("backward_signal", grad)
            )

        optimizer = self._build_optimizer(model)
        loss_fn = CrossEntropyLoss(train_set.num_classes)
        loader = DataLoader(
            train_set, batch_size=config.batch_size, shuffle=True, rng=rng
        )
        transform = config.gradient_transform

        history = TrainingHistory(
            algorithm=config.algorithm_name(),
            model_name=bundle.name,
            dataset_name=train_set.name,
            metadata={
                "epochs": config.epochs,
                "batch_size": config.batch_size,
                "lr": config.lr,
                "int8_forward": config.int8_forward,
            },
        )

        for epoch in range(config.epochs):
            epoch_loss, epoch_acc, diverged = self._run_epoch(
                model, loader, loss_fn, optimizer, transform, bundle.flatten_input
            )
            test_acc = None
            if test_set is not None and (epoch + 1) % config.evaluate_every == 0:
                _, test_acc = evaluate_classifier(
                    model,
                    test_set,
                    batch_size=config.batch_size,
                    flatten_input=bundle.flatten_input,
                )
            history.append(
                EpochRecord(
                    epoch=epoch + 1,
                    train_loss=epoch_loss,
                    train_accuracy=epoch_acc,
                    test_accuracy=test_acc,
                    lr=optimizer.lr,
                )
            )
            if diverged:
                history.diverged = True
            logger.debug(
                "%s epoch %d: loss=%.4f train_acc=%.3f test_acc=%s",
                history.algorithm,
                epoch + 1,
                epoch_loss,
                epoch_acc,
                f"{test_acc:.3f}" if test_acc is not None else "n/a",
            )

        history.metadata["trained_model"] = model
        return history

    # ------------------------------------------------------------------ #
    def _build_optimizer(self, model):
        config = self.config
        kwargs = {}
        if config.optimizer.lower() == "sgd":
            kwargs = {
                "momentum": config.momentum,
                "weight_decay": config.weight_decay,
            }
        elif config.weight_decay:
            kwargs = {"weight_decay": config.weight_decay}
        return build_optimizer(
            config.optimizer, model.parameters(), lr=config.lr, **kwargs
        )

    def _run_epoch(
        self, model, loader, loss_fn, optimizer, transform, flatten_input
    ) -> tuple[float, float, bool]:
        config = self.config
        total_loss = 0.0
        total_correct = 0.0
        total_samples = 0
        diverged = False
        for images, labels in loader:
            inputs = images.reshape(images.shape[0], -1) if flatten_input else images
            logits = model(inputs)
            loss, grad_logits = loss_fn(logits, labels)
            if not np.isfinite(loss) or loss > config.divergence_loss_threshold:
                diverged = True
            optimizer.zero_grad()
            model.backward(grad_logits)
            if transform is not None:
                transform.reset()
                for name, param in model.named_parameters():
                    if param.grad is not None:
                        param.grad = transform(name, param.grad)
                optimizer.set_lr_scale(transform.lr_scale())
            optimizer.step()
            model.clear_cache()

            total_loss += loss * labels.shape[0]
            total_correct += accuracy(logits, labels) * labels.shape[0]
            total_samples += labels.shape[0]
        if total_samples == 0:
            return 0.0, 0.0, diverged
        return total_loss / total_samples, total_correct / total_samples, diverged
