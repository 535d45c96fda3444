"""Forward-Forward trainer (FP32 or INT8, λ-scheduled look-ahead).

One engine drives every FF variant discussed in the paper, all trained the
way Algorithm 1 does: one forward pass per mini-batch through every unit,
then one backward sweep that updates all units at once.

* ``FFConfig.int8`` picks the arithmetic: FP32 (Hinton 2022) or FF-INT8's
  INT8 forward and weight-gradient GEMMs with INT8-quantized activity
  gradients (Section IV-B);
* ``FFConfig.lambda_schedule`` is the look-ahead (Section IV-C): the sweep
  of :mod:`repro.core.lookahead` trains on the λ-augmented loss with λ taken
  from the schedule each epoch.  ``ConstantLambda(0.0)``, the default, is
  plain layer-local FF.

:mod:`repro.core.ff_int8` holds the paper's FF-INT8 preset: INT8 with λ
ramped from 0 by 0.001 per epoch.

Forward passes execute through the compiled plan of :mod:`repro.runtime`
(one :class:`~repro.runtime.executor.PlanExecutor` per fit, kernel backend
selectable via ``FFConfig.backend``); the backward sweep walks the unit
modules whose caches the plan filled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.classifier import FFGoodnessClassifier
from repro.core.goodness import GoodnessFunction, build_goodness
from repro.core.lookahead import (
    accumulate_lookahead_gradients,
    unit_losses_and_grads,
)
from repro.core.losses import FFLoss
from repro.data.dataset import ArrayDataset, DataLoader
from repro.data.overlay import LabelOverlay
from repro.models.base import ModelBundle
from repro.nn.module import Module
from repro.quant.prepare import prepare_int8
from repro.quant.qconfig import QuantConfig
from repro.runtime import dispatch
from repro.runtime.executor import PlanExecutor
from repro.training.history import EpochRecord, TrainingHistory
from repro.training.optim import Optimizer, build_optimizer
from repro.training.schedules import ConstantLambda, LambdaSchedule
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, new_rng

logger = get_logger("repro.core.ff")


@dataclass
class FFConfig:
    """Configuration of a Forward-Forward training run."""

    epochs: int = 60
    batch_size: int = 32
    lr: float = 0.02
    optimizer: str = "adam"
    theta: float = 2.0
    goodness: str = "sum_squares"
    overlay_amplitude: float = 1.0
    int8: bool = False
    quant_config: QuantConfig = field(default_factory=QuantConfig)
    lambda_schedule: LambdaSchedule = field(
        default_factory=lambda: ConstantLambda(0.0)
    )
    evaluate_every: int = 1
    eval_max_samples: Optional[int] = 256
    train_eval_max_samples: Optional[int] = 128
    seed: int = 0
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.backend is not None:
            dispatch.get_backend(self.backend)  # fail fast on typos

    def algorithm_name(self) -> str:
        """Human-readable algorithm label; the per-epoch λ is in the history."""
        return "FF-INT8" if self.int8 else "FF-FP32"


class ForwardForwardTrainer:
    """Trains a :class:`ModelBundle`'s FF units with the Forward-Forward rule."""

    def __init__(self, config: Optional[FFConfig] = None) -> None:
        self.config = config if config is not None else FFConfig()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def fit(
        self,
        bundle: ModelBundle,
        train_set: ArrayDataset,
        test_set: Optional[ArrayDataset] = None,
        rng: RngLike = None,
    ) -> TrainingHistory:
        """Train the bundle's FF units; returns the per-epoch history.

        The returned history's metadata contains the trained units and the
        goodness classifier, so callers can run further evaluation.
        """
        config = self.config
        rng = new_rng(rng if rng is not None else config.seed)
        units = bundle.ff_units()
        if config.int8:
            for index, unit in enumerate(units):
                prepare_int8(unit, config.quant_config, seed=config.seed + index)

        goodness = build_goodness(config.goodness)
        ff_loss = FFLoss(theta=config.theta)
        overlay = LabelOverlay(
            num_classes=train_set.num_classes, amplitude=config.overlay_amplitude
        )
        classifier = FFGoodnessClassifier(
            units, overlay, goodness=goodness, flatten_input=bundle.flatten_input,
            backend=config.backend,
        )
        # One compiled plan drives every training forward pass; the backward
        # sweep still walks the unit modules, whose caches the plan filled.
        executor = PlanExecutor.for_units(units, backend=config.backend)
        optimizers = self._build_optimizers(units)

        history = TrainingHistory(
            algorithm=config.algorithm_name(),
            model_name=bundle.name,
            dataset_name=train_set.name,
            metadata={
                "epochs": config.epochs,
                "batch_size": config.batch_size,
                "lr": config.lr,
                "theta": config.theta,
                "int8": config.int8,
            },
        )

        with dispatch.use_backend(config.backend):
            self._run_epochs(
                executor, units, optimizers, goodness, ff_loss, overlay,
                classifier, bundle, train_set, test_set, history, rng,
            )

        history.metadata["units"] = units
        history.metadata["classifier"] = classifier
        return history

    # ------------------------------------------------------------------ #
    # training loop (Algorithm 1)
    # ------------------------------------------------------------------ #
    def _run_epochs(
        self, executor, units, optimizers, goodness, ff_loss, overlay,
        classifier, bundle, train_set, test_set, history, rng,
    ) -> None:
        config = self.config
        loader = DataLoader(
            train_set, batch_size=config.batch_size, shuffle=True, rng=rng
        )
        for epoch in range(config.epochs):
            lam = config.lambda_schedule.value_at(epoch)
            epoch_losses: List[float] = []
            for images, labels in loader:
                inputs = self._prepare_inputs(images, bundle)
                pos = overlay.positive(inputs, labels)
                neg, _ = overlay.negative(inputs, labels, rng=rng)
                loss = self._train_step_all_layers(
                    executor, units, optimizers, goodness, ff_loss, pos, neg,
                    lam,
                )
                epoch_losses.append(loss)
            self._record_epoch(
                history, classifier, train_set, test_set, epoch,
                float(np.mean(epoch_losses)) if epoch_losses else 0.0, lam,
            )

    def _train_step_all_layers(
        self, executor, units, optimizers, goodness, ff_loss, pos_batch,
        neg_batch, lam,
    ) -> float:
        """One combined positive + negative mini-batch update of every layer.

        Gradients from the positive pass (raise goodness above θ) and the
        negative pass (push goodness below θ) are accumulated before a single
        optimizer step, so neither objective can run away and collapse the
        layer activities — the same balanced update used by reference FF
        implementations.
        """
        for unit in units:
            unit.train()
            unit.set_activation_caching(True)
        for optimizer in optimizers:
            optimizer.zero_grad()

        step_losses: List[float] = []
        for positive, batch in ((True, pos_batch), (False, neg_batch)):
            activations = executor.unit_outputs(batch)
            losses, activity_grads = unit_losses_and_grads(
                activations, goodness, ff_loss, positive
            )
            # The sweep also clears each unit's activation cache.
            accumulate_lookahead_gradients(units, activity_grads, lam)
            step_losses.append(float(np.mean(losses)))

        for optimizer in optimizers:
            optimizer.step()
        return float(np.mean(step_losses))

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    def _build_optimizers(self, units: Sequence[Module]) -> List[Optimizer]:
        config = self.config
        kwargs = {"momentum": 0.9} if config.optimizer.lower() == "sgd" else {}
        return [
            build_optimizer(config.optimizer, unit.parameters(), lr=config.lr, **kwargs)
            for unit in units
        ]

    def _prepare_inputs(self, images: np.ndarray, bundle: ModelBundle) -> np.ndarray:
        if bundle.flatten_input:
            return images.reshape(images.shape[0], -1)
        return images

    def _record_epoch(
        self, history, classifier, train_set, test_set, epoch, mean_loss, lam,
    ) -> None:
        config = self.config
        test_acc = None
        train_acc = 0.0
        if (epoch + 1) % config.evaluate_every == 0:
            train_acc = classifier.accuracy(
                train_set, max_samples=config.train_eval_max_samples
            )
            if test_set is not None:
                test_acc = classifier.accuracy(
                    test_set, max_samples=config.eval_max_samples
                )
        history.append(
            EpochRecord(
                epoch=epoch + 1,
                train_loss=mean_loss,
                train_accuracy=train_acc,
                test_accuracy=test_acc,
                lr=config.lr,
                lambda_value=lam,
            )
        )
        logger.debug(
            "%s epoch %d: loss=%.4f train_acc=%.3f test_acc=%s lambda=%.4f",
            history.algorithm, epoch + 1, mean_loss, train_acc,
            f"{test_acc:.3f}" if test_acc is not None else "n/a", lam,
        )
