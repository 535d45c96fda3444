"""Goodness-based classification for Forward-Forward trained networks.

A network trained with FF has no softmax head.  To classify an input, every
candidate label is overlaid onto the input in turn; the network's accumulated
goodness across its hidden layers is evaluated for each overlay and the label
with the highest total goodness wins (Hinton 2022, Section III of the paper).
When the network has two or more hidden layers the first layer's goodness is
excluded from the sum — the first layer mostly encodes the overlay itself and
including it hurts discrimination (standard FF practice).

The traversal itself is a compiled :class:`~repro.runtime.plan.ExecutionPlan`
run by a :class:`~repro.runtime.executor.PlanExecutor` — the same execution
layer the trainer and the serving engine use.  The classifier probes one
label overlay at a time (``fold_labels=False``): training-time INT8 engines
quantize activations with one scale per *batch*, so folding the overlays
into the batch dimension would change the scales; the frozen serving kernels
quantize per row and use the folded form.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.goodness import GoodnessFunction, SumSquaredGoodness
from repro.data.dataset import ArrayDataset
from repro.data.overlay import LabelOverlay
from repro.nn.module import Module
from repro.runtime.dispatch import BackendLike
from repro.runtime.executor import PlanExecutor


class FFGoodnessClassifier:
    """Label-probing classifier over a stack of FF-trained units."""

    def __init__(
        self,
        units: Sequence[Module],
        overlay: LabelOverlay,
        goodness: Optional[GoodnessFunction] = None,
        flatten_input: bool = False,
        skip_first_layer: Optional[bool] = None,
        backend: BackendLike = None,
    ) -> None:
        if not units:
            raise ValueError("classifier needs at least one trained unit")
        self.units = list(units)
        self.overlay = overlay
        self.goodness = goodness if goodness is not None else SumSquaredGoodness()
        self.flatten_input = flatten_input
        if skip_first_layer is None:
            skip_first_layer = len(self.units) >= 2
        self.skip_first_layer = skip_first_layer
        self.executor = PlanExecutor.for_units(
            self.units, flatten_input=flatten_input, backend=backend
        )

    # ------------------------------------------------------------------ #
    def goodness_matrix(self, inputs: np.ndarray) -> np.ndarray:
        """Goodness score for every (sample, candidate label) pair.

        Returns an array of shape ``(N, num_classes)``; ``predict`` is its
        row-wise argmax.
        """
        return self.executor.goodness_matrix(
            inputs, self.overlay, self.goodness, self.skip_first_layer,
            fold_labels=False,
        )

    # ------------------------------------------------------------------ #
    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Predicted labels for a batch of raw (un-overlaid) inputs."""
        return np.argmax(self.goodness_matrix(inputs), axis=1)

    def accuracy(
        self,
        dataset: ArrayDataset,
        batch_size: int = 128,
        max_samples: Optional[int] = None,
    ) -> float:
        """Top-1 accuracy of goodness-based prediction on ``dataset``."""
        total = len(dataset) if max_samples is None else min(max_samples, len(dataset))
        if total == 0:
            return 0.0
        correct = 0
        for start in range(0, total, batch_size):
            stop = min(start + batch_size, total)
            images = dataset.images[start:stop]
            labels = dataset.labels[start:stop]
            predictions = self.predict(images)
            correct += int(np.sum(predictions == labels))
        return correct / total

    def layer_goodness_profile(self, inputs: np.ndarray) -> List[np.ndarray]:
        """Per-unit goodness values for diagnostics (one array per unit)."""
        activations = self.executor.unit_outputs(inputs)
        return [self.goodness.value(activity) for activity in activations]
