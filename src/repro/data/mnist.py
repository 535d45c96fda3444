"""MNIST-shaped synthetic dataset (1x28x28 grayscale, 10 classes).

The paper trains its MLP experiments (Table I, Table IV, part of Table V and
Figure 6a) on MNIST.  This module provides an offline, deterministic stand-in
with the exact tensor shape, so the experiments run without a download.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Tuple

from repro.data.dataset import ArrayDataset
from repro.data.synthetic import SyntheticSpec, make_dataset_pair

MNIST_SPEC = SyntheticSpec(
    name="synthetic-mnist",
    channels=1,
    height=28,
    width=28,
    num_classes=10,
    blobs_per_class=5,
    noise_std=0.15,
    jitter_std=1.2,
)


def synthetic_mnist(
    num_train: int = 2000,
    num_test: int = 500,
    seed: int = 0,
    image_size: int = 28,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Return (train, test) MNIST-shaped datasets.

    ``image_size`` shrinks the spatial resolution (e.g. 14 for the reduced
    "mini" experiments) while keeping the class structure; 28 reproduces the
    true MNIST shape.
    """
    spec = MNIST_SPEC
    if image_size != MNIST_SPEC.height:
        spec = replace(MNIST_SPEC, height=image_size, width=image_size,
                       name=f"synthetic-mnist-{image_size}")
    return make_dataset_pair(spec, num_train, num_test, seed=seed)
