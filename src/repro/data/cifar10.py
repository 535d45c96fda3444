"""CIFAR-10-shaped synthetic dataset (3x32x32 RGB, 10 classes).

Stand-in for the CIFAR-10 dataset used by the paper's convolutional
benchmarks (MobileNet-V2, EfficientNet-B0, ResNet-18), with the exact tensor
shape, so the experiments run without a download.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Tuple

from repro.data.dataset import ArrayDataset
from repro.data.synthetic import SyntheticSpec, make_dataset_pair

CIFAR10_SPEC = SyntheticSpec(
    name="synthetic-cifar10",
    channels=3,
    height=32,
    width=32,
    num_classes=10,
    blobs_per_class=7,
    noise_std=0.2,
    jitter_std=1.6,
)


def synthetic_cifar10(
    num_train: int = 2000,
    num_test: int = 500,
    seed: int = 0,
    image_size: int = 32,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Return (train, test) CIFAR-10-shaped datasets.

    ``image_size`` shrinks the spatial resolution (e.g. 16 for the reduced
    "mini" experiments); 32 reproduces the true CIFAR-10 shape.
    """
    spec = CIFAR10_SPEC
    if image_size != CIFAR10_SPEC.height:
        spec = replace(CIFAR10_SPEC, height=image_size, width=image_size,
                       name=f"synthetic-cifar10-{image_size}")
    return make_dataset_pair(spec, num_train, num_test, seed=seed)
