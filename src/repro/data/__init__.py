"""Datasets, loaders and Forward-Forward sample construction.

All datasets are generated offline and deterministically: synthetic
stand-ins with the real MNIST/CIFAR-10 tensor shapes, so every experiment
runs without a download (see :mod:`repro.data.synthetic`).
"""

from repro.data.cifar10 import CIFAR10_SPEC, synthetic_cifar10
from repro.data.dataset import ArrayDataset, DataLoader
from repro.data.mnist import MNIST_SPEC, synthetic_mnist
from repro.data.overlay import LabelOverlay
from repro.data.synthetic import (
    SyntheticImageGenerator,
    SyntheticSpec,
    make_dataset_pair,
)
from repro.data.transforms import (
    Compose,
    Normalize,
    RandomCropPad,
    RandomHorizontalFlip,
    flatten_images,
)

__all__ = [
    "ArrayDataset",
    "DataLoader",
    "LabelOverlay",
    "SyntheticSpec",
    "SyntheticImageGenerator",
    "make_dataset_pair",
    "synthetic_mnist",
    "synthetic_cifar10",
    "MNIST_SPEC",
    "CIFAR10_SPEC",
    "Compose",
    "Normalize",
    "RandomHorizontalFlip",
    "RandomCropPad",
    "flatten_images",
]
