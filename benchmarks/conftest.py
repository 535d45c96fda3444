"""Shared fixtures for the benchmark harness (reduced-scale datasets)."""

from __future__ import annotations

import pytest

from benchmarks._common import mark_obs_baseline
from repro.data import synthetic_cifar10, synthetic_mnist


@pytest.fixture(autouse=True)
def _obs_window():
    """Record each benchmark's own telemetry, not the process's history."""
    mark_obs_baseline()


@pytest.fixture(scope="session")
def bench_mnist():
    """MNIST-shaped data at reduced resolution for the MLP experiments."""
    return synthetic_mnist(num_train=512, num_test=160, seed=0, image_size=14)


@pytest.fixture(scope="session")
def bench_cifar():
    """CIFAR-shaped data at reduced resolution for the conv experiments."""
    return synthetic_cifar10(num_train=256, num_test=96, seed=0, image_size=16)
