"""Deterministic random-number helpers.

Every stochastic component of the library (weight initialization, stochastic
rounding, synthetic dataset generation, data shuffling) draws from an explicit
:class:`numpy.random.Generator` so that experiments are reproducible from a
single integer seed.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]


def new_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` seed, or an existing generator
        (returned unchanged so callers can pass either form).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: RngLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent generators from one seed.

    Child generators are created through :class:`numpy.random.SeedSequence`
    spawning so that streams do not overlap even for adjacent seeds.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        seq = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]
