"""Rounding modes for quantization.

Stochastic rounding (Gupta et al., ICML 2015) rounds a real value up with
probability equal to its fractional part, making the rounding unbiased in
expectation.  The paper applies it when quantizing layer inputs and gradients
(Section IV-B, Figure 4).

:func:`round_stochastic` uses the form INT8 accelerators build: a random
``THRESHOLD_BITS``-bit integer threshold ``r`` is added below the binary
point and the sum is floored, ``floor(x + r * 2**-16)``, in float32.  ``x``
rounds up exactly when ``r * 2**-16 >= 1 - frac(x)``, which happens with
probability ``frac(x)`` rounded down to a multiple of ``2**-16``; the
float32 addition moves that by less than one more threshold step, so for
``|x| < 2**8`` (every INT8 level) the bias ``E[round(x)] - x`` is below
``2**-16`` of a level.  Each element takes 16 bits of the generator's raw
64-bit output (``rng.bit_generator.random_raw``, four elements per word, in
native byte order), so rounding ``n`` values advances the generator by
``ceil(n / 4)`` words.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.rng import RngLike, new_rng

#: Random bits per element of :func:`round_stochastic`: one ``uint16``
#: each, four from every 64-bit ``random_raw`` word.
THRESHOLD_BITS = 16
_THRESHOLD_STEP = np.float32(2.0 ** -THRESHOLD_BITS)


def round_nearest(values: np.ndarray) -> np.ndarray:
    """Round half away from zero (matches common fixed-point hardware)."""
    return np.sign(values) * np.floor(np.abs(values) + 0.5)


def round_stochastic(
    values: np.ndarray, rng: RngLike = None, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Stochastic rounding with random 16-bit thresholds, in float32.

    Returns ``floor(values + r * 2**-16)`` as float32, ``r`` drawn as
    described in the module docstring, in C order of ``values``.  ``out``
    is an optional float32 buffer of ``values``' shape for the result; it
    must not overlap ``values``.
    """
    rng = new_rng(rng)
    values = np.asarray(values, dtype=np.float32)
    words = rng.bit_generator.random_raw(-(-values.size // 4))
    draws = words.view(np.uint16)[: values.size]
    if out is None:
        out = np.empty(values.shape, dtype=np.float32)
    np.multiply(draws.reshape(values.shape), _THRESHOLD_STEP, out=out)
    np.add(out, values, out=out)
    return np.floor(out, out=out)


def apply_rounding(
    values: np.ndarray, mode: str, rng: RngLike = None
) -> np.ndarray:
    """Dispatch on rounding ``mode`` ('stochastic' or 'nearest')."""
    if mode == "stochastic":
        return round_stochastic(values, rng=rng)
    if mode == "nearest":
        return round_nearest(values)
    raise ValueError(f"unknown rounding mode {mode!r}")
