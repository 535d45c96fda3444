"""Quantization configuration shared by all INT8 code paths."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.utils.rng import RngLike, new_rng


@dataclass
class QuantConfig:
    """Configuration of the symmetric uniform quantizer (SUQ).

    Attributes
    ----------
    bits:
        Operand bit-width; 8 for the paper's INT8 experiments.  Other widths
        (4, 16) are supported for ablations.
    rounding:
        ``"stochastic"`` (paper default, following Gupta et al. 2015) or
        ``"nearest"``.
    per_channel:
        Quantize weights with one scale per output channel instead of one
        per tensor.  Activations and gradients are always per-tensor, as in
        the paper's SUQ formulation.
    percentile:
        Optional clipping percentile in (0, 100] applied when deriving the
        scale from data; ``None``/100 means plain absolute max.  GDAI8-style
        gradient quantization uses a high percentile to ignore outliers.
    seed:
        Seed for the stochastic-rounding noise stream of calls that pass no
        generator: a standalone :func:`~repro.quant.suq.quantize` or
        :func:`~repro.quant.suq.fake_quantize`, or an ``Int8Engine`` built
        without ``rng``.  That stream is created once per config and shared
        by all such calls.  Training never reads it: ``prepare_int8`` gives
        each layer's ``Int8Engine`` a generator spawned from the trainer's
        seed, and the INT8 gradient transforms take their own ``rng``, so
        ``seed`` inside a trainer's ``quant_config`` has no effect.
    """

    bits: int = 8
    rounding: str = "stochastic"
    per_channel: bool = False
    percentile: Optional[float] = None
    seed: Optional[int] = 0
    _rng: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bits < 2 or self.bits > 32:
            raise ValueError(f"bits must lie in [2, 32], got {self.bits}")
        if self.rounding not in ("stochastic", "nearest"):
            raise ValueError(
                f"rounding must be 'stochastic' or 'nearest', got {self.rounding!r}"
            )
        if self.percentile is not None and not 0.0 < self.percentile <= 100.0:
            raise ValueError(
                f"percentile must lie in (0, 100], got {self.percentile}"
            )

    @property
    def qmax(self) -> int:
        """Largest representable positive integer level (e.g. 127 for INT8)."""
        return 2 ** (self.bits - 1) - 1

    @property
    def qmin(self) -> int:
        """Most negative representable level (symmetric: ``-qmax``)."""
        return -self.qmax

    def rng(self, seed_override: RngLike = None):
        """Return the generator driving stochastic rounding."""
        if seed_override is not None:
            return new_rng(seed_override)
        if self._rng is None:
            object.__setattr__(self, "_rng", new_rng(self.seed))
        return self._rng


def int8_config(**overrides) -> QuantConfig:
    """Convenience constructor for the paper's INT8 setting."""
    params = {"bits": 8, "rounding": "stochastic"}
    params.update(overrides)
    return QuantConfig(**params)
