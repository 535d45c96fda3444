"""Quantization configuration shared by all INT8 code paths."""

from __future__ import annotations

from dataclasses import dataclass


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
        ``"nearest"``.  Stochastic rounding draws from a generator the
        caller passes to :func:`~repro.quant.suq.quantize`,
        :func:`~repro.quant.suq.fake_quantize` or
        :class:`~repro.quant.int8_ops.Int8Engine`; the config holds none.
    """

    bits: int = 8
    rounding: str = "stochastic"

    def __post_init__(self) -> None:
        if self.bits < 2 or self.bits > 32:
            raise ValueError(f"bits must lie in [2, 32], got {self.bits}")
        if self.rounding not in ("stochastic", "nearest"):
            raise ValueError(
                f"rounding must be 'stochastic' or 'nearest', got {self.rounding!r}"
            )

    @property
    def qmax(self) -> int:
        """Largest representable positive integer level (e.g. 127 for INT8)."""
        return 2 ** (self.bits - 1) - 1

    @property
    def qmin(self) -> int:
        """Most negative representable level (symmetric: ``-qmax``)."""
        return -self.qmax
