"""Gradient quantization strategies for the INT8 backpropagation baselines.

The paper compares FF-INT8 against three BP-based INT8 schemes:

* **BP-INT8** — gradients quantized directly with a per-tensor absolute-max
  SUQ scale.  This is the scheme that collapses for deep networks (Figure 2,
  Table I): sharp gradient distributions waste nearly all integer levels.
* **BP-UI8** (Zhu et al., CVPR 2020) — *direction-sensitive gradient
  clipping* chooses a clipping range that bounds the angular deviation between
  the quantized and original gradient, and *deviation-counteractive learning
  rate scaling* shrinks the step when the deviation is large.
* **BP-GDAI8** (Wang & Kang, Neurocomputing 2023) — *gradient
  distribution-aware* quantization derives the scale from a high percentile
  of the observed magnitude distribution instead of the maximum, adapting to
  the heavy-tailed shapes shown in Figure 3.

Each strategy is a callable ``(name, grad) -> quantized_grad`` plus an
optional per-step learning-rate scale, so the same :class:`BPTrainer` drives
all baselines.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.quant.qconfig import QuantConfig
from repro.quant.rounding import apply_rounding
from repro.quant.suq import fake_quantize
from repro.utils.rng import RngLike, new_rng


def _quantize_clipped(
    grad: np.ndarray, threshold: float, config: QuantConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """SUQ fake-quantization of ``grad`` on a grid fixed by ``threshold``.

    Values are clipped to ``±threshold``, divided by the step
    ``threshold / qmax``, rounded with ``config.rounding``, clipped to
    ``[qmin, qmax]`` and rescaled.  ``threshold`` must be positive.
    """
    scale = threshold / config.qmax
    levels = np.clip(grad, -threshold, threshold) / scale
    rounded = apply_rounding(levels, config.rounding, rng=rng)
    return (np.clip(rounded, config.qmin, config.qmax) * scale).astype(
        np.float32
    )


class GradientTransform:
    """Base class: identity transform, unit learning-rate scale."""

    name = "fp32"

    def __call__(self, param_name: str, grad: np.ndarray) -> np.ndarray:
        return grad

    def lr_scale(self) -> float:
        """Multiplicative learning-rate adjustment for the current step."""
        return 1.0

    def reset(self) -> None:
        """Clear any per-step state (called once per optimizer step)."""


class DirectInt8Gradient(GradientTransform):
    """Naive BP-INT8: SUQ quantization of every gradient tensor.

    "Direct" quantization makes no attempt to track the gradient distribution:
    the scale for each tensor is calibrated once, from the first mini-batches
    (``static_scale=True``, the default), and then reused.  As training
    progresses the gradients shrink well below the calibrated range — faster
    for the early layers of deep networks (Figure 3) — and get flushed to a
    handful of integer levels or to zero, which is the accuracy collapse the
    paper reports in Table I and Figure 2.  ``static_scale=False`` gives the
    milder variant that re-derives an abs-max scale on every step.
    """

    name = "int8-direct"

    def __init__(
        self,
        config: Optional[QuantConfig] = None,
        static_scale: bool = True,
        calibration_steps: int = 3,
        rng: RngLike = 0,
    ) -> None:
        self.config = config if config is not None else QuantConfig(rounding="nearest")
        self.static_scale = static_scale
        self.calibration_steps = max(1, int(calibration_steps))
        self._rng = new_rng(rng)
        self._calibrated_scale: Dict[str, float] = {}
        self._observations: Dict[str, int] = {}

    def __call__(self, param_name: str, grad: np.ndarray) -> np.ndarray:
        if not grad.size:
            return grad
        if not self.static_scale:
            return fake_quantize(grad, self.config, rng=self._rng)

        seen = self._observations.get(param_name, 0)
        abs_max = float(np.max(np.abs(grad)))
        if seen < self.calibration_steps:
            previous = self._calibrated_scale.get(param_name, 0.0)
            self._calibrated_scale[param_name] = max(previous, abs_max)
            self._observations[param_name] = seen + 1
        threshold = self._calibrated_scale.get(param_name, abs_max)
        if threshold <= 0.0:
            return grad
        return _quantize_clipped(grad, threshold, self.config, self._rng)


class UI8Gradient(GradientTransform):
    """Unified INT8 training (UI8): direction-sensitive clipping + LR scaling.

    For each gradient tensor a small set of candidate clipping thresholds is
    evaluated; the threshold whose clipped-and-quantized gradient has the
    smallest angular deviation from the original is kept.  The residual
    deviation then damps the learning rate via ``1 / (1 + alpha * deviation)``.
    """

    name = "ui8"

    def __init__(
        self,
        config: Optional[QuantConfig] = None,
        clip_candidates: tuple[float, ...] = (1.0, 0.7, 0.5, 0.3, 0.2),
        alpha: float = 10.0,
        rng: RngLike = 0,
    ) -> None:
        self.config = config if config is not None else QuantConfig(rounding="nearest")
        if not clip_candidates:
            raise ValueError("clip_candidates must not be empty")
        self.clip_candidates = clip_candidates
        self.alpha = float(alpha)
        self._rng = new_rng(rng)
        self._max_deviation = 0.0

    @staticmethod
    def _deviation(original: np.ndarray, quantized: np.ndarray) -> float:
        """Angular deviation ``1 - cos(g, q)`` between gradients."""
        orig = original.ravel().astype(np.float64)
        quant = quantized.ravel().astype(np.float64)
        norm = np.linalg.norm(orig) * np.linalg.norm(quant)
        if norm == 0.0:
            return 0.0
        cosine = float(np.dot(orig, quant) / norm)
        return 1.0 - min(max(cosine, -1.0), 1.0)

    def __call__(self, param_name: str, grad: np.ndarray) -> np.ndarray:
        abs_max = float(np.max(np.abs(grad))) if grad.size else 0.0
        if abs_max == 0.0:
            return grad
        best_grad = grad
        best_deviation = np.inf
        for fraction in self.clip_candidates:
            threshold = fraction * abs_max
            clipped = np.clip(grad, -threshold, threshold)
            quantized = fake_quantize(clipped, self.config, rng=self._rng)
            deviation = self._deviation(grad, quantized)
            if deviation < best_deviation:
                best_deviation = deviation
                best_grad = quantized
        self._max_deviation = max(self._max_deviation, best_deviation)
        return best_grad

    def lr_scale(self) -> float:
        return 1.0 / (1.0 + self.alpha * self._max_deviation)

    def reset(self) -> None:
        self._max_deviation = 0.0


class GDAI8Gradient(GradientTransform):
    """Gradient-distribution-aware INT8 (GDAI8) quantization.

    The scale is derived from a high percentile of ``|grad|`` (smoothed across
    steps per tensor), so rare outliers do not stretch the quantization grid;
    stochastic rounding keeps the update unbiased.
    """

    name = "gdai8"

    def __init__(
        self,
        percentile: float = 99.5,
        smoothing: float = 0.7,
        config: Optional[QuantConfig] = None,
        rng: RngLike = 0,
    ) -> None:
        if not 0.0 < percentile <= 100.0:
            raise ValueError(f"percentile must lie in (0, 100], got {percentile}")
        if not 0.0 <= smoothing < 1.0:
            raise ValueError(f"smoothing must lie in [0, 1), got {smoothing}")
        base = config if config is not None else QuantConfig(rounding="stochastic")
        self.config = QuantConfig(
            bits=base.bits,
            rounding=base.rounding,
            per_channel=base.per_channel,
            percentile=None,
            seed=base.seed,
        )
        self.percentile = float(percentile)
        self.smoothing = float(smoothing)
        self._rng = new_rng(rng)
        self._running_threshold: Dict[str, float] = {}

    def __call__(self, param_name: str, grad: np.ndarray) -> np.ndarray:
        if not grad.size:
            return grad
        threshold = float(np.percentile(np.abs(grad), self.percentile))
        previous = self._running_threshold.get(param_name)
        if previous is not None:
            threshold = self.smoothing * previous + (1 - self.smoothing) * threshold
        self._running_threshold[param_name] = threshold
        if threshold <= 0.0:
            return grad
        return _quantize_clipped(grad, threshold, self.config, self._rng)


def build_gradient_transform(name: str, **kwargs) -> GradientTransform:
    """Factory used by the trainer configuration layer."""
    name = name.lower()
    if name in ("fp32", "none", "identity"):
        return GradientTransform()
    if name in ("int8", "int8-direct", "bp-int8"):
        return DirectInt8Gradient(**kwargs)
    if name in ("ui8", "bp-ui8"):
        return UI8Gradient(**kwargs)
    if name in ("gdai8", "bp-gdai8"):
        return GDAI8Gradient(**kwargs)
    raise ValueError(f"unknown gradient transform {name!r}")
