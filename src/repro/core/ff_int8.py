"""FF-INT8 entry points: the paper's proposed training algorithm.

``FFInt8Trainer`` is the configuration of :class:`ForwardForwardTrainer`
evaluated in the paper: INT8 forward and weight-gradient GEMMs (symmetric
uniform quantization with stochastic rounding, INT32 accumulation), the
simultaneous one-forward-pass-per-epoch schedule of Algorithm 1, and the
"look-ahead" loss with λ ramped from 0 by 0.001 per epoch.

Figure 6's ablation without look-ahead is the same preset with
``lambda_schedule=ConstantLambda(0.0)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.ff_trainer import FFConfig, ForwardForwardTrainer
from repro.training.schedules import LambdaSchedule, LinearLambda


@dataclass
class FFInt8Config(FFConfig):
    """FF-INT8 defaults: INT8 execution + look-ahead (Sections IV-B/IV-C)."""

    int8: bool = True
    # Paper Section V-A3: λ starts at 0 and grows by 0.001 per epoch.
    lambda_schedule: LambdaSchedule = field(
        default_factory=lambda: LinearLambda(0.0, 0.001)
    )


class FFInt8Trainer(ForwardForwardTrainer):
    """Forward-Forward INT8 trainer with look-ahead (the paper's algorithm)."""

    def __init__(self, config: Optional[FFInt8Config] = None) -> None:
        super().__init__(config if config is not None else FFInt8Config())
