"""Named trainer configurations matching the rows of Table V.

``make_trainer("BP-GDAI8", epochs=..., lr=...)`` returns a ready-to-run
trainer for any of the paper's five algorithms, so the summary benchmark can
sweep algorithms uniformly.
"""

from __future__ import annotations

from typing import Dict

from repro.training.bp import BPConfig, BPTrainer
from repro.training.gradient_transforms import (
    DirectInt8Gradient,
    GDAI8Gradient,
    UI8Gradient,
)

# Canonical algorithm labels as they appear in the paper's tables.
BP_FP32 = "BP-FP32"
BP_INT8 = "BP-INT8"
BP_UI8 = "BP-UI8"
BP_GDAI8 = "BP-GDAI8"
FF_INT8 = "FF-INT8"

BP_ALGORITHMS = (BP_FP32, BP_INT8, BP_UI8, BP_GDAI8)
ALL_ALGORITHMS = BP_ALGORITHMS + (FF_INT8,)

_GRADIENT_TRANSFORMS = {
    BP_INT8: DirectInt8Gradient,
    BP_UI8: UI8Gradient,
    BP_GDAI8: GDAI8Gradient,
}


def make_bp_config(
    algorithm: str,
    epochs: int = 10,
    batch_size: int = 32,
    lr: float = 0.01,
    optimizer: str = "sgd",
    seed: int = 0,
    **overrides,
) -> BPConfig:
    """Build a :class:`BPConfig` for one of the BP-based algorithm labels.

    The INT8 labels run the forward GEMMs on the INT8 engine and quantize
    gradients with their transform; ``overrides`` (``quant_config``, say)
    pass through to :class:`BPConfig`.
    """
    algorithm = algorithm.upper()
    if algorithm not in BP_ALGORITHMS:
        raise ValueError(
            f"unknown BP algorithm {algorithm!r}; expected one of {BP_ALGORITHMS}"
        )
    transform_class = _GRADIENT_TRANSFORMS.get(algorithm)
    return BPConfig(
        epochs=epochs,
        batch_size=batch_size,
        lr=lr,
        optimizer=optimizer,
        gradient_transform=(
            transform_class(rng=seed) if transform_class is not None else None
        ),
        int8_forward=transform_class is not None,
        seed=seed,
        **overrides,
    )


def make_trainer(algorithm: str, **kwargs):
    """Return a trainer instance for any of the five algorithm labels.

    BP-family labels return a :class:`BPTrainer`; ``"FF-INT8"`` returns a
    :class:`repro.core.ff_int8.FFInt8Trainer` with the paper's λ ramp (the
    configuration evaluated in Table V).
    """
    label = algorithm.upper()
    if label in BP_ALGORITHMS:
        return BPTrainer(make_bp_config(label, **kwargs))
    if label == FF_INT8:
        from repro.core.ff_int8 import FFInt8Config, FFInt8Trainer

        return FFInt8Trainer(FFInt8Config(**kwargs))
    raise ValueError(
        f"unknown algorithm {algorithm!r}; expected one of {ALL_ALGORITHMS}"
    )


def algorithm_properties(algorithm: str) -> Dict[str, object]:
    """Static properties of an algorithm used by the hardware cost model.

    ``backward_pass`` — whether a full backward sweep over the graph runs;
    ``mac_precision`` — operand width of the dominant GEMMs;
    ``stores_graph`` — whether intermediate activations must stay resident;
    ``analysis_passes`` — number of FP32 passes over each gradient tensor
    spent analysing its distribution before quantizing (direction-sensitive
    clip search for UI8, percentile scan for GDAI8; 0 for direct
    quantization and for FF-INT8).
    """
    label = algorithm.upper()
    table = {
        BP_FP32: {
            "backward_pass": True,
            "mac_precision": "fp32",
            "stores_graph": True,
            "analysis_passes": 0.0,
        },
        BP_INT8: {
            "backward_pass": True,
            "mac_precision": "int8",
            "stores_graph": True,
            "analysis_passes": 0.0,
        },
        BP_UI8: {
            "backward_pass": True,
            "mac_precision": "int8",
            "stores_graph": True,
            "analysis_passes": 8.0,
        },
        BP_GDAI8: {
            "backward_pass": True,
            "mac_precision": "int8",
            "stores_graph": True,
            "analysis_passes": 3.0,
        },
        FF_INT8: {
            "backward_pass": False,
            "mac_precision": "int8",
            "stores_graph": False,
            "analysis_passes": 0.0,
        },
    }
    if label not in table:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {ALL_ALGORITHMS}"
        )
    return table[label]
