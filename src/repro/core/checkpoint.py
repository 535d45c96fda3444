"""Checkpointing of Forward-Forward trained networks.

FF training produces a list of per-layer units rather than one end-to-end
module, so checkpoints store every unit's parameters (flattened under a
``unitN.`` prefix) together with the metadata needed to rebuild a matching
classifier: the model name, the overlay settings, the goodness function and
the threshold θ.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.core.classifier import FFGoodnessClassifier
from repro.core.ff_trainer import FFConfig
from repro.core.goodness import build_goodness
from repro.data.overlay import LabelOverlay
from repro.models.base import ModelBundle
from repro.nn.module import Module
from repro.nn.norm import _BatchNormBase
from repro.utils.serialization import (
    archive_base,
    archive_path,
    load_json,
    load_parameters,
    save_json,
    save_parameters,
)

PathLike = Union[str, Path]

# BatchNorm running statistics live outside ``named_parameters`` but are part
# of the trained model; they are checkpointed under a ``::buffer`` suffix.
BUFFER_SUFFIX = "::buffer"
_BUFFER_NAMES = ("running_mean", "running_var")


def _named_modules(module: Module, prefix: str = ""):
    yield prefix, module
    for name, child in module._modules.items():
        yield from _named_modules(child, f"{prefix}{name}.")


@dataclass
class FFCheckpoint:
    """In-memory representation of a saved FF training run."""

    parameters: Dict[str, np.ndarray]
    metadata: Dict[str, object]

    @property
    def num_units(self) -> int:
        """Number of FF units stored in the checkpoint."""
        return int(self.metadata["num_units"])


def _unit_state(units: Sequence[Module]) -> Dict[str, np.ndarray]:
    state: Dict[str, np.ndarray] = {}
    for index, unit in enumerate(units):
        for name, param in unit.named_parameters():
            state[f"unit{index}.{name}"] = param.data.copy()
        for path, module in _named_modules(unit):
            if isinstance(module, _BatchNormBase):
                for buffer_name in _BUFFER_NAMES:
                    key = f"unit{index}.{path}{buffer_name}{BUFFER_SUFFIX}"
                    state[key] = np.asarray(getattr(module, buffer_name)).copy()
    return state


def save_ff_checkpoint(
    units: Sequence[Module],
    bundle: ModelBundle,
    config: FFConfig,
    path: PathLike,
) -> Path:
    """Persist FF-trained units and their training metadata.

    Two files are written: ``<path>.npz`` with the parameters and
    ``<path>.json`` with the metadata; the returned path is the ``.npz``.
    """
    base = archive_base(path)
    params_path = save_parameters(_unit_state(units), archive_path(base, ".npz"))
    metadata = {
        "model_name": bundle.name,
        "num_units": len(units),
        "num_classes": bundle.num_classes,
        "flatten_input": bundle.flatten_input,
        "input_shape": list(bundle.input_shape),
        "theta": config.theta,
        "goodness": config.goodness,
        "overlay_amplitude": config.overlay_amplitude,
        "int8": config.int8,
    }
    save_json(metadata, archive_path(base, ".json"))
    return params_path


def load_ff_checkpoint(path: PathLike) -> FFCheckpoint:
    """Load a checkpoint written by :func:`save_ff_checkpoint`."""
    base = archive_base(path)
    parameters = load_parameters(archive_path(base, ".npz"))
    metadata = load_json(archive_path(base, ".json"))
    return FFCheckpoint(parameters=parameters, metadata=metadata)


def restore_units(checkpoint: FFCheckpoint, bundle: ModelBundle) -> List[Module]:
    """Load checkpoint parameters into a freshly-built bundle's FF units."""
    units = bundle.ff_units()
    if len(units) != checkpoint.num_units:
        raise ValueError(
            f"checkpoint stores {checkpoint.num_units} units but the bundle "
            f"produces {len(units)}; model configuration mismatch"
        )
    for index, unit in enumerate(units):
        for name, param in unit.named_parameters():
            key = f"unit{index}.{name}"
            if key not in checkpoint.parameters:
                raise KeyError(f"checkpoint is missing parameter {key!r}")
            param.copy_(checkpoint.parameters[key])
        for path, module in _named_modules(unit):
            if isinstance(module, _BatchNormBase):
                for buffer_name in _BUFFER_NAMES:
                    key = f"unit{index}.{path}{buffer_name}{BUFFER_SUFFIX}"
                    # Pre-buffer checkpoints lack these keys; keep defaults.
                    if key in checkpoint.parameters:
                        setattr(
                            module, buffer_name,
                            checkpoint.parameters[key].astype(np.float32).copy(),
                        )
    return units


def restore_classifier(
    checkpoint: FFCheckpoint, bundle: ModelBundle
) -> FFGoodnessClassifier:
    """Rebuild the goodness classifier for a checkpointed FF network."""
    units = restore_units(checkpoint, bundle)
    overlay = LabelOverlay(
        num_classes=int(checkpoint.metadata["num_classes"]),
        amplitude=float(checkpoint.metadata["overlay_amplitude"]),
    )
    goodness = build_goodness(str(checkpoint.metadata["goodness"]))
    return FFGoodnessClassifier(
        units, overlay, goodness=goodness,
        flatten_input=bool(checkpoint.metadata["flatten_input"]),
    )
