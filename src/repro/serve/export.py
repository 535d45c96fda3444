"""Freeze trained networks into immutable INT8 inference artifacts.

Training keeps weights in float32 and re-quantizes them on every step; at
deployment time that work is pure overhead.  ``export_artifact`` snapshots a
trained stack of FF units into an :class:`InferenceArtifact`:

* weights of every compute-heavy layer (Linear / Conv2d / DepthwiseConv2d)
  pre-quantized to INT8 with deterministic nearest rounding and their
  per-layer (optionally per-output-channel) scales precomputed,
* every remaining parameter (biases, norm affine terms) in float32,
* normalization buffers (BatchNorm running statistics) that live outside
  ``named_parameters`` and would otherwise be lost,
* the metadata needed to rebuild a matching overlay + goodness readout.

Artifacts are persisted with :mod:`repro.utils.serialization` as an ``.npz``
(tensors) plus ``.json`` (metadata) pair, mirroring the FF checkpoint format.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.checkpoint import FFCheckpoint, restore_units
from repro.models.base import ModelBundle
from repro.nn.conv import Conv2d, DepthwiseConv2d
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.norm import _BatchNormBase
from repro.quant.qconfig import QuantConfig
from repro.quant.suq import quantize
from repro.utils.serialization import (
    archive_base,
    archive_path,
    load_json,
    load_parameters,
    save_json,
    save_parameters,
)

PathLike = Union[str, Path]

ARTIFACT_FORMAT_VERSION = 1

# Tensor-key suffixes distinguishing the three tensor kinds in the archive.
QUANT_SUFFIX = "::q"
SCALE_SUFFIX = "::scale"
BUFFER_SUFFIX = "::buffer"

_QUANTIZABLE = (Linear, Conv2d, DepthwiseConv2d)
_BUFFER_NAMES = ("running_mean", "running_var")


def named_modules(module: Module, prefix: str = "") -> Iterator[Tuple[str, Module]]:
    """Yield ``(qualified_name, module)`` pairs, matching parameter paths."""
    yield prefix, module
    for name, child in module._modules.items():
        yield from named_modules(child, f"{prefix}{name}.")


def _join(prefix: str, name: str) -> str:
    return f"{prefix}{name}"


@dataclass
class InferenceArtifact:
    """Immutable snapshot of a trained network, ready for INT8 serving."""

    tensors: Dict[str, np.ndarray]
    metadata: Dict[str, object]

    # ------------------------------------------------------------------ #
    @property
    def num_units(self) -> int:
        return int(self.metadata["num_units"])

    @property
    def num_classes(self) -> int:
        return int(self.metadata["num_classes"])

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return tuple(int(v) for v in self.metadata["input_shape"])

    @property
    def flatten_input(self) -> bool:
        return bool(self.metadata["flatten_input"])

    @property
    def goodness_name(self) -> str:
        return str(self.metadata["goodness"])

    @property
    def overlay_amplitude(self) -> float:
        return float(self.metadata["overlay_amplitude"])

    @property
    def skip_first_layer(self) -> bool:
        return bool(self.metadata["skip_first_layer"])

    def quantized_keys(self) -> List[str]:
        """Base names of all INT8-quantized weight tensors."""
        return sorted(
            key[: -len(QUANT_SUFFIX)]
            for key in self.tensors
            if key.endswith(QUANT_SUFFIX)
        )

    def nbytes(self) -> int:
        """Total artifact payload size in bytes."""
        return int(sum(tensor.nbytes for tensor in self.tensors.values()))


def freeze_unit_weights(
    units: Sequence[Module], per_channel: bool = False
) -> Dict[str, np.ndarray]:
    """Snapshot unit parameters, pre-quantizing compute-heavy weights.

    Weight quantization is deterministic (nearest rounding): stochastic
    rounding is a *training* device for unbiased gradients and has no place
    in a frozen artifact, where run-to-run reproducibility matters more.
    ``per_channel`` gives each output channel its own scale.
    """
    config = QuantConfig(bits=8, rounding="nearest")
    axis = 0 if per_channel else None
    tensors: Dict[str, np.ndarray] = {}
    for index, unit in enumerate(units):
        prefix = f"unit{index}."
        quantized_names = set()
        for path, module in named_modules(unit):
            if isinstance(module, _QUANTIZABLE):
                weight = module.weight.data
                # The kernels consume weights as (out_channels, K) matrices;
                # for Linear this reshape is already the identity.
                matrix = weight.reshape(weight.shape[0], -1)
                q, scale = quantize(matrix, config, axis=axis)
                base = _join(prefix, f"{path}weight")
                tensors[base + QUANT_SUFFIX] = q.reshape(weight.shape)
                tensors[base + SCALE_SUFFIX] = np.asarray(scale, dtype=np.float64)
                quantized_names.add(f"{path}weight")
            elif isinstance(module, _BatchNormBase):
                for buffer_name in _BUFFER_NAMES:
                    key = _join(prefix, f"{path}{buffer_name}") + BUFFER_SUFFIX
                    tensors[key] = np.asarray(getattr(module, buffer_name)).copy()
        for name, param in unit.named_parameters():
            if name in quantized_names:
                continue
            tensors[_join(prefix, name)] = param.data.copy()
    return tensors


def export_artifact(
    units: Sequence[Module],
    bundle: ModelBundle,
    *,
    goodness: str = "sum_squares",
    overlay_amplitude: float = 1.0,
    theta: float = 2.0,
    skip_first_layer: Optional[bool] = None,
    per_channel: bool = False,
    registry_name: Optional[str] = None,
    registry_kwargs: Optional[Dict[str, object]] = None,
    extra_metadata: Optional[Dict[str, object]] = None,
) -> InferenceArtifact:
    """Freeze trained FF ``units`` (or BP backbone blocks) for serving.

    ``registry_name``/``registry_kwargs``, when provided, let the engine
    rebuild the module skeleton via :func:`repro.models.build_model` without
    the caller having to reconstruct a matching :class:`ModelBundle`.
    """
    if len(units) != len(bundle.backbone_blocks):
        raise ValueError(
            f"got {len(units)} units but bundle {bundle.name!r} has "
            f"{len(bundle.backbone_blocks)} backbone blocks"
        )
    if skip_first_layer is None:
        skip_first_layer = len(units) >= 2
    metadata: Dict[str, object] = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "model_name": bundle.name,
        "num_units": len(units),
        "num_classes": bundle.num_classes,
        "flatten_input": bundle.flatten_input,
        "input_shape": list(bundle.input_shape),
        "goodness": goodness,
        "overlay_amplitude": overlay_amplitude,
        "theta": theta,
        "skip_first_layer": bool(skip_first_layer),
        "bits": 8,
        "per_channel": bool(per_channel),
    }
    if registry_name is not None:
        metadata["registry_name"] = registry_name
        metadata["registry_kwargs"] = dict(registry_kwargs or {})
    if extra_metadata:
        metadata.update(extra_metadata)
    tensors = freeze_unit_weights(units, per_channel=per_channel)
    return InferenceArtifact(tensors=tensors, metadata=metadata)


def export_from_checkpoint(
    checkpoint: FFCheckpoint,
    bundle: ModelBundle,
    *,
    per_channel: bool = False,
    registry_name: Optional[str] = None,
    registry_kwargs: Optional[Dict[str, object]] = None,
) -> InferenceArtifact:
    """Freeze a saved :class:`FFCheckpoint` into an inference artifact."""
    units = restore_units(checkpoint, bundle)
    meta = checkpoint.metadata
    return export_artifact(
        units,
        bundle,
        goodness=str(meta.get("goodness", "sum_squares")),
        overlay_amplitude=float(meta.get("overlay_amplitude", 1.0)),
        theta=float(meta.get("theta", 2.0)),
        per_channel=per_channel,
        registry_name=registry_name,
        registry_kwargs=registry_kwargs,
        extra_metadata={"source": "ff_checkpoint"},
    )


# --------------------------------------------------------------------------- #
# persistence
# --------------------------------------------------------------------------- #
def save_artifact(artifact: InferenceArtifact, path: PathLike) -> Path:
    """Write ``<path>.npz`` (tensors) + ``<path>.json`` (metadata)."""
    base = archive_base(path)
    tensor_path = save_parameters(artifact.tensors, archive_path(base, ".npz"))
    save_json(artifact.metadata, archive_path(base, ".json"))
    return tensor_path


def load_artifact(path: PathLike) -> InferenceArtifact:
    """Load an artifact written by :func:`save_artifact`."""
    base = archive_base(path)
    tensors = load_parameters(archive_path(base, ".npz"))
    metadata = load_json(archive_path(base, ".json"))
    version = int(metadata.get("format_version", -1))
    if version != ARTIFACT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported artifact format version {version}; "
            f"this build reads version {ARTIFACT_FORMAT_VERSION}"
        )
    return InferenceArtifact(tensors=tensors, metadata=metadata)
