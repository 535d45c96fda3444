"""Model profiling: per-layer MAC counts, parameter counts, activation sizes.

The profiler runs one real forward pass through a model with a
:class:`ProfileHook` registered on the runtime's module tap
(:mod:`repro.runtime.instrument`): every leaf module forward reports there,
and the hook records the number of multiply-accumulate operations and the
size of every layer output.  This is the repo's one source of operation
counts: :func:`repro.hardware.table4_op_counts` derives Table IV from this
profile, and the same per-sample quantities feed the training cost model
(Table V) and the memory model.  Because the hook sits on the module tap
rather than inside any kernel, the same profile is observed whichever
backend executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.models.base import ModelBundle
from repro.nn.conv import Conv2d, DepthwiseConv2d
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.runtime import instrument


@dataclass
class LayerProfile:
    """Per-layer profiling record (all values per input sample)."""

    name: str
    kind: str
    macs: float
    parameters: int
    output_elements: float


@dataclass
class ModelProfile:
    """Aggregated profile of one architecture."""

    model_name: str
    input_shape: tuple
    layers: List[LayerProfile] = field(default_factory=list)
    total_parameters: int = 0
    total_activation_elements: float = 0.0

    @property
    def forward_macs(self) -> float:
        """MACs of one forward pass for one sample."""
        return float(sum(layer.macs for layer in self.layers))

    @property
    def weight_grad_macs(self) -> float:
        """MACs to compute all weight gradients for one sample.

        For GEMM-lowered layers the weight-gradient GEMM has the same MAC
        count as the forward GEMM.
        """
        return self.forward_macs

    @property
    def input_grad_macs(self) -> float:
        """MACs to back-propagate activation gradients for one sample."""
        return self.forward_macs

    def as_dict(self) -> dict:
        """JSON-serializable summary."""
        return {
            "model": self.model_name,
            "input_shape": list(self.input_shape),
            "forward_macs": self.forward_macs,
            "total_parameters": self.total_parameters,
            "total_activation_elements": self.total_activation_elements,
            "num_profiled_layers": len(self.layers),
        }


def _layer_macs(module: Module, inputs: np.ndarray, outputs: np.ndarray) -> float:
    """MAC count of one call to a compute-heavy layer."""
    if isinstance(module, Linear):
        rows = int(np.prod(inputs.shape[:-1]))
        return float(rows * module.in_features * module.out_features)
    if isinstance(module, DepthwiseConv2d):
        out_positions = int(outputs.shape[0] * outputs.shape[2] * outputs.shape[3])
        kernel_area = module.kernel_size[0] * module.kernel_size[1]
        return float(out_positions * module.channels * kernel_area)
    if isinstance(module, Conv2d):
        out_positions = int(outputs.shape[0] * outputs.shape[2] * outputs.shape[3])
        kernel_area = module.kernel_size[0] * module.kernel_size[1]
        return float(
            out_positions * module.out_channels * module.in_channels * kernel_area
        )
    return 0.0


class ProfileHook(instrument.Instrumentation):
    """Module-tap hook recording per-leaf MACs and activation sizes.

    Registered while a forward pass runs; it sees every module the runtime
    executes (whatever backend) and keeps the records the old forward-wrapping
    recorder produced: one :class:`LayerProfile` per compute-heavy leaf call
    plus the total activation element count across all leaves.

    ``model`` scopes the hook: the instrumentation registry is process-global
    (so hooks can watch multi-threaded engines), but a profile must only
    count the profiled model — traffic from unrelated models running
    concurrently (e.g. a serving engine's workers) is ignored.
    """

    def __init__(self, model: Optional[Module] = None) -> None:
        self.records: List[LayerProfile] = []
        self.activation_elements = 0.0
        self._module_ids: dict = {}
        self._scope = (
            None if model is None else {id(m) for m in model.modules()}
        )

    def _index_of(self, module: Module) -> int:
        return self._module_ids.setdefault(id(module), len(self._module_ids))

    def on_module(self, module: Module, inputs, output) -> None:
        if self._scope is not None and id(module) not in self._scope:
            return
        if module._modules:
            return  # only record leaves; containers re-report their children
        if not isinstance(output, np.ndarray):
            return
        self.activation_elements += float(output.size)
        macs = _layer_macs(module, inputs, output)
        if macs > 0:
            self.records.append(
                LayerProfile(
                    name=f"{type(module).__name__}_{self._index_of(module)}",
                    kind=type(module).__name__,
                    macs=macs,
                    parameters=module.num_parameters(),
                    output_elements=float(output.size),
                )
            )


def profile_bundle(bundle: ModelBundle, batch_size: int = 2) -> ModelProfile:
    """Profile one sample's forward compute/activation footprint of ``bundle``."""
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    model = bundle.bp_model()
    model.eval()
    model.set_activation_caching(False)
    sample = np.zeros((batch_size, *bundle.input_shape), dtype=np.float32)
    inputs = sample.reshape(batch_size, -1) if bundle.flatten_input else sample

    with instrument.instrumented(ProfileHook(model)) as recorder:
        model(inputs)

    scale = 1.0 / batch_size
    layers = [
        LayerProfile(
            name=record.name,
            kind=record.kind,
            macs=record.macs * scale,
            parameters=record.parameters,
            output_elements=record.output_elements * scale,
        )
        for record in recorder.records
    ]
    return ModelProfile(
        model_name=bundle.name,
        input_shape=bundle.input_shape,
        layers=layers,
        total_parameters=model.num_parameters(),
        total_activation_elements=recorder.activation_elements * scale,
    )
