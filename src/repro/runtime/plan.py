"""Plan compiler: flatten an FF unit stack into a list of kernel steps.

``compile_plan`` walks the module tree of every unit and lowers it to a flat
sequence of :class:`KernelStep`\\ s — gemm, conv, depthwise, norm,
activation, pool, dropout, reshape — in execution order.  Only
:class:`~repro.nn.containers.Sequential` containers are dissolved (their
forward *is* the sequence); structured modules such as residual adds and
squeeze-excite gates stay opaque ``module`` steps so their exact gradient
topology is preserved.

The compiled :class:`ExecutionPlan` is what every forward path in the repo
executes (training, label-probe classification, softmax readout features,
and batched serving) via :class:`~repro.runtime.executor.PlanExecutor`; the
kernels inside each step route through :mod:`repro.runtime.dispatch` and the
selected backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.nn.activations import LeakyReLU, ReLU, ReLU6, Sigmoid, SiLU, Tanh
from repro.nn.containers import Sequential
from repro.nn.conv import Conv2d, DepthwiseConv2d
from repro.nn.dropout import Dropout
from repro.nn.linear import Linear
from repro.nn.module import Identity, Module
from repro.nn.norm import FFLayerNorm, _BatchNormBase
from repro.nn.pooling import AvgPool2d, Flatten, GlobalAvgPool2d, MaxPool2d

#: step kinds a plan can contain (``reshape`` is the synthetic input flatten)
STEP_KINDS = (
    "gemm",
    "conv",
    "depthwise",
    "norm",
    "activation",
    "pool",
    "dropout",
    "identity",
    "reshape",
    "module",
)

_KIND_BY_TYPE = (
    (Linear, "gemm"),
    (Conv2d, "conv"),
    (DepthwiseConv2d, "depthwise"),
    (_BatchNormBase, "norm"),
    (FFLayerNorm, "norm"),
    ((ReLU, ReLU6, LeakyReLU, Sigmoid, SiLU, Tanh), "activation"),
    ((MaxPool2d, AvgPool2d, GlobalAvgPool2d), "pool"),
    (Flatten, "reshape"),
    (Dropout, "dropout"),
    (Identity, "identity"),
)


def step_kind(module: Module) -> str:
    """Classify a leaf (or opaque composite) module into a step kind."""
    for types, kind in _KIND_BY_TYPE:
        if isinstance(module, types):
            return kind
    return "module"


@dataclass(frozen=True)
class KernelStep:
    """One executable step of a compiled plan."""

    kind: str
    module: Optional[Module]
    unit_index: int
    is_unit_output: bool = False

    @property
    def quantized(self) -> bool:
        """True when the step's GEMM runs through an attached INT8 engine."""
        return getattr(self.module, "quant_engine", None) is not None

    def describe(self) -> str:
        name = type(self.module).__name__ if self.module is not None else "-"
        flags = []
        if self.quantized:
            flags.append("int8")
        if self.is_unit_output:
            flags.append("unit-out")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"unit{self.unit_index}: {self.kind:<10} {name}{suffix}"


@dataclass
class ExecutionPlan:
    """A flat kernel-step program over an ordered stack of FF units."""

    steps: List[KernelStep]
    unit_modules: List[Module]
    flatten_input: bool = False
    unit_step_counts: List[int] = field(default_factory=list)

    @property
    def num_units(self) -> int:
        return len(self.unit_modules)

    def describe(self) -> str:
        """Human-readable listing of the compiled steps."""
        header = (
            f"ExecutionPlan: {len(self.steps)} steps over {self.num_units} "
            f"units (flatten_input={self.flatten_input})"
        )
        return "\n".join([header] + [f"  {step.describe()}" for step in self.steps])

    # ------------------------------------------------------------------ #
    def training_flags(self) -> List[bool]:
        """Top-level training flag of every unit (for save/restore)."""
        return [unit.training for unit in self.unit_modules]

    def restore_training_flags(self, flags: Sequence[bool]) -> None:
        for unit, mode in zip(self.unit_modules, flags):
            unit.train(mode)

    def eval(self) -> None:
        for unit in self.unit_modules:
            unit.eval()


def _lower_module(
    module: Module, unit_index: int, steps: List[KernelStep]
) -> None:
    """Recursively lower one module into kernel steps."""
    if isinstance(module, Sequential):
        for child in module.layers():
            _lower_module(child, unit_index, steps)
        return
    steps.append(KernelStep(step_kind(module), module, unit_index))


def compile_plan(
    units: Sequence[Module],
    flatten_input: bool = False,
) -> ExecutionPlan:
    """Compile an ordered FF unit stack into an :class:`ExecutionPlan`.

    Each unit's final step is tagged ``is_unit_output`` — those are the
    activities the goodness function taps and the per-unit boundaries the
    trainer updates at.
    """
    if not units:
        raise ValueError("cannot compile a plan over zero units")
    steps: List[KernelStep] = []
    for unit_index, unit in enumerate(units):
        before = len(steps)
        _lower_module(unit, unit_index, steps)
        if len(steps) == before:
            # An empty Sequential still forwards its input unchanged; keep a
            # step so the unit has an output boundary.
            steps.append(KernelStep("identity", unit, unit_index))
        last = steps[-1]
        steps[-1] = KernelStep(last.kind, last.module, last.unit_index, True)
    unit_step_counts = [0] * len(units)
    for step in steps:
        unit_step_counts[step.unit_index] += 1
    return ExecutionPlan(
        steps=steps,
        unit_modules=list(units),
        flatten_input=flatten_input,
        unit_step_counts=unit_step_counts,
    )


__all__ = [
    "STEP_KINDS",
    "step_kind",
    "KernelStep",
    "ExecutionPlan",
    "compile_plan",
]
