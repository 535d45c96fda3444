"""Plan compiler: flatten an FF unit stack into a list of kernel steps.

``compile_plan`` walks the module tree of every unit and lowers it to a flat
sequence of :class:`KernelStep`\\ s — gemm, conv, depthwise, norm,
activation, pool, dropout, reshape — in execution order.  Only
:class:`~repro.nn.containers.Sequential` containers are dissolved (their
forward *is* the sequence); structured modules such as residual adds and
squeeze-excite gates stay opaque ``module`` steps so their exact gradient
topology is preserved.

One optional pass runs over the lowered steps: **per-layer backend
pinning** (``pins=``).  Individual steps carry a backend override
(``"gemm"``, ``"unit0"``, ``"unit1.gemm"`` specs) that
:mod:`repro.runtime.dispatch` resolves as the most specific selection —
wide layers can run the tiled ``parallel`` kernels while narrow ones stay
on single-threaded BLAS.  Pinning only routes kernels; every step still
executes as its original module.

The compiled :class:`ExecutionPlan` is what every forward path in the repo
executes (training, label-probe classification, softmax readout features,
and batched serving) via :class:`~repro.runtime.executor.PlanExecutor`; the
kernels inside each step route through :mod:`repro.runtime.dispatch` and the
selected backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

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
    """One executable step of a compiled plan.

    ``backend`` is an optional per-step pin resolved by
    :func:`repro.runtime.dispatch.pin_backend` (the most specific backend
    selection there is).
    """

    kind: str
    module: Optional[Module]
    unit_index: int
    is_unit_output: bool = False
    backend: Optional[str] = None

    @property
    def quantized(self) -> bool:
        """True when the step's GEMM runs through an attached INT8 engine."""
        return getattr(self.module, "quant_engine", None) is not None

    def describe(self) -> str:
        name = type(self.module).__name__ if self.module is not None else "-"
        flags = []
        if self.quantized:
            flags.append("int8")
        if self.backend is not None:
            flags.append(f"pin={self.backend}")
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


# --------------------------------------------------------------------------- #
# per-layer backend pinning
# --------------------------------------------------------------------------- #
#: sentinel pin spec: resolve every layer's backend from measured timings
#: (see :func:`repro.runtime.autopin.autopin`) instead of a hand-written
#: mapping.  Accepted everywhere a pin mapping is (``FFConfig.pins``,
#: ``ServeConfig.pins``, CLI ``--pin auto``).
AUTO_PINS = "auto"


def _valid_pin_key(key: str) -> bool:
    """True for ``"<kind>"``, ``"unit<N>"`` and ``"unit<N>.<kind>"`` specs."""
    if key in STEP_KINDS:
        return True
    base, dot, kind = key.partition(".")
    if not (base.startswith("unit") and base[len("unit"):].isdigit()):
        return False
    return not dot or kind in STEP_KINDS


def _pin_candidates(step: KernelStep) -> Tuple[str, ...]:
    """Pin spec keys matching ``step``, most specific first."""
    return (
        f"unit{step.unit_index}.{step.kind}",
        f"unit{step.unit_index}",
        step.kind,
    )


def validate_pins(pins):
    """Eagerly validate pin spec keys and backend names.

    Raises on malformed keys and unregistered backends; whether a pin
    actually matches a step is only known at :func:`compile_plan` time.
    Returns the mapping unchanged so configs can validate-and-store.  The
    :data:`AUTO_PINS` sentinel (``"auto"``) passes through — its resolution
    is measured, not declared.
    """
    from repro.runtime.backends import get_backend

    if pins == AUTO_PINS:
        return pins
    for key, backend_name in pins.items():
        if not _valid_pin_key(key):
            raise ValueError(
                f"invalid pin spec {key!r}; expected '<kind>', 'unit<N>' or "
                f"'unit<N>.<kind>' with kind in {STEP_KINDS}"
            )
        get_backend(backend_name)  # fail fast on unknown backends
    return pins


def _apply_pins(
    steps: List[KernelStep], pins: Dict[str, str]
) -> List[KernelStep]:
    """Attach per-step backend overrides from a pin-spec mapping.

    Keys are ``"<kind>"`` (every step of that kind), ``"unit<N>"`` (every
    step of unit N) or ``"unit<N>.<kind>"``; the most specific match wins.
    Backend names are validated eagerly and every pin must match at least
    one step, so config typos fail at compile time instead of silently
    running on the wrong kernels.
    """
    validate_pins(pins)
    matched: set = set()
    pinned: List[KernelStep] = []
    for step in steps:
        backend_name = None
        for candidate in _pin_candidates(step):
            if candidate in pins:
                if backend_name is None:
                    backend_name = pins[candidate]
                # A generic spec shadowed by a more specific one on every
                # step it covers still "matched" — it is not a typo.
                matched.add(candidate)
        pinned.append(
            replace(step, backend=backend_name) if backend_name else step
        )
    unmatched = sorted(set(pins) - matched)
    if unmatched:
        raise ValueError(
            f"pin specs {unmatched} matched no step of the compiled plan; "
            f"steps are {[step.describe() for step in steps]}"
        )
    return pinned


def compile_plan(
    units: Sequence[Module],
    flatten_input: bool = False,
    pins=None,
    auto_rows: Optional[int] = None,
    auto_input_shape: Optional[Sequence[int]] = None,
) -> ExecutionPlan:
    """Compile an ordered FF unit stack into an :class:`ExecutionPlan`.

    Each unit's final step is tagged ``is_unit_output`` — those are the
    activities the goodness function taps and the per-unit boundaries the
    trainer updates at.  ``pins`` attaches per-step backend overrides (see
    :func:`_apply_pins` for the spec syntax, or :data:`AUTO_PINS` to
    resolve every layer from measured timings — ``auto_rows`` then names
    the expected GEMM batch rows and ``auto_input_shape`` the per-sample
    ``(C, H, W)`` so conv steps scale those rows by their feature-map
    positions).  Pins only route kernels, so the executed arithmetic is the
    module walk's exactly.
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
    if pins and pins != AUTO_PINS:
        steps = _apply_pins(steps, dict(pins))
    if pins == AUTO_PINS:
        # Lazy import: autopin pulls the benchmark-record loader, which plan
        # compilation never needs otherwise.
        from repro.runtime.autopin import autopin_steps

        steps = autopin_steps(
            steps, batch_rows=auto_rows, input_shape=auto_input_shape
        )
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
    "AUTO_PINS",
    "step_kind",
    "validate_pins",
    "KernelStep",
    "ExecutionPlan",
    "compile_plan",
]
