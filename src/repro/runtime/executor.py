"""Plan execution: the one forward path every workload routes through.

Before the runtime layer, the repo carried three hand-rolled forward walks
that had to stay numerically identical — the FF trainer's
``forward_through_units``, :class:`FFGoodnessClassifier` inference, and the
serving engine's folded-label readout.  :class:`PlanExecutor` replaces all
of them: it runs a compiled :class:`~repro.runtime.plan.ExecutionPlan` step
by step on a selected backend, and offers the derived read-outs (per-unit
activities, accumulated goodness, label-probe goodness matrices in both the
per-label-loop and folded-batch forms) in one place.

Numerical contract: executing a plan is arithmetic-identical to walking the
original module tree, because every step runs ``step.module(hidden)`` — the
one execution path that training, serving, instrumented runs and the
``reference`` oracle all share.  Only the GEMMs inside route through the
pluggable backend, and every shipped backend is exact.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.nn.module import Module
from repro.obs import trace as obs_trace
from repro.runtime import dispatch
from repro.runtime.dispatch import BackendLike
from repro.runtime.plan import ExecutionPlan, KernelStep, compile_plan


class PlanExecutor:
    """Executes a compiled plan on a (lazily resolved) kernel backend.

    ``static_eval=True`` declares that the plan's units are permanently in
    eval mode (frozen serving artifacts): :meth:`inference_mode` then skips
    the save/eval/restore traversal of the module tree, which would
    otherwise be two recursive flag walks of pure overhead — and a
    cross-thread mutation of shared module state — per served batch.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        backend: BackendLike = None,
        static_eval: bool = False,
    ) -> None:
        self.plan = plan
        self.backend = backend
        self.static_eval = static_eval

    # ------------------------------------------------------------------ #
    @classmethod
    def for_units(
        cls,
        units: Sequence[Module],
        flatten_input: bool = False,
        backend: BackendLike = None,
        static_eval: bool = False,
    ) -> "PlanExecutor":
        """Compile ``units`` and wrap the plan in an executor."""
        return cls(
            compile_plan(units, flatten_input=flatten_input),
            backend,
            static_eval=static_eval,
        )

    # ------------------------------------------------------------------ #
    def _prepare(self, inputs: np.ndarray) -> np.ndarray:
        if self.plan.flatten_input:
            return inputs.reshape(inputs.shape[0], -1)
        return inputs

    # ------------------------------------------------------------------ #
    def _run_step(self, step: KernelStep, hidden: np.ndarray) -> np.ndarray:
        """Execute one plan step.

        The observability check is one thread-local attribute read;
        untraced requests take the plain path, which is what keeps
        tracing-off overhead under the 1% guard.
        """
        if obs_trace.has_active_trace():
            return self._run_step_observed(step, hidden)
        return step.module(hidden)

    def _run_step_observed(
        self, step: KernelStep, hidden: np.ndarray
    ) -> np.ndarray:
        """Traced variant of :meth:`_run_step`: one span per plan step.

        Attributes each step to the backend that runs it (the executor
        selection or the ambient default).
        """
        rows = int(hidden.shape[0])
        cols = int(np.prod(hidden.shape[1:])) if hidden.ndim > 1 else 1
        name = f"unit{step.unit_index}.{step.kind}"
        with obs_trace.span(name, rows=rows, cols=cols) as attrs:
            attrs["backend"] = dispatch.active_backend().name
            return step.module(hidden)

    @contextmanager
    def inference_mode(self) -> Iterator[None]:
        """Run the block with every unit in eval mode, then restore."""
        if self.static_eval:
            yield
            return
        flags = self.plan.training_flags()
        self.plan.eval()
        try:
            yield
        finally:
            self.plan.restore_training_flags(flags)

    # ------------------------------------------------------------------ #
    # core traversal
    # ------------------------------------------------------------------ #
    def unit_outputs(
        self, inputs: np.ndarray, limit: Optional[int] = None
    ) -> List[np.ndarray]:
        """Output activity of each unit (optionally only the first ``limit``).

        This is the shared forward pass of Algorithm 1: one traversal,
        every unit's activity collected for goodness/loss evaluation.
        """
        outputs: List[np.ndarray] = []
        with dispatch.use_backend(self.backend):
            hidden = self._prepare(inputs)
            for step in self.plan.steps:
                if limit is not None and step.unit_index >= limit:
                    break
                hidden = self._run_step(step, hidden)
                if step.is_unit_output:
                    outputs.append(hidden)
        return outputs

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Final unit's output activity."""
        outputs = self.unit_outputs(inputs)
        return outputs[-1]

    # ------------------------------------------------------------------ #
    # goodness read-outs
    # ------------------------------------------------------------------ #
    def goodness_totals(
        self, inputs: np.ndarray, goodness, skip_first: bool
    ) -> np.ndarray:
        """Total goodness per row, accumulated over the counted units."""
        total = np.zeros(inputs.shape[0], dtype=np.float64)
        with dispatch.use_backend(self.backend):
            hidden = self._prepare(inputs)
            for step in self.plan.steps:
                hidden = self._run_step(step, hidden)
                if step.is_unit_output and not (
                    skip_first and step.unit_index == 0
                ):
                    total += goodness.value(hidden)
        return total.astype(np.float32)

    def goodness_matrix(
        self,
        inputs: np.ndarray,
        overlay,
        goodness,
        skip_first: bool,
        fold_labels: bool = False,
    ) -> np.ndarray:
        """Goodness for every (sample, candidate label) pair.

        ``fold_labels=False`` probes one label overlay at a time — the
        classical FF read-out, exact for engines whose activation scales are
        batch-global.  ``fold_labels=True`` folds every overlay into the
        batch dimension for a single traversal — valid only when activation
        quantization is per-row (the frozen serving kernels), where it is
        bit-identical to the per-label loop and ``num_classes`` times
        cheaper per traversal.
        """
        with self.inference_mode():
            if fold_labels:
                inputs = np.asarray(inputs, dtype=np.float32)
                if inputs.shape[0] == 0:
                    return np.zeros(
                        (0, overlay.num_classes), dtype=np.float32
                    )
                candidates = overlay.candidates(inputs)
                num_labels, batch = candidates.shape[0], candidates.shape[1]
                folded = candidates.reshape(
                    (num_labels * batch,) + candidates.shape[2:]
                )
                totals = self.goodness_totals(folded, goodness, skip_first)
                return np.ascontiguousarray(
                    totals.reshape(num_labels, batch).T
                )
            candidates = overlay.candidates(inputs)
            return np.stack(
                [
                    self.goodness_totals(candidates[label], goodness, skip_first)
                    for label in range(overlay.num_classes)
                ],
                axis=1,
            )

    def predict(
        self, inputs: np.ndarray, overlay, goodness, skip_first: bool,
        fold_labels: bool = False,
    ) -> np.ndarray:
        """Argmax label of the goodness matrix."""
        return np.argmax(
            self.goodness_matrix(
                inputs, overlay, goodness, skip_first, fold_labels=fold_labels
            ),
            axis=1,
        )


def forward_through_units(
    units: Sequence[Module], inputs: np.ndarray
) -> List[np.ndarray]:
    """Run one shared forward pass, returning every unit's output activity.

    Compatibility shim over :class:`PlanExecutor` for callers holding a bare
    unit list; hot loops should compile once and reuse the executor.
    """
    return PlanExecutor.for_units(units).unit_outputs(inputs)


__all__ = ["PlanExecutor", "forward_through_units"]
