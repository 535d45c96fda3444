"""Batched forward-only INT8 execution engine for frozen artifacts.

Two properties distinguish this engine from the training-side
:class:`~repro.quant.int8_ops.Int8Engine`:

* **Frozen weights.**  Weights were quantized once at export; the engine
  never re-derives weight scales or touches observers, gradient buffers or
  activation caches.
* **Per-sample activation scales.**  Activations are quantized with one
  scale per *row* (nearest rounding) instead of one scale per batch.  Row
  operations are independent, so a sample's prediction is bit-identical
  whatever batch it is served in — the micro-batcher may coalesce requests
  freely without changing any answer — and a batched engine pass agrees
  bit-for-bit with per-sample :class:`FFGoodnessClassifier` inference over
  the same frozen units.

Execution routes through :mod:`repro.runtime`: the frozen units are compiled
into an :class:`~repro.runtime.plan.ExecutionPlan` whose folded-label
read-out (all ``num_classes`` overlays stacked into the batch dimension) is
one traversal instead of ``num_classes``; the INT8 GEMMs dispatch to the
selected kernel backend (the ``fast`` backend runs them as exact-float32
BLAS calls with fused per-row quantization — the default serving path).
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.classifier import FFGoodnessClassifier
from repro.core.goodness import GoodnessFunction, build_goodness
from repro.data.overlay import LabelOverlay
from repro.models.base import ModelBundle
from repro.models.registry import build_model
from repro.nn.module import Module
from repro.nn.norm import _BatchNormBase
from repro.obs import trace as obs_trace
from repro.runtime import dispatch
from repro.runtime.backends import exact_f32_possible
from repro.runtime.dispatch import BackendLike
from repro.runtime.executor import PlanExecutor
from repro.serve.export import (
    _BUFFER_NAMES,
    _QUANTIZABLE,
    BUFFER_SUFFIX,
    QUANT_SUFFIX,
    SCALE_SUFFIX,
    InferenceArtifact,
    named_modules,
)


def rowwise_quantize(
    values: np.ndarray, qmax: int = 127
) -> Tuple[np.ndarray, np.ndarray]:
    """Quantize each row of ``values`` with its own scale (nearest rounding).

    Returns ``(q, scales)`` with ``q`` int8 shaped like ``values`` and
    ``scales`` of shape ``(rows,)``.  Rows are quantized independently, which
    makes the result invariant to how rows are grouped into batches — the
    property the micro-batcher relies on.  All arithmetic stays in float32
    (deterministic and row-wise, so bit-identity across batch compositions is
    preserved) to keep the serving hot path off the float64 slow lane.
    """
    return dispatch.rowwise_quantize(values, qmax)


class FrozenInt8Kernel:
    """Inference-only quantized engine attached to a single frozen layer.

    Implements the ``quant_engine`` protocol that :class:`Linear`,
    :class:`Conv2d` and :class:`DepthwiseConv2d` dispatch to, but with the
    weight operand fixed at construction: the module's float32 weight is
    ignored and the pre-quantized INT8 matrix is used instead.  The gradient
    entry points raise — an exported artifact cannot be trained.
    """

    def __init__(
        self,
        weight_q: np.ndarray,
        weight_scale: np.ndarray,
        qmax: int = 127,
        backend: BackendLike = None,
    ) -> None:
        if weight_q.dtype != np.int8:
            raise TypeError(f"frozen weights must be int8, got {weight_q.dtype}")
        if weight_q.ndim != 2:
            raise ValueError(
                f"frozen weights must be a 2-D matrix, got shape {weight_q.shape}"
            )
        self.weight_q = np.ascontiguousarray(weight_q)
        self.weight_qT = np.ascontiguousarray(weight_q.T)
        self.weight_scale = np.asarray(weight_scale, dtype=np.float64)
        # The hot path rescales in float32; precompute the narrowed scales.
        self._weight_scale32 = self.weight_scale.astype(np.float32)
        self.qmax = int(qmax)
        self.backend = backend
        # Whether an exact-float32 GEMM is possible for this layer (see the
        # fast backend): every partial sum of K = reduce_dim products stays
        # below 2^24, float32's exact-integer range.
        reduce_dim = self.weight_qT.shape[0]
        self._exact_f32 = exact_f32_possible(reduce_dim, self.qmax)
        # Float32 copy of the transposed weight, materialized lazily and
        # only for backends that read it (a reference-backend engine never
        # pays the 4x memory).
        self._weight_qT_f32: Optional[np.ndarray] = None

    def rhs_f32_for(self, backend) -> Optional[np.ndarray]:
        """The stable float32 GEMM operand this kernel feeds ``backend``.

        Returns ``None`` when the backend never reads a float32 copy or the
        reduction is not exact in float32.
        """
        if not (self._exact_f32 and backend.wants_f32_rhs):
            return None
        if self._weight_qT_f32 is None:
            # Worker threads may race here; both compute the same array and
            # the attribute store is atomic, so the duplicate work is benign.
            self._weight_qT_f32 = self.weight_qT.astype(np.float32)
        return self._weight_qT_f32

    # ------------------------------------------------------------------ #
    def _rescale(self, acc: np.ndarray, row_scales: np.ndarray) -> np.ndarray:
        out = acc.astype(np.float32)
        out *= row_scales[:, None]
        if self._weight_scale32.ndim == 1:
            out *= self._weight_scale32[None, :]
        else:
            out *= self._weight_scale32
        return out

    def linear_forward(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """``x @ frozen_weight.T`` with INT8 operands (``weight`` ignored)."""
        backend = dispatch.active_backend(self.backend)
        acc, x_scales = dispatch.rowwise_quantized_gemm(
            x,
            self.weight_qT,
            qmax=self.qmax,
            rhs_f32=self.rhs_f32_for(backend),
            exact_f32=self._exact_f32,
            backend=backend,
        )
        return self._rescale(acc, x_scales)

    def depthwise_forward(self, cols: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Depthwise inner product with INT8 operands (``weight`` ignored)."""
        c_q, c_scales = dispatch.rowwise_quantize(
            cols, self.qmax, backend=self.backend
        )
        acc = dispatch.int8_depthwise(c_q, self.weight_q, backend=self.backend)
        return self._rescale(acc, c_scales)

    # ------------------------------------------------------------------ #
    def linear_weight_grad(self, grad_output: np.ndarray, x: np.ndarray):
        raise RuntimeError(
            "FrozenInt8Kernel is inference-only; exported artifacts cannot "
            "compute weight gradients"
        )

    def depthwise_weight_grad(self, grad_matrix: np.ndarray, cols: np.ndarray):
        raise RuntimeError(
            "FrozenInt8Kernel is inference-only; exported artifacts cannot "
            "compute weight gradients"
        )


# --------------------------------------------------------------------------- #
# artifact -> frozen modules
# --------------------------------------------------------------------------- #
def _restore_frozen_units(
    artifact: InferenceArtifact,
    bundle: ModelBundle,
    backend: BackendLike = None,
) -> List[Module]:
    """Rebuild the bundle's FF units with frozen INT8 kernels attached."""
    units = bundle.ff_units()
    if len(units) != artifact.num_units:
        raise ValueError(
            f"artifact stores {artifact.num_units} units but bundle "
            f"{bundle.name!r} produces {len(units)}; model configuration mismatch"
        )
    for index, unit in enumerate(units):
        prefix = f"unit{index}."
        frozen_names = set()
        for path, module in named_modules(unit):
            if isinstance(module, _QUANTIZABLE):
                base = f"{prefix}{path}weight"
                try:
                    q = artifact.tensors[base + QUANT_SUFFIX]
                    scale = artifact.tensors[base + SCALE_SUFFIX]
                except KeyError as error:
                    raise KeyError(
                        f"artifact is missing frozen weight tensor {error.args[0]!r}"
                    ) from None
                matrix = np.ascontiguousarray(q.reshape(q.shape[0], -1))
                scale = np.asarray(scale, dtype=np.float64)
                broadcast = scale[:, None] if scale.ndim == 1 else scale
                dequantized = (matrix.astype(np.float64) * broadcast).astype(
                    np.float32
                )
                module.weight.copy_(dequantized.reshape(module.weight.data.shape))
                module.quant_engine = FrozenInt8Kernel(
                    matrix, scale, backend=backend
                )
                frozen_names.add(f"{path}weight")
            elif isinstance(module, _BatchNormBase):
                for buffer_name in _BUFFER_NAMES:
                    key = f"{prefix}{path}{buffer_name}{BUFFER_SUFFIX}"
                    if key in artifact.tensors:
                        setattr(
                            module,
                            buffer_name,
                            artifact.tensors[key].astype(np.float32).copy(),
                        )
        for name, param in unit.named_parameters():
            if name in frozen_names:
                continue
            key = f"{prefix}{name}"
            if key not in artifact.tensors:
                raise KeyError(f"artifact is missing parameter {key!r}")
            param.copy_(artifact.tensors[key])
        unit.eval()
        unit.set_activation_caching(False)
    return units


def _bundle_from_metadata(artifact: InferenceArtifact) -> ModelBundle:
    registry_name = artifact.metadata.get("registry_name")
    if registry_name is None:
        raise ValueError(
            "artifact carries no registry reference; pass a matching "
            "ModelBundle explicitly"
        )
    kwargs = dict(artifact.metadata.get("registry_kwargs") or {})
    if "input_shape" in kwargs:
        kwargs["input_shape"] = tuple(kwargs["input_shape"])
    return build_model(str(registry_name), **kwargs)


class Int8InferenceEngine:
    """Batched goodness-readout inference over frozen INT8 units.

    The engine owns nothing trainable: units run in eval mode with activation
    caching disabled, so a forward pass allocates no gradient or cache state.
    The folded-label read-out executes the units' compiled plan once for all
    ``num_classes`` overlays — valid because the frozen kernels quantize
    activations per row.
    """

    def __init__(
        self,
        units: Sequence[Module],
        overlay: LabelOverlay,
        goodness: Optional[GoodnessFunction] = None,
        flatten_input: bool = False,
        skip_first_layer: Optional[bool] = None,
        backend: BackendLike = None,
        input_shape: Optional[Tuple[int, ...]] = None,
    ) -> None:
        if not units:
            raise ValueError("engine needs at least one frozen unit")
        self.units = list(units)
        self.overlay = overlay
        self.goodness = goodness if goodness is not None else build_goodness(
            "sum_squares"
        )
        self.flatten_input = flatten_input
        if skip_first_layer is None:
            skip_first_layer = len(self.units) >= 2
        self.skip_first_layer = skip_first_layer
        self.input_shape = tuple(input_shape) if input_shape else None
        for unit in self.units:
            unit.eval()
            unit.set_activation_caching(False)
        # Computed once: the weights are frozen for the engine's lifetime.
        self._units_fp = self._units_fingerprint(self.units)
        # Units are permanently eval from here on; static_eval spares the
        # per-batch mode save/restore walk on the serving hot path.
        self.executor = PlanExecutor.for_units(
            self.units, flatten_input=self.flatten_input,
            backend=backend, static_eval=True,
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_artifact(
        cls,
        artifact: InferenceArtifact,
        bundle: Optional[ModelBundle] = None,
        backend: BackendLike = None,
    ) -> "Int8InferenceEngine":
        """Materialize an engine from an exported artifact.

        When ``bundle`` is omitted the module skeleton is rebuilt from the
        artifact's registry reference.  The passed bundle's blocks are frozen
        in place (weights overwritten, INT8 kernels attached) — do not keep
        training it afterwards.  ``backend`` selects the kernel backend for
        this engine; by default the ambient runtime selection applies.
        """
        if bundle is None:
            bundle = _bundle_from_metadata(artifact)
        if bundle.num_classes != artifact.num_classes:
            raise ValueError(
                f"bundle has {bundle.num_classes} classes but artifact stores "
                f"{artifact.num_classes}"
            )
        units = _restore_frozen_units(artifact, bundle, backend=backend)
        overlay = LabelOverlay(
            num_classes=artifact.num_classes, amplitude=artifact.overlay_amplitude
        )
        return cls(
            units,
            overlay,
            goodness=build_goodness(artifact.goodness_name),
            flatten_input=artifact.flatten_input,
            skip_first_layer=artifact.skip_first_layer,
            backend=backend,
            input_shape=artifact.input_shape,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _units_fingerprint(units: Sequence[Module]) -> str:
        """Content digest over every frozen parameter of the unit stack.

        Computed once at construction (the engine's weights are immutable);
        it is the engine's :attr:`cache_namespace`.
        """
        digest = hashlib.blake2b(digest_size=16)
        for index, unit in enumerate(units):
            for name, param in unit.named_parameters():
                digest.update(f"unit{index}.{name}".encode())
                digest.update(np.ascontiguousarray(param.data).tobytes())
        return digest.hexdigest()

    @property
    def num_classes(self) -> int:
        return self.overlay.num_classes

    def goodness_matrix(self, inputs: np.ndarray) -> np.ndarray:
        """Goodness for every (sample, label) pair in one vectorized pass.

        All label overlays are folded into the batch dimension, so the whole
        readout costs one traversal of the network instead of
        ``num_classes`` separate ones.
        """
        return self.executor.goodness_matrix(
            inputs, self.overlay, self.goodness, self.skip_first_layer,
            fold_labels=True,
        )

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Predicted labels for a batch of raw (un-overlaid) inputs.

        When tracing is on and the caller did not already bind a request
        trace (the micro-batcher does), a sampled direct call becomes its
        own root trace, so per-step spans are captured for un-batched
        engine use too.  Tracing off costs one module-flag read.
        """
        if obs_trace.tracing_enabled() and not obs_trace.has_active_trace():
            trace = obs_trace.maybe_trace(
                "engine.predict", batch=int(np.asarray(inputs).shape[0])
            )
            if trace is not None:
                with obs_trace.use_trace(trace):
                    labels = np.argmax(self.goodness_matrix(inputs), axis=1)
                obs_trace.finish_trace(trace)
                return labels
        return np.argmax(self.goodness_matrix(inputs), axis=1)

    def predict_one(self, sample: np.ndarray) -> int:
        """Predicted label for a single sample (no batch dimension)."""
        return int(self.predict(np.asarray(sample)[None])[0])

    @property
    def cache_namespace(self) -> str:
        """Namespace for shared prediction-cache keys: the units digest.

        Two engines share cached predictions exactly when their frozen
        params are identical — so a post-swap engine can never serve
        another version's cached outputs, while versions registered with
        identical params still share entries.
        """
        return self._units_fp


def build_engine(
    artifact: InferenceArtifact,
    bundle: Optional[ModelBundle] = None,
    backend: BackendLike = None,
) -> Int8InferenceEngine:
    """Convenience alias for :meth:`Int8InferenceEngine.from_artifact`."""
    return Int8InferenceEngine.from_artifact(artifact, bundle, backend=backend)


def frozen_classifier(
    artifact: InferenceArtifact,
    bundle: Optional[ModelBundle] = None,
    backend: BackendLike = None,
) -> FFGoodnessClassifier:
    """A :class:`FFGoodnessClassifier` over the artifact's frozen units.

    This is the per-sample reference implementation: it traverses the same
    frozen INT8 kernels one label overlay at a time.  Because activation
    scales are per-row, its predictions are bit-identical to the batched
    engine — the equivalence the serving tests pin down.
    """
    if bundle is None:
        bundle = _bundle_from_metadata(artifact)
    units = _restore_frozen_units(artifact, bundle, backend=backend)
    overlay = LabelOverlay(
        num_classes=artifact.num_classes, amplitude=artifact.overlay_amplitude
    )
    return FFGoodnessClassifier(
        units,
        overlay,
        goodness=build_goodness(artifact.goodness_name),
        flatten_input=artifact.flatten_input,
        skip_first_layer=artifact.skip_first_layer,
        backend=backend,
    )
