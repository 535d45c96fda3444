"""``repro.serve`` — batched INT8 inference for trained FF-INT8 networks.

The training side of the repo answers "can Forward-Forward learn in INT8?";
this package answers "what do you do with the result?".  It covers the
deployment path end to end:

* :func:`export_artifact` / :func:`export_from_checkpoint` freeze trained
  units into an immutable :class:`InferenceArtifact` with pre-quantized INT8
  weights (persist with :func:`save_artifact` / :func:`load_artifact`),
* :class:`Int8InferenceEngine` runs the batched forward-only goodness
  readout over the frozen weights,
* :class:`MicroBatcher` coalesces single-sample requests into engine
  batches, fronted by a :class:`PredictionCache` and instrumented by
  :class:`ServeMetrics`,
* :class:`ReplicaSupervisor` pools engine replicas (grouped into
  per-model replica sets) with supervised restart-and-reroute: it builds,
  restarts and closes every served engine,
* :class:`ServeFrontend` / :class:`FrontendClient` put the whole stack on
  a socket with explicit request outcomes (result, :class:`RequestShed`,
  :class:`DeadlineExceeded`) — nothing drops silently.  The front-end
  alone owns admission: its ``max_queue_depth`` bound, the shed
  ``retry_after_ms`` hint and the shed count,
* :class:`ModelRegistry` is the routing table: it names and versions
  artifacts (``resnet18-mini@v2``, ``@latest``) and hot-swaps the stable
  serving version atomically; :class:`CanaryController` routes a
  deterministic traffic split to a candidate version and auto-rolls-back
  on an error-rate or latency regression with capped doubling hold-off,
* :class:`ServeConfig` / :class:`FrontendConfig` carry the serving knobs,
* :mod:`repro.serve.faults` injects deterministic failures for the
  robustness tests and the chaos smoke.

See ``examples/serve_quickstart.py`` for the train → export → serve loop
and ``examples/frontend_quickstart.py`` for serving over the wire.
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.cache import PredictionCache, input_digest
from repro.serve.config import FrontendConfig, ServeConfig
from repro.serve.errors import (
    DeadlineExceeded,
    ReplicaUnavailable,
    RequestShed,
    ServeError,
)
from repro.serve.engine import (
    FrozenInt8Kernel,
    Int8InferenceEngine,
    build_engine,
    frozen_classifier,
    rowwise_quantize,
)
from repro.serve.export import (
    InferenceArtifact,
    export_artifact,
    export_from_checkpoint,
    freeze_unit_weights,
    load_artifact,
    save_artifact,
)
from repro.serve.canary import CanaryController, CanaryHeldOff
from repro.serve.frontend import FrontendClient, ServeFrontend
from repro.serve.metrics import ModelSeries, ServeMetrics, latency_percentiles
from repro.serve.registry import (
    ModelNotFound,
    ModelRegistry,
    ModelVersion,
    artifact_fingerprint,
    parse_model_ref,
)
from repro.serve.supervisor import ReplicaSupervisor

__all__ = [
    "ModelRegistry",
    "ModelVersion",
    "ModelNotFound",
    "ModelSeries",
    "CanaryController",
    "CanaryHeldOff",
    "artifact_fingerprint",
    "parse_model_ref",
    "ServeConfig",
    "FrontendConfig",
    "ServeError",
    "RequestShed",
    "DeadlineExceeded",
    "ReplicaUnavailable",
    "ServeFrontend",
    "FrontendClient",
    "ReplicaSupervisor",
    "InferenceArtifact",
    "export_artifact",
    "export_from_checkpoint",
    "freeze_unit_weights",
    "save_artifact",
    "load_artifact",
    "Int8InferenceEngine",
    "FrozenInt8Kernel",
    "build_engine",
    "frozen_classifier",
    "rowwise_quantize",
    "MicroBatcher",
    "PredictionCache",
    "input_digest",
    "ServeMetrics",
    "latency_percentiles",
]
