"""FF-INT8: Forward-Forward DNN training with INT8 precision (reproduction).

Reproduction of "FF-INT8: Efficient Forward-Forward DNN Training on Edge
Devices with INT8 Precision" (DAC 2025).  The public API re-exports the most
commonly used entry points:

* models: :func:`build_model` and the Table II architectures,
* datasets: :func:`synthetic_mnist`, :func:`synthetic_cifar10`,
* the FF-INT8 trainer (:class:`FFInt8Trainer`) and its baselines
  (:class:`BPTrainer`, :func:`make_trainer`),
* the Jetson Orin Nano hardware model (:class:`TrainingCostModel`),
* the serving stack (:func:`export_artifact` → :class:`Int8InferenceEngine`
  → :class:`MicroBatcher`) for batched INT8 inference from frozen weights,
* the execution layer (:mod:`repro.runtime`): one compiled plan + pluggable
  kernel backends (``reference``/``fast``) shared by training, evaluation
  and serving — select with ``REPRO_BACKEND`` or the CLI ``--backend`` flag.

See ``examples/quickstart.py`` for a 20-line end-to-end run and
``examples/serve_quickstart.py`` for the train → export → serve loop.
"""

from repro.core import (
    FFConfig,
    FFGoodnessClassifier,
    FFInt8Config,
    FFInt8Trainer,
    ForwardForwardTrainer,
    ff_fp32,
    ff_int8_vanilla,
    ff_int8_with_lookahead,
)
from repro.data import synthetic_cifar10, synthetic_mnist
from repro.hardware import TrainingCostModel, build_table5_summary, profile_bundle
from repro.models import available_models, build_model
from repro.serve import (
    DeadlineExceeded,
    FrontendClient,
    FrontendConfig,
    Int8InferenceEngine,
    InferenceArtifact,
    MicroBatcher,
    PredictionCache,
    ReplicaSupervisor,
    RequestShed,
    ServeConfig,
    ServeFrontend,
    ServeMetrics,
    build_engine,
    export_artifact,
    export_from_checkpoint,
    frozen_classifier,
    load_artifact,
    save_artifact,
)
from repro import runtime
from repro.training import BPConfig, BPTrainer, make_trainer

__version__ = "1.9.0"

__all__ = [
    "FFInt8Trainer",
    "FFInt8Config",
    "ForwardForwardTrainer",
    "FFConfig",
    "FFGoodnessClassifier",
    "ff_int8_with_lookahead",
    "ff_int8_vanilla",
    "ff_fp32",
    "BPTrainer",
    "BPConfig",
    "make_trainer",
    "build_model",
    "available_models",
    "synthetic_mnist",
    "synthetic_cifar10",
    "TrainingCostModel",
    "profile_bundle",
    "build_table5_summary",
    "InferenceArtifact",
    "export_artifact",
    "export_from_checkpoint",
    "save_artifact",
    "load_artifact",
    "Int8InferenceEngine",
    "build_engine",
    "frozen_classifier",
    "MicroBatcher",
    "PredictionCache",
    "ServeConfig",
    "ServeMetrics",
    "FrontendConfig",
    "ServeFrontend",
    "FrontendClient",
    "ReplicaSupervisor",
    "RequestShed",
    "DeadlineExceeded",
    "runtime",
    "__version__",
]
