"""Command-line interface for the FF-INT8 reproduction.

Six subcommands cover the common workflows::

    python -m repro models                      # architectures + parameter counts
    python -m repro train --model mlp-mini --algorithm FF-INT8 --epochs 20
    python -m repro estimate --model resnet18   # Jetson Orin Nano cost table
    python -m repro export --model mlp-mini --output runs/artifact
    python -m repro serve-bench --model mlp-mini --requests 256 --trace 3
    python -m repro serve-bench --server --port 7071 --replicas 2   # wire server
    python -m repro serve-bench --client --port 7071 --deadline-ms 250
    python -m repro registry --port 7071 swap mlp-mini@v2           # hot-swap
    python -m repro obs-snapshot --model mlp-mini --requests 64

The CLI is intentionally thin: it wires the public library API together so
that the same behaviour is scriptable without writing Python.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

import numpy as np

from repro import __version__
from repro.analysis import format_table
from repro.obs import (
    clear_buffer,
    disable_tracing,
    enable_tracing,
    format_trace,
    get_registry,
    slowest_traces,
)
from repro.core import FFInt8Config, FFInt8Trainer, load_ff_checkpoint, save_ff_checkpoint
from repro.data import synthetic_cifar10, synthetic_mnist
from repro.hardware import TrainingCostModel, profile_bundle
from repro.models import available_models, build_model
from repro.serve import (
    DeadlineExceeded,
    FrontendClient,
    FrontendConfig,
    MicroBatcher,
    ModelRegistry,
    RequestShed,
    ServeConfig,
    ServeFrontend,
    build_engine,
    export_artifact,
    export_from_checkpoint,
    latency_percentiles,
    load_artifact,
    parse_model_ref,
    save_artifact,
)
from repro.runtime import available_backends, use_backend
from repro.runtime.plan import validate_pins
from repro.training import ALL_ALGORITHMS, make_trainer
from repro.utils.serialization import save_json
from repro.utils.sysinfo import machine_meta


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FF-INT8: Forward-Forward INT8 training (DAC 2025 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")

    # Options every subcommand shares, so a whole benchmark pipeline
    # (train -> export -> serve-bench) is reproducible and backend-pinned
    # with the same two flags on each invocation.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="RNG seed for data generation, init and training "
                             "(shared by every subcommand)")
    common.add_argument("--backend", default=None,
                        choices=available_backends(),
                        help="runtime kernel backend (default: REPRO_BACKEND "
                             "env var, else 'fast'; all are bit-identical)")
    common.add_argument("--pin", action="append", default=None,
                        metavar="LAYER=BACKEND",
                        help="pin one layer of the compiled plan to a "
                             "backend; LAYER is '<kind>', 'unit<N>' or "
                             "'unit<N>.<kind>' (e.g. --pin gemm=parallel "
                             "--pin unit0=fast; repeatable; a pin outranks "
                             "--backend for that layer).  '--pin auto' "
                             "instead resolves every layer to its measured "
                             "winner (recorded kernel_micro timings when "
                             "fresh for this CPU, else a ~100ms in-process "
                             "calibration)")

    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "models", parents=[common],
        help="list registered architectures with parameter counts",
    )

    train = subparsers.add_parser("train", parents=[common],
                                  help="train a model with one algorithm")
    train.add_argument("--model", default="mlp-mini",
                       help="registry name (see `repro models`)")
    train.add_argument("--algorithm", default="FF-INT8", choices=ALL_ALGORITHMS)
    train.add_argument("--dataset", default="mnist", choices=("mnist", "cifar10"))
    train.add_argument("--epochs", type=int, default=20)
    train.add_argument("--batch-size", type=int, default=32)
    train.add_argument("--lr", type=float, default=None,
                       help="learning rate (defaults per algorithm)")
    train.add_argument("--train-samples", type=int, default=512)
    train.add_argument("--test-samples", type=int, default=160)
    train.add_argument("--image-size", type=int, default=None,
                       help="override dataset resolution (e.g. 14 or 16)")
    train.add_argument("--output", default=None,
                       help="optional path for a JSON run summary")
    train.add_argument("--save-checkpoint", default=None,
                       help="save trained FF units to this checkpoint path "
                            "(FF algorithms only)")

    estimate = subparsers.add_parser(
        "estimate", parents=[common],
        help="estimate Jetson Orin Nano training cost for a model",
    )
    estimate.add_argument("--model", default="resnet18")
    estimate.add_argument("--epochs", type=int, default=None,
                          help="epochs for every algorithm (default: per-algorithm)")
    estimate.add_argument("--dataset-size", type=int, default=50000)
    estimate.add_argument("--batch-size", type=int, default=32)

    export = subparsers.add_parser(
        "export", parents=[common],
        help="freeze a trained model into an immutable INT8 inference artifact",
    )
    export.add_argument("--model", default="mlp-mini",
                        help="registry name used to rebuild the module skeleton")
    export.add_argument("--checkpoint", default=None,
                        help="FF checkpoint to export (trains a fresh model "
                             "with FF-INT8 when omitted)")
    export.add_argument("--dataset", default="mnist", choices=("mnist", "cifar10"))
    export.add_argument("--epochs", type=int, default=8,
                        help="training epochs when no checkpoint is given")
    export.add_argument("--train-samples", type=int, default=256)
    export.add_argument("--test-samples", type=int, default=96)
    export.add_argument("--image-size", type=int, default=None)
    export.add_argument("--per-channel", action="store_true",
                        help="per-output-channel weight scales")
    export.add_argument("--output", required=True,
                        help="artifact path (writes <output>.npz + <output>.json)")

    bench = subparsers.add_parser(
        "serve-bench", parents=[common],
        help="benchmark single-sample vs micro-batched INT8 inference",
    )
    bench.add_argument("--model", default="mlp-mini",
                       help="architecture, optionally versioned as "
                            "NAME@VER — a --server registers the frozen "
                            "artifact under that version in its model "
                            "registry (default version v1)")
    bench.add_argument("--artifact", default=None,
                       help="serve an existing artifact instead of training")
    bench.add_argument("--dataset", default="mnist", choices=("mnist", "cifar10"))
    bench.add_argument("--epochs", type=int, default=8,
                       help="training epochs when no artifact is given")
    bench.add_argument("--train-samples", type=int, default=256)
    bench.add_argument("--test-samples", type=int, default=96)
    bench.add_argument("--image-size", type=int, default=None)
    bench.add_argument("--requests", type=int, default=256,
                       help="number of single-sample requests to serve")
    bench.add_argument("--max-batch-size", type=int, default=32)
    bench.add_argument("--max-wait-ms", type=float, default=5.0)
    bench.add_argument("--autoscale-wait", action="store_true",
                       help="adapt the coalescing window to queue-depth "
                            "load, between --min-wait-ms and --max-wait-ms")
    bench.add_argument("--min-wait-ms", type=float, default=0.0,
                       help="lower bound of the adaptive coalescing window")
    bench.add_argument("--workers", type=int, default=1)
    bench.add_argument("--cache-size", type=int, default=0,
                       help="LRU prediction-cache capacity (0 disables; kept "
                            "off by default so the speedup is pure batching)")
    bench.add_argument("--trace", type=int, default=0, metavar="N",
                       help="trace every request through the batched phase "
                            "and print the N slowest request trees "
                            "(batcher, engine and per-kernel-step spans)")
    bench.add_argument("--output", default=None,
                       help="optional path for a JSON benchmark summary")
    wire = bench.add_argument_group(
        "wire mode", "serve over a socket (fault-tolerant front-end) "
                     "instead of benchmarking in-process")
    wire.add_argument("--server", action="store_true",
                      help="run the front-end server (supervised replica "
                           "pool behind the length-prefixed wire protocol)")
    wire.add_argument("--client", action="store_true",
                      help="benchmark against a running --server: "
                           "wire-inclusive latency, shed/deadline outcomes")
    wire.add_argument("--host", default="127.0.0.1")
    wire.add_argument("--port", type=int, default=0,
                      help="listen port for --server (0 picks one and "
                           "prints it); connect port for --client")
    wire.add_argument("--replicas", type=int, default=1,
                      help="engine replicas behind the --server front-end")
    wire.add_argument("--deadline-ms", type=float, default=1000.0,
                      help="per-request deadline; the server answers "
                           "deadline_exceeded past it, never silence")
    wire.add_argument("--max-queue-depth", type=int, default=128,
                      help="--server admission bound; excess requests are "
                           "shed with an adaptive retry_after_ms hint")
    wire.add_argument("--duration-s", type=float, default=0.0,
                      help="--server lifetime (0 = serve until Ctrl-C; "
                           "shutdown always drains gracefully)")
    wire.add_argument("--extra-version", action="append", default=None,
                      metavar="VER",
                      help="--server: register the frozen artifact under "
                           "this extra version label too (repeatable; "
                           "identical params fingerprint-dedup to one "
                           "shared engine — the hot-swap/canary target "
                           "without training twice)")
    wire.add_argument("--model-ref", default=None, metavar="NAME[@VER]",
                      help="--client: route requests to this registered "
                           "model (bare name follows the server's "
                           "routing; NAME@VER pins a version)")

    reg = subparsers.add_parser(
        "registry", parents=[common],
        help="admin client for a registry-backed --server: list models, "
             "hot-swap the stable version, start/roll back a canary",
    )
    reg.add_argument("action",
                     choices=("list", "swap", "canary-start",
                              "canary-rollback", "canary-status"),
                     help="admin operation to run over the wire")
    reg.add_argument("ref", nargs="?", default=None,
                     help="model ref (NAME@VER for swap/canary-start, "
                          "NAME for canary-rollback/canary-status)")
    reg.add_argument("--host", default="127.0.0.1")
    reg.add_argument("--port", type=int, required=True,
                     help="port of the running registry-backed --server")
    reg.add_argument("--fraction", type=float, default=0.1,
                     help="canary traffic fraction for canary-start")
    reg.add_argument("--canary-seed", type=int, default=0,
                     help="seed of the deterministic canary split")
    reg.add_argument("--force", action="store_true",
                     help="canary-start: override an active hold-off")
    reg.add_argument("--reason", default="admin",
                     help="canary-rollback: reason recorded for the "
                          "rollback")

    obs = subparsers.add_parser(
        "obs-snapshot", parents=[common],
        help="drive traced requests through a micro-batcher and dump the "
             "telemetry registry (Prometheus exposition text)",
    )
    obs.add_argument("--model", default="mlp-mini")
    obs.add_argument("--artifact", default=None,
                     help="serve an existing artifact instead of training")
    obs.add_argument("--dataset", default="mnist", choices=("mnist", "cifar10"))
    obs.add_argument("--epochs", type=int, default=2,
                     help="training epochs when no artifact is given")
    obs.add_argument("--train-samples", type=int, default=96)
    obs.add_argument("--test-samples", type=int, default=48)
    obs.add_argument("--image-size", type=int, default=None)
    obs.add_argument("--requests", type=int, default=64,
                     help="number of traced requests to serve")
    obs.add_argument("--max-batch-size", type=int, default=16)
    obs.add_argument("--max-wait-ms", type=float, default=2.0)
    obs.add_argument("--trace", type=int, default=1, metavar="N",
                     help="also print the N slowest request traces "
                          "(0 disables)")
    obs.add_argument("--output", default=None,
                     help="optional path for a JSON registry snapshot")
    return parser


def _parse_pins(args):
    """``--pin`` occurrences as a validated pin mapping (or ``"auto"``)."""
    raw = getattr(args, "pin", None)
    if not raw:
        return None
    if "auto" in raw:
        if len(raw) > 1:
            raise SystemExit(
                "error: --pin auto resolves every layer and cannot be "
                "combined with explicit LAYER=BACKEND pins"
            )
        return "auto"
    pins = {}
    for item in raw:
        layer, sep, backend = item.partition("=")
        if not sep or not layer or not backend:
            raise SystemExit(
                f"error: --pin expects LAYER=BACKEND (or a single "
                f"'--pin auto'), got {item!r}"
            )
        pins[layer] = backend
    try:
        return validate_pins(pins)
    except ValueError as error:
        raise SystemExit(f"error: {error}")


def _load_dataset(args):
    image_size = args.image_size
    if args.dataset == "mnist":
        return synthetic_mnist(
            num_train=args.train_samples, num_test=args.test_samples,
            seed=args.seed, image_size=image_size or 28,
        )
    return synthetic_cifar10(
        num_train=args.train_samples, num_test=args.test_samples,
        seed=args.seed, image_size=image_size or 32,
    )


def _default_input_shape(args) -> tuple:
    channels = 1 if args.dataset == "mnist" else 3
    size = args.image_size or (28 if args.dataset == "mnist" else 32)
    return (channels, size, size)


def _cmd_models() -> int:
    rows = []
    for name in available_models():
        bundle = build_model(name)
        rows.append([name, f"{bundle.num_parameters():,}",
                     len(bundle.backbone_blocks), bundle.description])
    print(format_table(["model", "parameters", "ff blocks", "description"], rows))
    return 0


def _cmd_train(args) -> int:
    train_set, test_set = _load_dataset(args)
    bundle = build_model(args.model, input_shape=_default_input_shape(args))
    print(f"training {bundle.name} ({bundle.num_parameters():,} parameters) "
          f"with {args.algorithm} for {args.epochs} epochs")

    kwargs = {"epochs": args.epochs, "batch_size": args.batch_size,
              "seed": args.seed}
    if args.lr is not None:
        kwargs["lr"] = args.lr
    pins = _parse_pins(args)
    if pins:
        if args.algorithm.upper().startswith("FF"):
            kwargs["pins"] = pins
        else:
            print(f"--pin ignored: {args.algorithm} does not execute "
                  "compiled plans")
    trainer = make_trainer(args.algorithm, **kwargs)
    history = trainer.fit(bundle, train_set, test_set)

    rows = [
        [record.epoch, record.train_loss,
         None if record.test_accuracy is None else 100 * record.test_accuracy]
        for record in history.records
    ]
    print(format_table(["epoch", "train loss", "test acc %"], rows,
                       float_format="{:.3f}"))
    final = history.final_test_accuracy
    print(f"final test accuracy: "
          f"{'n/a' if final is None else f'{100 * final:.1f}%'}")

    if args.save_checkpoint:
        units = history.metadata.get("units")
        if units is None:
            print("--save-checkpoint ignored: "
                  f"{args.algorithm} does not produce FF units")
        else:
            path = save_ff_checkpoint(units, bundle, trainer.config,
                                      args.save_checkpoint)
            print(f"checkpoint written to {path}")

    if args.output:
        save_json(history.as_dict(), args.output)
        print(f"run summary written to {args.output}")
    return 0


def _cmd_estimate(args) -> int:
    bundle = build_model(args.model)
    profile = profile_bundle(bundle, batch_size=1)
    cost_model = TrainingCostModel()
    rows = []
    for algorithm in ALL_ALGORITHMS:
        estimate = cost_model.estimate(
            profile, algorithm, epochs=args.epochs,
            dataset_size=args.dataset_size, batch_size=args.batch_size,
        )
        rows.append([
            algorithm, estimate.epochs, estimate.time_s, estimate.energy_j,
            estimate.memory_mb, estimate.average_power_w,
        ])
    print(format_table(
        ["algorithm", "epochs", "time (s)", "energy (J)", "memory (MB)",
         "avg power (W)"],
        rows,
        title=f"Jetson Orin Nano training-cost estimates for {bundle.name}",
        float_format="{:.1f}",
    ))
    return 0


def _mini_image_size(args) -> None:
    """Default export/serve workloads to the mini-native resolutions."""
    if args.image_size is None:
        args.image_size = 14 if args.dataset == "mnist" else 16


def _train_and_freeze(args):
    """Train a fresh FF-INT8 model and freeze it (export/serve-bench path)."""
    train_set, test_set = _load_dataset(args)
    input_shape = _default_input_shape(args)
    bundle = build_model(args.model, input_shape=input_shape)
    config = FFInt8Config(
        epochs=args.epochs, batch_size=64, overlay_amplitude=2.0,
        evaluate_every=max(args.epochs, 1), eval_max_samples=args.test_samples,
        seed=args.seed, pins=_parse_pins(args),
    )
    print(f"training {bundle.name} with FF-INT8 for {args.epochs} epochs "
          "before freezing...")
    history = FFInt8Trainer(config).fit(bundle, train_set, test_set)
    units = history.metadata["units"]
    artifact = export_artifact(
        units, bundle,
        goodness=config.goodness,
        overlay_amplitude=config.overlay_amplitude,
        theta=config.theta,
        per_channel=getattr(args, "per_channel", False),
        registry_name=args.model,
        registry_kwargs={"input_shape": list(input_shape)},
    )
    return artifact, test_set


def _cmd_export(args) -> int:
    _mini_image_size(args)
    if args.checkpoint:
        checkpoint = load_ff_checkpoint(args.checkpoint)
        input_shape = tuple(int(v) for v in checkpoint.metadata["input_shape"])
        bundle = build_model(args.model, input_shape=input_shape)
        artifact = export_from_checkpoint(
            checkpoint, bundle, per_channel=args.per_channel,
            registry_name=args.model,
            registry_kwargs={"input_shape": list(input_shape)},
        )
    else:
        artifact, _ = _train_and_freeze(args)
    path = save_artifact(artifact, args.output)
    print(format_table(
        ["field", "value"],
        [
            ["model", artifact.metadata["model_name"]],
            ["units", artifact.num_units],
            ["INT8 weight tensors", len(artifact.quantized_keys())],
            ["payload (KiB)", artifact.nbytes() / 1024.0],
            ["goodness", artifact.goodness_name],
            ["per-channel scales", str(bool(artifact.metadata["per_channel"]))],
        ],
        title="exported inference artifact",
        float_format="{:.1f}",
    ))
    print(f"artifact written to {path}")
    return 0


def _cmd_serve_bench(args) -> int:
    _mini_image_size(args)
    if args.server and args.client:
        raise SystemExit("error: --server and --client are exclusive "
                         "(run one of each, in separate processes)")
    if args.client:
        return _serve_bench_client(args)
    # --model may carry a registry version (NAME@VER); the architecture
    # name is what training/building needs, the version is what the
    # server's model registry files the frozen artifact under.
    try:
        args.model, model_version = parse_model_ref(args.model)
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    pins = _parse_pins(args)  # validate before paying for any training
    if args.artifact:
        artifact = load_artifact(args.artifact)
        _, test_set = _load_dataset(args)
    else:
        artifact, test_set = _train_and_freeze(args)
    if args.server:
        return _serve_bench_server(args, artifact, pins,
                                   model_version or "v1")
    # Resolve pins once, at this deployment's coalesced batch height (the
    # micro-batcher re-applies the same pins at the same height, which is a
    # plan-cache hit on the memoized executor), so the report below matches
    # what serves.
    engine = build_engine(artifact, backend=args.backend)
    # One cleanup path for every exit — normal, error, or Ctrl-C anywhere
    # from here on (including the single-sample baseline): the engine owns
    # the kernel-pool lifecycle and ``close()`` is idempotent, so the
    # KeyboardInterrupt branch, this ``finally`` and the interpreter-exit
    # hook can all fire without double-teardown.
    try:
        return _serve_bench_local(args, artifact, engine, test_set, pins)
    except KeyboardInterrupt:
        print("\nserve-bench interrupted — shutting kernel pools down")
        return 130
    finally:
        engine.close()


def _serve_bench_local(args, artifact, engine, test_set, pins) -> int:
    if pins:
        engine.apply_pins(pins, batch_size=args.max_batch_size)
    if pins == "auto":
        resolved = [
            step.describe() for step in engine.executor.plan.steps
            if step.backend is not None
        ]
        print("auto-pinned plan (measured winners):")
        for line in resolved:
            print(f"  {line}")

    images = test_set.images
    indices = np.arange(args.requests) % len(images)
    stream = images[indices]

    # Single-sample baseline: one engine call per request.
    single_latencies = []
    started = time.perf_counter()
    for sample in stream:
        call_started = time.perf_counter()
        engine.predict(sample[None])
        single_latencies.append(1000.0 * (time.perf_counter() - call_started))
    single_elapsed = time.perf_counter() - started
    single_throughput = args.requests / single_elapsed
    single_stats = latency_percentiles(single_latencies)

    # Micro-batched path: burst-submit every request, then gather.
    # Caching and in-flight dedup are disabled unless asked for, so the
    # reported speedup comes from batching alone.
    config = ServeConfig(
        max_batch_size=args.max_batch_size, max_wait_ms=args.max_wait_ms,
        num_workers=args.workers, cache_capacity=args.cache_size,
        dedup_inflight=args.cache_size > 0, backend=args.backend,
        pins=pins, autoscale_wait=args.autoscale_wait,
        min_wait_ms=args.min_wait_ms,
    )
    batcher = MicroBatcher(engine, config)
    # The caller's try/finally closes the engine; this block only manages
    # the batcher's worker threads.
    with batcher:
        if args.trace > 0:
            # Trace only the batched phase so the single-sample baseline
            # above stays an untouched reference measurement.
            clear_buffer()
            enable_tracing(sample=1.0)
        try:
            started = time.perf_counter()
            batched_labels = batcher.predict_many(list(stream))
            batched_elapsed = time.perf_counter() - started
        finally:
            if args.trace > 0:
                disable_tracing()
        batched_throughput = args.requests / batched_elapsed
        snap = batcher.metrics.snapshot()

        reference = engine.predict(stream)
    if not np.array_equal(batched_labels, reference):
        print("WARNING: batched predictions diverged from the engine reference")

    speedup = batched_throughput / single_throughput if single_throughput else 0.0
    print(format_table(
        ["mode", "requests", "throughput (req/s)", "p50 (ms)", "p95 (ms)",
         "p99 (ms)"],
        [
            ["single-sample", args.requests, single_throughput,
             single_stats["p50"], single_stats["p95"], single_stats["p99"]],
            ["micro-batched", args.requests, batched_throughput,
             snap["p50"], snap["p95"], snap["p99"]],
        ],
        title=f"serve-bench: {artifact.metadata['model_name']} "
              f"(max_batch_size={args.max_batch_size}, "
              f"workers={args.workers})",
        float_format="{:.2f}",
    ))
    cache_stats = batcher.cache.stats()
    print(f"batched speedup: {speedup:.2f}x  "
          f"(mean batch size {snap['mean_batch_size']:.1f}, "
          f"{int(snap['batches'])} batches, "
          f"cache hit rate {cache_stats['hit_rate']:.1%})")
    plan_stats = engine.plan_cache_stats()
    print(f"plan cache: {plan_stats['compiles']} compile(s), "
          f"{plan_stats['hits']} hit(s), "
          f"{plan_stats['entries']} cached plan(s)")
    if args.autoscale_wait:
        print(f"adaptive max_wait settled at {batcher.current_wait_ms:.2f} ms "
              f"(bounds [{args.min_wait_ms:.2f}, {args.max_wait_ms:.2f}] ms, "
              f"queue-depth EWMA {snap['queue_depth_ewma']:.1f})")
    if args.trace > 0:
        slowest = slowest_traces(args.trace)
        print(f"\n{len(slowest)} slowest request trace(s) "
              f"of {args.requests} traced:")
        for trace in slowest:
            print(format_trace(trace))

    if args.output:
        save_json({
            "model": artifact.metadata["model_name"],
            "requests": args.requests,
            "serve_config": config.as_dict(),
            "meta": machine_meta(backend=args.backend),
            "single": {"throughput_rps": single_throughput, **single_stats},
            "batched": {"throughput_rps": batched_throughput, **snap},
            "cache": cache_stats,
            "plan_cache": plan_stats,
            "speedup": speedup,
            "obs": get_registry().snapshot(),
        }, args.output)
        print(f"benchmark summary written to {args.output}")
    return 0


def _serve_bench_server(args, artifact, pins, model_version) -> int:
    """Serve the artifact over the wire behind the supervised front-end.

    The artifact is filed in a :class:`ModelRegistry` under
    ``NAME@model_version`` (plus any ``--extra-version`` labels, which
    fingerprint-dedup onto the same engine), so ``repro registry`` can
    hot-swap and canary against the live server.
    """
    def builder(frozen):
        engine = build_engine(frozen, backend=args.backend)
        if pins:
            engine.apply_pins(pins, batch_size=args.max_batch_size)
        return engine

    # Register under the CLI-facing name (what the operator will address
    # in ``repro registry`` / ``--model-ref``), not the internal
    # architecture name the artifact metadata records.
    name = args.model
    registry = ModelRegistry(engine_builder=builder)
    registry.register(name, model_version, artifact)
    for extra in (args.extra_version or []):
        if extra != model_version:
            registry.register(name, extra, artifact, make_default=False)

    config = FrontendConfig(
        host=args.host, port=args.port, num_replicas=args.replicas,
        max_batch_size=args.max_batch_size, max_wait_ms=args.max_wait_ms,
        num_workers=args.workers, cache_capacity=args.cache_size,
        dedup_inflight=args.cache_size > 0, backend=args.backend,
        pins=pins, autoscale_wait=args.autoscale_wait,
        min_wait_ms=args.min_wait_ms,
        default_deadline_ms=args.deadline_ms,
        max_queue_depth=args.max_queue_depth,
    )
    frontend = ServeFrontend(registry=registry, config=config)
    # Same single-cleanup-path contract as the in-process bench: Ctrl-C at
    # any point lands in the ``finally`` and drains gracefully (intake
    # stops, in-flight requests finish, engines and kernel pools close).
    try:
        frontend.start()
        versions = [v for m in registry.describe() for v in m["versions"]]
        print(f"serving {name}@{model_version} on "
              f"{args.host}:{frontend.port} "
              f"(versions {', '.join(versions)}; "
              f"{args.replicas} replica(s), "
              f"deadline {args.deadline_ms:.0f} ms, "
              f"queue depth {args.max_queue_depth})")
        if args.duration_s > 0:
            time.sleep(args.duration_s)
        else:
            print("Ctrl-C to drain and exit")
            while True:
                time.sleep(1.0)
    except KeyboardInterrupt:
        print("\ninterrupt — draining")
        return 0
    finally:
        frontend.close()
        registry.close()
        snap = frontend.metrics.snapshot()
        print(f"served {int(snap['requests'])} request(s), "
              f"shed {int(snap['shed_requests'])}, "
              f"deadline-exceeded {int(snap['deadline_exceeded_requests'])}, "
              f"replica restarts {frontend.supervisor.restarts}, "
              f"swaps {registry.stats()['swaps']}")
    return 0


def _serve_bench_client(args) -> int:
    """Wire-inclusive latency benchmark against a running ``--server``."""
    if args.port <= 0:
        raise SystemExit("error: --client needs the server's --port")
    _, test_set = _load_dataset(args)
    images = test_set.images
    indices = np.arange(args.requests) % len(images)
    stream = images[indices]

    # The server may still be training/staging: retry the connection
    # briefly so orchestration (CI) can launch both sides back to back.
    deadline = time.perf_counter() + 30.0
    while True:
        try:
            client = FrontendClient(args.host, args.port, seed=args.seed)
            break
        except OSError:
            if time.perf_counter() >= deadline:
                raise SystemExit(
                    f"error: no server at {args.host}:{args.port}"
                )
            time.sleep(0.25)
    outcomes = {"ok": 0, "shed": 0, "deadline_exceeded": 0, "error": 0}
    latencies = []
    started = time.perf_counter()
    try:
        client.ping()
        for sample in stream:
            sent = time.perf_counter()
            try:
                client.predict_with_retry(sample,
                                          deadline_ms=args.deadline_ms,
                                          model=args.model_ref)
                outcomes["ok"] += 1
                latencies.append(1000.0 * (time.perf_counter() - sent))
            except RequestShed:
                outcomes["shed"] += 1
            except DeadlineExceeded:
                outcomes["deadline_exceeded"] += 1
            except (RuntimeError, ConnectionError) as error:
                # Server-side engine error or a drain that beat us: still
                # an explicit, counted outcome.
                outcomes["error"] += 1
                print(f"request error: {error}")
        elapsed = time.perf_counter() - started
        try:
            server_view = client.server_metrics()
        except (ConnectionError, OSError):
            server_view = {}
    finally:
        client.close()

    total = max(1, args.requests)
    stats = latency_percentiles(latencies)
    print(format_table(
        ["outcome", "requests", "rate"],
        [[name, count, count / total]
         for name, count in outcomes.items()],
        title=f"serve-bench --client: {args.host}:{args.port} "
              f"(deadline {args.deadline_ms:.0f} ms, "
              f"{args.requests} requests)",
        float_format="{:.3f}",
    ))
    throughput = args.requests / elapsed if elapsed > 0 else 0.0
    print(f"wire latency p50 {stats['p50']:.2f} ms, "
          f"p95 {stats['p95']:.2f} ms, p99 {stats['p99']:.2f} ms "
          f"({throughput:.1f} req/s incl. retries; "
          f"{client.sheds_seen} shed response(s) seen, "
          f"{client.retry_sleep_s * 1000.0:.1f} ms backing off)")
    if args.output:
        save_json({
            "mode": "wire-client",
            "server": {"host": args.host, "port": args.port},
            "requests": args.requests,
            "deadline_ms": args.deadline_ms,
            "outcomes": outcomes,
            "wire_latency": {"throughput_rps": throughput, **stats},
            "client_backoff": {"sheds_seen": client.sheds_seen,
                               "retry_sleep_s": client.retry_sleep_s},
            "server_metrics": server_view.get("metrics", {}),
            "server_obs": server_view.get("obs", {}),
            "server_models": server_view.get("models", []),
            "replicas": server_view.get("replicas", []),
            "meta": machine_meta(backend=args.backend),
            "obs": get_registry().snapshot(),
        }, args.output)
        print(f"wire benchmark summary written to {args.output}")
    return 0


def _cmd_registry(args) -> int:
    """Admin client for a registry-backed ``serve-bench --server``."""
    needs_ref = args.action in ("swap", "canary-start", "canary-rollback")
    if needs_ref and not args.ref:
        raise SystemExit(f"error: registry {args.action} needs a model ref")
    deadline = time.perf_counter() + 10.0
    while True:
        try:
            client = FrontendClient(args.host, args.port, seed=args.seed)
            break
        except OSError:
            if time.perf_counter() >= deadline:
                raise SystemExit(
                    f"error: no server at {args.host}:{args.port}")
            time.sleep(0.25)
    try:
        if args.action == "list":
            models = client.list_models().get("models", [])
            for model in models:
                canary = model.get("canary")
                note = (f", canary {canary['version']} "
                        f"@ {canary['fraction']:.2f}" if canary else "")
                versions = ", ".join(
                    v + (" *" if v == model["serving"] else "")
                    for v in model["versions"])
                print(f"{model['name']}: serving {model['serving']} "
                      f"[{versions}]{note}")
            if not models:
                print("no models registered")
        elif args.action == "swap":
            swapped = client.swap(args.ref)["swapped"]
            print(f"swapped: {swapped['from']} -> {swapped['to']}")
        elif args.action == "canary-start":
            served = client.canary_start(args.ref, args.fraction,
                                         seed=args.canary_seed,
                                         force=args.force)["canary"]
            print(f"canary started: {served}")
        elif args.action == "canary-rollback":
            name, _ = parse_model_ref(args.ref)
            rolled = client.canary_rollback(
                name, reason=args.reason)["rolled_back"]
            print("canary rolled back" if rolled else "no active canary")
        elif args.action == "canary-status":
            name, _ = parse_model_ref(args.ref) if args.ref else (None, None)
            print(json.dumps(client.canary_status(name).get("canary", {}),
                             indent=2, sort_keys=True))
    finally:
        client.close()
    return 0


def _cmd_obs_snapshot(args) -> int:
    _mini_image_size(args)
    if args.artifact:
        artifact = load_artifact(args.artifact)
        _, test_set = _load_dataset(args)
    else:
        artifact, test_set = _train_and_freeze(args)
    engine = build_engine(artifact, backend=args.backend)

    images = test_set.images
    indices = np.arange(args.requests) % len(images)
    stream = images[indices]

    config = ServeConfig(
        max_batch_size=args.max_batch_size, max_wait_ms=args.max_wait_ms,
        backend=args.backend,
    )
    clear_buffer()
    enable_tracing(sample=1.0)
    try:
        with engine, MicroBatcher(engine, config) as batcher:
            batcher.predict_many(list(stream))
    finally:
        disable_tracing()

    registry = get_registry()
    print(registry.render_prometheus())
    if args.trace > 0:
        slowest = slowest_traces(args.trace)
        print(f"{len(slowest)} slowest request trace(s) "
              f"of {args.requests} traced:")
        for trace in slowest:
            print(format_trace(trace))

    if args.output:
        save_json({
            "model": artifact.metadata["model_name"],
            "requests": args.requests,
            "meta": machine_meta(backend=args.backend),
            "obs": registry.snapshot(),
        }, args.output)
        print(f"registry snapshot written to {args.output}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    # Every subcommand runs under the selected kernel backend (None defers
    # to REPRO_BACKEND / the process default).
    with use_backend(getattr(args, "backend", None)):
        if args.command == "models":
            return _cmd_models()
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "export":
            return _cmd_export(args)
        if args.command == "serve-bench":
            return _cmd_serve_bench(args)
        if args.command == "registry":
            return _cmd_registry(args)
        if args.command == "obs-snapshot":
            return _cmd_obs_snapshot(args)
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
