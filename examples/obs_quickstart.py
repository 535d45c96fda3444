"""Observability quickstart: trace a served request and scrape the metrics.

The telemetry tour of :mod:`repro.obs` in one script:

1. train a tiny MLP with FF-INT8 and freeze it into an INT8 artifact,
2. turn on request tracing (``enable_tracing``) and serve a burst through
   the micro-batching queue,
3. print the slowest request's span tree — batcher enqueue, coalesce wait,
   engine pass, every kernel step with the backend that ran it,
4. dump the process-wide metrics registry, both as the Prometheus text a
   ``/metrics`` endpoint would expose and as a JSON snapshot.

Tracing is off by default and costs nearly nothing that way (the overhead
guard benchmark holds it under 1% of the serve hot path); this script
flips it on at ``sample=1.0`` so every request is traced.

Usage::

    python examples/obs_quickstart.py [--epochs N] [--requests N]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import (
    FFInt8Config,
    FFInt8Trainer,
    MicroBatcher,
    ServeConfig,
    build_engine,
    build_model,
    export_artifact,
    synthetic_mnist,
)
from repro.obs import (
    disable_tracing,
    enable_tracing,
    format_trace,
    get_registry,
    slowest_traces,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--requests", type=int, default=128,
                        help="size of the traced request burst")
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    args = parser.parse_args()

    # 1. Train + freeze.
    train_set, test_set = synthetic_mnist(num_train=512, num_test=160,
                                          seed=0, image_size=14)
    bundle = build_model("mlp-mini", hidden_units=64)
    config = FFInt8Config(epochs=args.epochs, batch_size=64, lr=0.02,
                          overlay_amplitude=2.0, evaluate_every=args.epochs,
                          eval_max_samples=160, seed=0)
    history = FFInt8Trainer(config).fit(bundle, train_set, test_set)
    artifact = export_artifact(
        history.metadata["units"], bundle,
        goodness=config.goodness, overlay_amplitude=config.overlay_amplitude,
        theta=config.theta, registry_name="mlp-mini",
        registry_kwargs={"hidden_units": 64},
    )
    engine = build_engine(artifact)
    print(f"trained and froze {bundle.name}; goodness-probe accuracy "
          f"{history.final_test_accuracy:.3f}")

    # 2. Serve a traced burst through the micro-batcher.
    rng = np.random.default_rng(0)
    indices = rng.integers(0, len(test_set.images), size=args.requests)
    stream = test_set.images[indices]
    serve_config = ServeConfig(max_batch_size=args.max_batch_size,
                               max_wait_ms=args.max_wait_ms)

    enable_tracing(sample=1.0)
    try:
        with engine, MicroBatcher(engine, serve_config) as batcher:
            batcher.predict_many(list(stream))
    finally:
        disable_tracing()

    # 3. The slowest request's life, as a span tree.  Every hop is a span:
    #    batcher bookkeeping, the coalesced engine pass, and each kernel
    #    step with the backend that ran it.
    print(f"\nslowest of {args.requests} traced requests:")
    for trace in slowest_traces(1):
        print(format_trace(trace))

    # 4. The metrics registry, both ways it exports.
    registry = get_registry()
    print("\nPrometheus exposition (excerpt):")
    exposition = registry.render_prometheus().splitlines()
    for line in exposition[:20]:
        print(f"  {line}")
    if len(exposition) > 20:
        print(f"  ... {len(exposition) - 20} more lines")

    snapshot = registry.snapshot()
    print(f"\nregistry snapshot: {len(snapshot['counters'])} counters, "
          f"{len(snapshot['gauges'])} gauges, "
          f"{len(snapshot['histograms'])} histograms")
    served = snapshot["counters"].get("repro_serve_requests_total", 0)
    batches = snapshot["counters"].get("repro_serve_batches_total", 0)
    print(f"served {served:g} requests in {batches:g} engine batches "
          "(counters accumulate for the process lifetime)")


if __name__ == "__main__":
    main()
