"""A wire server with the program's serving defaults, in its own process.

Protocol (JSON lines on stdout, commands on stdin)::

    -> {"event": "ready", "port": P}   listening; engine built
    <- "reset"    start the measured window (clears layer counters)
    <- "stats"    -> {"event": "stats", ...} for the window so far
    <- "quit"     -> {"event": "exit", "peak_rss_mb": ...}, then exit

With ``--oracle 1`` it serves nothing: it reads one header line
``{"shape": [...]}`` and the float32 samples from stdin, prints
``{"event": "labels", "labels": [...]}`` from the ``reference`` backend,
and exits.

The server is a ``ServeFrontend`` over ``FrontendConfig()`` defaults: one
replica, the default kernel backend, cache and dedup on, admission bound
128.  The artifact is frozen from a freshly initialised model, so the
program sees only the seed-derived weights and the generated inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

INPUT_SHAPES = {
    "mlp-mini": (1, 14, 14),
    "mobilenet_v2-mini": (3, 16, 16),
}

def build_artifact(model: str, seed: int):
    """The served artifact; the oracle rebuilds the same one from the seed."""
    from repro import build_model, export_artifact

    shape = INPUT_SHAPES[model]
    bundle = build_model(model, input_shape=shape, seed=seed)
    return export_artifact(bundle.ff_units(), bundle, registry_name=model,
                           registry_kwargs={"input_shape": list(shape)})


def reference_labels(model: str, seed: int, samples):
    """Labels of ``samples`` from the ``reference`` kernel backend."""
    import numpy as np

    from repro import build_engine

    engine = build_engine(build_artifact(model, seed), backend="reference")
    return np.concatenate([engine.predict(samples[i:i + 256])
                           for i in range(0, len(samples), 256)])


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def p50(values):
    from benchstats import percentile

    value = percentile(values, 50)
    return 0.0 if value is None else value


def serving_layers(tracer, window_s: float) -> dict:
    """Server-side layer metrics over the measured window."""
    from layers import kernel_metrics

    counters, samples = tracer.counters, tracer.samples
    requests = counters.get("serve.batcher.requests", 0.0) or 1.0
    rows = counters.get("serve.engine.rows", 0.0)
    calls = tracer.calls.get("serve.engine.predict", 0)
    whole_rows = counters.get("serve.engine.whole_rows", 0.0)
    layers = kernel_metrics(tracer, per=requests)
    layers.update({
        "runtime.int8_macs":
            counters.get("serve.engine.whole_macs", 0.0) / whole_rows
            if whole_rows else 0.0,
        "serve.batcher.wait_ms": 1000.0 * p50(samples["serve.batcher.wait"]),
        "serve.batcher.submit_ms":
            1000.0 * p50(samples["serve.batcher.submit"]),
        "serve.supervisor.submit_ms":
            1000.0 * p50(samples["serve.supervisor.submit"]),
        "serve.engine.predict_ms":
            1000.0 * p50(samples["serve.engine.predict"]),
        "serve.engine.calls": calls,
        "serve.engine.batch_rows": rows / calls if calls else 0.0,
        "serve.engine.busy_frac":
            sum(samples["serve.engine.predict"]) / window_s,
        "serve.cache.hit_frac":
            counters.get("serve.cache.hits", 0.0) / requests,
        "serve.batcher.dedup_frac":
            counters.get("serve.batcher.deduped", 0.0) / requests,
        "serve.engine_skip_frac": (
            counters.get("serve.cache.hits", 0.0)
            + counters.get("serve.batcher.deduped", 0.0)) / requests,
    })
    return layers


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--model", choices=sorted(INPUT_SHAPES),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--oracle", type=int, default=0)
    args = parser.parse_args()
    if args.oracle:
        import numpy as np

        shape = tuple(json.loads(sys.stdin.buffer.readline())["shape"])
        data = sys.stdin.buffer.read(4 * int(np.prod(shape)))
        samples = np.frombuffer(data, dtype=np.float32).reshape(shape)
        labels = reference_labels(args.model, args.seed, samples)
        emit({"event": "labels", "labels": labels.tolist()})
        return 0

    tracer = None
    if args.trace:
        from layers import LayerTracer, install_serving

        tracer = LayerTracer(keep_samples=("serve.engine.predict",))
        install_serving(tracer)

    from repro import FrontendConfig, ServeFrontend, build_engine

    artifact = build_artifact(args.model, args.seed)
    frontend = ServeFrontend(lambda: build_engine(artifact),
                             config=FrontendConfig())
    frontend.start()
    try:
        emit({"event": "ready", "port": frontend.port})
        window_at = time.perf_counter()
        for line in sys.stdin:
            command = line.strip()
            if command == "reset":
                window_at = time.perf_counter()
                if tracer is not None:
                    tracer.reset()
                    tracer.recording = True
            elif command == "stats":
                window_s = time.perf_counter() - window_at
                stats = {"event": "stats", "window_s": window_s}
                if tracer is not None:
                    tracer.recording = False
                    stats["layers"] = serving_layers(tracer, window_s)
                emit(stats)
            elif command == "quit":
                break
    finally:
        frontend.close()
    emit({"event": "exit", "peak_rss_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    return 0


if __name__ == "__main__":
    sys.exit(main())
