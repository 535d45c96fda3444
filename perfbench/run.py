"""End-to-end and per-layer benchmark of FF-INT8 training and wire serving.

Usage, from the repository root::

    python3 perfbench/run.py --workload train-conv --seed 1 --seconds 20 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``train-conv``     FF-INT8 ``fit`` of ``mobilenet_v2-mini`` on synthetic
  16x16 CIFAR-10, batch 64; only λ > 0 steps are timed.
* ``serve-light``    open loop at 300 requests/s, unique inputs, over the
  wire to an ``mlp-mini`` server.
* ``serve-conv-hot`` closed loop, 4 outstanding, ``mobilenet_v2-mini``;
  three requests in four repeat a 64-sample hot set.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then with per-layer wrappers installed
(``layers.py``), and prints the per-layer metrics and the tracing
overhead; the traced training pass must end on the untraced pass's loss.
Every served label is checked against the
``reference`` kernel backend; a training step with a non-finite loss
fails.  The last line of standard output is the result object.  The
program runs in child processes (``train_worker.py``, ``serve_worker.py``)
so that set-up time and peak memory are its own; this process is the
single-threaded load generator.
"""

from __future__ import annotations

import os

#: BLAS threads in every process of the benchmark.  One thread per process
#: keeps the server, the generator and OpenBLAS' own workers from
#: competing for the cores of a 2-core host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import select  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from benchstats import (  # noqa: E402
    host_probe_ms, median, percentile, slice_rates)
from loadgen import ping, run_load  # noqa: E402
from serve_worker import INPUT_SHAPES, reference_labels  # noqa: E402
from wire import encode_predict  # noqa: E402

#: Launches per run whose set-up time is measured; the median is reported.
SETUP_LAUNCHES = 5
#: Seconds of traffic before the measured window (plans compile, the hot
#: set enters the cache).
SERVE_WARMUP_S = 2.0
#: Requests per second of ``serve-light``: about a tenth of the wire path's
#: capacity, leaving headroom for a several-fold slow phase of the host.
LIGHT_RATE = 300.0
#: Closed-loop window of ``serve-conv-hot``, below the admission bound of
#: 128 so nothing is shed: p90 stays far under a quarter of the 1000 ms
#: default deadline (~40 ms), and hits mostly arrive while the engine is
#: idle.  With 12 outstanding, hits waited on the engine thread for the
#: interpreter lock and p50 spread three times wider.
CONV_HOT_WINDOW = 4
HOT_FRACTION = 0.75
HOT_SET = 64
#: A ``serve-light`` run is invalid when the generator sent its requests
#: later than this (p90) behind schedule: then it measured itself.
LAG_BOUND_MS = 5.0
#: Training steps take about a second, so a 20-second run holds about
#: twenty: step-time percentiles are read with at least one step beyond
#: them (see ``percentile``), not the ten a serving percentile needs.
TRAIN_MIN_BEYOND = 1
CONNECTIONS = min(2, os.cpu_count() or 1)
CHUNK = 1024

#: p90 is recorded by the traced pass (``latency.p90_ms``) but not gated:
#: on a 2-core shared host it spread by 36-48% (quartile distance over the
#: median) across seeds on ``serve-light``, wider than any usable bound.
END_TO_END = ("setup_s", "throughput_per_s", "p50_ms", "ok_frac",
              "peak_rss_mb")
UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "p50_ms": "ms",
         "ok_frac": "frac", "peak_rss_mb": "MB"}

PER_LAYER = {
    "quant.quantize_ms": "ms", "quant.quantize_calls": "count",
    "quant.quantize_melems": "Melem",
    "core.lookahead.sweep_ms": "ms", "core.lookahead.loss_grad_ms": "ms",
    "core.lookahead.min_lambda": "lambda",
    "runtime.executor.forward_ms": "ms",
    "runtime.kernel.int8_gemm_ms": "ms",
    "runtime.kernel.int8_gemm_f32_frac": "frac",
    "runtime.kernel.depthwise_ms": "ms",
    "runtime.kernel.depthwise_grad_ms": "ms",
    "runtime.kernel.rowwise_gemm_ms": "ms",
    "runtime.int8_macs": "MAC",
    "nn.im2col_ms": "ms", "nn.col2im_ms": "ms",
    "training.optim.step_ms": "ms", "data.overlay_ms": "ms",
    "serve.batcher.wait_ms": "ms", "serve.batcher.submit_ms": "ms",
    "serve.supervisor.submit_ms": "ms", "serve.frontend.hop_ms": "ms",
    "serve.engine.predict_ms": "ms", "serve.engine.calls": "count",
    "serve.engine.batch_rows": "rows", "serve.engine.busy_frac": "frac",
    "serve.cache.hit_frac": "frac", "serve.batcher.dedup_frac": "frac",
    "serve.engine_skip_frac": "frac",
    "serve.frontend.shed_frac": "frac",
    "serve.frontend.deadline_frac": "frac",
    "trace.cover_frac": "frac", "trace.overhead_frac": "frac",
    "host.probe_ms": "ms", "host.probe_after_ms": "ms",
    "host.blas_threads": "threads",
    "loadgen.lag_p90_ms": "ms", "loadgen.cpu_frac": "frac",
    "loadgen.invalid": "bool",
    "latency.p90_ms": "ms",
}


class Child:
    """A worker process speaking JSON lines; always reaped on close."""

    def __init__(self, script: str, *args: object) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script),
             *(str(arg) for arg in args)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            env=env, bufsize=0,
        )
        self._buffer = b""

    def event(self, timeout_s: float) -> Dict:
        deadline = time.perf_counter() + timeout_s
        while b"\n" not in self._buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(f"worker silent for {timeout_s} s")
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        remaining)
            if ready:
                data = os.read(self.proc.stdout.fileno(), 1 << 16)
                if not data:
                    raise RuntimeError(
                        f"worker exited with code {self.proc.wait()}")
                self._buffer += data
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def send(self, command: str) -> None:
        self.send_bytes((command + "\n").encode())

    def send_bytes(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            view = view[self.proc.stdin.write(view):]

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=15)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# --------------------------------------------------------------------------- #
# training
# --------------------------------------------------------------------------- #
def train_pass(seed: int, launches: int, trace: int = 0,
               seconds: Optional[float] = None,
               steps: Optional[int] = None) -> Dict:
    """Launch the trainer ``launches`` times; the last one trains."""
    bound = ["--seconds", seconds] if steps is None else ["--steps", steps]
    setups = []
    for launch in range(launches):
        child = Child("train_worker.py", "--seed", seed, "--trace", trace,
                      *bound)
        try:
            if child.event(120)["event"] != "ready":
                raise RuntimeError("trainer did not report ready")
            setups.append(time.perf_counter() - child.started)
            if launch < launches - 1:
                child.send("quit")
                continue
            child.send("go")
            result = child.event(150 if seconds is None else seconds + 90)
        finally:
            child.close()
    result["setup_s"] = median(setups)
    step_ms = [1000.0 * s for s in result["step_s"]]
    result["p50_ms"] = percentile(step_ms, 50, TRAIN_MIN_BEYOND)
    result["p90_ms"] = percentile(step_ms, 90, TRAIN_MIN_BEYOND)
    return result


def run_train(seed: int, seconds: float, trace: int) -> Dict:
    if not trace:
        result = train_pass(seed, SETUP_LAUNCHES, seconds=seconds)
        steps = len(result["step_s"])
        return {
            "correct": result["nonfinite_steps"] == 0,
            "attempted": steps,
            "failed": result["nonfinite_steps"],
            "metrics": {
                "setup_s": result["setup_s"],
                "throughput_per_s": result["samples"] / result["window_s"],
                "p50_ms": result["p50_ms"],
                "ok_frac": (steps - result["nonfinite_steps"]) / steps,
                "peak_rss_mb": result["peak_rss_mb"],
            },
            "detail": {"steps": steps, "min_lambda": result["min_lambda"],
                       "final_loss": result["final_loss"]},
        }
    # The traced pass replays exactly the untraced pass's steps, so equal
    # final losses show the wrappers changed neither arithmetic nor RNG.
    plain = train_pass(seed, 1, seconds=seconds)
    steps = len(plain["step_s"])
    traced = train_pass(seed, 1, trace=1, steps=steps)
    same_loss = traced["final_loss"] == plain["final_loss"]
    layers = dict(traced["layers"])
    layers["core.lookahead.min_lambda"] = traced["min_lambda"]
    # Recorded, not gated; 0 when the run holds too few steps for it.
    layers["latency.p90_ms"] = plain["p90_ms"] or 0.0
    layers["trace.overhead_frac"] = traced["p50_ms"] / plain["p50_ms"] - 1.0
    failed = plain["nonfinite_steps"] + traced["nonfinite_steps"]
    return {
        "correct": same_loss and failed == 0,
        "attempted": 2 * steps,
        "failed": failed,
        "metrics": layers,
        "detail": {"steps": steps, "final_loss": plain["final_loss"],
                   "traced_final_loss": traced["final_loss"]},
    }


# --------------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------------- #
class Inputs:
    """The request stream: request ``i``'s sample and its oracle key.

    Unique samples come from per-chunk generators, and hot-set choices from
    one generator drawn in request order, so the stream is a function of
    the seed alone.
    """

    def __init__(self, shape: tuple, seed: int, hot_fraction: float = 0.0,
                 hot_set: int = 0) -> None:
        self.shape, self.seed = shape, seed
        self.hot_fraction = hot_fraction
        self._choices = np.random.default_rng([seed, 1])
        self.hot = self._rows([seed, 2], hot_set) if hot_set else None
        self._chunks: Dict[int, object] = {}
        self.keys: List[int] = []  # >= 0: unique sample; < 0: hot -1-k
        self.unique_used = 0

    def _rows(self, seed, count: int):
        rng = np.random.default_rng(seed)
        return rng.random((count,) + self.shape, dtype=np.float32)

    def unique(self, index: int):
        chunk = self._chunks.get(index // CHUNK)
        if chunk is None:
            chunk = self._rows([self.seed, 3, index // CHUNK], CHUNK)
            self._chunks[index // CHUNK] = chunk
        return chunk[index % CHUNK]

    def frame(self, request: int) -> bytes:
        if self.hot is not None and self._choices.random() < self.hot_fraction:
            slot = int(self._choices.integers(len(self.hot)))
            self.keys.append(-1 - slot)
            return encode_predict(request, self.hot[slot])
        self.keys.append(self.unique_used)
        self.unique_used += 1
        return encode_predict(request, self.unique(self.unique_used - 1))

    def oracle(self, model: str, requests: List[int]) -> Dict[int, int]:
        """Labels of the given requests, from the ``reference`` backend.

        Two worker processes share the work: it repeats every engine pass
        the server made, at about the same speed.  They are plain child
        processes, waited for here, so nothing outlives the benchmark.
        """
        keys = sorted({self.keys[i] for i in requests})
        if not keys:
            return {}
        samples = np.stack([
            self.unique(key) if key >= 0 else self.hot[-1 - key]
            for key in keys])
        parts = np.array_split(samples, min(CONNECTIONS, len(keys)))
        children: List[Child] = []
        try:
            for part in parts:
                children.append(Child("serve_worker.py", "--model", model,
                                      "--seed", self.seed, "--oracle", 1))
            for child, part in zip(children, parts):
                child.send(json.dumps({"shape": part.shape}))
                child.send_bytes(np.ascontiguousarray(part).tobytes())
            labels = np.concatenate(
                [child.event(120)["labels"] for child in children])
        finally:
            for child in children:
                child.close()
        by_key = dict(zip(keys, labels.tolist()))
        return {i: by_key[self.keys[i]] for i in requests}


def serve_pass(model: str, seed: int, seconds: float, launches: int,
               trace: int, rate: Optional[float] = None,
               window: Optional[int] = None, hot_fraction: float = 0.0,
               hot_set: int = 0) -> Dict:
    """Launch the server ``launches`` times; load the last one."""
    setups = []
    for launch in range(launches):
        child = Child("serve_worker.py", "--model", model, "--seed", seed,
                      "--trace", trace)
        try:
            ready = child.event(120)
            address = ("127.0.0.1", int(ready["port"]))
            if ping(address).get("status") != "ok":
                raise RuntimeError("server did not answer the ping")
            setups.append(time.perf_counter() - child.started)
            if launch < launches - 1:
                child.send("quit")
                child.event(60)
                continue
            inputs = Inputs(INPUT_SHAPES[model], seed, hot_fraction,
                            hot_set)
            load = run_load(
                address, inputs.frame, warmup_s=SERVE_WARMUP_S,
                measure_s=seconds, rate=rate, window=window,
                connections=CONNECTIONS,
                on_measure_start=lambda: child.send("reset"),
            )
            child.send("stats")
            stats = child.event(60)
            child.send("quit")
            peak_rss_mb = child.event(60)["peak_rss_mb"]
        finally:
            child.close()
    begin, end = load["measure_at"], load["stop_at"]
    # An open-loop request belongs to the window it was due in; a closed-
    # loop one to the window it was sent in (it was sent when it was due).
    measured = [i for i, due in enumerate(load["due"]) if begin <= due < end]
    return summarize_serving(load, measured, inputs.oracle(model, measured),
                             stats, median(setups), peak_rss_mb,
                             open_loop=rate is not None)


def summarize_serving(load: Dict, measured: List[int],
                      expected: Dict[int, int], stats: Dict, setup_s: float,
                      peak_rss_mb: float, open_loop: bool) -> Dict:
    begin, end = load["measure_at"], load["stop_at"]
    status, labels = load["status"], load["label"]
    ok = [i for i in measured
          if status[i] == "ok" and labels[i] == expected[i]]
    wrong = [i for i in measured
             if status[i] == "ok" and labels[i] != expected[i]]
    recv, sent, due = load["recv"], load["sent"], load["due"]
    rates = slice_rates([recv[i] for i in ok], begin, end)
    latency_ms = [1000.0 * (recv[i] - due[i]) for i in ok]
    wire_ms = [1000.0 * (recv[i] - sent[i]) for i in ok]
    attempted = len(measured)
    lag_ms = [1000.0 * (sent[i] - due[i]) for i in measured]
    lag_p90 = percentile(lag_ms, 90) if open_loop else 0.0
    return {
        "attempted": attempted, "ok": len(ok), "wrong": len(wrong),
        "setup_s": setup_s,
        "throughput_per_s": median(rates) if rates else 0.0,
        "p50_ms": percentile(latency_ms, 50),
        "p90_ms": percentile(latency_ms, 90),
        "wire_p50_ms": percentile(wire_ms, 50),
        "ok_frac": len(ok) / attempted,
        "peak_rss_mb": peak_rss_mb,
        "shed_frac": sum(status[i] == "shed" for i in measured) / attempted,
        "deadline_frac": sum(status[i] == "deadline_exceeded"
                             for i in measured) / attempted,
        "lag_p90_ms": lag_p90,
        "cpu_frac": load["cpu_frac"],
        "valid": lag_p90 is not None and lag_p90 <= LAG_BOUND_MS,
        "layers": stats.get("layers"),
    }


def run_serve(seed: int, seconds: float, trace: int, **workload) -> Dict:
    if not trace:
        result = serve_pass(seed=seed, seconds=seconds,
                            launches=SETUP_LAUNCHES, trace=0, **workload)
        return {
            "correct": result["wrong"] == 0,
            "attempted": result["attempted"],
            "failed": result["attempted"] - result["ok"],
            "metrics": {name: result[name] for name in END_TO_END},
            "detail": {key: result[key] for key in (
                "shed_frac", "deadline_frac", "lag_p90_ms", "cpu_frac",
                "valid")},
        }
    plain = serve_pass(seed=seed, seconds=seconds, launches=1, trace=0,
                       **workload)
    traced = serve_pass(seed=seed, seconds=seconds, launches=1, trace=1,
                        **workload)
    layers = dict(traced["layers"])
    layers.update({
        "serve.frontend.hop_ms":
            traced["wire_p50_ms"] - layers["serve.supervisor.submit_ms"],
        "serve.frontend.shed_frac": traced["shed_frac"],
        "serve.frontend.deadline_frac": traced["deadline_frac"],
        "loadgen.lag_p90_ms": traced["lag_p90_ms"],
        "loadgen.cpu_frac": traced["cpu_frac"],
        "loadgen.invalid": float(not traced["valid"]),
        "latency.p90_ms": plain["p90_ms"],
        # Open loop: the rate is fixed, so tracing shows up as latency;
        # closed loop: as lost throughput.
        "trace.overhead_frac": (
            traced["p50_ms"] / plain["p50_ms"] - 1.0
            if "rate" in workload else
            plain["throughput_per_s"] / traced["throughput_per_s"] - 1.0),
    })
    return {
        "correct": plain["wrong"] == 0 and traced["wrong"] == 0,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": (plain["attempted"] - plain["ok"]
                   + traced["attempted"] - traced["ok"]),
        "metrics": layers,
        "detail": {"plain_p50_ms": plain["p50_ms"],
                   "traced_p50_ms": traced["p50_ms"],
                   "plain_throughput_per_s": plain["throughput_per_s"],
                   "traced_throughput_per_s": traced["throughput_per_s"]},
    }


WORKLOADS = {
    "train-conv": run_train,
    "serve-light": lambda seed, seconds, trace: run_serve(
        seed, seconds, trace, model="mlp-mini", rate=LIGHT_RATE),
    "serve-conv-hot": lambda seed, seconds, trace: run_serve(
        seed, seconds, trace, model="mobilenet_v2-mini",
        window=CONV_HOT_WINDOW, hot_fraction=HOT_FRACTION, hot_set=HOT_SET),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A termination signal unwinds through the ``finally`` blocks, so every
    # worker process is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src",
              file=sys.stderr)
        return 2

    probe_before = host_probe_ms()
    result = WORKLOADS[args.workload](args.seed, args.seconds, args.trace)
    probe_after = host_probe_ms()
    detail = dict(result.pop("detail"), workload=args.workload,
                  seed=args.seed, blas_threads=BLAS_THREADS,
                  probe_ms=probe_before, probe_after_ms=probe_after)
    metrics = result["metrics"]
    if args.trace:
        metrics.update({"host.probe_ms": probe_before,
                        "host.probe_after_ms": probe_after,
                        "host.blas_threads": BLAS_THREADS})
        names, units = list(PER_LAYER), PER_LAYER
    else:
        names, units = END_TO_END, UNITS
    # Layers a workload does not load report 0; a percentile without
    # enough samples beyond it is None, and fails a correct run.  A run
    # whose outputs were wrong still prints its result, with those
    # values at 0, so that the wrong outputs are what it reports.
    values = {name: metrics.get(name, 0.0) for name in names}
    missing = [name for name, value in values.items()
               if value is None or not math.isfinite(value)]
    if missing and result["correct"]:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    values.update({name: 0.0 for name in missing})
    result["metrics"] = {
        name: {"value": float(value), "unit": units[name]}
        for name, value in values.items()
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
