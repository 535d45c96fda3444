"""Experiment K1 — kernel microbenchmark: gemm / depthwise, per backend.

End-to-end serving numbers fold queueing, Python dispatch and model shape
into one figure; this benchmark times the *kernels* in isolation so a
backend win (or regression) is attributable.  Five kernel cases run on every
registered backend:

* ``gemm_large``    — INT8 GEMM at a deliberately wide shape.
* ``rowwise_serve`` — fused per-row quantize + GEMM at the folded-label
  serving shape (10 labels x 32 requests of a 14x14 MLP).
* ``conv_cols``     — the same fused quantize+GEMM at an im2col'd conv
  shape (positions are rows: a 64-channel 3x3 conv over a batch of
  16x16 feature maps) — the ResNet/MobileNet serving hot path.
* ``depthwise`` / ``depthwise_grad`` — the MobileNet/EfficientNet hot path,
  which ``fast`` runs as exact float32 einsums instead of the reference
  integer einsums (the case the CI bench-smoke job watches: ``fast`` must
  not be slower than ``reference`` here).

Every backend result is checked for exactness against ``reference`` before
it is timed — a fast wrong kernel must fail loudly, not win benchmarks.
Timing assertions are advisory by default (shared CI runners jitter); set
``REPRO_BENCH_STRICT=1`` to enforce them.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks._common import emit, run_once, save_experiment
from repro.analysis import ExperimentResult, format_table
from repro.runtime import available_backends, get_backend


REPEATS = 3 if os.environ.get("REPRO_BENCH_FAST") else 7
STRICT = os.environ.get("REPRO_BENCH_STRICT", "").strip().lower() not in (
    "", "0", "false", "no",
)

#: serve-shaped GEMM: 10 folded label overlays x 32 coalesced requests,
#: 14x14 inputs into 64 hidden units.
SERVE_ROWS, SERVE_IN, SERVE_OUT = 320, 196, 64
LARGE_M, LARGE_K, LARGE_N = 512, 784, 256
DW_POSITIONS, DW_CHANNELS, DW_KERNEL = 4096, 32, 9
#: im2col'd conv GEMM: 4 x 16x16 feature-map positions, 64ch 3x3 reduction.
CONV_ROWS, CONV_K, CONV_N = 1024, 576, 64


def _best_ms(func, repeats: int = REPEATS) -> float:
    """Best-of-N wall-clock of ``func`` (ms); best-of filters scheduler noise."""
    func()  # warm-up: scratch buffers, BLAS thread pools
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - started)
    return 1000.0 * best


def _kernel_cases():
    rng = np.random.default_rng(0)
    lhs = rng.integers(-127, 128, size=(LARGE_M, LARGE_K)).astype(np.int8)
    rhs = rng.integers(-127, 128, size=(LARGE_K, LARGE_N)).astype(np.int8)
    x = rng.normal(size=(SERVE_ROWS, SERVE_IN)).astype(np.float32)
    serve_rhs = rng.integers(-127, 128, size=(SERVE_IN, SERVE_OUT)).astype(
        np.int8
    )
    cols = rng.integers(
        -127, 128, size=(DW_POSITIONS, DW_CHANNELS, DW_KERNEL)
    ).astype(np.int8)
    weight = rng.integers(-127, 128, size=(DW_CHANNELS, DW_KERNEL)).astype(
        np.int8
    )
    grad = rng.integers(-127, 128, size=(DW_POSITIONS, DW_CHANNELS)).astype(
        np.int8
    )
    conv_x = rng.normal(size=(CONV_ROWS, CONV_K)).astype(np.float32)
    conv_rhs = rng.integers(-127, 128, size=(CONV_K, CONV_N)).astype(np.int8)
    return {
        "gemm_large": lambda backend: backend.int8_gemm(lhs, rhs),
        "rowwise_serve": lambda backend: backend.rowwise_quantized_gemm(
            x, serve_rhs, 127
        ),
        "conv_cols": lambda backend: backend.rowwise_quantized_gemm(
            conv_x, conv_rhs, 127
        ),
        "depthwise": lambda backend: backend.int8_depthwise(cols, weight),
        "depthwise_grad": lambda backend: backend.int8_depthwise_grad(
            grad, cols
        ),
    }


def _as_comparable(value):
    if isinstance(value, tuple):
        return tuple(np.asarray(part, dtype=np.float64) for part in value)
    return (np.asarray(value, dtype=np.float64),)


def _measure():
    backends = available_backends()
    cases = _kernel_cases()
    reference = get_backend("reference")
    timings = {case: {} for case in cases}
    for case, kernel in cases.items():
        expected = _as_comparable(kernel(reference))
        for name in backends:
            backend = get_backend(name)
            for got, want in zip(_as_comparable(kernel(backend)), expected):
                np.testing.assert_array_equal(
                    got, want,
                    err_msg=f"{name} diverged from reference on {case}",
                )
            timings[case][name] = _best_ms(lambda: kernel(backend))
    return {"kernels": timings}


@pytest.mark.benchmark(group="kernel_micro")
def test_kernel_microbenchmark(benchmark):
    measured = run_once(benchmark, _measure)
    timings = measured["kernels"]
    backends = available_backends()

    rows = [
        [case] + [timings[case].get(name, float("nan")) for name in backends]
        for case in timings
    ]
    emit("")
    emit(format_table(
        ["kernel case"] + [f"{name} (ms)" for name in backends], rows,
        title="kernel microbenchmark (best-of-%d)" % REPEATS,
        float_format="{:.3f}",
    ))

    result = ExperimentResult(
        experiment_id="kernel_micro",
        paper_reference="runtime backends (not in paper)",
        description="Kernel-level microbenchmark: INT8 GEMM, rowwise-"
                    "quantized GEMM and depthwise products per backend",
        parameters={
            "repeats": REPEATS,
            "gemm_large": [LARGE_M, LARGE_K, LARGE_N],
            "rowwise_serve": [SERVE_ROWS, SERVE_IN, SERVE_OUT],
            "conv_cols": [CONV_ROWS, CONV_K, CONV_N],
            "depthwise": [DW_POSITIONS, DW_CHANNELS, DW_KERNEL],
        },
        results=measured,
        notes="All backends verified bit-identical to reference before "
              "timing; timings are wall-clock on shared hardware.",
    )
    save_experiment(result)

    # The float32 depthwise win must actually show up; on shared runners
    # the check is advisory unless REPRO_BENCH_STRICT=1.
    complaints = [
        f"fast slower than reference on {case} "
        f"({timings[case]['fast']:.3f}ms vs {timings[case]['reference']:.3f}ms)"
        for case in ("depthwise", "depthwise_grad")
        if timings[case]["fast"] > timings[case]["reference"]
    ]
    for complaint in complaints:
        emit(f"ADVISORY: {complaint}")
    if STRICT:
        assert not complaints, "; ".join(complaints)
