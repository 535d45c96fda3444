"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it prints a
paper-style table (bypassing pytest's output capture so the rows are always
visible in the terminal) and saves a JSON artifact under
``benchmarks/results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from repro.analysis import ExperimentResult
from repro.obs import get_registry
from repro.utils.serialization import save_json
from repro.utils.sysinfo import machine_meta

#: Where benchmark records are written.  ``REPRO_BENCH_RESULTS_DIR`` points
#: fresh runs somewhere else so ``benchmarks/compare.py`` can diff them
#: against the committed baselines without overwriting them.
RESULTS_DIR = Path(
    os.environ.get("REPRO_BENCH_RESULTS_DIR")
    or Path(__file__).resolve().parent / "results"
)


def bench_epochs(default: int) -> int:
    """Epoch budget for a benchmark, reducible for smoke runs.

    ``REPRO_BENCH_EPOCHS=<n>`` pins every benchmark to ``n`` epochs;
    ``REPRO_BENCH_FAST=1`` quarters the default.  CI's benchmark smoke job
    uses this to exercise the harness end-to-end without paying full
    training budgets; accuracy-sensitive assertions should only be relied
    on at the default budget.
    """
    override = os.environ.get("REPRO_BENCH_EPOCHS")
    if override:
        return max(1, int(override))
    fast = os.environ.get("REPRO_BENCH_FAST", "").strip().lower()
    if fast not in ("", "0", "false", "no"):
        return max(1, default // 4)
    return default


def emit(text: str) -> None:
    """Print benchmark output even while pytest captures stdout."""
    stream = getattr(sys, "__stdout__", None) or sys.stdout
    stream.write(text + "\n")
    stream.flush()


def save_experiment(result: ExperimentResult) -> Path:
    """Persist a benchmark's experiment record under benchmarks/results/.

    Every record carries a ``meta`` block (CPU count, NumPy/BLAS build,
    active kernel backend) so wall-clock numbers measured on different
    machines are distinguishable.  The telemetry registry snapshot rides
    along as ``meta.obs`` — plan compiles, autopin calibrations, serve
    counters — so a drifted record can be checked for a *behavioural* cause
    (extra compiles, replica restarts) before blaming the machine.
    """
    payload = result.as_dict()
    payload["meta"] = machine_meta()
    payload["meta"]["obs"] = get_registry().snapshot()
    return save_json(payload, RESULTS_DIR / f"{result.experiment_id}.json")


def run_once(benchmark, func):
    """Run an expensive benchmark body exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
