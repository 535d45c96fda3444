"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it prints a
paper-style table (bypassing pytest's output capture so the rows are always
visible in the terminal) and saves a JSON record under ``RESULTS_DIR``.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from repro.analysis import ExperimentResult
from repro.obs import get_registry
from repro.utils.serialization import save_json
from repro.utils.sysinfo import machine_meta

#: Where benchmark records are written: a directory under the system's
#: temporary directory, so test runs leave the committed baselines in
#: ``benchmarks/results/`` alone and ``benchmarks/compare.py`` can diff a
#: fresh run against them.  ``REPRO_BENCH_RESULTS_DIR=benchmarks/results``
#: regenerates the baselines.
RESULTS_DIR = Path(
    os.environ.get("REPRO_BENCH_RESULTS_DIR")
    or Path(tempfile.gettempdir()) / "repro-bench-results"
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


#: Telemetry registry snapshot taken when the running benchmark started.
_obs_before: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}


def mark_obs_baseline() -> None:
    """Start a benchmark's telemetry window (``benchmarks/conftest.py``).

    The registry is process-wide, so its absolute values include whatever
    ran earlier in the process; :func:`save_experiment` records the change
    since this mark instead.  The registry is not reset: module-level
    metric handles would keep publishing into dropped series.
    """
    global _obs_before
    _obs_before = get_registry().snapshot()


def _histogram_delta(now: Dict[str, Any],
                     before: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    if before is None:
        return now
    return {
        "buckets": {bound: count - before["buckets"].get(bound, 0)
                    for bound, count in now["buckets"].items()},
        "sum": now["sum"] - before["sum"],
        "count": now["count"] - before["count"],
    }


def _obs_delta() -> Dict[str, Any]:
    """The running benchmark's own telemetry, in the snapshot's shape.

    Counters and histograms are differences from :func:`mark_obs_baseline`,
    gauges the levels that moved since then.  Series the benchmark left
    unchanged are omitted, because whether they exist at all depends on
    what ran earlier in the process.
    """
    now, before = get_registry().snapshot(), _obs_before
    counters = {name: value - before["counters"].get(name, 0.0)
                for name, value in now["counters"].items()}
    histograms = {name: _histogram_delta(value, before["histograms"].get(name))
                  for name, value in now["histograms"].items()}
    return {
        "counters": {name: value for name, value in counters.items() if value},
        "gauges": {name: value for name, value in now["gauges"].items()
                   if value != before["gauges"].get(name, 0.0)},
        "histograms": {name: value for name, value in histograms.items()
                       if value["count"]},
    }


def save_experiment(result: ExperimentResult) -> Path:
    """Persist a benchmark's experiment record under ``RESULTS_DIR``.

    Every record carries a ``meta`` block (CPU count, NumPy/BLAS build,
    active kernel backend) so wall-clock numbers measured on different
    machines are distinguishable.  The benchmark's own telemetry rides
    along as ``meta.obs`` (see :func:`_obs_delta`) — serve counters, replica
    restarts — so a drifted record can be checked for a *behavioural* cause
    before blaming the machine.
    """
    payload = result.as_dict()
    payload["meta"] = machine_meta()
    payload["meta"]["obs"] = _obs_delta()
    return save_json(payload, RESULTS_DIR / f"{result.experiment_id}.json")


def run_once(benchmark, func):
    """Run an expensive benchmark body exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
