"""Diff a fresh benchmark run against the committed results baselines.

The committed ``benchmarks/results/*.json`` records are the repo's
performance ledger; this tool answers "did this change move any number?"
without eyeballing JSON:

* point a fresh run somewhere else with ``REPRO_BENCH_RESULTS_DIR``::

      REPRO_BENCH_RESULTS_DIR=/tmp/fresh PYTHONPATH=src \\
          python -m pytest benchmarks -q -k kernel_micro
      PYTHONPATH=src python benchmarks/compare.py --fresh /tmp/fresh

* every numeric leaf under each record's ``results`` is compared.
  **Wall-clock keys** (``*_ms``, ``*_rps``, throughput, latency, elapsed,
  speedup) are tolerance-banded — by default a fresh value may drift up to
  ``--time-band`` (relative, default 1.0 = 2x either way) before it
  counts, and they are only compared at all when the two records' ``meta``
  sysinfo blocks describe the *same machine and numeric stack* (cpu count,
  arch, NumPy, BLAS, worker-count overrides).  **Structural values** must
  match to ~1e-6: operation-accounting keys (``mac_*``/``quant_*`` —
  deterministic integer arithmetic) on any machine, everything else
  (FP32 training accuracies/losses, timing-rided batching shapes) only
  same-machine.

Exit status: 0 when nothing exceeded its band, 1 otherwise — but only when
strict mode is on (``--strict`` or ``REPRO_BENCH_STRICT=1``, the same
switch the kernel microbenchmark honours); advisory mode always exits 0 so
shared-runner jitter cannot fail CI on its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

BASELINE_DIR = Path(__file__).resolve().parent / "results"

from repro.utils.sysinfo import same_machine  # noqa: E402


def _is_time_key(path: str) -> bool:
    """True when a results path holds a wall-clock measurement.

    Wall clock shows up two ways: suffix conventions on scalar keys
    (``*_ms``, ``*_rps``, percentile names) and whole subtrees that are
    nothing but timings (the kernel microbenchmark's ``kernels`` table).
    """
    lowered = path.lower()
    if "kernels." in lowered:
        return True
    if "check_ns." in lowered:  # obs_overhead per-call guard timings
        return True
    leaf = lowered.rsplit(".", 1)[-1]
    if leaf.endswith(("_ms", "_rps", "_s", "_ns", "_pct")):
        return True
    if leaf in ("p50", "p95", "p99"):
        return True
    return any(
        marker in leaf
        for marker in ("latency", "throughput", "elapsed", "speedup",
                       "overhead")
    )


def _is_op_count_key(path: str) -> bool:
    """True for operation-accounting leaves (``mac_*``, ``quant_*`` ops).

    These count deterministic integer arithmetic events, so they are
    comparable across machines where wall clock and FP32-training outcomes
    are not.
    """
    leaf = path.lower().rsplit(".", 1)[-1]
    return leaf.startswith(("mac_", "quant_")) or leaf.endswith(
        ("_macs", "_ops")
    )


def _obs_context(baseline: dict, fresh: dict) -> List[str]:
    """Behavioural-counter diffs between two records' ``meta.obs`` blocks.

    When a wall-clock key drifts, the first question is whether the two
    runs did the same *work*: a record that shed requests or restarted
    replicas is slower for a reason the telemetry names outright.  Only counters are compared — gauges and
    histograms are point-in-time and load-shaped, so their drift is
    expected.
    """
    base_counters = ((baseline.get("meta") or {}).get("obs") or {}).get(
        "counters"
    ) or {}
    fresh_counters = ((fresh.get("meta") or {}).get("obs") or {}).get(
        "counters"
    ) or {}
    if not base_counters and not fresh_counters:
        return []
    lines: List[str] = []
    for name in sorted(set(base_counters) | set(fresh_counters)):
        base_value = base_counters.get(name)
        fresh_value = fresh_counters.get(name)
        if base_value != fresh_value:
            shown_base = "absent" if base_value is None else f"{base_value:g}"
            shown_fresh = (
                "absent" if fresh_value is None else f"{fresh_value:g}"
            )
            lines.append(f"obs {name}: {shown_base} -> {shown_fresh}")
    return lines


def _numeric_leaves(value, path: str = "") -> Iterator[Tuple[str, float]]:
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield path, float(value)
    elif isinstance(value, dict):
        for key in sorted(value):
            yield from _numeric_leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _numeric_leaves(item, f"{path}[{index}]")


def compare_record(
    baseline: dict,
    fresh: dict,
    time_band: float,
) -> Tuple[List[str], List[str], bool]:
    """(hard mismatches, advisory notes, machines_match) for one record."""
    machines_match = same_machine(baseline.get("meta"), fresh.get("meta"))
    base_leaves = dict(_numeric_leaves(baseline.get("results") or {}))
    fresh_leaves = dict(_numeric_leaves(fresh.get("results") or {}))
    hard: List[str] = []
    notes: List[str] = []
    for path in sorted(set(base_leaves) | set(fresh_leaves)):
        if path not in fresh_leaves:
            hard.append(f"{path}: missing from fresh run")
            continue
        if path not in base_leaves:
            notes.append(f"{path}: new in fresh run ({fresh_leaves[path]:g})")
            continue
        base_value, fresh_value = base_leaves[path], fresh_leaves[path]
        if _is_time_key(path):
            if not machines_match:
                continue  # cross-machine wall clock: never comparable
            scale = max(abs(base_value), 1e-9)
            drift = abs(fresh_value - base_value) / scale
            if drift > time_band:
                hard.append(
                    f"{path}: {base_value:g} -> {fresh_value:g} "
                    f"({drift:+.0%} beyond the ±{time_band:.0%} band)"
                )
        else:
            scale = max(abs(base_value), abs(fresh_value), 1e-9)
            if abs(fresh_value - base_value) / scale > 1e-6:
                message = (
                    f"{path}: structural value changed "
                    f"{base_value:g} -> {fresh_value:g}"
                )
                # Operation-count keys (Table IV accounting) are
                # machine-invariant — deterministic integer arithmetic —
                # so their drift is a hard failure even cross-machine;
                # that is what lets the CI compare step catch corrupted op
                # accounting on hosted runners.  Everything else
                # structural (FP32 training accuracies/losses, batching
                # shapes that ride on timing) legitimately moves across
                # machines, so cross-machine it is advisory only.
                hard_failure = machines_match or _is_op_count_key(path)
                (hard if hard_failure else notes).append(message)
    return hard, notes, machines_match


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="diff fresh benchmark records against committed baselines"
    )
    parser.add_argument("--baseline", default=str(BASELINE_DIR),
                        help="baseline results directory (default: the "
                             "committed benchmarks/results)")
    parser.add_argument("--fresh", required=True,
                        help="directory holding the fresh run's records "
                             "(write one with REPRO_BENCH_RESULTS_DIR)")
    parser.add_argument("--time-band", type=float, default=1.0,
                        help="relative drift allowed on wall-clock keys "
                             "before they count as a mismatch (default 1.0)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on mismatches (also enabled by "
                             "REPRO_BENCH_STRICT=1)")
    args = parser.parse_args(argv)

    strict = args.strict or os.environ.get(
        "REPRO_BENCH_STRICT", ""
    ).strip().lower() not in ("", "0", "false", "no")
    baseline_dir, fresh_dir = Path(args.baseline), Path(args.fresh)
    if not fresh_dir.is_dir():
        print(f"fresh directory {fresh_dir} does not exist")
        return 1 if strict else 0

    total_hard = 0
    compared = 0
    for baseline_path in sorted(baseline_dir.glob("*.json")):
        fresh_path = fresh_dir / baseline_path.name
        if not fresh_path.exists():
            print(f"-- {baseline_path.name}: not in fresh run, skipped")
            continue
        try:
            baseline = json.loads(baseline_path.read_text())
            fresh = json.loads(fresh_path.read_text())
        except ValueError as error:
            print(f"!! {baseline_path.name}: unreadable ({error})")
            total_hard += 1
            continue
        hard, notes, machines_match = compare_record(
            baseline, fresh, args.time_band
        )
        compared += 1
        scope = "same machine" if machines_match else (
            "different machine: wall-clock keys skipped"
        )
        status = "OK" if not hard else f"{len(hard)} mismatch(es)"
        print(f"== {baseline_path.name}: {status} ({scope})")
        for line in hard:
            print(f"   !! {line}")
        for line in notes:
            print(f"   .. {line}")
        if hard:
            # Telemetry context: did the mismatched run do different work?
            for line in _obs_context(baseline, fresh):
                print(f"   >> {line}")
        total_hard += len(hard)

    print(
        f"\ncompared {compared} record(s); {total_hard} mismatch(es); "
        f"{'strict' if strict else 'advisory'} mode"
    )
    return 1 if (strict and total_hard) else 0


if __name__ == "__main__":
    sys.exit(main())
