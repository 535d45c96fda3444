"""Tests for ``benchmarks/compare.py`` (baseline diffing tool)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.utils.sysinfo import machine_meta, same_machine


def _load_compare():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "compare.py"
    spec = importlib.util.spec_from_file_location("bench_compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = _load_compare()


def _record(results, meta=None):
    return {"results": results, "meta": meta or machine_meta()}


class TestCompareRecord:
    def test_identical_records_are_clean(self):
        record = _record({"kernels": {"case": {"fast": 1.0}},
                          "accuracy": 0.93})
        hard, notes, match = compare.compare_record(record, record, 1.0)
        assert hard == [] and match

    def test_wall_clock_drift_inside_band_is_ok(self):
        base = _record({"kernels": {"case": {"fast": 1.0}}})
        fresh = _record({"kernels": {"case": {"fast": 1.8}}})
        hard, _, _ = compare.compare_record(base, fresh, 1.0)
        assert hard == []

    def test_wall_clock_drift_beyond_band_is_flagged(self):
        base = _record({"kernels": {"case": {"fast": 1.0}}})
        fresh = _record({"kernels": {"case": {"fast": 3.5}}})
        hard, _, _ = compare.compare_record(base, fresh, 1.0)
        assert len(hard) == 1 and "kernels.case.fast" in hard[0]

    def test_cross_machine_skips_wall_clock(self):
        other = machine_meta()
        other["cpu_count"] = (other.get("cpu_count") or 1) + 7
        base = _record({"kernels": {"case": {"fast": 1.0}}})
        fresh = _record({"kernels": {"case": {"fast": 100.0}}}, meta=other)
        hard, _, match = compare.compare_record(base, fresh, 1.0)
        assert hard == [] and not match

    def test_meta_with_retired_shard_key_still_matches(self):
        """Records whose meta still carries ``shard_workers_env: null``
        speak for this machine, so their wall-clock keys are diffed."""
        legacy = dict(machine_meta(), shard_workers_env=None)
        assert same_machine(legacy, machine_meta())
        base = _record({"kernels": {"case": {"fast": 1.0}}}, meta=legacy)
        fresh = _record({"kernels": {"case": {"fast": 3.5}}})
        hard, _, match = compare.compare_record(base, fresh, 1.0)
        assert match and len(hard) == 1

    def test_structural_drift_is_hard_on_same_machine(self):
        base = _record({"final_accuracy": 0.931})
        fresh = _record({"final_accuracy": 0.842})
        hard, _, _ = compare.compare_record(base, fresh, 1.0)
        assert len(hard) == 1 and "final_accuracy" in hard[0]

    def test_structural_drift_is_advisory_cross_machine(self):
        other = machine_meta()
        other["numpy"] = "0.0.0"
        base = _record({"final_accuracy": 0.931})
        fresh = _record({"final_accuracy": 0.842}, meta=other)
        hard, notes, _ = compare.compare_record(base, fresh, 1.0)
        assert hard == [] and len(notes) == 1

    def test_op_counts_are_hard_even_cross_machine(self):
        other = machine_meta()
        other["numpy"] = "0.0.0"
        base = _record({"ops": {"mac_int8_mul": 1000.0}})
        fresh = _record({"ops": {"mac_int8_mul": 999.0}}, meta=other)
        hard, _, match = compare.compare_record(base, fresh, 1.0)
        assert not match and len(hard) == 1
        assert "mac_int8_mul" in hard[0]

    def test_timing_rided_integral_values_stay_advisory_cross_machine(self):
        other = machine_meta()
        other["cpu_count"] = (other.get("cpu_count") or 1) + 3
        base = _record({"queued": {"mean_batch_size": 64.0}})
        fresh = _record({"queued": {"mean_batch_size": 32.0}}, meta=other)
        hard, notes, _ = compare.compare_record(base, fresh, 1.0)
        assert hard == [] and len(notes) == 1

    def test_missing_leaf_is_flagged(self):
        base = _record({"kernels": {"case": {"fast": 1.0, "parallel": 2.0}}})
        fresh = _record({"kernels": {"case": {"fast": 1.0}}})
        hard, _, _ = compare.compare_record(base, fresh, 1.0)
        assert any("missing" in line for line in hard)

    def test_latency_percentiles_count_as_wall_clock(self):
        base = _record({"batched": {"p99": 4.0, "requests": 64.0}})
        fresh = _record({"batched": {"p99": 6.0, "requests": 64.0}})
        hard, _, _ = compare.compare_record(base, fresh, 1.0)
        assert hard == []  # within band; requests match exactly

    def test_prefixed_speedup_keys_count_as_wall_clock(self):
        # serve_throughput records `batched_speedup`/`queued_speedup`;
        # ordinary same-machine jitter on them must stay inside the band.
        base = _record({"batched_speedup": 2.41})
        fresh = _record({"batched_speedup": 2.38})
        hard, _, match = compare.compare_record(base, fresh, 1.0)
        assert match and hard == []

    def test_overhead_pct_keys_count_as_wall_clock(self):
        # obs_overhead records percentages and per-call nanoseconds that
        # jitter like any timing; they must ride the band, not the 1e-6
        # structural check.
        base = _record({"disabled_overhead_pct": 0.32,
                        "check_ns": {"maybe_trace": 71.0}})
        fresh = _record({"disabled_overhead_pct": 0.45,
                         "check_ns": {"maybe_trace": 95.0}})
        hard, _, _ = compare.compare_record(base, fresh, 1.0)
        assert hard == []


class TestObsContext:
    def _with_obs(self, counters):
        meta = machine_meta()
        meta["obs"] = {"counters": counters, "gauges": {}, "histograms": {}}
        return _record({"elapsed_s": 1.0}, meta=meta)

    def test_counter_drift_is_reported(self):
        base = self._with_obs({"repro_plan_compiles_total": 1,
                               "repro_replica_restarts_total": 0})
        fresh = self._with_obs({"repro_plan_compiles_total": 3,
                                "repro_replica_restarts_total": 0})
        lines = compare._obs_context(base, fresh)
        assert lines == ["obs repro_plan_compiles_total: 1 -> 3"]

    def test_absent_counters_are_named(self):
        base = _record({"elapsed_s": 1.0})  # pre-obs record: no meta.obs
        fresh = self._with_obs({"repro_plan_compiles_total": 2})
        lines = compare._obs_context(base, fresh)
        assert lines == ["obs repro_plan_compiles_total: absent -> 2"]

    def test_no_obs_blocks_is_silent(self):
        base = _record({"elapsed_s": 1.0})
        assert compare._obs_context(base, base) == []


class TestCompareMain:
    def _write(self, directory, name, record):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / name).write_text(json.dumps(record))

    def test_clean_diff_exits_zero_in_strict_mode(self, tmp_path, capsys):
        record = _record({"kernels": {"case": {"fast": 1.0}}})
        self._write(tmp_path / "base", "kernel_micro.json", record)
        self._write(tmp_path / "fresh", "kernel_micro.json", record)
        code = compare.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"), "--strict",
        ])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_strict_mode_fails_on_structural_drift(self, tmp_path, capsys):
        self._write(tmp_path / "base", "t5.json",
                    _record({"final_accuracy": 0.9}))
        self._write(tmp_path / "fresh", "t5.json",
                    _record({"final_accuracy": 0.5}))
        code = compare.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"), "--strict",
        ])
        assert code == 1

    def test_advisory_mode_always_exits_zero(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.delenv("REPRO_BENCH_STRICT", raising=False)
        self._write(tmp_path / "base", "t5.json",
                    _record({"final_accuracy": 0.9}))
        self._write(tmp_path / "fresh", "t5.json",
                    _record({"final_accuracy": 0.5}))
        code = compare.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"),
        ])
        assert code == 0

    def test_env_var_enables_strict(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_STRICT", "1")
        self._write(tmp_path / "base", "t5.json",
                    _record({"final_accuracy": 0.9}))
        self._write(tmp_path / "fresh", "t5.json",
                    _record({"final_accuracy": 0.5}))
        code = compare.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"),
        ])
        assert code == 1

    def test_records_absent_from_fresh_run_are_skipped(self, tmp_path,
                                                       capsys):
        self._write(tmp_path / "base", "t5.json", _record({"a": 1.0}))
        (tmp_path / "fresh").mkdir()
        code = compare.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"), "--strict",
        ])
        assert code == 0
        assert "skipped" in capsys.readouterr().out
