"""Experiment E6 — Table V: accuracy, time, energy and memory per algorithm.

The paper's headline table compares BP-FP32, BP-INT8, BP-UI8, BP-GDAI8 and
FF-INT8 on four architectures.  This benchmark produces the same rows:

* time / energy / memory come from the calibrated Jetson Orin Nano hardware
  model applied to the paper-scale architectures (see
  :mod:`repro.hardware.device` for the board substitution),
* accuracy columns show the paper's reported values; measured accuracies for
  the reduced-scale NumPy runs are produced separately by the Table I /
  Figure 6 benchmarks and the accuracy-sweep example.

The bottom of the output prints the two average-savings lines of Table V.
"""

from __future__ import annotations

import pytest

from benchmarks._common import emit, run_once, save_experiment
from repro.analysis import ExperimentResult, format_table
from repro.hardware import build_table5_summary
from repro.models import PAPER_BENCHMARKS
from repro.training import ALL_ALGORITHMS, BP_FP32, BP_GDAI8


@pytest.mark.benchmark(group="table5")
def test_table5_summary(benchmark):
    summary = run_once(benchmark, build_table5_summary)

    rows = []
    for model_name in PAPER_BENCHMARKS:
        for row in summary.rows_for_model(model_name):
            rows.append([
                model_name,
                row.algorithm,
                row.paper_accuracy,
                row.estimate.time_s,
                row.estimate.energy_j,
                row.estimate.memory_mb,
                row.paper_time_s,
                row.paper_energy_j,
                row.paper_memory_mb,
            ])
    emit("")
    emit(format_table(
        ["model", "algorithm", "paper acc %", "time (s)", "energy (J)",
         "memory (MB)", "paper time", "paper energy", "paper mem"],
        rows,
        title="Table V — accuracy / time / energy / memory per training "
              "algorithm (hardware-model estimates vs paper measurements)",
        float_format="{:.1f}",
    ))

    vs_fp32 = summary.relative_savings(BP_FP32)
    vs_gdai8 = summary.relative_savings(BP_GDAI8)
    emit("")
    emit(f"FF-INT8 vs BP-FP32  (paper: time -28.6%, energy -46.4%, mem -38.7%): "
         f"time -{vs_fp32['time']:.1f}%, energy -{vs_fp32['energy']:.1f}%, "
         f"mem -{vs_fp32['memory']:.1f}%")
    emit(f"FF-INT8 vs BP-GDAI8 (paper: time  -4.6%, energy  -8.3%, mem -27.0%): "
         f"time -{vs_gdai8['time']:.1f}%, energy -{vs_gdai8['energy']:.1f}%, "
         f"mem -{vs_gdai8['memory']:.1f}%")

    result = ExperimentResult(
        experiment_id="table5_summary",
        paper_reference="Table V",
        description="Accuracy/time/energy/memory comparison across training "
                    "algorithms and architectures",
        parameters={"algorithms": list(ALL_ALGORITHMS)},
        paper_values={"ff_vs_gdai8": {"time": 4.6, "energy": 8.3, "memory": 27.0},
                      "ff_vs_fp32": {"time": 28.6, "energy": 46.4, "memory": 38.7}},
        results={
            "rows": [row.as_dict() for row in summary.rows],
            "ff_vs_fp32": vs_fp32,
            "ff_vs_gdai8": vs_gdai8,
        },
    )
    save_experiment(result)

    # Shape of Table V: FF-INT8 wins on every axis against both references,
    # with the memory saving being the largest of the three.
    assert vs_gdai8["time"] > 0 and vs_gdai8["energy"] > 0 and vs_gdai8["memory"] > 0
    assert vs_fp32["time"] > 20 and vs_fp32["energy"] > 30 and vs_fp32["memory"] > 20
    assert vs_gdai8["memory"] > vs_gdai8["time"]

    # Per-model ordering: every model's FF-INT8 row must beat its BP-GDAI8 row.
    for model_name in PAPER_BENCHMARKS:
        by_algorithm = {r.algorithm: r for r in summary.rows_for_model(model_name)}
        assert by_algorithm["FF-INT8"].estimate.memory_mb \
            < by_algorithm["BP-GDAI8"].estimate.memory_mb
        assert by_algorithm["FF-INT8"].estimate.time_s \
            < by_algorithm["BP-GDAI8"].estimate.time_s
