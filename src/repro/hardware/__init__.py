"""Jetson Orin Nano hardware model: op counting, time/energy/memory estimation.

The paper's efficiency results (Tables IV and V) are measured on a physical
Jetson Orin Nano; this package replaces the board with an analytical model
calibrated to its specification (see :mod:`repro.hardware.device` for the
calibration rationale).
"""

from repro.hardware.cost_model import (
    DEFAULT_EPOCHS,
    CostBreakdown,
    TrainingCostEstimate,
    TrainingCostModel,
)
from repro.hardware.device import (
    DEFAULT_COSTS,
    JETSON_ORIN_NANO,
    CostConstants,
    DeviceSpec,
    HardwareModel,
)
from repro.hardware.estimator import (
    PAPER_TABLE5_ACCURACY,
    PAPER_TABLE5_COST,
    SummaryRow,
    Table5Summary,
    build_table5_summary,
)
from repro.hardware.memory_model import MemoryBreakdown, estimate_memory
from repro.hardware.op_counter import (
    LayerProfile,
    ModelProfile,
    ProfileHook,
    profile_bundle,
)
from repro.hardware.sweeps import (
    SweepPoint,
    SweepResult,
    breakeven_ff_epochs,
    sweep_batch_size,
    sweep_epochs,
)
from repro.hardware.table4 import PAPER_TABLE4, table4_op_counts

__all__ = [
    "DeviceSpec",
    "CostConstants",
    "HardwareModel",
    "JETSON_ORIN_NANO",
    "DEFAULT_COSTS",
    "TrainingCostModel",
    "TrainingCostEstimate",
    "CostBreakdown",
    "DEFAULT_EPOCHS",
    "MemoryBreakdown",
    "estimate_memory",
    "ModelProfile",
    "LayerProfile",
    "ProfileHook",
    "profile_bundle",
    "table4_op_counts",
    "PAPER_TABLE4",
    "SummaryRow",
    "Table5Summary",
    "build_table5_summary",
    "PAPER_TABLE5_ACCURACY",
    "PAPER_TABLE5_COST",
    "SweepPoint",
    "SweepResult",
    "sweep_batch_size",
    "sweep_epochs",
    "breakeven_ff_epochs",
]
