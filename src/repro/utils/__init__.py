"""General utilities shared across the FF-INT8 reproduction.

The helpers here are intentionally small and dependency-free: deterministic
random-number management (:mod:`repro.utils.rng`), structured logging
(:mod:`repro.utils.logging`), light-weight serialization of training
artifacts (:mod:`repro.utils.serialization`), and machine metadata for
benchmark records (:mod:`repro.utils.sysinfo`).
"""

from repro.utils.logging import get_logger
from repro.utils.rng import new_rng, spawn_rngs
from repro.utils.serialization import load_json, save_json
from repro.utils.sysinfo import machine_meta

__all__ = [
    "get_logger",
    "new_rng",
    "spawn_rngs",
    "load_json",
    "save_json",
    "machine_meta",
]
