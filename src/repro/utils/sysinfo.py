"""Machine/environment metadata attached to benchmark records.

Wall-clock benchmark numbers are meaningless without the hardware and BLAS
they were measured on; every ``benchmarks/results/*.json`` writer and the
CLI ``serve-bench`` summary attach :func:`machine_meta` so records from
different machines can be told apart.
"""

from __future__ import annotations

import os
import platform
from typing import Any, Dict, Optional

import numpy as np


def _cpu_model() -> str:
    """Best-effort CPU model string (the arch alone cannot tell two x86_64
    hosts apart, but wall-clock crossovers differ between them)."""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_info() -> Dict[str, Any]:
    """Best-effort description of the BLAS NumPy links against."""
    try:
        config = np.show_config(mode="dicts")  # numpy >= 1.25
        blas = (config or {}).get("Build Dependencies", {}).get("blas", {})
        info = {
            key: blas[key]
            for key in ("name", "version", "openblas configuration")
            if blas.get(key)
        }
        if info:
            return info
    except Exception:
        pass
    try:  # legacy numpy exposes distutils-style info dicts
        from numpy import __config__ as np_config

        libraries = getattr(np_config, "blas_opt_info", {}).get("libraries")
        if libraries:
            return {"name": ",".join(libraries)}
    except Exception:
        pass
    return {"name": "unknown"}


def machine_meta(backend: Optional[object] = None) -> Dict[str, Any]:
    """Context block for a wall-clock measurement (CPU, BLAS, backend).

    ``backend`` names the kernel backend the numbers were measured on; when
    omitted the ambient runtime default is recorded.
    """
    from repro.runtime.dispatch import default_backend_name

    if backend is None:
        backend_name = default_backend_name()
    else:
        backend_name = getattr(backend, "name", backend)
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "backend": str(backend_name),
        "parallel_workers_env": os.environ.get("REPRO_PARALLEL_WORKERS"),
    }


#: meta fields that identify the machine + numeric stack a wall-clock
#: number was measured on (plus the BLAS build, compared separately).
#: Worker-count overrides belong here too: a record measured with a
#: constrained pool does not speak for the same machine at full width.
SAME_MACHINE_KEYS = (
    "cpu_count", "cpu_model", "machine", "numpy",
    "parallel_workers_env",
)


def same_machine(meta_a: Optional[Dict[str, Any]],
                 meta_b: Optional[Dict[str, Any]]) -> bool:
    """True when two ``meta`` blocks describe one machine + numeric stack.

    This is the single definition of "are these wall-clock numbers
    comparable / do they speak for this CPU": benchmark baseline diffing
    and auto-pinning staleness both route through it, so the rule cannot
    drift between them.
    """
    meta_a, meta_b = meta_a or {}, meta_b or {}
    for key in SAME_MACHINE_KEYS:
        if meta_a.get(key) != meta_b.get(key):
            return False
    blas_a = (meta_a.get("blas") or {}).get("name")
    blas_b = (meta_b.get("blas") or {}).get("name")
    return blas_a == blas_b


__all__ = ["machine_meta", "same_machine", "SAME_MACHINE_KEYS"]
