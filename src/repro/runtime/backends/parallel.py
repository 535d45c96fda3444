"""Parallel kernel backend: row-block tiling across a worker-thread pool.

Every integer kernel in the repo is row-independent (INT8 GEMM rows, the
per-position depthwise inner products) or reduces over rows with an exact
integer accumulator (the depthwise weight gradient).  That makes them
tileable without changing a single bit: each tile computes exactly the rows
the full kernel would, with the same per-row arithmetic, so the concatenated
(or integer-summed) result is identical to the ``fast`` and ``reference``
backends on every input.

Three mechanisms stack up here:

* **Thread tiling.**  Row blocks are dispatched to a shared
  :class:`~concurrent.futures.ThreadPoolExecutor`; NumPy releases the GIL
  inside BLAS and buffered ufunc loops, so the tiles genuinely overlap on
  multi-core hosts.  The calling thread processes the first tile itself, and
  per-tile operand staging reuses the ``fast`` backend's per-*thread*
  scratch buffers — each pool worker owns its own scratch, so no
  tile ever contends on staging memory.
* **Exact-float32 tiles.**  Each tile runs the ``fast`` backend's trick:
  int8 operands staged to float32 feed BLAS ``sgemm``/vectorized einsums
  whose accumulations stay inside float32's exact-integer window.  For the
  depthwise *gradient* the reduction spans all positions and can leave that
  window, so tiles are capped at an exact-window row count and their exact
  partial sums accumulate in int64 — still bit-identical, now parallel.
  This finally takes ``int8_depthwise``/``int8_depthwise_grad`` off the
  reference integer-einsum path.
* **Optional numba JIT.**  When numba is importable
  (``importlib.util.find_spec("numba")``), the depthwise inner products
  compile to ``nogil`` machine-code loops that skip operand staging
  entirely; without numba (or if compilation fails) the NumPy tile kernels
  above serve unchanged.  Nothing is ever downloaded or required.

On single-core hosts (``num_workers == 1``) tiling cannot pay for itself, so
the GEMM kernels delegate straight to the inherited ``fast`` implementations
and only the depthwise float32 kernels remain active — ``parallel`` is then
simply ``fast`` with faster depthwise products.
"""

from __future__ import annotations

import atexit
import importlib.util
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.backends.fast import FastBackend, exact_f32_possible
from repro.runtime.backends.reference import (
    integer_matmul,
    rowwise_levels,
    rowwise_scales,
)

#: Environment override for the worker-pool width (default: CPU count).
WORKERS_ENV_VAR = "REPRO_PARALLEL_WORKERS"

_NUMBA_AVAILABLE = importlib.util.find_spec("numba") is not None
_numba_kernels: Optional[tuple] = None
_numba_lock = threading.Lock()


def _load_numba_kernels() -> Optional[tuple]:
    """Compile the depthwise kernels with numba once, or return ``None``.

    Gated on ``find_spec`` so environments without numba never attempt the
    import; any compilation failure also degrades cleanly to the NumPy
    kernels.
    """
    global _numba_kernels
    if not _NUMBA_AVAILABLE:
        return None
    if _numba_kernels is not None:
        return _numba_kernels or None
    with _numba_lock:
        if _numba_kernels is not None:
            return _numba_kernels or None
        try:
            import numba

            @numba.njit(nogil=True, cache=True)
            def depthwise(cols_q, weight_q, out):  # pragma: no cover - JIT
                positions, channels, kernel = cols_q.shape
                for p in range(positions):
                    for c in range(channels):
                        acc = np.int64(0)
                        for k in range(kernel):
                            acc += np.int64(cols_q[p, c, k]) * np.int64(
                                weight_q[c, k]
                            )
                        out[p, c] = acc

            @numba.njit(nogil=True, cache=True)
            def depthwise_grad(grad_q, cols_q, out):  # pragma: no cover - JIT
                positions, channels, kernel = cols_q.shape
                for p in range(positions):
                    for c in range(channels):
                        g = np.int64(grad_q[p, c])
                        for k in range(kernel):
                            out[c, k] += g * np.int64(cols_q[p, c, k])

            # njit defers compilation to the first call; probe both kernels
            # here so a broken numba install (llvmlite/LLVM mismatch, cache
            # write failure) trips the fallback instead of crashing the
            # first inference on a pool worker thread.
            probe_cols = np.zeros((1, 1, 1), dtype=np.int8)
            depthwise(probe_cols, np.zeros((1, 1), dtype=np.int8),
                      np.zeros((1, 1), dtype=np.int64))
            depthwise_grad(np.zeros((1, 1), dtype=np.int8), probe_cols,
                           np.zeros((1, 1), dtype=np.int64))
            _numba_kernels = (depthwise, depthwise_grad)
        except Exception:  # numba present but unusable: fall back silently
            _numba_kernels = ()
    return _numba_kernels or None


def _default_workers() -> int:
    override = os.environ.get(WORKERS_ENV_VAR)
    if override:
        return max(1, int(override))
    return max(1, os.cpu_count() or 1)


class ParallelBackend(FastBackend):
    """Tiled, threaded variant of the ``fast`` exact kernels."""

    name = "parallel"

    def __init__(
        self,
        num_workers: Optional[int] = None,
        min_rows_per_tile: int = 32,
    ) -> None:
        super().__init__()
        self.num_workers = (
            _default_workers() if num_workers is None else max(1, int(num_workers))
        )
        self.min_rows_per_tile = max(1, int(min_rows_per_tile))
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._pool_pid: Optional[int] = None
        self._atexit_registered = False

    # ------------------------------------------------------------------ #
    # tiling machinery
    # ------------------------------------------------------------------ #
    def _tiles(
        self, rows: int, max_tile_rows: Optional[int] = None
    ) -> Optional[List[Tuple[int, int]]]:
        """Row-block bounds, or ``None`` when tiling cannot pay for itself.

        ``max_tile_rows`` caps a tile's height regardless of worker count
        (used by the depthwise gradient to stay inside the exact-float32
        accumulation window).
        """
        blocks = min(self.num_workers, rows // self.min_rows_per_tile)
        if max_tile_rows is not None and rows > max_tile_rows:
            blocks = max(blocks, -(-rows // max_tile_rows))
        if blocks < 2:
            return None
        bounds = np.linspace(0, rows, blocks + 1).astype(int)
        return [
            (int(bounds[i]), int(bounds[i + 1]))
            for i in range(blocks)
            if bounds[i] < bounds[i + 1]
        ]

    def _executor(self) -> ThreadPoolExecutor:
        pool = self._pool
        if pool is not None and self._pool_pid == os.getpid():
            return pool
        with self._pool_lock:
            # A pool inherited through os.fork is dead weight: the worker
            # threads did not survive into the child, so submitting to it
            # would queue work forever.  Drop the handle (the parent still
            # owns the real pool) and build a fresh one for this process.
            if self._pool is not None and self._pool_pid != os.getpid():
                self._pool = None
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.num_workers,
                    thread_name_prefix="repro-parallel",
                )
                self._pool_pid = os.getpid()
                if not self._atexit_registered:
                    # Idempotent shutdown at interpreter exit; explicit
                    # shutdown() / context-manager exit remains the
                    # deterministic path for tests and short-lived tools.
                    atexit.register(self.shutdown)
                    self._atexit_registered = True
        return self._pool

    @property
    def pool_active(self) -> bool:
        """True while a worker pool this process owns is live.

        Callers that start a pool as a side effect (autopin calibration)
        consult it to release pools no engine will ever close.
        """
        return self._pool is not None and self._pool_pid == os.getpid()

    def shutdown(self) -> None:
        """Join and release the worker-thread pool (idempotent).

        The backend stays usable: the next tiled kernel call lazily builds
        a fresh pool.  A pool inherited through ``os.fork`` is discarded
        without joining — its threads only exist in the parent.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
            owner = self._pool_pid
            self._pool_pid = None
        if pool is not None and owner == os.getpid():
            pool.shutdown(wait=True)

    def _run_tiles(
        self, work: Callable[[int, int], None], tiles: Sequence[Tuple[int, int]]
    ) -> None:
        """Run ``work(r0, r1)`` over every tile; calling thread takes tile 0.

        A concurrent :meth:`shutdown` (another engine closing a shared
        backend) may retire the pool between lookup and submit; tiles are
        order-independent and exact, so the unsubmitted remainder simply
        runs inline on the calling thread — same bits, one pool restart
        later.
        """
        if len(tiles) == 1 or self.num_workers == 1:
            for r0, r1 in tiles:
                work(r0, r1)
            return
        pool = self._executor()
        futures = []
        inline: List[Tuple[int, int]] = []
        for r0, r1 in tiles[1:]:
            try:
                futures.append(pool.submit(work, r0, r1))
            except RuntimeError:  # pool shut down mid-call
                inline.append((r0, r1))
        work(*tiles[0])
        for r0, r1 in inline:
            work(r0, r1)
        for future in futures:
            future.result()  # propagate worker exceptions

    # ------------------------------------------------------------------ #
    # GEMM kernels
    # ------------------------------------------------------------------ #
    def int8_gemm(self, lhs_q: np.ndarray, rhs_q: np.ndarray) -> np.ndarray:
        if lhs_q.ndim != 2:
            return super().int8_gemm(lhs_q, rhs_q)
        tiles = self._tiles(lhs_q.shape[0])
        if tiles is None:
            return super().int8_gemm(lhs_q, rhs_q)
        exact = (
            lhs_q.dtype == np.int8
            and rhs_q.dtype == np.int8
            and exact_f32_possible(lhs_q.shape[-1], qmax=128, rhs_max=128)
        )
        if exact:
            # Stage the shared rhs once (workers only read it); each tile
            # stages its own lhs rows into per-thread scratch.
            rhs_shared = rhs_q.astype(np.float32)
            out = np.empty((lhs_q.shape[0], rhs_q.shape[1]), dtype=np.float32)

            def work(r0: int, r1: int) -> None:
                lhs_f32 = self._stage_f32("parallel_lhs", lhs_q[r0:r1])
                np.matmul(lhs_f32, rhs_shared, out=out[r0:r1])

        else:
            narrow = lhs_q.dtype == np.int8 and rhs_q.dtype == np.int8
            accumulator = np.int32 if narrow else np.int64
            rhs_shared = rhs_q.astype(accumulator)
            out = np.empty(
                (lhs_q.shape[0], rhs_q.shape[1]), dtype=accumulator
            )

            def work(r0: int, r1: int) -> None:
                np.matmul(
                    lhs_q[r0:r1].astype(accumulator), rhs_shared, out=out[r0:r1]
                )

        self._run_tiles(work, tiles)
        return out

    def rowwise_quantized_gemm(
        self,
        x: np.ndarray,
        rhs_q: np.ndarray,
        qmax: int,
        rhs_f32: Optional[np.ndarray] = None,
        exact_f32: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float32)
        tiles = self._tiles(x.shape[0]) if x.ndim == 2 else None
        if tiles is None:
            return super().rowwise_quantized_gemm(
                x, rhs_q, qmax, rhs_f32=rhs_f32, exact_f32=exact_f32
            )
        rows, cols = x.shape[0], rhs_q.shape[1]
        scales = np.empty(rows, dtype=np.float32)
        exact = exact_f32 or exact_f32_possible(rhs_q.shape[0], qmax)
        if exact:
            rhs_shared = (
                rhs_f32 if rhs_f32 is not None else rhs_q.astype(np.float32)
            )
            out = np.empty((rows, cols), dtype=np.float32)

            def work(r0: int, r1: int) -> None:
                # Per-row scales and levels are independent of the tiling,
                # and the exact-integer accumulation is independent of the
                # BLAS blocking — both are bit-identical to the full-batch
                # fast kernel.
                tile = x[r0:r1]
                tile_scales = rowwise_scales(tile, qmax)
                scales[r0:r1] = tile_scales
                levels = tile / tile_scales[:, None]
                np.rint(levels, out=levels)
                np.clip(levels, -qmax, qmax, out=levels)
                np.matmul(levels, rhs_shared, out=out[r0:r1])

        else:
            rhs_shared = rhs_q.astype(np.int32)
            out = np.empty((rows, cols), dtype=np.int32)

            def work(r0: int, r1: int) -> None:
                tile = x[r0:r1]
                tile_scales = rowwise_scales(tile, qmax)
                scales[r0:r1] = tile_scales
                q = rowwise_levels(tile, tile_scales, qmax).astype(np.int8)
                np.matmul(q.astype(np.int32), rhs_shared, out=out[r0:r1])

        self._run_tiles(work, tiles)
        return out, scales

    # ------------------------------------------------------------------ #
    # depthwise kernels (off the reference path at last)
    # ------------------------------------------------------------------ #
    def int8_depthwise(
        self, cols_q: np.ndarray, weight_q: np.ndarray
    ) -> np.ndarray:
        if not (
            cols_q.dtype == np.int8
            and weight_q.dtype == np.int8
            and exact_f32_possible(cols_q.shape[2], qmax=128, rhs_max=128)
        ):
            return super().int8_depthwise(cols_q, weight_q)
        positions, channels = cols_q.shape[0], cols_q.shape[1]
        out = np.empty((positions, channels), dtype=np.int64)
        numba_kernels = _load_numba_kernels()
        if numba_kernels is not None:
            depthwise_jit = numba_kernels[0]

            def work(r0: int, r1: int) -> None:
                depthwise_jit(cols_q[r0:r1], weight_q, out[r0:r1])

        else:
            weight_f32 = weight_q.astype(np.float32)

            def work(r0: int, r1: int) -> None:
                # The per-(position, channel) reduction spans kernel_area
                # products bounded by 128^2, far inside float32's exact
                # window — the float einsum vectorizes where the integer
                # einsum cannot.
                out[r0:r1] = np.einsum(
                    "pck,ck->pc", cols_q[r0:r1].astype(np.float32), weight_f32
                )

        tiles = self._tiles(positions) or [(0, positions)]
        self._run_tiles(work, tiles)
        return out

    def int8_depthwise_grad(
        self, grad_q: np.ndarray, cols_q: np.ndarray
    ) -> np.ndarray:
        if not (
            grad_q.dtype == np.int8
            and cols_q.dtype == np.int8
            and cols_q.shape[0] > 0
        ):
            return super().int8_depthwise_grad(grad_q, cols_q)
        positions = cols_q.shape[0]
        # Each tile's float32 accumulation must stay exact: per-position
        # products are bounded by 128^2, so cap tile height accordingly
        # (tiles is never None once positions exceeds the cap).
        max_tile = max(1, (2 ** 24 - 1) // (128 * 128))
        tiles = self._tiles(positions, max_tile_rows=max_tile)
        if tiles is None:
            tiles = [(0, positions)]
        partials = np.zeros((len(tiles),) + cols_q.shape[1:], dtype=np.int64)
        numba_kernels = _load_numba_kernels()
        if numba_kernels is not None:
            grad_jit = numba_kernels[1]

            def work(index: int, r0: int, r1: int) -> None:
                grad_jit(grad_q[r0:r1], cols_q[r0:r1], partials[index])

        else:

            def work(index: int, r0: int, r1: int) -> None:
                # Exact inside the tile (the row cap keeps every partial sum
                # below 2^24); the cross-tile reduction is integer.
                partials[index] = np.einsum(
                    "pc,pck->ck",
                    grad_q[r0:r1].astype(np.float32),
                    cols_q[r0:r1].astype(np.float32),
                )

        if len(tiles) == 1 or self.num_workers == 1:
            for index, (r0, r1) in enumerate(tiles):
                work(index, r0, r1)
        else:
            pool = self._executor()
            futures = []
            inline = []
            for index, (r0, r1) in enumerate(tiles[1:], start=1):
                try:
                    futures.append(pool.submit(work, index, r0, r1))
                except RuntimeError:  # pool shut down mid-call: run inline
                    inline.append((index, r0, r1))
            work(0, *tiles[0])
            for index, r0, r1 in inline:
                work(index, r0, r1)
            for future in futures:
                future.result()
        return partials.sum(axis=0)


__all__ = ["ParallelBackend", "WORKERS_ENV_VAR"]
