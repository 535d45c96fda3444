"""Shard kernel backend: row-block sharding across worker *processes*.

The ``parallel`` backend tops out at the fraction of a kernel that releases
the GIL (BLAS calls, buffered ufunc loops); everything else — per-row scale
derivation, quantization rounding, operand staging — serializes on the
interpreter lock.  ``shard`` removes that ceiling on many-core hosts by
splitting GEMM row-blocks across a persistent pool of **worker processes**
that communicate through ``multiprocessing.shared_memory`` ring buffers:

* **Weights staged once.**  The GEMM's right-hand operand (a frozen serving
  weight, a quantized training weight) is copied into a shared float32
  segment keyed by an array *fingerprint* — an id/layout token backed by a
  content digest — so repeated kernel calls and every worker reuse one
  staging copy.  :meth:`stage_plan_weights` (driven by
  :meth:`~repro.runtime.executor.PlanExecutor.stage_shared_weights`) pays
  this copy at plan-compile time for frozen serving plans.
* **Activation ring buffers.**  Per call, the left-hand operand is copied
  into a reused shared input segment, each worker computes its row block
  into the shared output segment in place, and the parent assembles the
  result with one copy out.  Segments grow geometrically and are reused
  across calls — the steady-state hot path allocates nothing in the
  parent but the result array.
* **Exact-float32 BLAS per shard.**  Shards only run where the ``fast``
  backend's exact-float32 trick applies (``K·qmax·rhs_max < 2^24``): each
  shard accumulates exact integers, so the concatenated result is
  bit-identical to ``reference``/``fast``/``parallel`` whatever the shard
  boundaries — the same parity property tests cover all four backends.
  The im2col'd conv path rides this for free (its column blocks are GEMM
  rows through ``rowwise_quantized_gemm``), and ``int8_depthwise`` ships
  its per-position column blocks through the same rings (positions are
  rows; each reduction spans only ``kernel_area`` products).
* **Threshold delegation.**  Below :attr:`min_rows` (default
  ``REPRO_SHARD_MIN_ROWS`` or the measured crossover default) the IPC
  round-trip cannot pay for itself, so the kernels delegate to the
  inherited ``parallel``/``fast`` implementations — ``shard`` is never the
  slow choice for small inputs.  :meth:`calibrate_min_rows` measures the
  crossover on the live machine for deployments that want a tighter bound.

Lifecycle: the pool starts lazily on the first sharded call, shuts down
deterministically via :meth:`shutdown` / the context-manager protocol, is
registered with ``atexit`` as a last resort, and is fork-safe — a child
created by ``os.fork`` detects the foreign pool and rebuilds its own
instead of writing into the parent's pipes.  On single-core hosts
(``shard_workers == 1``) no process is ever spawned and ``shard`` behaves
exactly like ``parallel``.

Fingerprint staging is sized for the *serving* steady state: frozen
engines hold stable weight objects, so every call after the first is an
id-token cache hit.  Training-side engines re-derive their quantized
weights each step — a fresh object whose content digest (and, on content
change, staging copy) would be paid per call; in practice training
batches sit far below :attr:`min_rows` and delegate, but workloads that
shard large fresh-weight GEMMs every call should expect (and measure)
that staging overhead.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import os
import threading
import traceback
import uuid
import weakref
from collections import OrderedDict
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import trace as obs_trace
from repro.obs.registry import get_registry
from repro.runtime.backends.fast import exact_f32_possible
from repro.runtime.backends.parallel import ParallelBackend
from repro.runtime.backends.reference import rowwise_scales

# Pool/ring/staging health published into the process-wide registry: pool
# resets are the "worker restarts" signal a future heartbeat loop watches,
# ring reuse vs grows tells whether the steady-state zero-allocation claim
# holds in production, staged bytes bound the shared-memory footprint.
_OBS = get_registry()
_POOL_STARTS = _OBS.counter(
    "repro_shard_pool_starts_total", help="Shard worker pools started.")
_POOL_RESETS = _OBS.counter(
    "repro_shard_pool_resets_total",
    help="Shard pools torn down after a worker failure.")
_WORKERS_GAUGE = _OBS.gauge(
    "repro_shard_workers", help="Live shard worker processes.")
_RING_GROWS = _OBS.counter(
    "repro_shard_ring_grows_total",
    help="Shared ring segment (re)allocations.")
_RING_REUSE = _OBS.counter(
    "repro_shard_ring_reuse_total",
    help="Sharded calls served entirely from existing ring capacity.")
_RING_BYTES = _OBS.gauge(
    "repro_shard_ring_bytes", help="Current ring segment capacity, bytes.")
_STAGED_SEGMENTS = _OBS.counter(
    "repro_shard_staged_segments_total",
    help="Weight segments staged into shared memory.")
_STAGED_BYTES = _OBS.gauge(
    "repro_shard_staged_bytes", help="Staged shared weight segments, bytes.")

#: Environment override for the worker-process count (default: CPU count).
SHARD_WORKERS_ENV_VAR = "REPRO_SHARD_WORKERS"

#: Environment override for the small-input delegation threshold (rows).
SHARD_MIN_ROWS_ENV_VAR = "REPRO_SHARD_MIN_ROWS"

#: Environment override for the multiprocessing start method.
SHARD_START_METHOD_ENV_VAR = "REPRO_SHARD_START_METHOD"

#: Default delegation threshold: below this many result rows the
#: pipe round-trip + shared-memory copies outweigh the extra cores (the
#: kernel microbenchmark's measured crossover sits in the low hundreds of
#: rows on commodity multi-core hosts; ``calibrate_min_rows`` refines it).
DEFAULT_MIN_ROWS = 256

#: How many shared weight segments the parent keeps staged (LRU).
_WEIGHT_CACHE_ENTRIES = 32

#: How many attached segments each worker caches before closing old ones.
_WORKER_CACHE_ENTRIES = 48


def _default_shard_workers() -> int:
    override = os.environ.get(SHARD_WORKERS_ENV_VAR)
    if override:
        return max(1, int(override))
    return max(1, os.cpu_count() or 1)


def _default_min_rows() -> int:
    override = os.environ.get(SHARD_MIN_ROWS_ENV_VAR)
    if override:
        return max(1, int(override))
    return DEFAULT_MIN_ROWS


def _unregister_tracker(name: str) -> None:
    """Detach an attached segment from this process's resource tracker.

    Attach-side ``SharedMemory`` handles register with the resource tracker
    exactly like create-side ones (fixed only in Python 3.13's
    ``track=False``).  A spawn/forkserver worker owns a *separate* tracker,
    which would "clean up" — unlink — the parent's live segments when the
    worker exits; unregistering restores single ownership to the parent.
    Fork workers share the parent's tracker process, where the attach-side
    registration is an idempotent set-add — unregistering there would strip
    the parent's own registration instead, so fork workers skip this.
    """
    try:  # pragma: no cover - depends on stdlib internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name.lstrip('/')}", "shared_memory")
    except Exception:
        pass


# --------------------------------------------------------------------------- #
# worker process
# --------------------------------------------------------------------------- #
def _attach_segment(cache: "OrderedDict[str, Any]", name: str,
                    untrack: bool = False):
    """Attach (or reuse) a shared segment by name, LRU-bounding the cache."""
    shm = cache.get(name)
    if shm is not None:
        cache.move_to_end(name)
        return shm
    shm = shared_memory.SharedMemory(name=name)
    if untrack:
        _unregister_tracker(name)
    cache[name] = shm
    while len(cache) > _WORKER_CACHE_ENTRIES:
        _, old = cache.popitem(last=False)
        old.close()
    return shm


def _view(shm, shape, dtype) -> np.ndarray:
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)


def _shard_compute(
    op: str,
    qmax: int,
    lhs: np.ndarray,
    rhs: np.ndarray,
    out: np.ndarray,
    scales: Optional[np.ndarray],
    r0: int,
    r1: int,
) -> None:
    """The one shard kernel body, over already-resolved array views.

    Shared verbatim by the worker processes and the parent's own shard 0 —
    there is exactly one copy of the arithmetic, so parent and worker tiles
    cannot drift apart (the bit-identity contract the backend rests on).
    """
    if op == "int8_gemm":
        # Same arithmetic as the fast backend's exact path: int8 rows staged
        # to float32 feed one sgemm whose accumulation is exact.
        np.matmul(lhs[r0:r1].astype(np.float32), rhs, out=out[r0:r1])
    elif op == "depthwise":
        # Positions are rows: each (position, channel) reduction spans only
        # kernel_area products bounded by 128^2, far inside float32's exact
        # window — the same tile arithmetic as the parallel backend's f32
        # einsum, so shard boundaries cannot change a bit.
        np.einsum(
            "pck,ck->pc", lhs[r0:r1].astype(np.float32), rhs,
            out=out[r0:r1],
        )
    elif op == "rowwise":
        tile = lhs[r0:r1]
        tile_scales = rowwise_scales(tile, qmax)
        scales[r0:r1] = tile_scales
        levels = tile / tile_scales[:, None]
        np.rint(levels, out=levels)
        np.clip(levels, -qmax, qmax, out=levels)
        np.matmul(levels, rhs, out=out[r0:r1])
    else:  # pragma: no cover - protocol guard
        raise ValueError(f"unknown shard op {op!r}")


def _execute_shard(job: Dict[str, Any], cache: "OrderedDict[str, Any]",
                   untrack: bool = False) -> None:
    """Resolve a job's shared segments into views and run the kernel body."""
    lhs = _view(
        _attach_segment(cache, job["in_name"], untrack),
        job["in_shape"], job["in_dtype"],
    )
    rhs = _view(
        _attach_segment(cache, job["rhs_name"], untrack),
        job["rhs_shape"], "float32",
    )
    out = _view(
        _attach_segment(cache, job["out_name"], untrack),
        job["out_shape"], "float32",
    )
    scales = None
    if job["op"] == "rowwise":
        scales = _view(
            _attach_segment(cache, job["scales_name"], untrack),
            (job["in_shape"][0],),
            "float32",
        )
    _shard_compute(job["op"], job["qmax"], lhs, rhs, out, scales,
                   job["r0"], job["r1"])


def _worker_main(conn, untrack: bool = False,
                 stale_fds: Tuple[int, ...] = ()) -> None:  # pragma: no cover
    """Worker loop: receive row-block jobs, compute into shared memory.

    ``stale_fds`` are the parent-side pipe ends a fork-started process
    inherited — the pipes to earlier workers *and this worker's own*
    (created before the fork).  Closing them immediately restores EOF
    semantics in both directions: if a sibling worker dies, the parent's
    ``recv`` raises instead of blocking on a write end this process kept
    alive; and if the parent dies (hard kill, ``os._exit``), this worker's
    own ``recv`` sees EOF and exits instead of idling as an orphan that
    pins the parent's inherited stdout/stderr pipes.
    """
    for fd in stale_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    cache: "OrderedDict[str, Any]" = OrderedDict()
    try:
        while True:
            try:
                job = conn.recv()
            except (EOFError, OSError):
                break
            if job is None:
                break
            try:
                _execute_shard(job, cache, untrack)
                conn.send(("ok", None))
            except BaseException:
                try:
                    conn.send(("err", traceback.format_exc()))
                except Exception:
                    break
    finally:
        for shm in cache.values():
            shm.close()
        try:
            conn.close()
        except Exception:
            pass


# --------------------------------------------------------------------------- #
# parent-side shared staging
# --------------------------------------------------------------------------- #
class _SharedArray:
    """A parent-owned shared segment holding one staged array."""

    __slots__ = ("shm", "name", "shape", "dtype", "nbytes")

    def __init__(self, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array)
        self.name = f"repro-shard-{os.getpid()}-{uuid.uuid4().hex[:12]}"
        self.nbytes = max(1, array.nbytes)
        self.shm = shared_memory.SharedMemory(
            create=True, size=self.nbytes, name=self.name
        )
        self.shape = array.shape
        self.dtype = str(array.dtype)
        _view(self.shm, array.shape, array.dtype)[...] = array
        _STAGED_SEGMENTS.inc()
        _STAGED_BYTES.inc(self.nbytes)

    def close(self, unlink: bool = True) -> None:
        try:
            self.shm.close()
            if unlink:
                self.shm.unlink()
        except Exception:
            pass
        if self.nbytes:
            _STAGED_BYTES.dec(self.nbytes)
            self.nbytes = 0


class _RingSegment:
    """A reusable, geometrically-grown shared segment (one per operand role).

    The ring is reused across calls: a call copies its activations in,
    workers write result tiles in place, the parent copies the result out —
    after the first few calls the segment reaches steady-state size and the
    hot path performs no shared-memory allocation at all.
    """

    __slots__ = ("shm", "name", "capacity")

    def __init__(self) -> None:
        self.shm = None
        self.name = ""
        self.capacity = 0

    def ensure(self, nbytes: int) -> bool:
        """Guarantee capacity; True when a (re)allocation was needed.

        The boolean feeds the grow/reuse counters: a healthy steady state
        is all-reuse, so a growing ``repro_shard_ring_grows_total`` under
        stable traffic means the zero-allocation claim is not holding.
        """
        if self.shm is not None and self.capacity >= nbytes:
            return False
        if self.shm is not None:
            self.shm.close()
            try:
                self.shm.unlink()
            except Exception:
                pass
            _RING_BYTES.dec(self.capacity)
        capacity = max(1, nbytes, int(self.capacity * 1.5))
        self.name = f"repro-shard-{os.getpid()}-{uuid.uuid4().hex[:12]}"
        self.shm = shared_memory.SharedMemory(
            create=True, size=capacity, name=self.name
        )
        self.capacity = capacity
        _RING_BYTES.inc(capacity)
        return True

    def view(self, shape, dtype) -> np.ndarray:
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=self.shm.buf)

    def close(self, unlink: bool = True) -> None:
        if self.shm is None:
            return
        try:
            self.shm.close()
            if unlink:
                self.shm.unlink()
        except Exception:
            pass
        _RING_BYTES.dec(self.capacity)
        self.shm = None
        self.capacity = 0


class ShardBackend(ParallelBackend):
    """Multiprocess row-block sharding of the exact-float32 GEMM kernels."""

    name = "shard"

    def __init__(
        self,
        num_workers: Optional[int] = None,
        min_rows: Optional[int] = None,
        min_rows_per_shard: int = 64,
    ) -> None:
        super().__init__()
        # The *process* count.  Deliberately distinct from the inherited
        # ``num_workers`` (the parallel backend's thread-tiling width): a
        # delegated small-input call must still thread-tile exactly like
        # ``parallel`` would, whatever REPRO_SHARD_WORKERS says.
        self.shard_workers = (
            _default_shard_workers()
            if num_workers is None
            else max(1, int(num_workers))
        )
        self.min_rows = (
            _default_min_rows() if min_rows is None else max(1, int(min_rows))
        )
        self.min_rows_per_shard = max(1, int(min_rows_per_shard))
        self._shard_lock = threading.Lock()
        self._workers: List[Tuple[Any, Any]] = []  # (process, pipe)
        self._owner_pid: Optional[int] = None
        self._rings = {
            "in": _RingSegment(),
            "out": _RingSegment(),
            "scales": _RingSegment(),
        }
        # fingerprint caches: id/layout token -> content digest (guarded by
        # a weakref so a recycled id can never alias), digest -> segment.
        # The LRU bound is per-instance and grows to fit whole plans (see
        # stage_plan_weights): a conv model with more layers than the
        # default bound would otherwise evict-and-restage segments on every
        # traversal, churning shared memory per request.
        self._digest_by_token: Dict[tuple, Tuple[Any, str]] = {}
        self._staged: "OrderedDict[str, _SharedArray]" = OrderedDict()
        self._weight_cache_entries = _WEIGHT_CACHE_ENTRIES
        self._shard_atexit = False

    # ------------------------------------------------------------------ #
    # pool lifecycle
    # ------------------------------------------------------------------ #
    def _check_owner(self) -> None:
        """Discard pool state inherited through os.fork (child side)."""
        if self._owner_pid is None or self._owner_pid == os.getpid():
            return
        # The processes, pipes and segments belong to the parent; close our
        # duplicated handles without unlinking and start from scratch.
        for _, conn in self._workers:
            try:
                conn.close()
            except Exception:
                pass
        self._workers = []
        for ring in self._rings.values():
            ring.close(unlink=False)
        for staged in self._staged.values():
            staged.close(unlink=False)
        self._staged = OrderedDict()
        self._digest_by_token = {}
        self._owner_pid = None

    def _ensure_pool(self) -> List[Tuple[Any, Any]]:
        self._check_owner()
        if self._workers:
            return self._workers
        method = os.environ.get(SHARD_START_METHOD_ENV_VAR)
        if not method:
            # fork starts a worker in O(ms) (spawn re-imports numpy per
            # worker), but forking a *multithreaded* parent can clone a
            # lock some sibling thread holds mid-BLAS and wedge the child
            # on its first kernel.  Serving engines stage weights (and
            # hence start this pool) from the main thread before batcher
            # workers exist, so they keep the fast path; a pool first
            # started from inside a threaded server pays the safe, slower
            # spawn once.  REPRO_SHARD_START_METHOD overrides either way.
            methods = multiprocessing.get_all_start_methods()
            single_threaded = threading.active_count() == 1
            if "fork" in methods and single_threaded:
                method = "fork"
            elif "spawn" in methods:
                method = "spawn"
            else:  # pragma: no cover - exotic platform
                method = None
        ctx = multiprocessing.get_context(method)
        forked = ctx.get_start_method() == "fork"
        untrack = not forked
        workers: List[Tuple[Any, Any]] = []
        for index in range(max(1, self.shard_workers - 1)):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            stale_fds = tuple(
                [conn.fileno() for _, conn in workers]
                + [parent_conn.fileno()]
            ) if forked else ()
            process = ctx.Process(
                target=_worker_main,
                args=(child_conn, untrack, stale_fds),
                name=f"repro-shard-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            workers.append((process, parent_conn))
        self._workers = workers
        self._owner_pid = os.getpid()
        _POOL_STARTS.inc()
        _WORKERS_GAUGE.set(len(workers))
        if not self._shard_atexit:
            atexit.register(self.shutdown)
            self._shard_atexit = True
        return workers

    def _stop_workers(self) -> None:
        """Signal, join (or terminate) and forget the worker processes.

        Callers hold :attr:`_shard_lock` (or are the sole user during
        interpreter exit); the pool respawns lazily on the next sharded
        call.
        """
        workers, self._workers = self._workers, []
        self._owner_pid = None
        if workers:
            _WORKERS_GAUGE.set(0)
        for process, conn in workers:
            try:
                conn.send(None)
            except Exception:
                pass
        for process, conn in workers:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
            try:
                conn.close()
            except Exception:
                pass

    @property
    def workers_active(self) -> bool:
        """Process pool *or* inherited delegation thread pool live."""
        return self.pool_active or ParallelBackend.pool_active.fget(self)

    def stop_workers(self) -> None:
        """Stop worker processes and threads; keep staged weights and rings.

        The lighter half of :meth:`shutdown`, for callers that started the
        pool as a side effect (autopin calibration) and must not invalidate
        weight segments other engines pre-staged — the next sharded call
        respawns workers, which re-attach the surviving segments by name.
        """
        with self._shard_lock:
            self._check_owner()
            self._stop_workers()
        ParallelBackend.shutdown(self)  # the delegation thread pool

    def shutdown(self) -> None:
        """Stop workers and unlink every shared segment (idempotent)."""
        with self._shard_lock:
            self._check_owner()
            self._stop_workers()
            for ring in self._rings.values():
                ring.close()
            for staged in self._staged.values():
                staged.close()
            self._staged = OrderedDict()
            self._digest_by_token = {}
        super().shutdown()  # the inherited thread pool, if one was started

    @property
    def pool_active(self) -> bool:
        """True while worker processes are alive in this process."""
        return bool(self._workers) and self._owner_pid == os.getpid()

    # ------------------------------------------------------------------ #
    # weight staging (fingerprint-keyed shared segments)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _token(array: np.ndarray) -> Tuple[tuple, np.ndarray]:
        """Cheap identity/layout token for an operand + its weakref anchor.

        Keyed on the owning base array so per-call transpose *views* of one
        weight buffer share a token; the weakref guard means a recycled id
        can never alias a dead array.
        """
        base = array if array.base is None else array.base
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        anchor = base if isinstance(base, np.ndarray) else array
        interface = array.__array_interface__
        return (
            (
                id(anchor),
                interface["data"][0],
                array.shape,
                array.strides,
                str(array.dtype),
            ),
            anchor,
        )

    def _staged_weight(self, source: np.ndarray, f32_factory) -> _SharedArray:
        """Shared float32 segment for a GEMM rhs, staged at most once.

        ``source`` is the fingerprint carrier (the stable int8/float weight
        array); ``f32_factory`` produces the exact float32 operand content
        and is only invoked on a staging miss, so cache hits — the steady
        state — pay neither a cast nor a copy.  Mutating a staged array in
        place is outside the contract (the repo's kernels re-derive or
        freeze weights; they never mutate a staged operand) — call
        :meth:`shutdown` to invalidate staging wholesale.
        """
        token, anchor = self._token(source)
        entry = self._digest_by_token.get(token)
        if entry is not None:
            ref, digest = entry
            if ref() is anchor and digest in self._staged:
                self._staged.move_to_end(digest)
                return self._staged[digest]
        digest = hashlib.blake2b(
            np.ascontiguousarray(source).tobytes(),
            digest_size=16,
        ).hexdigest() + f":{source.shape}:{source.dtype}"
        ref = weakref.ref(anchor, lambda _r, t=token: self._digest_by_token.pop(t, None))
        self._digest_by_token[token] = (ref, digest)
        staged = self._staged.get(digest)
        if staged is None:
            staged = _SharedArray(
                np.ascontiguousarray(f32_factory(), dtype=np.float32)
            )
            self._staged[digest] = staged
            while len(self._staged) > self._weight_cache_entries:
                _, evicted = self._staged.popitem(last=False)
                evicted.close()
        else:
            self._staged.move_to_end(digest)
        return staged

    def stage_plan_weights(self, plan) -> None:
        """Stage a compiled plan's frozen INT8 weights into shared segments.

        One staging copy per plan instead of a fingerprint lookup + copy on
        the first serving request; a no-op when sharding cannot engage
        (single worker) or for layers whose reduction is not exact-float32.
        """
        if self.shard_workers < 2:
            return
        wanted = []
        for step in plan.steps:
            engine = getattr(step.module, "quant_engine", None)
            if engine is None:
                continue
            if step.kind == "depthwise":
                # The sharded depthwise operand is the frozen int8
                # weight itself (staged as exact float32), provided its
                # kernel_area reduction stays inside the exact window.
                weight_q = getattr(engine, "weight_q", None)
                if (
                    weight_q is not None
                    and weight_q.dtype == np.int8
                    and exact_f32_possible(
                        weight_q.shape[-1], qmax=128, rhs_max=128
                    )
                ):
                    wanted.append(
                        (weight_q,
                         lambda a=weight_q: a.astype(np.float32))
                    )
                continue
            # Public staging hook on the frozen serve kernels (see
            # FrozenInt8Kernel.rhs_f32_for); engines without it —
            # training-side kernels that re-derive weights — have
            # nothing stable to stage.
            hook = getattr(engine, "rhs_f32_for", None)
            rhs_f32 = hook(self) if callable(hook) else None
            if rhs_f32 is not None:
                wanted.append((rhs_f32, lambda a=rhs_f32: a))
        with self._shard_lock:
            self._check_owner()
            # Grow the LRU bound to hold this plan *on top of* everything
            # already staged (plus headroom for ad-hoc kernel calls), so
            # per-plan weights are staged exactly once and survive every
            # traversal and plan swap — including when several engines'
            # plans share this backend instance, where a bound sized to one
            # plan would make the engines evict each other per traversal.
            self._weight_cache_entries = max(
                self._weight_cache_entries,
                len(self._staged) + len(wanted) + 8,
            )
            for source, factory in wanted:
                self._staged_weight(source, factory)
            if wanted:
                # Pre-warm the pool too: engines stage from the main
                # thread at construction, where the O(ms) fork start is
                # still available — a pool first started from inside a
                # threaded server would pay the slower spawn method on
                # the first served request instead.
                self._ensure_pool()

    # ------------------------------------------------------------------ #
    # sharded execution
    # ------------------------------------------------------------------ #
    def _shard_bounds(self, rows: int) -> Optional[List[Tuple[int, int]]]:
        """Row-block bounds across parent + workers, or ``None`` to delegate."""
        if self.shard_workers < 2 or rows < self.min_rows:
            return None
        blocks = min(self.shard_workers, max(2, rows // self.min_rows_per_shard))
        if blocks < 2:
            return None
        bounds = np.linspace(0, rows, blocks + 1).astype(int)
        return [
            (int(bounds[i]), int(bounds[i + 1]))
            for i in range(blocks)
            if bounds[i] < bounds[i + 1]
        ]

    def _run_sharded(
        self,
        op: str,
        lhs: np.ndarray,
        rhs_staged: _SharedArray,
        out_shape: Tuple[int, int],
        shards: List[Tuple[int, int]],
        qmax: int = 0,
        with_scales: bool = False,
    ):
        """Scatter row blocks to the workers, compute shard 0 in-parent.

        The whole round-trip — ring staging, scatter, local shard 0,
        gather — shows up as one ``shard.ipc`` span in a traced request.
        """
        with obs_trace.span(
            "shard.ipc", op=op, rows=int(out_shape[0]), shards=len(shards),
        ):
            return self._run_sharded_inner(
                op, lhs, rhs_staged, out_shape, shards, qmax, with_scales
            )

    def _run_sharded_inner(
        self,
        op: str,
        lhs: np.ndarray,
        rhs_staged: _SharedArray,
        out_shape: Tuple[int, int],
        shards: List[Tuple[int, int]],
        qmax: int,
        with_scales: bool,
    ):
        workers = self._ensure_pool()
        rings = self._rings
        grew = rings["in"].ensure(lhs.nbytes)
        in_view = rings["in"].view(lhs.shape, lhs.dtype)
        in_view[...] = lhs
        out_nbytes = int(np.prod(out_shape, dtype=np.int64)) * 4
        grew |= rings["out"].ensure(out_nbytes)
        out_view = rings["out"].view(out_shape, np.float32)
        scales_view = None
        if with_scales:
            grew |= rings["scales"].ensure(out_shape[0] * 4)
            scales_view = rings["scales"].view((out_shape[0],), np.float32)
        (_RING_GROWS if grew else _RING_REUSE).inc()
        job = {
            "op": op,
            "qmax": int(qmax),
            "in_name": rings["in"].name,
            "in_shape": lhs.shape,
            "in_dtype": str(lhs.dtype),
            "rhs_name": rhs_staged.name,
            "rhs_shape": rhs_staged.shape,
            "out_name": rings["out"].name,
            "out_shape": out_shape,
            "scales_name": rings["scales"].name if with_scales else "",
        }
        # _shard_bounds caps the block count at num_workers, so there is
        # always exactly one executor per shard: the parent takes shard 0,
        # worker i takes shard i+1.
        busy = []
        for index, (r0, r1) in enumerate(shards[1:]):
            process, conn = workers[index]
            try:
                conn.send(dict(job, r0=r0, r1=r1))
            except (BrokenPipeError, OSError) as error:
                # A worker died between calls.  Terminate the whole pool
                # now: that both makes the next call respawn cleanly and
                # guarantees no already-scattered sibling leaves a stale
                # ack behind that could desynchronize a reused pool.
                _POOL_RESETS.inc()
                self._stop_workers()
                raise RuntimeError(
                    f"shard worker {process.name} is gone ({error}); pool "
                    f"reset — retry the call"
                ) from error
            busy.append((process, conn))
        r0, r1 = shards[0]
        _execute_shard_local(dict(job, r0=r0, r1=r1), in_view, out_view,
                             scales_view, rhs_staged, qmax)
        failures = []
        for process, conn in busy:
            try:
                # Bounded wait: a worker that died (or wedged) must surface
                # as an error, never as an indefinite parent hang.
                if not conn.poll(timeout=30.0):  # pragma: no cover
                    status, detail = "err", (
                        f"worker {process.name} unresponsive "
                        f"(alive={process.is_alive()})"
                    )
                else:
                    status, detail = conn.recv()
            except (EOFError, OSError) as error:
                # A SIGKILLed worker surfaces as EOF or a reset pipe
                # (ConnectionResetError) depending on where the kill lands;
                # both mean the same thing: the worker died mid-call.
                status, detail = "err", (
                    f"worker {process.name} exited ({type(error).__name__})"
                )
            if status != "ok":
                failures.append(detail)
        if failures:
            # A broken pool must not poison every later call: tear the
            # workers down now (staged weights survive) and let the next
            # sharded call respawn a clean pool.
            _POOL_RESETS.inc()
            self._stop_workers()
            raise RuntimeError(
                "shard worker failed:\n" + "\n".join(failures)
            )
        result = np.array(out_view, copy=True)
        if with_scales:
            return result, np.array(scales_view, copy=True)
        return result

    # ------------------------------------------------------------------ #
    # kernels
    # ------------------------------------------------------------------ #
    def int8_gemm(self, lhs_q: np.ndarray, rhs_q: np.ndarray) -> np.ndarray:
        if lhs_q.ndim != 2:
            return super().int8_gemm(lhs_q, rhs_q)
        shards = self._shard_bounds(lhs_q.shape[0])
        exact = (
            lhs_q.dtype == np.int8
            and rhs_q.dtype == np.int8
            and exact_f32_possible(lhs_q.shape[-1], qmax=128, rhs_max=128)
        )
        if shards is None or not exact:
            return super().int8_gemm(lhs_q, rhs_q)
        with self._shard_lock:
            staged = self._staged_weight(
                rhs_q, lambda: rhs_q.astype(np.float32)
            )
            return self._run_sharded(
                "int8_gemm", np.ascontiguousarray(lhs_q), staged,
                (lhs_q.shape[0], rhs_q.shape[1]), shards,
            )

    def int8_depthwise(
        self, cols_q: np.ndarray, weight_q: np.ndarray
    ) -> np.ndarray:
        """Process-sharded depthwise inner products (positions are rows).

        The im2col'd column blocks ship through the same shared-memory ring
        buffers as the GEMM activations; below :attr:`min_rows` positions
        (small feature maps) the call delegates to the inherited
        ``parallel`` tiling so it never pays the IPC round-trip.
        """
        if cols_q.ndim != 3:
            return super().int8_depthwise(cols_q, weight_q)
        shards = self._shard_bounds(cols_q.shape[0])
        exact = (
            cols_q.dtype == np.int8
            and weight_q.dtype == np.int8
            and exact_f32_possible(cols_q.shape[2], qmax=128, rhs_max=128)
        )
        if shards is None or not exact:
            return super().int8_depthwise(cols_q, weight_q)
        with self._shard_lock:
            staged = self._staged_weight(
                weight_q, lambda: weight_q.astype(np.float32)
            )
            return self._run_sharded(
                "depthwise", np.ascontiguousarray(cols_q), staged,
                (cols_q.shape[0], cols_q.shape[1]), shards,
            )

    def rowwise_quantized_gemm(
        self,
        x: np.ndarray,
        rhs_q: np.ndarray,
        qmax: int,
        rhs_f32: Optional[np.ndarray] = None,
        exact_f32: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float32)
        shards = self._shard_bounds(x.shape[0]) if x.ndim == 2 else None
        exact = exact_f32 or exact_f32_possible(rhs_q.shape[0], qmax)
        if shards is None or not exact:
            return super().rowwise_quantized_gemm(
                x, rhs_q, qmax, rhs_f32=rhs_f32, exact_f32=exact_f32
            )
        with self._shard_lock:
            if rhs_f32 is not None:
                staged = self._staged_weight(rhs_f32, lambda: rhs_f32)
            else:
                staged = self._staged_weight(
                    rhs_q, lambda: rhs_q.astype(np.float32)
                )
            out, scales = self._run_sharded(
                "rowwise", np.ascontiguousarray(x), staged,
                (x.shape[0], rhs_q.shape[1]), shards,
                qmax=qmax, with_scales=True,
            )
            return out, scales

    # ------------------------------------------------------------------ #
    # threshold calibration
    # ------------------------------------------------------------------ #
    def calibrate_min_rows(
        self,
        reduce_dim: int = 196,
        cols: int = 64,
        candidates: Tuple[int, ...] = (64, 128, 256, 512, 1024),
        repeats: int = 3,
        seed: int = 0,
    ) -> int:
        """Measure the shard-vs-delegate crossover and set :attr:`min_rows`.

        Times the serving-shaped fused quantize+GEMM at increasing row
        counts on both the sharded path and the delegated ``parallel``/
        ``fast`` path, then pins :attr:`min_rows` to the smallest candidate
        where sharding wins (or above the largest candidate when it never
        does — e.g. single-core hosts).  Budget is a few milliseconds per
        candidate; deployments call this once at startup, **before**
        serving traffic — the measurement flips :attr:`min_rows`
        transiently, so kernels running concurrently would both observe
        the transient threshold and skew the timing.
        """
        if self.shard_workers < 2:
            self.min_rows = max(self.min_rows, candidates[-1] + 1)
            return self.min_rows
        # Shared timing harness with autopin's ranking calibration (lazy
        # import: autopin pulls the plan layer, which this module must not
        # import eagerly) — both measurements stay methodologically
        # identical by construction.
        from repro.runtime.autopin import time_rowwise_kernel

        crossover = candidates[-1] + 1
        saved = self.min_rows
        try:
            for rows in candidates:
                self.min_rows = 1
                sharded = time_rowwise_kernel(
                    self, rows, reduce_dim, cols, repeats=repeats, seed=seed
                )
                self.min_rows = rows + 1
                delegated = time_rowwise_kernel(
                    self, rows, reduce_dim, cols, repeats=repeats, seed=seed
                )
                if sharded < delegated:
                    crossover = rows
                    break
        finally:
            self.min_rows = saved
        self.min_rows = crossover
        return self.min_rows


def _execute_shard_local(
    job: Dict[str, Any],
    in_view: np.ndarray,
    out_view: np.ndarray,
    scales_view: Optional[np.ndarray],
    rhs_staged: _SharedArray,
    qmax: int,
) -> None:
    """Parent-side shard execution over already-attached views."""
    rhs = _view(rhs_staged.shm, rhs_staged.shape, rhs_staged.dtype)
    _shard_compute(job["op"], qmax, in_view, rhs, out_view, scales_view,
                   job["r0"], job["r1"])


__all__ = [
    "ShardBackend",
    "SHARD_WORKERS_ENV_VAR",
    "SHARD_MIN_ROWS_ENV_VAR",
    "SHARD_START_METHOD_ENV_VAR",
    "DEFAULT_MIN_ROWS",
]
