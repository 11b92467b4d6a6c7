"""Concurrent execution of independent per-rank kernel batches.

Between two synchronization points (collectives), the per-rank kernels
of the simulated cluster are *independent*: each unique block's GEMM /
SYRK / TRSM / axpby touches only its own output storage — in the paper
each rank drives its own GPU and these blocks run at the same time.
:func:`run_kernels` runs such a batch on every host core: NumPy
releases the GIL inside BLAS/LAPACK, so the closures genuinely overlap.

The executor deliberately knows nothing about the cost model.  Callers
charge all modeled time on the main thread *before* dispatching (the
decoupled charge/compute pattern of ``repro.distributed.hemm``,
``repro.core.filter.mv_axpby`` and ``repro.core.qr``): the closures
handed to :func:`run_kernels` are pure array math, each writing
disjoint storage.  That keeps eigenpairs, modeled makespans, per-phase
breakdowns and CommStats bit-identical for every worker count.

**Dispatch.**  The worker count defaults to the host's usable cores
(``len(os.sched_getaffinity(0))``); :func:`kernel_worker_scope` pins
it in process (``kernel_worker_scope(1)`` is the serial reference).  A
batch runs inline on the calling thread when it has one call, when the
worker count is one, or when its outputs total fewer than
:data:`INLINE_ELEMENTS` elements — small HEMM applies and small
axpbys cost less than a thread hand-off.  A larger batch is split
caller-runs style: the calling thread takes ``calls[0::n]`` and each of
the ``n - 1`` pool threads one other strided share, so a batch costs a
single hand-off per worker.

**BLAS pools.**  :func:`blas_thread_guard` pins every OpenBLAS in the
process (numpy's and scipy's wheels each bundle one) to one thread and
restores their counts on exit.  ``ChaseSolver.solve`` holds it for the
whole solve, so kernel bits never depend on the host's BLAS pool size
and the pool threads above cannot oversubscribe the host.
"""

from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import functools
import importlib.util
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence

__all__ = [
    "INLINE_ELEMENTS",
    "kernel_workers",
    "set_kernel_workers",
    "kernel_worker_scope",
    "kernel_fault_hook",
    "set_kernel_fault_hook",
    "run_kernels",
    "blas_thread_guard",
]

#: batches whose outputs total fewer elements than this run inline
INLINE_ELEMENTS = 8192

_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1)
_POOL: ThreadPoolExecutor | None = None
_POOL_SIZE = 0
_POOL_LOCK = threading.Lock()


def kernel_workers() -> int:
    """Current worker count (1 = serial execution)."""
    return _WORKERS


def set_kernel_workers(n: int) -> int:
    """Set the global worker count; returns the previous value."""
    global _WORKERS
    prev = _WORKERS
    _WORKERS = max(1, int(n))
    return prev


@contextlib.contextmanager
def kernel_worker_scope(n: int):
    """Context manager scoping the worker count (benchmarks/tests)."""
    prev = set_kernel_workers(n)
    try:
        yield
    finally:
        set_kernel_workers(prev)


# -- fault hook (DESIGN.md §5f) ----------------------------------------------------
_FAULT_HOOK: Callable[[], None] | None = None


def kernel_fault_hook() -> Callable[[], None] | None:
    """The currently installed kernel fault hook (None = disabled)."""
    return _FAULT_HOOK


def set_kernel_fault_hook(hook: Callable[[], None] | None
                          ) -> Callable[[], None] | None:
    """Install a hook called at every kernel-batch entry; returns the old one.

    The fault injector's ``FaultInjector.kernel_hook`` raises
    ``ExecutorFaultError`` from here to simulate a device/driver crash
    aborting a batch.  The hook runs on the main thread *before* any
    closure is dispatched, so an abort never leaves half-written
    results.  ``None`` (the default) restores the seed behavior.
    """
    global _FAULT_HOOK
    prev = _FAULT_HOOK
    _FAULT_HOOK = hook
    return prev


def _pool(n: int) -> ThreadPoolExecutor:
    """The shared ``n``-thread pool, built on first use (never at import)
    and rebuilt when the worker count changes."""
    global _POOL, _POOL_SIZE
    with _POOL_LOCK:
        if _POOL is None or _POOL_SIZE != n:
            if _POOL is not None:
                _POOL.shutdown(wait=True)
            _POOL = ThreadPoolExecutor(max_workers=n,
                                       thread_name_prefix="repro-kernel")
            _POOL_SIZE = n
        return _POOL


def run_kernels(calls: Sequence[Callable[[], object]],
                elements: int = 0) -> list:
    """Run independent numeric closures; return their results in order.

    ``elements`` is the total number of output elements the batch
    writes.  Inline on the calling thread for a single call, a single
    worker, or fewer than :data:`INLINE_ELEMENTS` elements; otherwise
    split caller-runs style over the pool (module docstring).  Every
    closure owns disjoint output storage, so the results are bitwise
    independent of the split.  The first exception — from the caller's
    share or a worker's — propagates after every share has finished.
    """
    fns = list(calls)
    if _FAULT_HOOK is not None:
        _FAULT_HOOK()
    n = min(_WORKERS, len(fns))
    if n <= 1 or elements < INLINE_ELEMENTS:
        return [fn() for fn in fns]
    results: list = [None] * len(fns)

    def share(w: int) -> None:
        for k in range(w, len(fns), n):
            results[k] = fns[k]()

    pool = _pool(_WORKERS - 1)
    futures = [pool.submit(share, w) for w in range(1, n)]
    try:
        share(0)
    finally:
        wait(futures)
    for fut in futures:
        fut.result()
    return results


# -- BLAS threadpool guard ---------------------------------------------------------
def _openblas_paths() -> list[str]:
    """OpenBLAS builds the process may load: the copies bundled with the
    numpy and scipy wheels (``<pkg>.libs``), else a system library."""
    paths = []
    for pkg in ("numpy", "scipy"):
        spec = importlib.util.find_spec(pkg)
        if spec is None or spec.origin is None:
            continue
        site = os.path.dirname(os.path.dirname(spec.origin))
        libdir = os.path.join(site, f"{pkg}.libs")
        if os.path.isdir(libdir):
            paths += [os.path.join(libdir, name)
                      for name in sorted(os.listdir(libdir))
                      if "openblas" in name.lower()]
    if not paths:
        found = ctypes.util.find_library("openblas")
        if found:
            paths.append(found)
    return paths


#: thread-count API names, ``%s`` = ``set``/``get``: numpy's ILP64 wheel
#: build, scipy's LP64 wheel build, then a system build
_OPENBLAS_API = ("scipy_openblas_%s_num_threads64_",
                 "scipy_openblas_%s_num_threads",
                 "openblas_%s_num_threads64_",
                 "openblas_%s_num_threads")


@functools.cache
def _openblas_handles() -> list[tuple]:
    """``(set, get)`` thread-count handles of every OpenBLAS found."""
    handles = []
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for api in _OPENBLAS_API:
            setter = getattr(lib, api % "set", None)
            getter = getattr(lib, api % "get", None)
            if setter is not None and getter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                getter.argtypes = []
                getter.restype = ctypes.c_int
                handles.append((setter, getter))
                break
    return handles


_GUARD_LOCK = threading.Lock()
_GUARD_DEPTH = 0
_GUARD_SAVED: list[int] = []


@contextlib.contextmanager
def blas_thread_guard():
    """Pin every OpenBLAS pool to one thread for the scope's duration.

    Re-entrant and process-wide (the pools are): the outermost scope
    saves each library's count and restores it on exit.  A no-op when
    no OpenBLAS is found.
    """
    global _GUARD_DEPTH, _GUARD_SAVED
    with _GUARD_LOCK:
        if _GUARD_DEPTH == 0:
            handles = _openblas_handles()
            _GUARD_SAVED = [int(get()) for _, get in handles]
            for setter, _ in handles:
                setter(1)
        _GUARD_DEPTH += 1
    try:
        yield
    finally:
        with _GUARD_LOCK:
            _GUARD_DEPTH -= 1
            if _GUARD_DEPTH == 0:
                for (setter, _), prev in zip(_openblas_handles(), _GUARD_SAVED):
                    setter(max(prev, 1))
