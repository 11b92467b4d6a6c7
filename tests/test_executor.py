"""The parallel kernel executor (``repro.runtime.executor``).

Determinism is the contract: because all modeled charges are issued on
the main thread before dispatch and every closure owns disjoint output
storage, results — numeric bits, makespans, CommStats — must be
independent of the worker count, including 1 (the serial reference).
"""

import threading

import numpy as np
import pytest

from repro.core.chase import ChaseConfig, ChaseSolver
from repro.core.qr import QRReport, cholesky_qr
from repro.distributed import (
    DistributedHemm,
    DistributedHermitian,
    DistributedMultiVector,
    hemm_fusion,
    numeric_dedup,
)
from repro.matrices import uniform_matrix
from repro.runtime import Grid2D, VirtualCluster, executor
from tests.conftest import make_grid

BIG = executor.INLINE_ELEMENTS


@pytest.fixture
def pool_always(monkeypatch):
    """Send every multi-call batch to the pool, however small."""
    monkeypatch.setattr(executor, "INLINE_ELEMENTS", 0)


def _recording(n, fail_at=None):
    """``n`` closures returning ``k * k`` that log (k, thread id)."""
    log = []

    def call(k):
        log.append((k, threading.get_ident()))
        if k == fail_at:
            raise RuntimeError(f"kernel {k} failed")
        return k * k

    return [lambda k=k: call(k) for k in range(n)], log


class TestExecutorPrimitives:
    def test_run_kernels_preserves_order(self):
        with executor.kernel_worker_scope(4):
            got = executor.run_kernels([lambda k=k: k * k for k in range(20)],
                                       BIG)
        assert got == [k * k for k in range(20)]

    def test_strided_caller_runs_split(self):
        """Results come back in submission order; the caller runs
        ``calls[0::n]`` and every other strided share runs whole on a
        pool thread."""
        calls, log = _recording(11)
        with executor.kernel_worker_scope(3):
            got = executor.run_kernels(calls, BIG)
        assert got == [k * k for k in range(11)]
        tid = dict(log)
        main = threading.get_ident()
        assert {k for k, t in tid.items() if t == main} == set(range(0, 11, 3))
        for w in (1, 2):
            share = set(range(w, 11, 3))
            assert len({tid[k] for k in share}) == 1
            assert tid[w] != main

    @pytest.mark.parametrize("fail_at", [0, 1, 2])
    def test_share_exception_propagates(self, fail_at):
        """A raise in the caller's share (0) or a worker's share (1, 2)
        reaches the caller, after every other share has finished."""
        calls, log = _recording(9, fail_at=fail_at)
        with executor.kernel_worker_scope(3):
            with pytest.raises(RuntimeError, match=f"kernel {fail_at} failed"):
                executor.run_kernels(calls, BIG)
        done = {k for k, _ in log}
        for w in range(3):
            if w != fail_at:
                assert set(range(w, 9, 3)) <= done

    def test_stress_more_workers_than_cores(self):
        """Many small shares, more workers than cores, two callers at a
        time and a short switch interval: no result is lost or misplaced."""
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        errors = []

        def caller(base):
            for rep in range(30):
                got = executor.run_kernels(
                    [lambda k=k: base + rep + k for k in range(37)], BIG)
                if got != [base + rep + k for k in range(37)]:
                    errors.append((base, rep))

        try:
            with executor.kernel_worker_scope(8):
                threads = [threading.Thread(target=caller, args=(b,))
                           for b in (0, 1000)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []

    def test_small_batch_stays_on_calling_thread(self):
        calls, log = _recording(8)
        with executor.kernel_worker_scope(4):
            got = executor.run_kernels(calls, BIG - 1)
        assert got == [k * k for k in range(8)]
        assert {t for _, t in log} == {threading.get_ident()}

    def test_run_kernels_serial_when_one_worker(self):
        with executor.kernel_worker_scope(1):
            got = executor.run_kernels([lambda k=k: k for k in range(5)])
        assert got == list(range(5))

    def test_run_kernels_empty(self):
        assert executor.run_kernels([]) == []

    def test_exceptions_propagate(self):
        def boom():
            raise RuntimeError("kernel failed")

        for workers in (1, 3):
            with executor.kernel_worker_scope(workers):
                with pytest.raises(RuntimeError, match="kernel failed"):
                    executor.run_kernels([lambda: 1, boom, lambda: 2], BIG)

    def test_scope_restores_previous_count(self):
        before = executor.kernel_workers()
        with executor.kernel_worker_scope(7):
            assert executor.kernel_workers() == 7
            with executor.kernel_worker_scope(2):
                assert executor.kernel_workers() == 2
            assert executor.kernel_workers() == 7
        assert executor.kernel_workers() == before

    def test_set_kernel_workers_floors_at_one(self):
        prev = executor.set_kernel_workers(0)
        try:
            assert executor.kernel_workers() == 1
        finally:
            executor.set_kernel_workers(prev)

    def test_blas_thread_guard_is_reentrant_noop_safe(self):
        # whatever backend is available, the guard must nest cleanly
        with executor.blas_thread_guard():
            with executor.blas_thread_guard():
                assert (np.ones((8, 8)) @ np.ones((8, 8)))[0, 0] == 8.0


@pytest.fixture
def blas_pools():
    """Thread-count handles of every OpenBLAS found; counts restored."""
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    handles = executor._openblas_handles()
    if not handles:
        pytest.skip("no OpenBLAS thread-count API found")
    saved = [get() for _, get in handles]
    yield handles
    for (setter, _), n in zip(handles, saved):
        setter(n)


def _preset(handles, n):
    for setter, _ in handles:
        setter(n)
    return [get() for _, get in handles]


class TestBlasThreadGuard:
    def test_probe_finds_the_wheel_libraries(self):
        """numpy and scipy wheels each bundle an OpenBLAS; both found."""
        import importlib.util
        import os

        import scipy.linalg  # noqa: F401

        wheels = 0
        for pkg in ("numpy", "scipy"):
            site = os.path.dirname(os.path.dirname(
                importlib.util.find_spec(pkg).origin))
            libdir = os.path.join(site, f"{pkg}.libs")
            if os.path.isdir(libdir) and any(
                    "openblas" in f.lower() for f in os.listdir(libdir)):
                wheels += 1
        assert len(executor._openblas_handles()) >= wheels

    def test_guard_pins_and_restores_every_library(self, blas_pools):
        before = _preset(blas_pools, 2)
        with executor.blas_thread_guard():
            assert [get() for _, get in blas_pools] == [1] * len(blas_pools)
            with executor.blas_thread_guard():
                assert [get() for _, get in blas_pools] == [1] * len(blas_pools)
            assert [get() for _, get in blas_pools] == [1] * len(blas_pools)
        assert [get() for _, get in blas_pools] == before

    def test_solve_bits_independent_of_blas_pool_size(self, blas_pools):
        """The test-matrix generator and the solve pin every BLAS pool,
        so presetting them to 1 or 2 threads gives the same eigenvalues
        and residuals.  At this size both would differ in the last bits
        if either ran on a 2-thread pool."""
        results = []
        for n in (1, 2):
            _preset(blas_pools, n)
            rng = np.random.default_rng(4)
            H = uniform_matrix(300, rng=rng)
            g = Grid2D(VirtualCluster(4), 2, 2)
            solver = ChaseSolver(g, DistributedHermitian.from_dense(g, H),
                                 ChaseConfig(nev=100, nex=40))
            res = solver.solve(rng=np.random.default_rng(7))
            results.append((res.eigenvalues, res.residual_norms))
            assert [get() for _, get in blas_pools] == [n] * len(blas_pools)
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])


def _setup_hemm(rng, n=48, ne=7, p=2, q=2):
    A = rng.standard_normal((n, n))
    Hd = 0.5 * (A + A.T)
    V = rng.standard_normal((n, ne))
    g = make_grid(p * q, p=p, q=q)
    H = DistributedHermitian.from_dense(g, Hd)
    C = DistributedMultiVector.from_global(g, V, H.rowmap, "C")
    return g, DistributedHemm(H), C


@pytest.mark.usefixtures("pool_always")
class TestWorkerCountDeterminism:
    @pytest.mark.parametrize("fused", [False, True])
    def test_hemm_applies(self, fused):
        results = []
        for workers in (1, 2, 4):
            rng = np.random.default_rng(31)
            with numeric_dedup(True), hemm_fusion(fused), \
                    executor.kernel_worker_scope(workers):
                g, hemm, C = _setup_hemm(rng)
                B = hemm.apply(C, gamma=0.4, alpha=1.3)
                C2 = hemm.apply(B, gamma=0.4, alpha=1.3)
                results.append(
                    (B.gather(), C2.gather(),
                     max(r.clock.now for r in g.ranks), g.comm_stats())
                )
        for other in results[1:]:
            assert np.array_equal(results[0][0], other[0])
            assert np.array_equal(results[0][1], other[1])
            assert results[0][2] == other[2]
            assert results[0][3] == other[3]

    def test_cholesky_qr(self):
        results = []
        for workers in (1, 3):
            rng = np.random.default_rng(77)
            with numeric_dedup(True), executor.kernel_worker_scope(workers):
                g = make_grid(4, p=2, q=2)
                A = rng.standard_normal((50, 50))
                H = DistributedHermitian.from_dense(g, 0.5 * (A + A.T))
                V = rng.standard_normal((50, 6))
                C = DistributedMultiVector.from_global(g, V, H.rowmap, "C")
                report = QRReport()
                info = cholesky_qr(g, C, 2, report)
                assert info == 0
                results.append(
                    (C.gather(), max(r.clock.now for r in g.ranks),
                     g.comm_stats())
                )
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]
        assert results[0][2] == results[1][2]

    def test_full_solve(self):
        """End to end: eigenvalues, makespan and CommStats independent
        of the worker count with the fused tier on."""
        results = []
        for workers in (1, 2):
            rng = np.random.default_rng(5)
            A = rng.standard_normal((150, 150))
            Hd = 0.5 * (A + A.T)
            with numeric_dedup(True), hemm_fusion(True), \
                    executor.kernel_worker_scope(workers):
                g = make_grid(4, p=2, q=2)
                H = DistributedHermitian.from_dense(g, Hd)
                solver = ChaseSolver(g, H, ChaseConfig(nev=15, nex=8))
                res = solver.solve(rng=np.random.default_rng(3))
                results.append((res.eigenvalues, res.makespan, g.comm_stats()))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]
        assert results[0][2] == results[1][2]


def test_default_pool_matches_serial_dense_2x4():
    """A dense 2x4 solve at the default worker count (and at 3 workers)
    equals the serial reference bit for bit, makespan and CommStats
    included; the default tier's batches are big enough for the pool."""
    H = uniform_matrix(480, rng=np.random.default_rng(21))
    results = []
    for scope in (1, None, 3):
        with executor.kernel_worker_scope(scope or executor.kernel_workers()):
            g = Grid2D(VirtualCluster(8), 2, 4)
            solver = ChaseSolver(g, DistributedHermitian.from_dense(g, H),
                                 ChaseConfig(nev=24, nex=12))
            res = solver.solve(rng=np.random.default_rng(7))
        results.append((res.eigenvalues, res.residual_norms, res.makespan,
                        g.comm_stats(), g.comm_stats_levels()))
    ref = results[0]
    for other in results[1:]:
        assert np.array_equal(ref[0], other[0])
        assert np.array_equal(ref[1], other[1])
        assert ref[2:] == other[2:]
