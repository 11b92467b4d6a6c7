"""The benchmark's workloads: ``dense_cold`` and ``service_mix``, which
``BENCHMARK.json`` declares, and ``paper_replay``, which it does not
(its time drifts with the host's speed past any allowed bound; see
``README.md``).

Each workload turns ``(seed, k)`` into the inputs of its ``k``-th
operation; the program only ever sees those generated inputs.  The
harness times :meth:`setup` and :meth:`op` separately and calls
:meth:`check` outside both timed regions.

* ``dense_cold`` — one cold ``ChaseSolver.solve`` of a distinct real
  fp64 Uniform matrix (N=1200, nev=120, nex=40, tol 1e-10) on the 2x4
  NCCL grid with the default execution tier.
* ``service_mix`` — one ``EigenService.run()`` draining a 10-job batch
  submitted at t=0: two tenants, each a 4-step complex128 SCF sequence
  (N=400, nev=48, nex=24, drift 1e-3) plus one one-shot priority job.
* ``paper_replay`` — one phantom sweep over the paper points of
  ``benchmarks/_common``: Fig. 3b (In2O3 115k, the calibrated
  7-iteration trace) at 4 and 16 nodes for ChASE(NCCL), ChASE(STD) and
  ChASE(LMS), plus the Fig. 3a weak point at 64 nodes, in an order
  drawn from the seed.
"""

from __future__ import annotations

import dataclasses

import numpy as np

#: eigenvalue agreement with the eigvalsh oracle, relative to the
#: spectral scale.  A solve at tol 1e-10 lands within ~1e-14; a skipped
#: eigenvalue is off by at least one level spacing (>= 1.6e-3 here).
ORACLE_RTOL = 1e-8

#: prefix of the failures of the program's standing defect: a converged
#: result whose values are all distinct eigenvalues of the matrix, but
#: not the lowest ``nev`` (a wanted eigenvalue was skipped).  Any other
#: failure is not tolerated at all; see each workload's ``skip_limit``.
SKIPPED = "skipped eigenvalues"


def _subseed(*key: int) -> int:
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def oracle_miss(H: np.ndarray, eigenvalues, nev: int) -> str | None:
    """Compare a solve's eigenvalues with ``numpy.linalg.eigvalsh``;
    ``None`` when they agree, else the reason, which starts with
    :data:`SKIPPED` when every returned value is a distinct eigenvalue
    of ``H`` but some of the lowest ``nev`` are missing."""
    spectrum = np.linalg.eigvalsh(H)
    ref = spectrum[:nev]
    if eigenvalues is None or len(eigenvalues) != nev:
        return "wrong number of eigenvalues"
    ev = np.sort(np.asarray(eigenvalues, dtype=np.float64))
    if not np.all(np.isfinite(ev)):
        return "non-finite eigenvalue"
    err = np.abs(ev - ref)
    tol = ORACLE_RTOL * max(1.0, float(np.max(np.abs(spectrum))))
    bad = int(np.sum(err > tol))
    if not bad:
        return None
    j = np.clip(np.searchsorted(spectrum, ev), 1, len(spectrum) - 1)
    nearest = np.where(ev - spectrum[j - 1] < spectrum[j] - ev, j - 1, j)
    if np.all(np.abs(ev - spectrum[nearest]) <= tol) \
            and len(np.unique(nearest)) == nev:
        missing = nev - int(np.sum(nearest < nev))
        return f"{SKIPPED}: {missing} of the lowest {nev} missing"
    return f"oracle miss: {bad} eigenvalues off by up to {err.max():.2e}"


def _comm_s(res) -> float:
    return sum(ph.comm_total for ph in res.timings.values())


# ------------------------------------------------------------ dense_cold
@dataclasses.dataclass
class DenseProblem:
    H: np.ndarray
    solve_seed: int


class DenseCold:
    name = "dense_cold"
    #: host seconds of one operation on a 2-vCPU Xeon VM; sets how many
    #: operations a run of ``--seconds`` makes
    nominal_op_s = 2.2
    #: largest tolerated share of :data:`SKIPPED` solves.  About 18% of
    #: solves skip at this size; a run of five or more solves at that
    #: rate goes above 3/4 with probability below 1%.
    skip_limit = 0.75

    def __init__(self, tiny: bool = False) -> None:
        self.N, self.nev, self.nex = (240, 24, 8) if tiny else (1200, 120, 40)
        self.p, self.q = 2, 4
        self.tol = 1e-10

    def inputs(self, seed: int, k: int) -> DenseProblem:
        from repro.matrices import uniform_matrix

        H = uniform_matrix(self.N, rng=np.random.default_rng(_subseed(seed, k)))
        return DenseProblem(H, _subseed(seed, k, 1))

    def setup(self, inp: DenseProblem):
        from repro import ChaseConfig, ChaseSolver
        from repro.distributed import DistributedHermitian
        from repro.runtime import CommBackend, Grid2D, VirtualCluster

        cluster = VirtualCluster(self.p * self.q, backend=CommBackend.NCCL)
        grid = Grid2D(cluster, self.p, self.q)
        Hd = DistributedHermitian.from_dense(grid, inp.H)
        return ChaseSolver(grid, Hd, ChaseConfig(nev=self.nev, nex=self.nex,
                                                 tol=self.tol))

    def op(self, solver, inp: DenseProblem):
        return solver.solve(rng=np.random.default_rng(inp.solve_seed))

    def check(self, inp: DenseProblem, res) -> tuple[int, list[str]]:
        if isinstance(res, Exception):
            return 1, [f"raised {type(res).__name__}: {res}"]
        if not res.converged:
            return 1, ["not converged"]
        miss = oracle_miss(inp.H, res.eigenvalues, self.nev)
        return 1, [] if miss is None else [miss]

    def model(self, res) -> tuple[float, float]:
        return res.makespan, _comm_s(res)

    def gemm_shape(self):
        """Per-rank HEMM block on the grid: (N/p x N/q) @ (N/q x ne)."""
        return self.N // self.p, self.N // self.q, self.nev + self.nex, np.float64


# ----------------------------------------------------------- service_mix
class ServiceMix:
    name = "service_mix"
    nominal_op_s = 3.5
    #: largest tolerated share of :data:`SKIPPED` jobs (measured: up to
    #: 4 in 120 per run)
    skip_limit = 0.25
    steps = 4

    def __init__(self, tiny: bool = False) -> None:
        self.N, self.nev, self.nex = (120, 12, 6) if tiny else (400, 48, 24)
        self.dtype = np.complex128

    def inputs(self, seed: int, k: int):
        from repro.matrices import uniform_matrix
        from repro.service import SolveJob, scf_sequence

        jobs = []
        for t, tenant in enumerate(("alpha", "beta")):
            hams = scf_sequence(self.N, self.steps, seed=_subseed(seed, k, t),
                                drift=1e-3, dtype=self.dtype)
            for step, H in enumerate(hams):
                jobs.append(SolveJob(
                    H=H, nev=self.nev, nex=self.nex, tenant=tenant,
                    sequence_id=f"{tenant}-scf", step=step,
                    seed=_subseed(seed, k, t, step),
                ))
            H = uniform_matrix(self.N, dtype=self.dtype,
                               rng=np.random.default_rng(_subseed(seed, k, t, 9)))
            jobs.append(SolveJob(H=H, nev=self.nev, nex=self.nex,
                                 tenant=tenant, priority=1,
                                 seed=_subseed(seed, k, t, 10)))
        return jobs

    def setup(self, jobs):
        from repro.service import EigenService

        svc = EigenService(total_ranks=8, n_shards=2, tune="fast",
                           warmstart=True, quota=8)
        svc.submit_many(jobs)
        return svc

    def op(self, svc, jobs):
        return svc.run()

    def check(self, jobs, results) -> tuple[int, list[str]]:
        n = len(jobs)
        if isinstance(results, Exception):
            return n, [f"raised {type(results).__name__}: {results}"] * n
        if len(results) != n:
            return n, [f"{len(results)} results for {n} jobs"] * n
        def where(job):  # job ids are process-global; name the job instead
            return f"{job.tenant} step {job.step} priority {job.priority}"

        fails = []
        for job, r in zip(jobs, results):
            if r.state.name != "DONE":
                fails.append(f"{r.state.name} {r.error} ({where(job)})")
            elif not r.converged:
                fails.append(f"not converged ({where(job)})")
            else:
                miss = oracle_miss(job.H, r.eigenvalues, self.nev)
                if miss is not None:
                    fails.append(f"{miss} ({where(job)})")
        return n, fails

    def model(self, results) -> tuple[float, float]:
        span = max(r.finish_time for r in results)
        comm = sum(_comm_s(r.chase) for r in results if r.chase is not None)
        return span, comm

    def gemm_shape(self):
        """Per-rank block of a 4-rank shard's 2x2 grid."""
        return self.N // 2, self.N // 2, self.nev + self.nex, self.dtype


# ---------------------------------------------------------- paper_replay
class PaperReplay:
    name = "paper_replay"
    nominal_op_s = 4.0
    skip_limit = 0.0

    def __init__(self, tiny: bool = False) -> None:
        if tiny:
            self.points = [("strong", 4, "MPI_STAGED", "lms"),
                           ("weak", 4, "NCCL", "new")]
        else:
            self.points = [("strong", nodes, be, sch)
                           for nodes in (4, 16)
                           for be, sch in (("NCCL", "new"),
                                           ("MPI_STAGED", "new"),
                                           ("MPI_STAGED", "lms"))]
            self.points.append(("weak", 64, "NCCL", "new"))
        self._expected: dict[str, int] = {}

    def inputs(self, seed: int, k: int):
        order = np.random.default_rng(_subseed(seed, k)).permutation(
            len(self.points))
        return [self.points[i] for i in order]

    def setup(self, points):
        """Nothing: every replay point builds its own phantom solver,
        which is part of the timed sweep."""
        return None

    def op(self, _state, points):
        from benchmarks._common import strong_scaling_point, weak_scaling_point
        from repro.runtime import CommBackend

        out = []
        for kind, nodes, backend, scheme in points:
            fn = strong_scaling_point if kind == "strong" else weak_scaling_point
            out.append(fn(nodes, CommBackend[backend], scheme))
        return out

    def _expected_matvecs(self, kind: str) -> int:
        if kind not in self._expected:
            from benchmarks._common import (WEAK_DEG, WEAK_NEV, WEAK_NEX,
                                            strong_scaling_trace)
            from repro import ConvergenceTrace

            tr = strong_scaling_trace() if kind == "strong" else \
                ConvergenceTrace.fixed(1, WEAK_NEV + WEAK_NEX, deg=WEAK_DEG)
            self._expected[kind] = tr.total_matvecs
        return self._expected[kind]

    def check(self, points, results) -> tuple[int, list[str]]:
        n = len(points)
        if isinstance(results, Exception):
            return n, [f"raised {type(results).__name__}: {results}"] * n
        fails = []
        for pt, res in zip(points, results):
            want = self._expected_matvecs(pt[0])
            if not np.isfinite(res.makespan) or res.makespan <= 0:
                fails.append(f"{pt}: makespan {res.makespan}")
            elif res.matvecs != want:
                fails.append(f"{pt}: {res.matvecs} MatVecs, trace has {want}")
        return n, fails

    def model(self, results) -> tuple[float, float]:
        return (sum(r.makespan for r in results),
                sum(_comm_s(r) for r in results))

    def gemm_shape(self):
        """No arithmetic runs; probe the dense_cold HEMM block shape."""
        return DenseCold().gemm_shape()


WORKLOADS = {w.name: w for w in (DenseCold, ServiceMix, PaperReplay)}
