"""Artificial matrices with a prescribed spectrum (paper Sec. 4.1.2).

Following the LAPACK testing infrastructure the paper cites: a diagonal
matrix ``D`` holds the prescribed eigenvalues and the dense test matrix
is ``A = Q^H D Q`` with ``Q`` the first factor of the QR factorization
of a random square matrix.  The paper's scaling experiments use
real symmetric matrices with eigenvalues distributed *uniformly* in an
interval ("Uniform" matrices).
"""

from __future__ import annotations

import numpy as np

from repro.runtime.executor import blas_thread_guard

__all__ = ["uniform_spectrum", "matrix_with_spectrum", "uniform_matrix"]


def uniform_spectrum(N: int, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    """``N`` eigenvalues spread uniformly (deterministically) in [lo, hi]."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not hi > lo:
        raise ValueError("need hi > lo")
    return np.linspace(lo, hi, N)


def matrix_with_spectrum(
    eigenvalues: np.ndarray,
    rng: np.random.Generator | None = None,
    dtype=np.float64,
) -> np.ndarray:
    """Dense Hermitian matrix with exactly the given eigenvalues.

    ``A = Q^H D Q`` with a Haar-ish random ``Q`` (QR of a random square
    matrix with the R-diagonal sign fix).  The BLAS pools are pinned to
    one thread, so a seed gives the same bits on every host.
    """
    eigs = np.asarray(eigenvalues, dtype=np.float64)
    N = eigs.shape[0]
    rng = rng if rng is not None else np.random.default_rng()
    dtype = np.dtype(dtype)
    X = rng.standard_normal((N, N))
    if dtype.kind == "c":
        X = X + 1j * rng.standard_normal((N, N))
    with blas_thread_guard():
        Q, R = np.linalg.qr(X)
        # sign fix makes Q Haar-distributed
        d = np.diagonal(R).copy()
        d[d == 0] = 1.0
        Q = Q * (d / np.abs(d))[None, :]
        A = (Q.conj().T * eigs[None, :]) @ Q
    A = 0.5 * (A + A.conj().T)
    return A.astype(dtype)


def uniform_matrix(
    N: int,
    lo: float = -1.0,
    hi: float = 1.0,
    rng: np.random.Generator | None = None,
    dtype=np.float64,
) -> np.ndarray:
    """A "Uniform" test matrix (real symmetric by default, as used by the
    paper's weak/strong-scaling workloads)."""
    return matrix_with_spectrum(uniform_spectrum(N, lo, hi), rng, dtype)
