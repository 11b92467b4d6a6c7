"""Distributed Lanczos + DoS estimation of the spectral bounds
(Algorithm 1 / 2, line 1-2).

ChASE needs three scalars before filtering:

* ``b_sup``  — an *upper bound* on ``lambda_max(H)`` (the filter damps
  ``[mu_ne, b_sup]``; if ``b_sup < lambda_max`` the filter amplifies the
  top of the spectrum and diverges, so the bound must be safe);
* ``mu_1``   — an estimate of ``lambda_min`` (used for the scaling
  factors of the stable three-term recurrence);
* ``mu_ne``  — an estimate of the ``ne``-th smallest eigenvalue (the
  lower edge of the damped interval).

A handful of short Lanczos runs provides all three: Ritz values with
their residual bounds bracket the spectrum, and the Gaussian-quadrature
weights (squared first eigenvector components) give a stochastic
cumulative Density of States whose ``ne``-quantile estimates ``mu_ne``.

The recurrence runs through the same distributed HEMM as the filter,
with one extra B->C redistribution per step (the recurrence needs
``H v`` back in the layout of ``v``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro.core.filter import mv_axpby
from repro.distributed.hemm import DistributedHemm
from repro.distributed.multivector import DistributedMultiVector
from repro.distributed.redistribute import redistribute_b_to_c

__all__ = ["SpectralBounds", "lanczos_bounds", "lanczos_ritz"]


@dataclass(frozen=True)
class SpectralBounds:
    """Spectral estimates returned by the Lanczos pre-processing."""

    b_sup: float
    mu1: float
    mu_ne: float


def _allreduce_col_dots(grid, X, Y) -> np.ndarray:
    """Global per-column ``X^H Y`` for C-layout multivectors.

    With aliased operands the per-column dot products are unique per
    grid row: replica columns (j > 0) charge the kernel and their
    collective without recomputing (replication-aware numeric mode).
    """
    dedup = X.aliased and Y.aliased and not X.is_phantom
    partials = {}
    for i in range(grid.p):
        for j in range(grid.q):
            rank = grid.rank_at(i, j)
            if dedup and j > 0:
                rank.k.dot_columns(X.blocks[(i, j)], Y.blocks[(i, j)], compute=False)
                partials[(i, j)] = partials[(i, 0)]
            else:
                partials[(i, j)] = rank.k.dot_columns(
                    X.blocks[(i, j)], Y.blocks[(i, j)]
                )
    if dedup:
        res = grid.col_comm(0).allreduce(
            [partials[(i, 0)] for i in range(grid.p)], shared=True
        )
        for j in range(1, grid.q):
            grid.col_comm(j).allreduce(
                [partials[(i, j)] for i in range(grid.p)], compute=False
            )
        for key in partials:
            partials[key] = res[0]
    else:
        for j in range(grid.q):
            grid.col_comm(j).allreduce([partials[(i, j)] for i in range(grid.p)])
    return partials[(0, 0)]


def _scale_all(grid, X, factor: float) -> None:
    # the scale is in place: an aliased multivector's replicas share one
    # ndarray, which must be scaled exactly once per replication group
    # (replica ranks charge the kernel without mutating)
    dedup = X.aliased and not X.is_phantom
    for i in range(grid.p):
        for j in range(grid.q):
            shared_replica = dedup and X.blocks[(i, j)] is X.blocks[X.rep_root(i, j)] \
                and (i, j) != X.rep_root(i, j)
            grid.rank_at(i, j).k.scale(
                X.blocks[(i, j)], factor, compute=not shared_replica
            )


def _start_block(rng: np.random.Generator, N: int, runs: int,
                 dtype: np.dtype) -> np.ndarray:
    """``runs`` normalized random start vectors, one per column, drawn
    run by run (real part, then imaginary part for complex dtypes)."""
    V = np.empty((N, runs), dtype=dtype)
    for r in range(runs):
        v = rng.standard_normal(N)
        if dtype.kind == "c":
            v = v + 1j * rng.standard_normal(N)
        V[:, r] = (v / np.linalg.norm(v)).astype(dtype)
    return V


def _lanczos_sweep(
    hemm: DistributedHemm, V: DistributedMultiVector, steps: int
) -> list[tuple[list[float], list[float]]]:
    """Block Lanczos: every column of ``V`` runs its own recurrence, and
    all columns advance together.

    ``V`` holds unit-norm start vectors, one per column, in the ``"C"``
    layout.  Each step is one width-``V.ne`` HEMM apply, one B->C
    redistribution and one allreduce per batch of per-column dots; the
    per-column ``alpha``/``beta`` broadcast through ``mv_axpby`` and
    ``_scale_all``.  A column whose ``beta`` underflows stops recording
    and is zeroed, so the others carry on unchanged; the sweep ends when
    every column has stopped.  Returns each column's tridiagonal
    coefficients ``(alphas, betas)``.  A phantom ``V`` charges the same
    sequence for the full ``steps`` (no coefficients are computed).
    """
    grid = hemm.grid
    H = hemm.H
    runs = V.ne
    phantom = V.is_phantom
    steps = max(2, min(steps, H.N - 1))
    active = np.ones(runs, dtype=bool)
    coeffs: list[tuple[list[float], list[float]]] = [
        ([], []) for _ in range(runs)
    ]
    V_prev: DistributedMultiVector | None = None
    beta = np.zeros(runs)

    for _k in range(steps):
        Bmv = hemm.apply(V)
        W = DistributedMultiVector.zeros(grid, H.rowmap, "C", runs, V.dtype,
                                         phantom)
        redistribute_b_to_c(grid, Bmv, W)
        dots = _allreduce_col_dots(grid, V, W)
        alpha = np.zeros(runs) if phantom else np.asarray(dots.real, float)
        W = mv_axpby(1.0, W, -alpha, V)
        if V_prev is not None:
            W = mv_axpby(1.0, W, -beta, V_prev)
        dots = _allreduce_col_dots(grid, W, W)
        beta = np.ones(runs) if phantom else np.sqrt(dots.real)
        for c in np.flatnonzero(active):
            coeffs[c][0].append(float(alpha[c]))
            coeffs[c][1].append(float(beta[c]))
        active &= ~(beta < 1e-12 * np.maximum(np.abs(alpha), 1.0))
        if not active.any():
            break
        beta = np.where(active, beta, 0.0)
        _scale_all(grid, W, np.divide(1.0, beta, out=np.zeros(runs),
                                      where=active))
        V_prev, V = V, W
    return coeffs


def _ritz(alphas: list[float], betas: list[float]):
    """Ritz values, eigenvectors and Krylov residual bounds of one run."""
    k = len(alphas)
    theta, U = scipy.linalg.eigh_tridiagonal(
        np.array(alphas), np.array(betas[: k - 1])
    )
    return theta, U, betas[k - 1] * np.abs(U[-1, :])


def _start(hemm: DistributedHemm, rng: np.random.Generator,
           runs: int) -> DistributedMultiVector:
    """:func:`_start_block`, distributed in the ``"C"`` layout."""
    H = hemm.H
    V0 = _start_block(rng, H.N, runs, np.dtype(H.dtype))
    return DistributedMultiVector.from_global(hemm.grid, V0, H.rowmap, "C")


def lanczos_ritz(
    hemm: DistributedHemm,
    *,
    steps: int = 25,
    runs: int = 1,
    rng: np.random.Generator | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(ritz_values, residual_bounds)`` of ``runs`` Lanczos sweeps.

    Each run's Ritz values come with their rigorous Krylov residual
    bounds: ``|theta_j - lambda| <= resid_j`` holds for *some* true
    eigenvalue ``lambda`` of the operator.  That one-sided guarantee is
    what spectrum-coverage checks need: a well-converged probe value
    that is far from every accepted eigenvalue *proves* the acceptance
    missed spectrum, with no false positives regardless of probe
    quality (DESIGN.md §5f).  The runs advance together as one block
    sweep; all distributed work is honestly charged.
    """
    rng = rng if rng is not None else np.random.default_rng()
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for alphas, betas in _lanczos_sweep(hemm, _start(hemm, rng, runs), steps):
        theta, _U, resid = _ritz(alphas, betas)
        order = np.argsort(theta)
        out.append((theta[order], resid[order]))
    return out


def lanczos_bounds(
    hemm: DistributedHemm,
    ne: int,
    *,
    steps: int = 25,
    runs: int = 4,
    rng: np.random.Generator | None = None,
) -> SpectralBounds:
    """Estimate ``(b_sup, mu_1, mu_ne)`` with ``runs`` Lanczos sweeps,
    advanced together as one width-``runs`` block sweep."""
    if ne < 1:
        raise ValueError("ne must be >= 1")
    rng = rng if rng is not None else np.random.default_rng()
    N = hemm.H.N

    thetas: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    b_sup = -np.inf
    mu1 = np.inf

    for alphas, betas in _lanczos_sweep(hemm, _start(hemm, rng, runs), steps):
        theta, U, resid = _ritz(alphas, betas)
        b_sup = max(b_sup, float(np.max(theta + resid)))
        mu1 = min(mu1, float(np.min(theta - resid)))
        thetas.append(theta)
        weights.append(np.abs(U[0, :]) ** 2)

    # stochastic cumulative DoS -> ne-quantile (see repro.core.dos)
    from repro.core.dos import SpectralDensity

    dos = SpectralDensity.from_samples(thetas, weights, N, mu1, b_sup)
    mu_ne = dos.quantile(min(ne, N))
    return SpectralBounds(b_sup=b_sup, mu1=mu1, mu_ne=mu_ne)
