"""Tests for the distributed Lanczos spectral-bound estimation."""

import numpy as np
import pytest

from repro import ChaseConfig, ChaseSolver
from repro.core.lanczos import _lanczos_sweep, _start_block, lanczos_bounds
from repro.distributed import (
    DistributedHemm,
    DistributedHermitian,
    DistributedMultiVector,
)
from repro.matrices import matrix_with_spectrum
from tests.conftest import make_grid


def bounds_for(H, ne=10, seed=5, **kw):
    g = make_grid(4)
    Hd = DistributedHermitian.from_dense(g, H)
    return lanczos_bounds(
        DistributedHemm(Hd), ne, rng=np.random.default_rng(seed), **kw
    )


class TestLanczosBounds:
    def test_b_sup_upper_bounds_spectrum(self, rng):
        lam = np.linspace(-3.0, 5.0, 120)
        H = matrix_with_spectrum(lam, rng)
        b = bounds_for(H)
        assert b.b_sup >= lam[-1] - 1e-8

    def test_mu1_lower_bounds_spectrum(self, rng):
        lam = np.linspace(-3.0, 5.0, 120)
        H = matrix_with_spectrum(lam, rng)
        b = bounds_for(H)
        assert b.mu1 <= lam[0] + 1e-8

    def test_mu_ne_between_bounds(self, rng):
        lam = np.linspace(0.0, 10.0, 150)
        H = matrix_with_spectrum(lam, rng)
        b = bounds_for(H, ne=15)
        assert b.mu1 < b.mu_ne < b.b_sup

    def test_mu_ne_tracks_quantile_uniform(self, rng):
        """For a uniform spectrum the DoS quantile should land in the
        right region (within a generous factor; it is an estimate)."""
        N, ne = 200, 20
        lam = np.linspace(0.0, 1.0, N)
        H = matrix_with_spectrum(lam, rng)
        b = bounds_for(H, ne=ne, steps=30, runs=6)
        exact = lam[ne]
        assert exact / 8 <= (b.mu_ne - lam[0]) <= exact * 8 + 0.2

    def test_clustered_spectrum_safe(self, rng):
        lam = np.concatenate([np.full(50, 1.0), np.full(50, 2.0)])
        H = matrix_with_spectrum(lam, rng)
        b = bounds_for(H, ne=5)
        assert b.b_sup >= 2.0 - 1e-6
        assert np.isfinite(b.mu_ne)

    def test_complex_hermitian(self, rng):
        lam = np.linspace(-1, 1, 80)
        H = matrix_with_spectrum(lam, rng, dtype=np.complex128)
        b = bounds_for(H)
        assert b.b_sup >= 1.0 - 1e-8
        assert b.mu1 <= -1.0 + 1e-8

    def test_costs_charged(self, rng):
        lam = np.linspace(-1, 1, 60)
        H = matrix_with_spectrum(lam, rng)
        g = make_grid(4)
        Hd = DistributedHermitian.from_dense(g, H)
        lanczos_bounds(DistributedHemm(Hd), 6, rng=np.random.default_rng(0))
        assert g.cluster.makespan() > 0

    def test_invalid_ne(self, rng):
        lam = np.linspace(-1, 1, 30)
        H = matrix_with_spectrum(lam, rng)
        g = make_grid(4)
        Hd = DistributedHermitian.from_dense(g, H)
        with pytest.raises(ValueError):
            lanczos_bounds(DistributedHemm(Hd), 0)

    def test_tiny_matrix_step_clamp(self, rng):
        lam = np.linspace(0, 1, 8)
        H = matrix_with_spectrum(lam, rng)
        b = bounds_for(H, ne=2, steps=100)
        assert b.b_sup >= 1.0 - 1e-8


def _sweep(hemm, V0, steps=25):
    """Block sweep from the explicit start block ``V0`` (columns)."""
    V = DistributedMultiVector.from_global(hemm.grid, V0, hemm.H.rowmap, "C")
    return _lanczos_sweep(hemm, V, steps)


def _hemm(H, p=2, q=2):
    g = make_grid(p * q, p=p, q=q)
    return DistributedHemm(DistributedHermitian.from_dense(g, H))


def _close(got, ref, scale):
    """Coefficient lists equal in length and to 1e-12 of ``scale``."""
    assert len(got) == len(ref)
    assert np.abs(np.subtract(got, ref)).max() <= 1e-12 * scale


class TestBlockSweep:
    """The ``runs`` sweeps advance together as one width-``runs`` block."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_columns_match_one_column_sweeps(self, rng, dtype):
        N, runs = 90, 4
        lam = np.linspace(-2.0, 3.0, N)
        hemm = _hemm(matrix_with_spectrum(lam, rng, dtype=dtype), p=2, q=3)
        V0 = _start_block(np.random.default_rng(3), N, runs, np.dtype(dtype))
        block = _sweep(hemm, V0)
        for c in range(runs):
            [(alphas, betas)] = _sweep(hemm, V0[:, c:c + 1])
            assert len(alphas) == 25
            _close(block[c][0], alphas, 3.0)
            _close(block[c][1], betas, 3.0)

    def test_early_stop_leaves_other_columns(self, rng):
        """Three distinct eigenvalues: a start vector in the span of two
        eigenspaces stops after two steps, the random ones after three;
        the early stop leaves the other columns' coefficients as they
        are without it."""
        N = 60
        lam = np.repeat([-1.0, 0.5, 2.0], N // 3)
        H = matrix_with_spectrum(lam, rng)
        _w, U = np.linalg.eigh(H)
        hemm = _hemm(H)
        V0 = _start_block(np.random.default_rng(5), N, 3, np.dtype(np.float64))
        u = U[:, 0] + U[:, -1]
        V0[:, 0] = u / np.linalg.norm(u)
        block = _sweep(hemm, V0)
        assert len(block[0][0]) == 2
        rest = _sweep(hemm, V0[:, 1:])
        for c in (1, 2):
            assert len(block[c][0]) == 3
            _close(block[c][0], rest[c - 1][0], 2.0)
            _close(block[c][1], rest[c - 1][1], 2.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_generator_state_after_bounds(self, rng, dtype):
        """Lanczos draws its start vectors run by run, so the caller's
        generator ends where ``runs`` single start draws leave it."""
        N, runs = 80, 4
        H = matrix_with_spectrum(np.linspace(0.0, 1.0, N), rng, dtype=dtype)
        used = np.random.default_rng(11)
        lanczos_bounds(_hemm(H), 5, runs=runs, rng=used)
        ref = np.random.default_rng(11)
        draws = []
        for _ in range(runs):
            v = ref.standard_normal(N)
            if np.dtype(dtype).kind == "c":
                v = v + 1j * ref.standard_normal(N)
            draws.append(v / np.linalg.norm(v))
        assert used.bit_generator.state == ref.bit_generator.state
        # column r of the start block is run r's draw
        V0 = _start_block(np.random.default_rng(11), N, runs, np.dtype(dtype))
        assert np.array_equal(V0, np.array(draws, dtype=dtype).T)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_phantom_charges_equal_numeric(self, rng, dtype):
        """The phantom pre-processing charges exactly the numeric block
        sweep: same Lanczos PhaseBreakdown, same CommStats."""
        N, p, q = 150, 2, 3
        cfg = ChaseConfig(nev=12, nex=6)
        H = matrix_with_spectrum(np.linspace(-1.0, 1.0, N), rng, dtype=dtype)
        g = make_grid(p * q, p=p, q=q)
        solver = ChaseSolver(g, DistributedHermitian.from_dense(g, H), cfg)
        with g.cluster.tracer.phase("Lanczos"):
            lanczos_bounds(solver.hemm, cfg.ne, steps=cfg.lanczos_steps,
                           runs=cfg.lanczos_runs,
                           rng=np.random.default_rng(1))
        gp = make_grid(p * q, p=p, q=q, phantom=True)
        phantom = ChaseSolver(gp, DistributedHermitian.phantom(gp, N, dtype),
                              cfg)
        with gp.cluster.tracer.phase("Lanczos"):
            phantom._phantom_lanczos_cost()
        assert g.cluster.tracer.breakdown("Lanczos") \
            == gp.cluster.tracer.breakdown("Lanczos")
        assert g.comm_stats() == gp.comm_stats()
        assert g.comm_stats_levels() == gp.comm_stats_levels()
