import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smilansky_lab.eigs import (LanczosOptions, TridiagonalSym,
                                lanczos_smallest, sturm_smallest)
from smilansky_lab.errors import ComputationError


def dirichlet_laplacian(n):
    return TridiagonalSym(np.full(n, 2.0), np.full(n - 1, -1.0))


class TestSturm:
    def test_laplacian_spectrum(self):
        T = dirichlet_laplacian(10)
        got = sturm_smallest(T, 10, tol=1e-14)
        want = 2.0 - 2.0 * np.cos(np.arange(1, 11) * np.pi / 11.0)
        assert np.max(np.abs(got - np.sort(want))) < 1e-12

    def test_diagonal_matrix(self):
        d = np.array([3.0, -1.0, 7.0, 0.5])
        T = TridiagonalSym(d, np.zeros(3))
        assert np.allclose(sturm_smallest(T, 4, tol=1e-14), np.sort(d),
                           atol=1e-12)

    def test_shift_covariance(self):
        T = dirichlet_laplacian(12)
        shifted = TridiagonalSym(T.d + 3.25, T.e)
        a = sturm_smallest(T, 3, tol=1e-13)
        b = sturm_smallest(shifted, 3, tol=1e-13)
        assert np.max(np.abs((a + 3.25) - b)) < 1e-11

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 12), st.integers(0, 10**6))
    def test_interlacing_under_deletion(self, n, seed):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        full = sturm_smallest(TridiagonalSym(d, e), n, tol=1e-12)
        sub = sturm_smallest(TridiagonalSym(d[:-1], e[:-1]), n - 1, tol=1e-12)
        for j in range(n - 1):
            assert full[j] <= sub[j] + 1e-9
            assert sub[j] <= full[j + 1] + 1e-9

    def test_rejects_periodic_wrap_and_bad_count(self):
        T = dirichlet_laplacian(6)
        with pytest.raises(ComputationError):
            sturm_smallest(TridiagonalSym(T.d, T.e, corner=-1.0))
        with pytest.raises(ComputationError):
            sturm_smallest(T, 7)


class TestLanczos:
    def test_diagonal_sparse(self):
        d = np.linspace(-3.0, 9.0, 60)
        vals, vecs, res, ok = lanczos_smallest(lambda v: d * v, 60, 3)
        assert ok
        assert np.max(np.abs(vals - np.sort(d)[:3])) < 1e-8

    def test_rank_deficient_psd(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((30, 20))
        a = b @ b.T  # rank 20, PSD: smallest eigenvalue 0
        vals, _, _, ok = lanczos_smallest(lambda v: a @ v, 30, 1)
        assert ok and abs(vals[0]) < 1e-7

    def test_symmetry_check_rejects(self):
        a = np.triu(np.ones((10, 10)))
        with pytest.raises(ComputationError):
            lanczos_smallest(lambda v: a @ v, 10, 1)

    def test_determinism(self):
        d = np.linspace(0.0, 5.0, 50)
        r1 = lanczos_smallest(lambda v: d * v, 50, 2)
        r2 = lanczos_smallest(lambda v: d * v, 50, 2)
        assert np.array_equal(r1[0], r2[0])
        assert np.array_equal(r1[1], r2[1])

    def test_residual_certificate(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        a = q @ np.diag(np.arange(40.0)) @ q.T
        a = 0.5 * (a + a.T)
        vals, vecs, res, ok = lanczos_smallest(lambda v: a @ v, 40, 2)
        assert ok
        for i in range(2):
            again = np.linalg.norm(a @ vecs[:, i] - vals[i] * vecs[:, i])
            assert abs(again - res[i]) < 1e-12
        assert np.max(np.abs(vecs.T @ vecs - np.eye(2))) < 1e-10
