import logging

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eig_banded

from smilansky_lab.eigs import (TridiagonalSym, bisect_count, lowest_pair,
                                shift_invert_lowest, sturm_count,
                                sturm_smallest, upper_band)
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


class TestSturmCount:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10**6))
    def test_counts_eigenvalues_below(self, n, seed):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        vals = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        # points between and around the eigenvalues, away from them
        for x in np.concatenate(([vals[0] - 1.0], 0.5 * (vals[1:] + vals[:-1]),
                                 [vals[-1] + 1.0])):
            if np.min(np.abs(vals - x)) > 1e-9:
                want = int(np.sum(vals < x))
                assert sturm_count(d.tolist(), (e**2).tolist(), float(x)) == want

    def test_zero_pivot_counts_as_negative(self):
        # [[0, 1], [1, 0]] has eigenvalues -1 and 1; the first pivot at x = 0
        # is exactly zero
        assert sturm_count([0.0, 0.0], [1.0], 0.0) == 1

    def test_bisect_count_brackets_the_first_eigenvalue(self):
        T = dirichlet_laplacian(20)
        e2 = (T.e**2).tolist()
        lo, hi, steps = bisect_count(lambda x: sturm_count(T.d.tolist(), e2, x),
                                     -1.0, 1.0, 1e-13)
        want = 2.0 - 2.0 * np.cos(np.pi / 21.0)
        assert lo <= want <= hi and hi - lo <= 1e-13 and steps >= 40

    def test_lowest_pair_matches_lapack(self):
        from scipy.linalg import eigh_tridiagonal
        rng = np.random.default_rng(11)
        n = 500
        T = TridiagonalSym(2.0 + rng.uniform(-1.0, 1.0, n), np.full(n - 1, -1.0))
        e0, v = lowest_pair(T)
        (want,), vecs = eigh_tridiagonal(T.d, T.e, select="i", select_range=(0, 0))
        assert abs(e0 - want) < 1e-13
        assert abs(np.linalg.norm(v) - 1.0) < 1e-14
        assert np.max(np.abs(v * np.sign(v @ vecs[:, 0]) - vecs[:, 0])) < 1e-12

    def test_lowest_pair_rejects_periodic_wrap(self):
        T = dirichlet_laplacian(6)
        with pytest.raises(ComputationError):
            lowest_pair(TridiagonalSym(T.d, T.e, corner=-1.0))


class TestLanczos:
    # shift_invert_lowest is Lanczos (ARPACK) on (a - sigma)^-1
    def test_diagonal_sparse(self):
        d = np.linspace(-3.0, 9.0, 60)
        vals, _, res = shift_invert_lowest(sp.diags(d).tocsr(), 3, floor=-4.0)
        assert np.all(res <= 1e-7)
        assert np.max(np.abs(vals - np.sort(d)[:3])) < 1e-8

    def test_residual_certificate(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        a = q @ np.diag(np.arange(40.0)) @ q.T
        a = sp.csr_matrix(0.5 * (a + a.T))
        vals, vecs, res = shift_invert_lowest(a, 2, floor=-1.0)
        assert np.all(res <= 1e-7)
        for i in range(2):
            again = np.linalg.norm(a @ vecs[:, i] - vals[i] * vecs[:, i])
            assert abs(again - res[i]) < 1e-12
        assert np.max(np.abs(vecs.T @ vecs - np.eye(2))) < 1e-10


class TestShiftInvert:
    @pytest.fixture(scope="class")
    def matrix(self):
        # 5-point Laplacian on a 12 x 12 grid plus a random diagonal:
        # symmetric, half-bandwidth 12, indefinite
        rng = np.random.default_rng(5)
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(12, 12))
        return (sp.kronsum(lap, lap)
                + sp.diags(rng.uniform(-1.0, 1.0, 144))).tocsr()

    def test_upper_band_layout(self, matrix):
        band = upper_band(matrix, 0.5)
        assert band.shape == (13, 144) and band.flags.f_contiguous
        want = np.linalg.eigvalsh(matrix.toarray()) - 0.5
        assert np.max(np.abs(eig_banded(band, eigvals_only=True) - want)) < 1e-12

    def test_matches_dense(self, matrix):
        vals, vecs, res = shift_invert_lowest(matrix, 3, floor=-2.0, tol=1e-10)
        want = np.linalg.eigvalsh(matrix.toarray())[:3]
        assert np.max(np.abs(vals - want)) < 1e-10
        again = np.linalg.norm(matrix @ vecs - vecs * vals, axis=0)
        assert np.max(np.abs(again - res)) < 1e-12 and np.all(res <= 1e-10)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(3))) < 1e-10

    def test_singular_psd(self):
        # the Neumann Laplacian (plus its kernel, the constant vector) is
        # positive semidefinite with lowest eigenvalue exactly 0
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(30, 30), format="lil")
        lap[0, 0] = lap[-1, -1] = 1.0
        (val,), vec, _ = shift_invert_lowest(lap.tocsr(), 1, floor=-1.0, tol=1e-12)
        assert abs(val) < 1e-12
        assert np.max(np.abs(vec[:, 0] - vec[0, 0])) < 1e-10

    def test_determinism(self, matrix):
        r1 = shift_invert_lowest(matrix, 2, floor=-2.0, guess=0.0)
        r2 = shift_invert_lowest(matrix, 2, floor=-2.0, guess=0.0)
        assert all(np.array_equal(a, b) for a, b in zip(r1, r2))

    def test_guess_above_lowest_falls_back_to_floor(self, matrix, caplog):
        (base,), _, _ = shift_invert_lowest(matrix, 1, floor=-2.0)
        with caplog.at_level(logging.DEBUG, logger="smilansky_lab.eigs"):
            (got,), _, _ = shift_invert_lowest(matrix, 1, floor=-2.0,
                                               guess=base + 1.0)
        assert abs(got - base) <= 1e-10 * max(1.0, abs(base))
        assert "(not definite), -2 (factored)" in caplog.text

    def test_near_shift_below_the_guess_is_used(self, matrix, caplog):
        lam0 = np.linalg.eigvalsh(matrix.toarray())[0]
        with caplog.at_level(logging.DEBUG, logger="smilansky_lab.eigs"):
            (got,), _, _ = shift_invert_lowest(matrix, 1, floor=-2.0, guess=lam0)
        assert abs(got - lam0) < 1e-10
        assert caplog.text.count("factored") == 1 and "not definite" not in caplog.text

    def test_floor_not_below_spectrum_raises(self, matrix):
        lam0 = np.linalg.eigvalsh(matrix.toarray())[0]
        for guess in (None, lam0 + 1.0):
            with pytest.raises(ComputationError, match="not positive definite"):
                shift_invert_lowest(matrix, 1, floor=lam0 + 1e-3, guess=guess)
