import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_tridiagonal
from smilansky_lab.eigs import (BlockTridiagonal, _block_ldlt, _block_solve, _splitmix64,
                                shift_invert_lanczos)
from smilansky_lab.errors import ComputationError
from smilansky_lab.sturm import bisect_count, cyclic_sturm_count, lowest_eigenvector, sturm_count


def dirichlet_laplacian(n):
    """The diagonal and off-diagonal of the Dirichlet Laplacian on n nodes."""
    return np.full(n, 2.0), np.full(n - 1, -1.0)


def smallest_by_count(d, e, m, tol):
    """The m smallest eigenvalues of the symmetric tridiagonal T with
    diagonal d and off-diagonal e: the j-th is where the Sturm count passes
    j, bisected to width tol."""
    e2 = (e**2).tolist()
    # the spectrum lies in [-||T||_inf, ||T||_inf], ||T||_inf the largest
    # absolute row sum (Gershgorin)
    ae = np.abs(e)
    hi = float(np.max(np.abs(d) + np.append(ae, 0.0) + np.append(0.0, ae))) + 1.0
    lo = -hi
    d = d.tolist()
    return np.array([0.5 * sum(bisect_count(lambda x: sturm_count(d, e2, x) > j,
                                            lo, hi, tol)[:2]) for j in range(m)])


class TestSturm:
    # eigenvalues by bisection of the Sturm count
    def test_laplacian_spectrum(self):
        got = smallest_by_count(*dirichlet_laplacian(10), 10, tol=1e-14)
        want = 2.0 - 2.0 * np.cos(np.arange(1, 11) * np.pi / 11.0)
        assert np.max(np.abs(got - np.sort(want))) < 1e-12

    def test_diagonal_matrix(self):
        d = np.array([3.0, -1.0, 7.0, 0.5])
        assert np.allclose(smallest_by_count(d, np.zeros(3), 4, tol=1e-14), np.sort(d),
                           atol=1e-12)

    def test_shift_covariance(self):
        d, e = dirichlet_laplacian(12)
        a = smallest_by_count(d, e, 3, tol=1e-13)
        b = smallest_by_count(d + 3.25, e, 3, tol=1e-13)
        assert np.max(np.abs((a + 3.25) - b)) < 1e-11

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 12), st.integers(0, 10**6))
    def test_interlacing_under_deletion(self, n, seed):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        full = smallest_by_count(d, e, n, tol=1e-12)
        sub = smallest_by_count(d[:-1], e[:-1], n - 1, tol=1e-12)
        for j in range(n - 1):
            assert full[j] <= sub[j] + 1e-9
            assert sub[j] <= full[j + 1] + 1e-9


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
        d, e = dirichlet_laplacian(20)
        e2 = (e**2).tolist()
        lo, hi, steps = bisect_count(lambda x: sturm_count(d.tolist(), e2, x),
                                     -1.0, 1.0, 1e-13)
        want = 2.0 - 2.0 * np.cos(np.pi / 21.0)
        assert lo <= want <= hi and hi - lo <= 1e-13 and steps >= 40

    def test_lowest_pair_matches_lapack(self):
        from scipy.linalg import eigh_tridiagonal
        rng = np.random.default_rng(11)
        n = 500
        d, e = 2.0 + rng.uniform(-1.0, 1.0, n), np.full(n - 1, -1.0)
        (want,), vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
        # the shift: the lower end of the Sturm bracket of the lowest
        # eigenvalue, 1e-15 ||T||_inf wide
        dl, e2 = d.tolist(), (e**2).tolist()
        sigma, _, _ = bisect_count(lambda x: sturm_count(dl, e2, x), -1.0, 4.0, 4e-15)
        v = np.array(lowest_eigenvector(dl, e.tolist(), sigma))
        assert abs(v @ dense_tridiagonal(d, e) @ v - want) < 1e-13
        assert abs(np.linalg.norm(v) - 1.0) < 1e-14
        assert np.max(np.abs(v * np.sign(v @ vecs[:, 0]) - vecs[:, 0])) < 1e-12

    def test_cyclic_count_matches_dense(self):
        # 300 random periodic wraps, at points between and around their
        # eigenvalues
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(3, 15))
            d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
            corner = float(rng.standard_normal())
            vals = np.linalg.eigvalsh(dense_tridiagonal(d, e, corner))
            points = np.concatenate(([vals[0] - 1.0], 0.5 * (vals[1:] + vals[:-1]),
                                     [vals[-1] + 1.0]))[:11]
            for x in points:
                if np.min(np.abs(vals - x)) > 1e-9:
                    assert cyclic_sturm_count(d.tolist(), e.tolist(), corner,
                                              float(x)) == int(np.sum(vals < x))

    def test_shift_must_lie_below_the_spectrum(self):
        # a 1e300 diagonal: the lower end of the Sturm bracket of the lowest
        # eigenvalue, 1e-15 ||T||_inf wide, is certified, and the vector is
        # a unit one with Rayleigh quotient 1e300; a shift above the lowest
        # eigenvalue is refused, not iterated
        d, e = [1e300] * 8, [-1.0] * 7
        sigma, hi, _ = bisect_count(lambda x: sturm_count(d, [1.0] * 7, x),
                                    0.5e300, 2e300, 1e-15 * 1e300)
        assert sigma <= 1e300 <= hi
        v = lowest_eigenvector(d, e, sigma)
        assert abs(math.fsum(x * x for x in v) - 1.0) < 1e-14
        rayleigh = math.fsum(di * x * x for di, x in zip(d, v))
        assert abs(rayleigh - 1e300) <= 1e-15 * 1e300
        with pytest.raises(ComputationError, match="not positive definite"):
            lowest_eigenvector([2.0] * 8, e, 1.0)
        with pytest.raises(ComputationError, match="non-finite"):
            lowest_eigenvector([2.0] * 8, e, math.nan)


class TestLanczos:
    # shift_invert_lanczos is Lanczos on (h - sigma)^-1
    def test_start_vectors_are_splitmix64_outputs(self):
        # the reference generator's first outputs from seed 0, as integers,
        # and each output depends on (seed, index) alone
        first = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        want = [(z >> 11) * 2.0**-52 - 1.0 for z in first]
        assert _splitmix64(0, 0, 3).tolist() == want
        assert _splitmix64(0, 1, 2).tolist() == want[1:]
        v = _splitmix64(1234, 0, 4096)
        assert np.all((-1.0 <= v) & (v < 1.0)) and abs(v.mean()) < 0.05
        assert not np.array_equal(v[:8], _splitmix64(1235, 0, 8))

    def test_diagonal_sparse(self):
        d = np.linspace(-3.0, 9.0, 60)
        h = BlockTridiagonal(np.zeros((1, 1)), d[:, None], np.zeros(59))
        vals, _, res = shift_invert_lanczos(h, 3, floor=-4.0)
        assert np.all(res <= 1e-7)
        assert np.max(np.abs(vals - np.sort(d)[:3])) < 1e-8

    def test_residual_certificate(self):
        # one dense block
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        a = q @ np.diag(np.arange(40.0)) @ q.T
        h = BlockTridiagonal(0.5 * (a + a.T), np.zeros((1, 40)), np.zeros(0))
        vals, vecs, res = shift_invert_lanczos(h, 2, floor=-1.0)
        assert np.all(res <= 1e-7)
        for i in range(2):
            again = np.linalg.norm(h.bx @ vecs[:, i] - vals[i] * vecs[:, i])
            assert abs(again - res[i]) < 1e-12
        assert np.max(np.abs(vecs.T @ vecs - np.eye(2))) < 1e-10


    @pytest.mark.parametrize("seed", range(5))
    def test_closed_krylov_space_goes_on_from_a_new_direction(self, seed):
        # on the identity the Krylov space of any start vector closes after
        # one step, with beta often exactly 0, short of the two pairs asked for
        h = BlockTridiagonal(np.zeros((1, 1)), np.ones((16, 1)), np.zeros(15))
        vals, vecs, res = shift_invert_lanczos(h, 2, floor=0.0, seed=seed)
        assert np.max(np.abs(vals - 1.0)) <= 1e-14 and np.all(res <= 1e-14)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(2))) < 1e-12


def dense(h):
    """The matrix of a BlockTridiagonal, written out."""
    n_b = len(h.d)
    return (np.kron(np.eye(n_b), h.bx) + np.diag(h.d.ravel())
            + np.kron(np.diag(h.c, 1) + np.diag(h.c, -1), np.eye(len(h.bx))))


class TestShiftInvert:
    @pytest.fixture(scope="class")
    def matrix(self):
        # 5-point Laplacian on a 12 x 12 grid plus a random diagonal:
        # symmetric, 12 blocks of 12, indefinite
        rng = np.random.default_rng(5)
        lap = dense_tridiagonal(*dirichlet_laplacian(12))
        return BlockTridiagonal(lap, 2.0 + rng.uniform(-1.0, 1.0, (12, 12)),
                                np.full(11, -1.0))

    def test_block_layout(self, matrix):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(matrix.n)
        a = dense(matrix)
        assert np.max(np.abs(matrix.matvec(v) - a @ v)) < 1e-13
        assert matrix.norm_inf() == np.max(np.sum(np.abs(a), axis=1))

    @pytest.fixture(scope="class")
    def wide(self):
        # 6 blocks of 69, the order of a full-sector x-stencil of a scan grid
        rng = np.random.default_rng(69)
        return BlockTridiagonal(100.0 * dense_tridiagonal(*dirichlet_laplacian(69)),
                                200.0 + rng.uniform(-50.0, 50.0, (6, 69)),
                                np.full(5, -100.0))

    @pytest.mark.parametrize("name", ["matrix", "wide"])
    def test_block_factor_exists_exactly_below_lambda0(self, name, request):
        h = request.getfixturevalue(name)
        a = dense(h)
        lam = np.linalg.eigvalsh(a)
        assert lam[1] - lam[0] > 2e-3
        for sigma in (lam[0] + 1e-3, 0.5 * (lam[0] + lam[1])):
            assert _block_ldlt(h, sigma) is None
        sigma = lam[0] - 1e-3
        inv = _block_ldlt(h, sigma)
        assert len(inv) == len(h.d)
        b = np.random.default_rng(1).standard_normal(h.n)
        want = np.linalg.solve(a - sigma * np.eye(h.n), b)
        got = _block_solve(inv, h.c.tolist(), b)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_matches_dense(self, matrix):
        vals, vecs, res = shift_invert_lanczos(matrix, 3, floor=-2.0, tol=1e-10)
        a = dense(matrix)
        want = np.linalg.eigvalsh(a)[:3]
        assert np.max(np.abs(vals - want)) < 1e-10
        again = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
        assert np.max(np.abs(again - res)) < 1e-12 and np.all(res <= 1e-10)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(3))) < 1e-10

    def test_singular_psd(self):
        # the Neumann Laplacian (plus its kernel, the constant vector) is
        # positive semidefinite with lowest eigenvalue exactly 0
        lap = dense_tridiagonal(*dirichlet_laplacian(30))
        lap[0, 0] = lap[-1, -1] = 1.0
        h = BlockTridiagonal(lap, np.zeros((1, 30)), np.zeros(0))
        (val,), vec, _ = shift_invert_lanczos(h, 1, floor=-1.0, tol=1e-12)
        assert abs(val) < 1e-12
        assert np.max(np.abs(vec[:, 0] - vec[0, 0])) < 1e-10

    def test_determinism(self, matrix):
        r1 = shift_invert_lanczos(matrix, 2, floor=-2.0, guess=[0.0])
        r2 = shift_invert_lanczos(matrix, 2, floor=-2.0, guess=[0.0])
        assert all(np.array_equal(a, b) for a, b in zip(r1, r2))

    def test_guess_above_lowest_falls_back_to_floor(self, matrix, caplog):
        (base,), _, _ = shift_invert_lanczos(matrix, 1, floor=-2.0)
        with caplog.at_level(logging.DEBUG, logger="smilansky_lab.eigs"):
            (got,), _, _ = shift_invert_lanczos(matrix, 1, floor=-2.0,
                                                guess=[base + 1.0])
        assert abs(got - base) <= 1e-10 * max(1.0, abs(base))
        assert "(not definite), -2 (factored)" in caplog.text

    def test_near_shift_below_the_guess_is_used(self, matrix, caplog):
        lam0 = np.linalg.eigvalsh(dense(matrix))[0]
        with caplog.at_level(logging.DEBUG, logger="smilansky_lab.eigs"):
            (got,), _, _ = shift_invert_lanczos(matrix, 1, floor=-2.0, guess=[lam0])
        assert abs(got - lam0) < 1e-10
        assert caplog.text.count("factored") == 1 and "not definite" not in caplog.text

    def test_guesses_are_tried_in_order(self, matrix, caplog):
        lam0 = np.linalg.eigvalsh(dense(matrix))[0]
        with caplog.at_level(logging.DEBUG, logger="smilansky_lab.eigs"):
            (got,), _, _ = shift_invert_lanczos(matrix, 1, floor=-2.0,
                                                guess=[lam0 + 1.0, lam0 + 2.0, lam0])
        assert abs(got - lam0) < 1e-10
        # lam0 + 2 lies above the shift that failed, so it is not factored
        assert caplog.text.count("(not definite)") == 1
        assert caplog.text.count("(factored)") == 1

    def test_far_floor_restarts_just_below_the_lowest_ritz_value(self, caplog):
        # from a floor 1e4 below the spectrum the wanted mu are too close to
        # converge in one cycle; the restart moves the shift just below the
        # lowest Ritz value, where its block factor certifies it
        rng = np.random.default_rng(5)
        h = BlockTridiagonal(100.0 * dense_tridiagonal(*dirichlet_laplacian(30)),
                             200.0 + rng.uniform(-50.0, 50.0, (30, 30)),
                             np.full(29, -100.0))
        want = np.linalg.eigvalsh(dense(h))[:4]
        with caplog.at_level(logging.DEBUG, logger="smilansky_lab.eigs"):
            vals, _, res = shift_invert_lanczos(h, 4, floor=-1e4)
        assert np.max(np.abs(vals - want)) < 1e-10 and np.all(res <= 1e-7)
        _, shifts, solves = caplog.records[-1].args
        assert shifts.startswith("-10000 (factored), ") and shifts.count("(factored)") == 2
        assert float(shifts.split(", ")[1].split()[0]) < want[0] and solves > 64

    def test_rejects_bad_count(self, matrix):
        for k in (0, 64):
            with pytest.raises(ComputationError, match="cannot take"):
                shift_invert_lanczos(matrix, k, floor=-2.0)

    def test_floor_not_below_spectrum_raises(self, matrix):
        lam0 = np.linalg.eigvalsh(dense(matrix))[0]
        for guess in ((), [lam0 + 1.0]):
            with pytest.raises(ComputationError, match="not positive definite"):
                shift_invert_lanczos(matrix, 1, floor=lam0 + 1e-3, guess=guess)
