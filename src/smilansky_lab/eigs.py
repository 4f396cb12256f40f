"""The 2D eigensolver, on numpy alone.

Block-tridiagonal matrices I (x) Bx + diag(d) + C (x) I (`BlockTridiagonal`,
the 2D Hamiltonian) go to `shift_invert_lanczos`: Lanczos with full
reorthogonalization on (H - sigma)^-1, applied through a block LDL^T factor
whose existence certifies that sigma lies below the spectrum.  Each pivot
block of the factor takes one Cholesky factor, its certificate, and one
LAPACK inverse (`_block_ldlt`).  Nothing here imports scipy.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ComputationError, ConvergenceError, _debug

__all__ = ["BlockTridiagonal", "shift_invert_lanczos"]

# a shift tried below a guess of the lowest eigenvalue sits this far below it,
# relative to max(1, |guess|)
_NEAR_MARGIN = 0.05
# Lanczos steps of one restart cycle of shift_invert_lanczos, and cycles
# before it gives up
_CYCLE = 64
_CYCLES = 16


class BlockTridiagonal(NamedTuple):
    """Symmetric matrix I (x) bx + diag(d) + C (x) I.

    Diagonal block j is bx + diag(d[j]), and blocks j and j + 1 are coupled
    by c[j] I; unknown i of block j sits at index j * n_x + i.
    """

    bx: np.ndarray      # (n_x, n_x), symmetric
    d: np.ndarray       # (n_blocks, n_x)
    c: np.ndarray       # (n_blocks - 1,)

    @property
    def n(self) -> int:
        return self.d.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        u = v.reshape(self.d.shape)
        out = u @ self.bx + self.d * u
        out[1:] += self.c[:, None] * u[:-1]
        out[:-1] += self.c[:, None] * u[1:]
        return out.ravel()

    def quadratic_form(self, v: np.ndarray) -> float:
        """v^T h v as sum_i s_i v_i^2 - sum_{i<k} h_ik (v_i - v_k)^2, s the row
        sums of h.  With nonpositive off-diagonal entries every difference
        term is nonnegative and the large diagonal does not cancel against
        the couplings, so the rounding error scales with the energies, not
        with ||h||."""
        u = v.reshape(self.d.shape)
        rows = self.bx.sum(axis=1) + self.d
        rows[1:] += self.c[:, None]
        rows[:-1] += self.c[:, None]
        i, k = np.nonzero(np.triu(self.bx, 1))
        return float(np.sum(rows * u * u)
                     - np.sum(self.bx[i, k] * (u[:, i] - u[:, k]) ** 2)
                     - np.sum(self.c[:, None] * (u[1:] - u[:-1]) ** 2))

    def norm_inf(self) -> float:
        """The largest absolute row sum, a bound on the 2-norm."""
        diag = np.diag(self.bx)
        rows = np.abs(self.bx).sum(axis=1) - np.abs(diag) + np.abs(diag + self.d)
        ac = np.abs(self.c)[:, None]
        rows[1:] += ac
        rows[:-1] += ac
        return float(rows.max())


def _block_ldlt(h: BlockTridiagonal, sigma: float) -> Optional[list[np.ndarray]]:
    """The inverses of the pivot blocks of the block LDL^T factor of
    h - sigma, S_0 = B_0 - sigma and S_j = B_j - sigma - c_{j-1}^2 S_{j-1}^-1,
    or None at the first S_j that is not positive definite.  Every S_j is
    positive definite exactly when h - sigma is (Sylvester's law of
    inertia).  One Cholesky factor certifies each S_j, and one LAPACK
    inverse inverts it: best of 7 x 300 on 2 vCPUs, 42-50 us per pivot of
    order 35 (the shipped scans' even-even blocks) and 142-173 us at order
    69 (full-sector `eig2d`)."""
    n_x = h.bx.shape[0]
    base = h.bx - sigma * np.eye(n_x)
    diag = np.diag_indices(n_x)
    inv = []
    for j, dj in enumerate(h.d):
        s = base - h.c[j - 1] ** 2 * inv[-1] if j else base.copy()
        s[diag] += dj
        try:
            np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            return None
        inv.append(np.linalg.inv(s))
    return inv


def _block_solve(inv: list[np.ndarray], c: list[float], b: np.ndarray) -> np.ndarray:
    """(h - sigma)^-1 b from the pivot inverses: a forward and a back sweep."""
    y = b.reshape(len(inv), -1)
    x = np.empty_like(y)
    rows = list(x)
    prev = np.dot(inv[0], y[0], out=rows[0])
    for j in range(1, len(rows)):
        prev = np.dot(inv[j], y[j] - c[j - 1] * prev, out=rows[j])
    for j in range(len(rows) - 2, -1, -1):
        rows[j] -= c[j] * np.dot(inv[j], prev)
        prev = rows[j]
    return x.ravel()


def _orthogonalize(q: np.ndarray, w: np.ndarray) -> float:
    """Remove from w, in place, its components along the orthonormal rows of
    q by classical Gram-Schmidt, once more when that removes more than
    1 - 1/sqrt(2) of its norm (twice is enough); returns the norm left."""
    for _ in range(2):
        before = np.linalg.norm(w)
        w -= q.T @ (q @ w)
        left = float(np.linalg.norm(w))
        if left > 0.7071 * before:
            break
    return left


def _near(guess: float) -> float:
    """The shift tried just below a guess of the lowest eigenvalue."""
    return guess - _NEAR_MARGIN * max(1.0, abs(guess))


def _splitmix64(seed: int, start: int, n: int) -> np.ndarray:
    """Outputs start, ..., start + n - 1 of the splitmix64 generator seeded
    with `seed` (Steele, Lea & Flood 2014), each a function of (seed, index)
    alone, as floats uniform on [-1, 1): start vectors without the import of
    numpy.random."""
    z = (np.uint64(seed % 2**64) + np.arange(start + 1, start + n + 1, dtype=np.uint64)
         * np.uint64(0x9E3779B97F4A7C15))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(float) * 2.0**-52 - 1.0


def _lanczos(inv: list[np.ndarray], c: list[float], w: np.ndarray, k: int,
             rtol: float, steps: int, direction: Callable[[], np.ndarray]):
    """At most `steps` Lanczos steps with full reorthogonalization on
    (h - sigma)^-1, from w; `direction()` gives a new direction when the
    Krylov space closes.  Returns (converged, basis, mus, s): the
    orthonormal Lanczos vectors as rows, and the eigenvalues (ascending)
    and eigenvectors of their tridiagonal T."""
    n = len(w)
    basis = np.empty((min(n, steps), n))     # a row is touched when it is made
    alpha, beta = [], []
    m = 0
    while True:
        basis[m] = w / np.linalg.norm(w)
        w = _block_solve(inv, c, basis[m])
        alpha.append(float(basis[m] @ w))
        w -= alpha[-1] * basis[m]
        if m:
            w -= beta[-1] * basis[m - 1]
        m += 1
        done = basis[:m]
        b = _orthogonalize(done, w)
        last = m == min(n, steps)
        # past 25 rows LAPACK's eigh switches to divide and conquer, and
        # with threaded BLAS one call costs about a solve of a scan rung
        # (~1.4 ms at m = 47 on 2 threads), so from m = 24 on the test runs
        # on every (m // 12)-th step only
        if m >= k and (m < 24 or m % (m // 12) == 0 or last):
            mus, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1)
                                    + np.diag(beta, -1))
            converged = np.all(np.abs(b * s[-1, -k:]) <= rtol * mus[-k:])
            if converged or last:
                return converged, done, mus, s
        if b <= 1e-12 * max(alpha):
            # an invariant subspace with fewer than k eigenpairs: go on
            # from a new direction orthogonal to it
            w = direction()
            _orthogonalize(done, w)
            b = 0.0
        beta.append(b)


def shift_invert_lanczos(h: BlockTridiagonal, k: int, floor: float,
                         guess: Sequence[float] = (),
                         tol: float = 1e-7, seed: int = 1234):
    """k lowest eigenpairs of the block-tridiagonal matrix h.

    Lanczos with full reorthogonalization on (h - sigma)^-1, from a start
    vector drawn from `seed` (`_splitmix64`), applied through a block LDL^T
    factor of h - sigma.
    By Sylvester's law of inertia the factor exists exactly when no
    eigenvalue lies at or below sigma, so it certifies that sigma + 1/mu for
    the largest Ritz values mu are the lowest eigenvalues; each is reported
    as the Rayleigh quotient of its Ritz vector (`quadratic_form`).  Given
    guesses (`guess`, tried in order) sigma first sits just below a guess,
    where the wanted mu are well separated.  A shift that
    does not factor is followed by the next lower one, and last by `floor`,
    which the caller certifies lies below the spectrum; the blocks are
    factored in order, so a shift too high for the first blocks fails at
    once.

    The iteration stops when |beta s_i| <= (tol / (||h||_inf + |sigma|)) mu_i
    for the k wanted Ritz pairs (beta the last Lanczos coefficient, s_i the
    last entry of the Ritz vector): ARPACK's test, with a tolerance that
    bounds ||h x - lambda x|| by about tol.  A cycle that has not converged
    in _CYCLE steps restarts from the sum of the wanted Ritz vectors, and
    just below the lowest Ritz value sigma + 1/mu (never below lambda0) when
    that shift factors; `ConvergenceError` follows _CYCLES cycles.  When the
    Krylov space closes before it holds k pairs, the iteration goes on from
    a new direction, the next draw from `seed`; as with any single-vector
    Krylov method, a multiple eigenvalue may be found fewer times than it
    occurs.

    Returns (values, vectors, residuals): values ascending, vectors as
    columns, residuals the independently recomputed ||h x - lambda x||.
    """
    n = h.n
    if not 1 <= k < min(n, _CYCLE):
        raise ComputationError(f"cannot take {k} eigenpairs of an order-{n} matrix "
                               f"in cycles of {_CYCLE} Lanczos steps")
    tried = []
    for sigma in [_near(g) for g in guess] + [floor]:
        if sigma < floor or (tried and sigma >= tried[-1][0]):
            continue
        inv = _block_ldlt(h, sigma)
        tried.append((sigma, inv is not None))
        if inv is not None:
            break
    else:
        raise ComputationError(f"h - sigma is not positive definite at the floor "
                               f"shift {floor:.6g}: the floor is not below the spectrum")

    draws = itertools.count()

    def direction() -> np.ndarray:
        return _splitmix64(seed, next(draws) * n, n)

    w = direction()
    solves = 0
    try:
        for _ in range(_CYCLES):
            rtol = tol / (h.norm_inf() + abs(sigma))
            converged, basis, mus, s = _lanczos(inv, h.c.tolist(), w, k,
                                                rtol, _CYCLE, direction)
            solves += len(basis)
            if converged:
                break
            w = basis.T @ s[:, -k:].sum(axis=1)
            near = _near(sigma + 1.0 / mus[-1])
            if near > sigma:
                trial = _block_ldlt(h, near)
                tried.append((near, trial is not None))
                if trial is not None:
                    inv, sigma = trial, near
        else:
            raise ConvergenceError(f"shift-invert Lanczos did not converge in "
                                   f"{solves} steps on order {n}")
    finally:
        _debug(__name__, "shift-invert on order %d: shifts %s, %d block solves", n,
               ", ".join(f"{s:.9g} ({'factored' if ok else 'not definite'})"
                         for s, ok in tried), solves)
    # the Ritz vectors of the k largest mu; their Rayleigh quotients are the
    # eigenvalues to (residual)^2 / gap, and unlike sigma + 1/mu they carry
    # no rounding of the shift and the solves
    vecs = basis.T @ s[:, :-k - 1:-1]
    vals = np.array([h.quadratic_form(x) for x in vecs.T])
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    residuals = np.array([np.linalg.norm(h.matvec(x) - lam * x)
                          for lam, x in zip(vals, vecs.T)])
    return vals, vecs, residuals
