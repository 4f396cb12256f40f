"""Symmetric eigensolvers used throughout the package.

Tridiagonal matrices of the 1D commands need no LAPACK: `sturm_count` is the
written-out LDL^T recurrence that counts the eigenvalues below a point,
`bisect_count` bisects any nondecreasing count (in an energy or in a
coupling), and `lowest_pair` adds an eigenvector by inverse iteration with a
written-out tridiagonal solve.  `sturm_smallest` is LAPACK's Sturm-count
bisection (stebz), kept for the whole-interval thresholds.  Banded matrices
(the 2D Hamiltonian, the folded periodic wrap) go to shift-invert Lanczos
(ARPACK) on a banded Cholesky factor (LAPACK pbtrf/pbtrs), whose existence
certifies that the shift lies below the spectrum.  scipy.linalg is imported
only inside the functions that call LAPACK, so the 1D commands never load it.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ComputationError, ConvergenceError

__all__ = [
    "TridiagonalSym",
    "sturm_count",
    "bisect_count",
    "lowest_pair",
    "sturm_smallest",
    "upper_band",
    "shift_invert_lowest",
]

_log = logging.getLogger(__name__)

# a shift tried below a guess of the lowest eigenvalue sits this far below it,
# relative to max(1, |guess|)
_NEAR_MARGIN = 0.05


@dataclass(frozen=True)
class TridiagonalSym:
    """Symmetric tridiagonal matrix; `corner` adds the periodic wrap entry."""

    d: np.ndarray
    e: np.ndarray
    corner: Optional[float] = None

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        e = np.asarray(self.e, dtype=float)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)
        if len(e) != len(d) - 1:
            raise ComputationError("off-diagonal must have length n-1")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ComputationError("non-finite matrix entries")

    @property
    def n(self) -> int:
        return len(self.d)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.d * v
        out[:-1] += self.e * v[1:]
        out[1:] += self.e * v[:-1]
        if self.corner is not None:
            out[0] += self.corner * v[-1]
            out[-1] += self.corner * v[0]
        return out


def sturm_count(d: Sequence[float], e2: Sequence[float], x: float) -> int:
    """Number of eigenvalues below x of the symmetric tridiagonal matrix with
    diagonal d and squared off-diagonal e2 (lists are fastest).

    By Sylvester's law of inertia it is the number of negative pivots of the
    LDL^T factorization of T - x.  As in LAPACK's stebz, a pivot smaller in
    magnitude than pivmin is replaced by -pivmin, so the count is exact for
    a matrix within rounding of T.
    """
    pivmin = sys.float_info.min * max(1.0, max(e2, default=0.0))
    count = 0
    q = 1.0
    for di, b2 in zip(d, chain((0.0,), e2)):
        q = di - x - b2 / q
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
    return count


def bisect_count(count: Callable[[float], int], lo: float, hi: float,
                 tol: float) -> tuple[float, float, int]:
    """Bracket the point where a nondecreasing integer function leaves 0.

    On entry and on exit count(lo) == 0 < count(hi); on exit hi - lo <= tol,
    or lo and hi are adjacent floats.  Returns (lo, hi, bisection steps).
    """
    steps = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        steps += 1
        if count(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi, steps


def lowest_pair(T: TridiagonalSym) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a non-periodic tridiagonal matrix, without LAPACK.

    Bisection of `sturm_count` brackets the lowest eigenvalue, from one
    below the Gershgorin bound to one above the Rayleigh quotient of the
    constant vector, to width tol = 1e-15 ||T||.  The bracket's lower end
    sigma lies below the spectrum, so T - sigma is positive definite and its
    LDL^T factor needs no pivoting.  Three solves with it (inverse iteration
    from the constant vector) give the eigenvector, its error shrinking by
    (e0 - sigma) / (e1 - sigma) per solve, and its Rayleigh quotient the
    eigenvalue, certified by count(e0 - tol) == 0 < count(e0 + tol).
    Returns (e0, unit eigenvector).
    """
    if T.corner is not None:
        raise ComputationError("Sturm counts are not defined for the periodic wrap")
    d, e = T.d.tolist(), T.e.tolist()
    e2 = [b * b for b in e]
    ae = np.abs(T.e)
    radius = np.concatenate(([0.0], ae)) + np.concatenate((ae, [0.0]))
    tol = 1e-15 * max(1.0, float(np.max(np.abs(T.d) + radius)))
    lo = float(np.min(T.d - radius)) - 1.0
    hi = float(np.sum(T.d) + 2.0 * np.sum(T.e)) / T.n + 1.0
    lo, _, _ = bisect_count(lambda x: sturm_count(d, e2, x), lo, hi, tol)

    # count(lo) == 0: these are the pivots sturm_count found, all positive
    n = T.n
    piv = [d[0] - lo]
    for i in range(1, n):
        piv.append(d[i] - lo - e2[i - 1] / piv[i - 1])
    v = [1.0] * n
    for _ in range(3):
        # forward, then back substitution through L D L^T, L_i = e_{i-1}/piv_{i-1}
        for i in range(1, n):
            v[i] -= e[i - 1] / piv[i - 1] * v[i - 1]
        v[-1] /= piv[-1]
        for i in range(n - 2, -1, -1):
            v[i] = (v[i] - e[i] * v[i + 1]) / piv[i]
        scale = max(map(abs, v))
        v = [x / scale for x in v]
    vec = np.array(v)
    vec /= np.linalg.norm(vec)
    # the Rayleigh quotient as sum c_i v_i^2 - sum e_i (v_{i+1} - v_i)^2, with
    # c the row sums of T: it avoids the cancellation of the large diagonal
    # against the off-diagonal
    c = T.d.copy()
    c[1:] += T.e
    c[:-1] += T.e
    e0 = float(c @ vec**2 - T.e @ np.diff(vec) ** 2)
    if sturm_count(d, e2, e0 - tol) or not sturm_count(d, e2, e0 + tol):
        raise ComputationError(
            f"lowest eigenvalue {e0!r} is not certified by the Sturm counts "
            f"at +-{tol:.3g}")
    return e0, vec


def sturm_smallest(T: TridiagonalSym, m: int = 1, tol: float = 1e-12) -> np.ndarray:
    """The m smallest eigenvalues, each bracketed to width <= tol by LAPACK's
    Sturm-count bisection (stebz); non-periodic only."""
    from scipy.linalg import eigh_tridiagonal

    if T.corner is not None:
        raise ComputationError("Sturm counts are not defined for the periodic wrap")
    if not 1 <= m <= T.n:
        raise ComputationError(f"cannot take {m} eigenvalues of an order-{T.n} matrix")
    return eigh_tridiagonal(T.d, T.e, eigvals_only=True, select="i",
                            select_range=(0, m - 1), tol=tol)


def upper_band(a, shift: float = 0.0, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Upper band of the symmetric sparse matrix a - shift I in LAPACK layout:
    row b - d holds superdiagonal d, Fortran order so it factors in place.
    `out`, a band of the same shape, is overwritten instead of allocating."""
    dia = a.todia()
    b = int(dia.offsets.max())
    band = np.empty((b + 1, a.shape[0]), order="F") if out is None else out
    band[:] = 0.0
    for d, diag in zip(dia.offsets, dia.data):
        if d >= 0:
            band[b - d] = diag
    band[b] -= shift
    return band


def shift_invert_lowest(a, k: int, floor: float, guess: Optional[float] = None,
                        tol: float = 1e-7, seed: int = 1234):
    """k lowest eigenpairs of the symmetric sparse matrix `a`.

    Shift-invert Lanczos (ARPACK) on (a - sigma)^-1 from a deterministic
    start vector, applied through a banded Cholesky factor.  By Sylvester's
    law of inertia the factor exists exactly when no eigenvalue lies at or
    below sigma, so it certifies that sigma + 1/mu for the largest Ritz
    values mu are the lowest eigenvalues.  With a `guess`, sigma first sits
    just below it, where the wanted mu are well separated; if that does not
    factor, sigma falls back to `floor`, which the caller certifies lies
    below the spectrum.  Every shift is factored in place in one band array.

    ARPACK bounds the residual of (a - sigma)^-1 relative to mu; with its
    tolerance divided by a bound on ||a - sigma||, a converged pair has
    ||a x - lambda x|| <= tol, up to rounding of order eps ||a||.

    Returns (values, vectors, residuals): values ascending, vectors as
    columns, residuals the independently recomputed ||a x - lambda x||.
    """
    # imported here, so that commands without a banded solve never load them
    import scipy.sparse.linalg as spla
    from scipy.linalg import cho_solve_banded, cholesky_banded

    n = a.shape[0]
    shifts = [floor]
    if guess is not None:
        near = guess - _NEAR_MARGIN * max(1.0, abs(guess))
        if near > floor:
            shifts.insert(0, near)
    tried = []
    band = None
    for sigma in shifts:
        band = upper_band(a, sigma, out=band)
        try:
            upper = cholesky_banded(band, overwrite_ab=True, check_finite=False)
        except np.linalg.LinAlgError:
            tried.append((sigma, False))
            continue
        tried.append((sigma, True))
        break
    else:
        raise ComputationError(f"a - sigma is not positive definite at the floor "
                               f"shift {floor:.6g}: the floor is not below the spectrum")

    solves = 0

    def solve(v):
        nonlocal solves
        solves += 1
        return cho_solve_banded((upper, False), v, check_finite=False)

    inverse = spla.LinearOperator((n, n), dtype=float, matvec=solve)
    # ||a - sigma||_2 <= ||a||_inf + |sigma| for symmetric a
    scale = spla.norm(a, np.inf) + abs(sigma)
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        mus, vecs = spla.eigsh(inverse, k=k, which="LA", tol=tol / scale, v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"shift-invert Lanczos stalled: {exc}") from exc
    finally:
        _log.debug("shift-invert on order %d: shifts %s, %d banded solves", n,
                   ", ".join(f"{s:.9g} ({'factored' if ok else 'not definite'})"
                             for s, ok in tried), solves)
    vals = sigma + 1.0 / mus
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    residuals = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
    return vals, vecs, residuals
