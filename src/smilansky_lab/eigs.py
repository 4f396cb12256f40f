"""Symmetric eigensolvers used throughout the package.

Tridiagonal matrices go to LAPACK: Sturm-count bisection (stebz) brackets
each eigenvalue, inverse iteration (stein) gives eigenvectors.  Banded
matrices (the 2D Hamiltonian, the folded periodic wrap) go to shift-invert
Lanczos (ARPACK) on a banded Cholesky factor (LAPACK pbtrf/pbtrs), whose
existence certifies that the shift lies below the spectrum.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh_tridiagonal

from .errors import ComputationError, ConvergenceError

__all__ = [
    "TridiagonalSym",
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


def sturm_smallest(T: TridiagonalSym, m: int = 1, tol: float = 1e-12) -> np.ndarray:
    """The m smallest eigenvalues, each bracketed to width <= tol by LAPACK's
    Sturm-count bisection (stebz); non-periodic only."""
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
    # imported here, so that commands without a banded solve never load it
    import scipy.sparse.linalg as spla

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
