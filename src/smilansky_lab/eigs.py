"""Symmetric eigensolvers used throughout the package.

Tridiagonal matrices go to LAPACK: Sturm-count bisection (stebz) brackets
each eigenvalue, inverse iteration (stein) gives eigenvectors.  Lanczos with
full reorthogonalization and a deterministic start vector serves the periodic
wrap, which has no tridiagonal LAPACK solver, and is an independent oracle
for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ComputationError

__all__ = [
    "TridiagonalSym",
    "LanczosOptions",
    "sturm_smallest",
    "lanczos_smallest",
]


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


@dataclass(frozen=True)
class LanczosOptions:
    max_iter: int = 400
    tol: float = 1e-8
    seed: int = 1234

    def __post_init__(self):
        if self.tol <= 0:
            raise ComputationError("Lanczos tolerance must be positive")


def _check_symmetry(apply: Callable, n: int, rng: np.random.Generator) -> None:
    for _ in range(3):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        au, av = apply(u), apply(v)
        scale = max(np.linalg.norm(au) * np.linalg.norm(v),
                    np.linalg.norm(av) * np.linalg.norm(u), 1.0)
        if abs(u @ av - v @ au) > 1e-10 * scale:
            raise ComputationError("operator failed the probabilistic symmetry check")


def lanczos_smallest(apply: Callable[[np.ndarray], np.ndarray], n: int, k: int = 1,
                     opts: LanczosOptions = LanczosOptions()):
    """k smallest Ritz pairs of a symmetric operator given by its matvec.

    Returns (values, vectors, residuals, converged): values ascending,
    vectors as columns, residuals the independently recomputed ||A v - t v||.
    When the iteration budget runs out the best available pairs are returned
    with converged=False.
    """
    rng = np.random.default_rng(opts.seed)
    _check_symmetry(apply, n, rng)

    m_max = min(opts.max_iter, n)
    Q = np.empty((n, m_max))
    alphas = np.empty(m_max)
    betas = np.empty(m_max)

    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    Q[:, 0] = q
    scale = 1.0
    theta = None
    m = 0
    for m in range(1, m_max + 1):
        w = apply(Q[:, m - 1])
        alphas[m - 1] = Q[:, m - 1] @ w
        # full reorthogonalization, two passes for 1e-10 level orthogonality
        w -= Q[:, :m] @ (Q[:, :m].T @ w)
        w -= Q[:, :m] @ (Q[:, :m].T @ w)
        beta = np.linalg.norm(w)
        betas[m - 1] = beta
        scale = max(scale, abs(alphas[m - 1]) + beta)
        if m >= max(2 * k, 8) and (m % 10 == 0 or beta <= 1e-14 * scale or m == m_max):
            theta, S = np.linalg.eigh(_small_tridiag(alphas[:m], betas[: m - 1]))
            kk = min(k, m)
            bounds = np.abs(beta * S[-1, :kk])
            if np.all(bounds <= opts.tol * scale) or beta <= 1e-14 * scale:
                break
        if m < m_max:
            if beta <= 1e-14 * scale:
                # invariant subspace hit; restart with a fresh orthogonal direction
                w = rng.standard_normal(n)
                w -= Q[:, :m] @ (Q[:, :m].T @ w)
                beta = np.linalg.norm(w)
                betas[m - 1] = 0.0
            Q[:, m] = w / beta

    theta, S = np.linalg.eigh(_small_tridiag(alphas[:m], betas[: m - 1]))
    kk = min(k, m)
    values = theta[:kk]
    vectors = Q[:, :m] @ S[:, :kk]
    vectors /= np.linalg.norm(vectors, axis=0)
    residuals = np.array([
        np.linalg.norm(apply(vectors[:, i]) - values[i] * vectors[:, i])
        for i in range(kk)
    ])
    converged = bool(np.all(residuals <= opts.tol * scale))
    if not converged and m == m_max and m < n:
        return values, vectors, residuals, False
    return values, vectors, residuals, converged


def _small_tridiag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    t = np.diag(a)
    if len(b):
        t += np.diag(b, 1) + np.diag(b, -1)
    return t
