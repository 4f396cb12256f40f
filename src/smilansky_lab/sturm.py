"""Sturm counts of symmetric tridiagonal matrices, on plain Python lists.

The 1D thresholds and couplings are bisections of these counts.  The ground
state behind the Weyl quasi-modes adds its eigenvector by inverse iteration
(`lowest_eigenvector`), at a shift below the spectrum that one more count
certifies; they need nothing else.  This module, like the whole 1D and Weyl
path (`model`, `oned`, `bracketing`, `quadrature`, `weyl`, `cli`), imports
only the standard library, and of it neither `logging` nor any module that
builds record classes: the records are namedtuples.
"""

from __future__ import annotations

import math
import sys
from itertools import chain
from typing import Callable, Sequence

from .errors import ComputationError

__all__ = ["sturm_count", "cyclic_sturm_count", "bisect_count", "lowest_eigenvector"]


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


def cyclic_sturm_count(d: Sequence[float], e: Sequence[float], corner: float,
                       x: float) -> int:
    """`sturm_count` of the periodic wrap: off-diagonal e (signed, lists are
    fastest) and the entry `corner` at (0, n-1), n >= 3.

    Nodes 0 ... n-2 are eliminated as in `sturm_count`, and their fill in
    the column of node n-1 is carried along: b_0 = corner,
    b_i = -e_{i-1} b_{i-1} / q_{i-1}, plus e_{n-2} at i = n-2.  The last pivot
    is the Schur complement s = d_{n-1} - x - sum b_i^2 / q_i, and the count
    is #{q_i < 0} + [s < 0].
    """
    n = len(d)
    pivmin = sys.float_info.min * max(1.0, max(b * b for b in e), corner * corner)
    count = 0
    q = 1.0
    b = corner
    fill = 0.0
    for i in range(n - 1):
        if i:
            b = -e[i - 1] * b / q
            q = d[i] - x - e[i - 1] ** 2 / q
        else:
            q = d[0] - x
        if i == n - 2:
            b += e[i]
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
        fill += b * b / q
    return count + (d[n - 1] - x - fill < pivmin)


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


def lowest_eigenvector(d: Sequence[float], e: Sequence[float], sigma: float) -> list[float]:
    """Unit eigenvector of the lowest eigenvalue of the symmetric tridiagonal
    matrix T with diagonal d and off-diagonal e (no periodic wrap), from a
    shift sigma below its spectrum.

    sturm_count(d, e^2, sigma) == 0 certifies the shift: the pivots of the
    LDL^T factorization of T - sigma, the ones that count finds, are all
    positive, so the factor needs no pivoting.  Three solves with it from
    the constant vector give the eigenvector, its error shrinking by
    (e0 - sigma) / (e1 - sigma) per solve.
    """
    if not all(map(math.isfinite, chain(d, e, (sigma,)))):
        raise ComputationError("non-finite matrix entries")
    n = len(d)
    e2 = [b * b for b in e]
    if sturm_count(d, e2, sigma):
        raise ComputationError(
            f"T - sigma is not positive definite at the shift sigma = {sigma!r}")
    piv = [d[0] - sigma]
    for i in range(1, n):
        piv.append(d[i] - sigma - e2[i - 1] / piv[i - 1])
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
    norm = math.sqrt(math.fsum(x * x for x in v))
    return [x / norm for x in v]
