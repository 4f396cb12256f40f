"""Sturm counts of symmetric tridiagonal matrices with a constant
off-diagonal, on plain Python lists.

Every chain of the package has one off-diagonal entry (-1/h^2), so the
kernels take it as one float.  Each returns its count and its last pivot,
which changes sign where the count leaves 0 at the lowest eigenvalue.  The
1D thresholds and couplings are bisections of these counts (`bisect_count`),
which the last pivot steers but never decides.  The ground state behind the
Weyl quasi-modes adds its eigenvector by inverse iteration
(`lowest_eigenvector`), at a shift below the spectrum that its own
factorization certifies; they need nothing else.  This module, like the
whole 1D and Weyl path (`model`, `oned`, `bracketing`, `quadrature`,
`weyl`, `cli`), imports only the standard library, and of it neither
`logging` nor any module that builds record classes: the records are
namedtuples.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Optional, Sequence

from .errors import ComputationError

__all__ = ["sturm_count", "cyclic_sturm_count", "bisect_count", "lowest_eigenvector"]


def sturm_count(d: Sequence[float], b2: float, x: float) -> tuple[int, float]:
    """Number of eigenvalues below x of the symmetric tridiagonal matrix T
    with diagonal d (a list is fastest) and every squared off-diagonal entry
    b2, and the last pivot.

    By Sylvester's law of inertia the count is the number of negative pivots
    of the LDL^T factorization of T - x.  As in LAPACK's stebz, a pivot
    smaller in magnitude than pivmin is replaced by -pivmin, so the count is
    exact for a matrix within rounding of T.
    """
    pivmin = sys.float_info.min * max(1.0, b2)
    count = 0
    # b2 / inf is the 0.0 of the first row, which has no off-diagonal
    q = math.inf
    for di in d:
        q = di - x - b2 / q
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
    return count, q


def cyclic_sturm_count(d: Sequence[float], e: float, corner: float,
                       x: float) -> tuple[int, float]:
    """`sturm_count` of the periodic wrap: every off-diagonal entry e
    (signed) and the entry `corner` at (0, n-1), n >= 3.

    Nodes 0 ... n-2 are eliminated as in `sturm_count`, and their fill in
    the column of node n-1 is carried along: b_0 = corner,
    b_i = -e b_{i-1} / q_{i-1}, plus e at i = n-2.  The last pivot is the
    Schur complement s = d_{n-1} - x - sum b_i^2 / q_i, which is returned
    with the count #{q_i < 0} + [s < 0].
    """
    n = len(d)
    e2 = e**2
    pivmin = sys.float_info.min * max(1.0, e2, corner * corner)
    count = 0
    q = math.inf
    b = corner
    fill = 0.0
    for i in range(n - 1):
        q = d[i] - x - e2 / q
        if i == n - 2:
            b += e
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
        fill += b * b / q
        b = -e * b / q
    s = d[n - 1] - x - fill
    return count + (s < pivmin), s


def bisect_count(count: Callable[[float], tuple[int, float]], lo: float,
                 hi: float, tol: float) -> tuple[float, float, int]:
    """Bracket the point where a nondecreasing integer function n leaves 0.

    count(x) returns (n(x), g(x)): g a last pivot, which changes sign where
    n leaves 0.  n need only be monotone beyond tol, the rounding level of
    the count: n(x) <= n(y) where y - x > tol.  On entry
    n(lo) == 0 < n(hi); on exit hi - lo <= tol, or lo and hi are adjacent
    floats.  Returns (lo, hi, steps), exactly those of the plain bisection
    that counts every midpoint, after counting at most steps + 2 points.

    The plain bisection is replayed beside a certified bracket a < b of
    counted points, n(a) == 0 < n(b).  A midpoint more than tol below a
    counts 0 and one more than tol above b at least 1, so only the
    midpoints inside (a, b) or within tol of its ends are counted.  Before
    one is, while (a, b) is wider than 8 tol, n(b) == 1 and
    g(a) > 0 > g(b), (a, b) is narrowed at the zero of the Moebius function
    of x through g at a, at b and at the end last replaced (near the lowest
    eigenvalue, g = det(T - x) / det(T' - x), T' the leading block, has a
    zero there and a pole at the lowest eigenvalue of T'), or by regula
    falsi while two points are known.  After two such steps that moved the
    same end, the next aims past the zero, away from that end, by a
    hundredth of its distance or tol/2, as the Illinois rule does.  Each
    step spends one of the counts that the replay skipped, or one of two
    more.  g only steers: every end of (a, b) is certified by its own count.
    """
    a, b = lo, hi
    ga = gb = None  # g(a) > 0 and g(b) < 0 with n(b) == 1, where counted
    last = None  # (x, g) of the end that the last move replaced
    side = repeats = 0  # the end that the last steps moved (-1 a, +1 b), how often
    credit = 2
    steps = 0

    def narrow(x: float) -> int:
        nonlocal a, b, ga, gb, last
        n, g = count(x)
        if a < x < b:
            if n:
                if gb is not None:
                    last = b, gb
                b, gb = x, g if n == 1 and g < 0.0 else None
            else:
                if ga is not None:
                    last = a, ga
                a, ga = x, g if g > 0.0 else None
        return n

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        steps += 1
        while (credit and b - a > 8.0 * tol and a < mid < b
               and ga is not None and gb is not None):
            x = None if last is None else _mobius_zero(a, ga, b, gb, *last)
            if x is None or not a < x < b:
                x = a + (b - a) * (ga / (ga - gb))
            if repeats > 1:
                end = a if side < 0 else b
                past = x + math.copysign(max(0.01 * abs(x - end), 0.5 * tol), x - end)
                if a < past < b:
                    x = past
            if not a < x < b:
                break
            credit -= 1
            moved = 1 if narrow(x) else -1
            repeats = repeats + 1 if moved == side else 1
            side = moved
        if mid < a - tol:
            lo = mid
            credit += 1
        elif mid > b + tol:
            hi = mid
            credit += 1
        else:
            repeats = 0
            if narrow(mid):
                hi = mid
            else:
                lo = mid
    return lo, hi, steps


def _mobius_zero(x0: float, g0: float, x1: float, g1: float, x2: float,
                 g2: float) -> Optional[float]:
    """The zero of the Moebius function through (x_i, g_i), from the cross
    ratio that it keeps: CR(zero, x0, x1, x2) = CR(0, g0, g1, g2).  None
    where that ratio is not finite."""
    if g2 == 0.0 or g1 == g0:
        return None
    rho = g0 * (g1 - g2) / (g2 * (g1 - g0))
    den = (x1 - x2) - rho * (x1 - x0)
    if den == 0.0:
        return None
    return x0 + rho * (x0 - x2) * (x1 - x0) / den


def lowest_eigenvector(d: Sequence[float], e: float, sigma: float) -> list[float]:
    """Unit eigenvector of the lowest eigenvalue of the symmetric tridiagonal
    matrix T with diagonal d and every off-diagonal entry e (no periodic
    wrap), from a shift sigma below its spectrum.

    The LDL^T factor of T - sigma certifies the shift where each pivot, as
    in `sturm_count`, passes pivmin; it then needs no pivoting.  Three
    solves with it from the constant vector give the eigenvector, its
    error shrinking by (e0 - sigma) / (e1 - sigma) per solve.
    """
    if not all(map(math.isfinite, (*d, e, sigma))):
        raise ComputationError("non-finite matrix entries")
    n = len(d)
    e2 = e * e
    pivmin = sys.float_info.min * max(1.0, e2)
    piv, q = [], math.inf
    for di in d:
        q = di - sigma - e2 / q
        if q < pivmin:
            raise ComputationError(
                f"T - sigma is not positive definite at the shift sigma = {sigma!r}")
        piv.append(q)
    v = [1.0] * n
    for _ in range(3):
        # forward, then back substitution through L D L^T, L_i = e/piv_{i-1}
        for i in range(1, n):
            v[i] -= e / piv[i - 1] * v[i - 1]
        v[-1] /= piv[-1]
        for i in range(n - 2, -1, -1):
            v[i] = (v[i] - e * v[i + 1]) / piv[i]
        scale = max(map(abs, v))
        v = [x / scale for x in v]
    norm = math.sqrt(math.fsum(x * x for x in v))
    return [x / norm for x in v]
