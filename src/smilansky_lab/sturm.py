"""Sturm counts of symmetric tridiagonal matrices, on plain Python lists.

The 1D thresholds and couplings are bisections of these counts, and they
need nothing else: this module, like the whole 1D path (`model`, `oned`,
`bracketing`, `cli`), imports only the standard library.  `eigs` builds its
numpy matrix solvers on the same counts.
"""

from __future__ import annotations

import sys
from itertools import chain
from typing import Callable, Optional, Sequence

__all__ = ["sturm_count", "cyclic_sturm_count", "bisect_count", "chain_norm",
           "chain_bracket"]


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


def _radii(e: Sequence[float], corner: Optional[float]) -> list[float]:
    """Gershgorin radii: the absolute off-diagonal row sums."""
    ae = [abs(b) for b in e]
    r = [x + y for x, y in zip([0.0] + ae, ae + [0.0])]
    if corner is not None:
        r[0] += abs(corner)
        r[-1] += abs(corner)
    return r


def chain_norm(d: Sequence[float], e: Sequence[float],
               corner: Optional[float]) -> float:
    """The largest absolute row sum of the tridiagonal matrix with diagonal
    d, off-diagonal e and the periodic wrap entry `corner`: a bound on its
    2-norm."""
    return max(abs(di) + ri for di, ri in zip(d, _radii(e, corner)))


def chain_bracket(d: Sequence[float], e: Sequence[float], corner: Optional[float],
                  tol: float) -> tuple[float, float]:
    """Bracket (lo, hi), hi - lo <= tol, of the lowest eigenvalue of the
    tridiagonal matrix with diagonal d, off-diagonal e and the periodic wrap
    entry `corner` (None for none): bisection of the Sturm count from one
    below the Gershgorin bound to one above the Rayleigh quotient of the
    constant vector.  count(lo) == 0, so T - lo is positive definite."""
    if corner is None:
        e2 = [b * b for b in e]

        def count(x: float) -> int:
            return sturm_count(d, e2, x)
        wrap = 0.0
    else:
        def count(x: float) -> int:
            return cyclic_sturm_count(d, e, corner, x)
        wrap = 2.0 * corner
    lo = min(di - ri for di, ri in zip(d, _radii(e, corner))) - 1.0
    hi = (sum(d) + 2.0 * sum(e) + wrap) / len(d) + 1.0
    lo, hi, _ = bisect_count(count, lo, hi, tol)
    return lo, hi
