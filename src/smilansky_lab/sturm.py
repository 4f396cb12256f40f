"""Sturm counts of symmetric tridiagonal matrices, on plain Python lists.

The 1D thresholds and couplings are bisections of these counts, and the
ground state behind the Weyl quasi-modes adds an eigenvector by inverse
iteration (`chain_lowest_pair`); they need nothing else.  This module, like
the whole 1D and Weyl path (`model`, `oned`, `bracketing`, `quadrature`,
`weyl`, `cli`), imports only the standard library.
"""

from __future__ import annotations

import math
import sys
from itertools import chain
from typing import Callable, Optional, Sequence

from .errors import ComputationError

# the bracket of chain_bracket starts this far outside the spectrum, relative
# to ||T||_inf, once that exceeds 1 (at 1e12): far above the rounding
# eps ||T||_inf of its ends and of the counts
_MARGIN_REL = 1e-12

__all__ = ["sturm_count", "cyclic_sturm_count", "bisect_count", "chain_norm",
           "chain_bracket", "chain_lowest_pair"]


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
    entry `corner` (None for none): bisection of the Sturm count from below
    the Gershgorin bound to above the Rayleigh quotient of the constant
    vector, both by max(1, _MARGIN_REL ||T||_inf), a margin that no
    rounding of the entries swallows.  count(lo) == 0, so T - lo is positive
    definite."""
    if corner is None:
        e2 = [b * b for b in e]

        def count(x: float) -> int:
            return sturm_count(d, e2, x)
        wrap = 0.0
    else:
        def count(x: float) -> int:
            return cyclic_sturm_count(d, e, corner, x)
        wrap = 2.0 * corner
    margin = max(1.0, _MARGIN_REL * chain_norm(d, e, corner))
    lo = min(di - ri for di, ri in zip(d, _radii(e, corner))) - margin
    hi = (sum(d) + 2.0 * sum(e) + wrap) / len(d) + margin
    lo, hi, _ = bisect_count(count, lo, hi, tol)
    return lo, hi


def chain_lowest_pair(d: Sequence[float], e: Sequence[float]) -> tuple[float, list[float]]:
    """Lowest eigenpair of the symmetric tridiagonal matrix with diagonal d
    and off-diagonal e (no periodic wrap).

    `chain_bracket` brackets the lowest eigenvalue to width
    tol = 1e-15 ||T||.  The bracket's lower end sigma lies below the
    spectrum, so T - sigma is positive definite and its LDL^T factor needs
    no pivoting.  Three solves with it (inverse iteration from the constant
    vector) give the eigenvector, its error shrinking by
    (e0 - sigma) / (e1 - sigma) per solve, and its Rayleigh quotient the
    eigenvalue, certified by count(e0 - tol) == 0 < count(e0 + tol).
    Returns (e0, unit eigenvector).
    """
    if not all(map(math.isfinite, chain(d, e))):
        raise ComputationError("non-finite matrix entries")
    n = len(d)
    tol = 1e-15 * max(1.0, chain_norm(d, e, None))
    lo, _ = chain_bracket(d, e, None, tol)

    # count(lo) == 0 makes the pivots below, the ones sturm_count finds, all
    # positive; the bracket's margin keeps it so at any size of the entries
    e2 = [b * b for b in e]
    if sturm_count(d, e2, lo):
        raise ComputationError(
            f"T - sigma is not positive definite at the bracket's lower end "
            f"sigma = {lo!r}: the entries exceed what float64 resolves")
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
    norm = math.sqrt(math.fsum(x * x for x in v))
    v = [x / norm for x in v]
    # the Rayleigh quotient as sum c_i v_i^2 - sum e_i (v_{i+1} - v_i)^2, with
    # c the row sums of T: it avoids the cancellation of the large diagonal
    # against the off-diagonal
    c = [di + a + b for di, a, b in zip(d, chain((0.0,), e), chain(e, (0.0,)))]
    e0 = math.fsum(chain((ci * x * x for ci, x in zip(c, v)),
                         (-b * (y - x) ** 2 for b, x, y in zip(e, v, v[1:]))))
    if sturm_count(d, e2, e0 - tol) or not sturm_count(d, e2, e0 + tol):
        raise ComputationError(
            f"lowest eigenvalue {e0!r} is not certified by the Sturm counts "
            f"at +-{tol:.3g}")
    return e0, v
