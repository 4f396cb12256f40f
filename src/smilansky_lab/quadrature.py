"""Gauss-Legendre panel quadrature and Hermite interpolation.

All integrals in this package run over smooth piecewise-defined integrands
with known breakpoints, so composite Gauss-Legendre panels of fixed order
are enough; no adaptivity is needed.  The integrands' C^2 pieces
(ground-state interpolant, cutoff bridges) are quintic Hermite interpolants
of node values and first two derivatives.  The rules, the panels and the
quintic Hermite evaluator run on floats and lists with `math`, so the Weyl
quasi-modes need no numpy.  Tabulated potential profiles are C^1 monotone
cubic Hermite (PCHIP) interpolants of node values; their node slopes, point
values and exact maximum slope run on lists too, so the module imports no
numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from typing import Sequence

__all__ = ["gauss_rule", "gauss_panels", "linspace", "log_panels", "quintic_hermite",
           "quintic_local", "pchip_slopes", "cubic_hermite", "cubic_hermite_max_slope"]


@lru_cache(maxsize=None)
def gauss_rule(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes (increasing) and weights of the `order`-point Gauss-Legendre
    rule on [-1, 1]: Newton's method on P_order from the asymptotic root
    estimates, with weights 2 / ((1 - x^2) P'_order(x)^2)."""
    n = order

    def legendre(x: float) -> tuple[float, float]:
        """P_n(x) and P_n'(x) by the three-term recurrence."""
        p0, p1 = 1.0, x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    # the roots in (0, 1), largest first, and x = 0 for odd n
    pos = []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, dp = legendre(x)
            x -= p / dp
            if abs(p / dp) <= 1e-15:
                break
        pos.append((x, 2.0 / ((1.0 - x * x) * legendre(x)[1] ** 2)))
    middle = [(0.0, 2.0 / legendre(0.0)[1] ** 2)] if n % 2 else []
    nodes, weights = zip(*([(-x, w) for x, w in pos] + middle + pos[::-1]))
    return nodes, weights


def gauss_panels(edges: Sequence[float], order: int) -> tuple[list[float], list[float]]:
    """Nodes and weights of a composite Gauss-Legendre rule on the given panel edges."""
    x, w = gauss_rule(order)
    nodes: list[float] = []
    weights: list[float] = []
    for a, b in zip(edges, edges[1:]):
        mid = 0.5 * (b + a)
        half = 0.5 * (b - a)
        nodes.extend(mid + half * xi for xi in x)
        weights.extend(half * wi for wi in w)
    return nodes, weights


def linspace(lo: float, hi: float, num: int) -> list[float]:
    """`num` >= 2 evenly spaced points from lo to hi, both included, each
    lo + i (hi - lo)/(num - 1) as numpy.linspace rounds it."""
    step = (hi - lo) / (num - 1)
    return [i * step + lo for i in range(num - 1)] + [hi]


def log_panels(lo: float, hi: float, per_unit: float) -> list[float]:
    """Panel edges geometric in z, i.e. uniform in ln z, for integrands
    smooth in ln z; the first edge is lo and the last hi, exactly."""
    if not (0.0 < lo < hi):
        raise ValueError("log_panels requires 0 < lo < hi")
    span = math.log(hi / lo)
    n = max(2, math.ceil(per_unit * span))
    edges = [lo * math.exp(u) for u in linspace(0.0, span, n + 1)]
    edges[0], edges[-1] = lo, hi
    return edges


def quintic_local(s: float, width: float, left: Sequence[float],
                  right: Sequence[float]) -> tuple[float, float, float]:
    """Value, first and second derivative at the local coordinate s of the
    quintic on [0, width] that matches the value, first and second
    derivative `left` at 0 and `right` at `width`.

    In u = s / width it is y0 + a1 u + a2 u^2/2 + c3 u^3 + c4 u^4 + c5 u^5,
    a_j and b_j the scaled derivatives width^j y^(j) at the two ends; the
    cubic to quintic coefficients take the ends' difference y1 - y0, which
    keeps the rounding of the derivatives at eps |y1 - y0|, not eps |y|."""
    y0, d0, dd0 = left
    y1, d1, dd1 = right
    a1, a2 = width * d0, width * width * dd0
    b1, b2 = width * d1, width * width * dd1
    dy = y1 - y0
    c3 = 10.0 * dy - 6.0 * a1 - 1.5 * a2 - 4.0 * b1 + 0.5 * b2
    c4 = -15.0 * dy + 8.0 * a1 + 1.5 * a2 + 7.0 * b1 - b2
    c5 = 6.0 * dy - 3.0 * a1 - 0.5 * a2 - 3.0 * b1 + 0.5 * b2
    u = s / width
    return (y0 + u * (a1 + u * (0.5 * a2 + u * (c3 + u * (c4 + u * c5)))),
            (a1 + u * (a2 + u * (3.0 * c3 + u * (4.0 * c4 + u * (5.0 * c5))))) / width,
            (a2 + u * (6.0 * c3 + u * (12.0 * c4 + u * (20.0 * c5)))) / (width * width))


def quintic_hermite(x: Sequence[float], y: Sequence[float], dy: Sequence[float],
                    d2y: Sequence[float], t: float) -> tuple[float, float, float]:
    """Value, first and second derivative at `t` of the C^2 piecewise quintic
    matching the values `y`, first derivatives `dy` and second derivatives
    `d2y` at the increasing nodes `x`.  Points outside [x[0], x[-1]] are
    extrapolated from the end intervals."""
    i = min(max(bisect_right(x, t) - 1, 0), len(x) - 2)
    return quintic_local(t - x[i], x[i + 1] - x[i], (y[i], dy[i], d2y[i]),
                         (y[i + 1], dy[i + 1], d2y[i + 1]))


def _sign(v: float) -> int:
    """-1, 0 or 1, as numpy.sign gives it for a finite float."""
    return (v > 0.0) - (v < 0.0)


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, clipped to keep the end interval
    monotone (Moler, *Numerical Computing with MATLAB*, sec. 3.6)."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip_slopes(x: Sequence[float], y: Sequence[float]) -> list[float]:
    """Fritsch-Butland node slopes of the monotone piecewise cubic through
    (x, y), x strictly increasing with at least 3 nodes: the weighted harmonic
    mean of the adjacent secants in the interior (zero at a local extremum or
    next to a flat secant) and a clipped one-sided estimate at the ends.
    Every slope then lies between 0 and 3 times each adjacent secant, so no
    interval overshoots its end values."""
    h = [b - a for a, b in zip(x, x[1:])]
    m = [(b - a) / hi for a, b, hi in zip(y, y[1:], h)]
    d = [_pchip_end_slope(h[0], h[1], m[0], m[1])]
    for h0, h1, m0, m1 in zip(h, h[1:], m, m[1:]):
        if _sign(m0) == _sign(m1) != 0:
            w1, w2 = 2.0 * h1 + h0, h1 + 2.0 * h0
            d.append(1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2)))
        else:
            d.append(0.0)
    d.append(_pchip_end_slope(h[-1], h[-2], m[-1], m[-2]))
    return d


def _cubic_local(x0: float, x1: float, y0: float, y1: float, d0: float,
                 d1: float) -> tuple[float, float]:
    """Coefficients (c2, c3) of the cubic y0 + d0 s + c2 s^2 + c3 s^3 in
    s = t - x0 that takes the values y0, y1 and slopes d0, d1 at x0, x1."""
    h = x1 - x0
    m = (y1 - y0) / h
    q = (d0 + d1 - 2.0 * m) / h
    return (m - d0) / h - q, q / h


def cubic_hermite(x: Sequence[float], y: Sequence[float], dy: Sequence[float],
                  t: float) -> tuple[float, float]:
    """Value and first derivative at `t` of the C^1 piecewise cubic matching
    the values `y` and slopes `dy` at the increasing nodes `x`.  Points
    outside [x[0], x[-1]] are extrapolated from the end intervals."""
    i = min(max(bisect_right(x, t) - 1, 0), len(x) - 2)
    c2, c3 = _cubic_local(x[i], x[i + 1], y[i], y[i + 1], dy[i], dy[i + 1])
    s = t - x[i]
    return (y[i] + s * (dy[i] + s * (c2 + s * c3)),
            dy[i] + s * (2.0 * c2 + s * (3.0 * c3)))


def cubic_hermite_max_slope(x: Sequence[float], y: Sequence[float],
                            dy: Sequence[float]) -> float:
    """Exact max |dy/dt| of the cubic Hermite interpolant on [x[0], x[-1]]:
    the derivative is quadratic on each interval, so its extreme values lie
    at the nodes or at the interior vertex."""
    best = max(map(abs, dy))
    for i in range(len(x) - 1):
        c2, c3 = _cubic_local(x[i], x[i + 1], y[i], y[i + 1], dy[i], dy[i + 1])
        if c3 != 0.0:
            s = -c2 / (3.0 * c3)
            if 0.0 < s < x[i + 1] - x[i]:
                best = max(best, abs(dy[i] - s * s * (3.0 * c3)))
    return best
