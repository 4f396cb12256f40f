"""Gauss-Legendre panel quadrature and Hermite interpolation.

All integrals in this package run over smooth piecewise-defined integrands
with known breakpoints, so composite Gauss-Legendre panels with adaptive
bisection are enough; no general-purpose adaptivity is needed.  The
integrands' C^2 pieces (ground-state interpolant, cutoff bridges) are
quintic Hermite interpolants of node values and first two derivatives;
tabulated potential profiles are C^1 monotone cubic Hermite (PCHIP)
interpolants of node values.
"""

from __future__ import annotations

from math import perm

import numpy as np

__all__ = ["gauss_panels", "panel_integrate", "adaptive_integrate", "log_panels",
           "quintic_hermite", "pchip_slopes", "cubic_hermite", "cubic_hermite_max_slope"]

_RULE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _RULE_CACHE:
        _RULE_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _RULE_CACHE[order]


def gauss_panels(edges: np.ndarray, order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss-Legendre rule on the given panel edges."""
    edges = np.asarray(edges, dtype=float)
    x, w = _rule(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def panel_integrate(f, edges: np.ndarray, order: int = 16) -> float:
    nodes, weights = gauss_panels(edges, order)
    return float(np.dot(weights, f(nodes)))


def log_panels(lo: float, hi: float, per_unit: float = 4.0) -> np.ndarray:
    """Panel edges geometric in z, i.e. uniform in ln z, for integrands smooth in ln z."""
    if not (0.0 < lo < hi):
        raise ValueError("log_panels requires 0 < lo < hi")
    n = max(2, int(np.ceil(per_unit * np.log(hi / lo))))
    return lo * np.exp(np.linspace(0.0, np.log(hi / lo), n + 1))


def adaptive_integrate(f, edges: np.ndarray, rtol: float = 1e-12,
                       atol: float = 1e-300, order: int = 16,
                       max_doublings: int = 12) -> float:
    """Integrate over the panels, bisecting all of them until two successive
    refinements agree to the requested tolerance.

    Raises RuntimeError when the doubling budget is exhausted.
    """
    edges = np.asarray(edges, dtype=float)
    prev = panel_integrate(f, edges, order)
    for _ in range(max_doublings):
        refined = np.empty(2 * len(edges) - 1)
        refined[0::2] = edges
        refined[1::2] = 0.5 * (edges[1:] + edges[:-1])
        edges = refined
        cur = panel_integrate(f, edges, order)
        if abs(cur - prev) <= rtol * abs(cur) + atol:
            return cur
        prev = cur
    raise RuntimeError(
        f"quadrature did not converge: last two estimates {prev!r}, panels {len(edges)-1}"
    )


# Quintic Hermite basis on the unit interval, one row per datum (value, first
# and second derivative at s = 0, then at s = 1), one column per power s^0..s^5.
_QUINTIC_BASIS = np.array([
    [1.0, 0.0, 0.0, -10.0, 15.0, -6.0],
    [0.0, 1.0, 0.0, -6.0, 8.0, -3.0],
    [0.0, 0.0, 0.5, -1.5, 1.5, -0.5],
    [0.0, 0.0, 0.0, 10.0, -15.0, 6.0],
    [0.0, 0.0, 0.0, -4.0, 7.0, -3.0],
    [0.0, 0.0, 0.0, 0.5, -1.0, 0.5],
])


def quintic_hermite(x: np.ndarray, y: np.ndarray, dy: np.ndarray, d2y: np.ndarray,
                    t, deriv: int = 0) -> np.ndarray:
    """Evaluate at `t` the C^2 piecewise quintic matching the values `y`, first
    derivatives `dy` and second derivatives `d2y` at the increasing nodes `x`
    (`deriv` = 0, 1 or 2 selects the value or a derivative).  Points outside
    [x[0], x[-1]] are extrapolated from the end intervals."""
    t = np.asarray(t, dtype=float)
    i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
    dx = x[i + 1] - x[i]
    s = (t - x[i]) / dx
    # d^deriv/ds^deriv of s^j, j = 0..5
    powers = np.zeros(t.shape + (6,))
    for j in range(deriv, 6):
        powers[..., j] = perm(j, deriv) * s ** (j - deriv)
    basis = powers @ _QUINTIC_BASIS.T
    data = (y[i], dx * dy[i], dx**2 * d2y[i], y[i + 1], dx * dy[i + 1], dx**2 * d2y[i + 1])
    return sum(basis[..., b] * d for b, d in enumerate(data)) / dx**deriv


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, clipped to keep the end interval
    monotone (Moler, *Numerical Computing with MATLAB*, sec. 3.6)."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fritsch-Butland node slopes of the monotone piecewise cubic through
    (x, y), x strictly increasing with at least 3 nodes: the weighted harmonic
    mean of the adjacent secants in the interior (zero at a local extremum or
    next to a flat secant) and a clipped one-sided estimate at the ends.
    Every slope then lies between 0 and 3 times each adjacent secant, so no
    interval overshoots its end values."""
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.zeros_like(y)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    mono = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
    d[1:-1][mono] = 1.0 / ((w1[mono] / m[:-1][mono] + w2[mono] / m[1:][mono])
                           / (w1 + w2)[mono])
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def _cubic_coefficients(x: np.ndarray, y: np.ndarray, dy: np.ndarray):
    """Per-interval coefficients (c2, c3) of the cubic Hermite interpolant
    y_i + dy_i s + c2 s^2 + c3 s^3 in the local coordinate s = t - x_i."""
    h = np.diff(x)
    m = np.diff(y) / h
    q = (dy[:-1] + dy[1:] - 2.0 * m) / h
    return (m - dy[:-1]) / h - q, q / h


def cubic_hermite(x: np.ndarray, y: np.ndarray, dy: np.ndarray,
                  t) -> tuple[np.ndarray, np.ndarray]:
    """Value and first derivative at `t` of the C^1 piecewise cubic matching
    the values `y` and slopes `dy` at the increasing nodes `x`.  Points
    outside [x[0], x[-1]] are extrapolated from the end intervals."""
    t = np.asarray(t, dtype=float)
    i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
    c2, c3 = _cubic_coefficients(x, y, dy)
    s = t - x[i]
    c2, c3 = c2[i], c3[i]
    return (y[i] + s * (dy[i] + s * (c2 + s * c3)),
            dy[i] + s * (2.0 * c2 + s * (3.0 * c3)))


def cubic_hermite_max_slope(x: np.ndarray, y: np.ndarray, dy: np.ndarray) -> float:
    """Exact max |dy/dt| of the cubic Hermite interpolant on [x[0], x[-1]]:
    the derivative is quadratic on each interval, so its extreme values lie
    at the nodes or at the interior vertex."""
    c2, c3 = _cubic_coefficients(x, y, dy)
    best = float(np.max(np.abs(dy)))
    h = np.diff(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -c2 / (3.0 * c3)
    inner = (c3 != 0.0) & (s > 0.0) & (s < h)
    if np.any(inner):
        si = s[inner]
        vertex = dy[:-1][inner] - si**2 * (3.0 * c3[inner])
        best = max(best, float(np.max(np.abs(vertex))))
    return best
