"""Gauss-Legendre panel quadrature and quintic Hermite interpolation.

All integrals in this package run over smooth piecewise-defined integrands
with known breakpoints, so composite Gauss-Legendre panels with adaptive
bisection are enough; no general-purpose adaptivity is needed.  The
integrands' C^2 pieces (ground-state interpolant, cutoff bridges) are
quintic Hermite interpolants of node values and first two derivatives.
"""

from __future__ import annotations

from math import perm

import numpy as np

__all__ = ["gauss_panels", "panel_integrate", "adaptive_integrate", "log_panels",
           "quintic_hermite"]

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
