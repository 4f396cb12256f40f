import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smilansky_lab.quadrature import (cubic_hermite, cubic_hermite_max_slope,
                                      gauss_panels, gauss_rule, linspace,
                                      log_panels, pchip_slopes, quintic_hermite)


def panel_integrate(f, edges, order):
    nodes, weights = gauss_panels(edges, order)
    return sum(w * f(x) for x, w in zip(nodes, weights))


def test_polynomial_exactness():
    # order-16 Gauss rule integrates degree-31 polynomials exactly
    val = panel_integrate(lambda x: x**31, [0.0, 1.0], order=16)
    assert abs(val - 1.0 / 32.0) < 1e-15


@pytest.mark.parametrize("order", [1, 2, 5, 6, 10, 16, 24])
def test_gauss_rule_matches_numpy(order):
    x, w = gauss_rule(order)
    want_x, want_w = np.polynomial.legendre.leggauss(order)
    assert np.max(np.abs(np.array(x) - want_x)) <= 2e-16
    # numpy's own end weights are off by 1.2e-13 relatively at order 24
    assert np.max(np.abs(np.array(w) / want_w - 1.0)) <= 2e-13
    assert list(x) == sorted(x) and list(x) == [-xi for xi in reversed(x)]
    # exact for every monomial up to degree 2 order - 1
    for j in range(2 * order):
        got = math.fsum(wi * xi**j for xi, wi in zip(x, w))
        assert abs(got - (1 + (-1) ** j) / (j + 1)) <= 2e-15, j


def test_linspace_matches_numpy():
    for lo, hi, num in ((0.0, 1.0, 7), (-33.2, 33.2, 333), (1.0, 2.0**52, 5)):
        assert linspace(lo, hi, num) == np.linspace(lo, hi, num).tolist()


def test_panel_weights_sum_to_length():
    edges = [0.0, 0.3, 1.1, 2.0]
    _, w = gauss_panels(edges, order=8)
    assert abs(np.sum(w) - 2.0) < 1e-14


def test_log_panels_geometric():
    edges = np.array(log_panels(1.0, 1024.0, per_unit=1.0))
    ratios = edges[1:] / edges[:-1]
    assert np.allclose(ratios, ratios[0])
    assert edges[0] == 1.0 and edges[-1] == 1024.0


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(0.5, 4.0))
def test_additivity_over_subintervals(a, width):
    edges = [a, a + width]
    whole = panel_integrate(math.cos, edges, order=12)
    split = [a, a + 0.37 * width, a + width]
    parts = panel_integrate(math.cos, split, order=12)
    assert abs(whole - parts) < 1e-12


def test_quintic_hermite_matches_bpoly():
    from scipy.interpolate import BPoly

    rng = np.random.default_rng(7)
    uniform = np.linspace(-12.0, 12.0, 4003)    # the ground-state grid
    nonuniform = np.sort(rng.uniform(-3.0, 5.0, 200))
    g = np.exp(-uniform**2 / 8)
    # (nodes, node data, derivatives checked).  For smooth data at spacing
    # 0.006 the second derivative of either form carries ~eps |y| / dx^2 =
    # 1e-10 of rounding, so that case checks the value and first derivative.
    cases = [
        (uniform, (g, -uniform / 4 * g, (uniform**2 / 16 - 0.25) * g), (0, 1)),
        (uniform, tuple(rng.normal(size=(3, uniform.size))), (0, 1, 2)),
        (nonuniform, tuple(rng.normal(size=(3, nonuniform.size))), (0, 1, 2)),
    ]
    for x, data, derivs in cases:
        poly = BPoly.from_derivatives(x, np.column_stack(data))
        t = np.concatenate([x, rng.uniform(x[0], x[-1], 5000)])
        nodes, *values = (a.tolist() for a in (x, *data))
        jets = np.array([quintic_hermite(nodes, *values, ti) for ti in t.tolist()])
        for deriv in derivs:
            want = poly.derivative(deriv)(t) if deriv else poly(t)
            got = jets[:, deriv]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _pchip_tables():
    """(x, y) node tables: random ones of 3 to 40 nodes, the 3-node bump, and
    tables with flat and sign-changing segments."""
    rng = np.random.default_rng(11)
    tables = []
    for _ in range(200):
        n = int(rng.integers(3, 41))
        x = np.cumsum(rng.uniform(0.05, 1.0, n)) - 2.0
        tables.append((x, rng.uniform(0.0, 3.0, n)))
    tables.append((np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])))
    tables.append((np.array([-1.0, -0.3, 0.2, 0.6, 1.0]),
                   np.array([0.0, 1.0, 1.0, 0.4, 0.0])))
    tables.append((np.linspace(-2.0, 2.0, 9),
                   np.array([-1.0, 2.0, 2.0, 2.0, -0.5, 0.7, -3.0, -3.0, 1.0])))
    tables.append((np.array([0.0, 0.1, 1.5, 1.6, 4.0, 4.2]),
                   np.array([0.0, 5.0, 5.0, -2.0, 0.3, 0.3])))
    return tables


def test_pchip_matches_scipy():
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(5)
    for x, y in _pchip_tables():
        ref = PchipInterpolator(x, y)
        t = np.concatenate([x, rng.uniform(x[0], x[-1], 400)])
        xs, ys = x.tolist(), y.tolist()
        dy = pchip_slopes(xs, ys)
        v, dv = np.array([cubic_hermite(xs, ys, dy, ti) for ti in t.tolist()]).T
        want_v, want_dv = ref(t), ref.derivative()(t)
        assert np.max(np.abs(v - want_v)) <= 1e-14 * np.max(np.abs(want_v))
        assert np.max(np.abs(dv - want_dv)) <= 1e-14 * np.max(np.abs(want_dv))


def test_pchip_does_not_overshoot():
    # each interval stays between its end values, so sup = max node value;
    # the cubic of the slopes is sampled densely by scipy's evaluator
    from scipy.interpolate import CubicHermiteSpline

    for x, y in _pchip_tables():
        t = np.linspace(x[0], x[-1], 20001)
        v = CubicHermiteSpline(x, y, pchip_slopes(x.tolist(), y.tolist()))(t)
        i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
        lo, hi = np.minimum(y[i], y[i + 1]), np.maximum(y[i], y[i + 1])
        slack = 1e-14 * np.max(np.abs(y))
        assert np.all(v >= lo - slack) and np.all(v <= hi + slack)


def test_cubic_hermite_max_slope_is_exact():
    # the slope sampled densely by scipy's evaluator of the same cubic
    from scipy.interpolate import CubicHermiteSpline

    rng = np.random.default_rng(3)
    for x, y in _pchip_tables():
        dy = np.array(pchip_slopes(x.tolist(), y.tolist())) + rng.normal(size=x.size)
        bound = cubic_hermite_max_slope(x.tolist(), y.tolist(), dy.tolist())
        t = np.linspace(x[0], x[-1], 200001)
        sampled = np.max(np.abs(CubicHermiteSpline(x, y, dy)(t, 1)))
        assert sampled <= bound * (1 + 1e-13)
        assert sampled >= bound * (1 - 1e-4)    # attained, not loose
