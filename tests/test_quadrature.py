import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smilansky_lab.quadrature import (adaptive_integrate, cubic_hermite,
                                      cubic_hermite_max_slope, gauss_panels,
                                      log_panels, panel_integrate,
                                      pchip_slopes, quintic_hermite)


def test_polynomial_exactness():
    # order-16 Gauss rule integrates degree-31 polynomials exactly
    val = panel_integrate(lambda x: x**31, np.array([0.0, 1.0]), order=16)
    assert abs(val - 1.0 / 32.0) < 1e-15


def test_panel_weights_sum_to_length():
    edges = np.array([0.0, 0.3, 1.1, 2.0])
    _, w = gauss_panels(edges, order=8)
    assert abs(np.sum(w) - 2.0) < 1e-14


def test_log_panels_geometric():
    edges = log_panels(1.0, 1024.0, per_unit=1.0)
    ratios = edges[1:] / edges[:-1]
    assert np.allclose(ratios, ratios[0])
    assert edges[0] == 1.0 and abs(edges[-1] - 1024.0) < 1e-9


def test_adaptive_matches_analytic():
    val = adaptive_integrate(np.exp, np.array([0.0, 5.0]), rtol=1e-13)
    assert abs(val - (np.e**5 - 1.0)) < 1e-10


def test_adaptive_refines_peaked_integrand():
    # narrow Gaussian not resolved by the initial panels
    f = lambda x: np.exp(-((x - 0.5) / 1e-3) ** 2)
    val = adaptive_integrate(f, np.array([0.0, 1.0]), rtol=1e-10)
    assert abs(val - 1e-3 * np.sqrt(np.pi)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(0.5, 4.0))
def test_additivity_over_subintervals(a, width):
    edges = np.array([a, a + width])
    whole = panel_integrate(np.cos, edges, order=12)
    split = np.array([a, a + 0.37 * width, a + width])
    parts = panel_integrate(np.cos, split, order=12)
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
        for deriv in derivs:
            want = poly.derivative(deriv)(t) if deriv else poly(t)
            got = quintic_hermite(x, *data, t, deriv)
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
        v, dv = cubic_hermite(x, y, pchip_slopes(x, y), t)
        want_v, want_dv = ref(t), ref.derivative()(t)
        assert np.max(np.abs(v - want_v)) <= 1e-14 * np.max(np.abs(want_v))
        assert np.max(np.abs(dv - want_dv)) <= 1e-14 * np.max(np.abs(want_dv))


def test_pchip_does_not_overshoot():
    # each interval stays between its end values, so sup = max node value
    for x, y in _pchip_tables():
        t = np.linspace(x[0], x[-1], 20001)
        v, _ = cubic_hermite(x, y, pchip_slopes(x, y), t)
        i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
        lo, hi = np.minimum(y[i], y[i + 1]), np.maximum(y[i], y[i + 1])
        slack = 1e-14 * np.max(np.abs(y))
        assert np.all(v >= lo - slack) and np.all(v <= hi + slack)


def test_cubic_hermite_max_slope_is_exact():
    rng = np.random.default_rng(3)
    for x, y in _pchip_tables():
        dy = pchip_slopes(x, y) + rng.normal(size=x.size)   # not just PCHIP data
        bound = cubic_hermite_max_slope(x, y, dy)
        t = np.linspace(x[0], x[-1], 200001)
        sampled = np.max(np.abs(cubic_hermite(x, y, dy, t)[1]))
        assert sampled <= bound * (1 + 1e-13)
        assert sampled >= bound * (1 - 1e-4)    # attained, not loose
