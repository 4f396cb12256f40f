"""Quasi-mode construction certifying points of the essential spectrum.

In the supercritical regime the 2D operator admits, for every real mu, test
functions

    psi(x, y) = [h(xy) + f(xy)/y^2] e^{i theta(y)} chi(y / n_k),
    f(t) = -(i sqrt(E)/2) t^2 h(t),    theta'(y) = sqrt(E y^2 + mu),

with h the 1D channel ground state at threshold -E and chi a C^2 logarithmic
cutoff supported on [1, k].  This module builds the cutoff, with its
moments in closed form, selects (k, n_k) for a requested accuracy, and
evaluates the norm and residual ||(H - mu) psi|| by quadrature in
(t, z) = (xy, y/n_k), factoring the unimodular phase out so only theta' and
theta'' ever enter.  The huge y^2-proportional terms cancel algebraically
through the eigenvalue ODE h'' = (omega^2 - lambda V - E0) h and are removed
before evaluation.  Everything that remains is O(1) or n_k-suppressed, and
is a rank-6 sum of products of functions of z and of t, so the residual
costs O(n_z + n_t).  The t-rule covers only the ground state's nodes, the
channel support and a few exterior nodes: beyond them h is an exponential,
and the tail integrals out to the truncation t_max are closed forms.  On an
interval x-domain (-c, c) psi also carries a plateau phi(x) of half-width c
(`QuasiMode`), which n_k keeps equal to 1 wherever |t| <= t_max, so the
residual is the line's.  All of it runs on floats and lists with `math`;
nothing here imports numpy.
"""

from __future__ import annotations

import math
import weakref
from collections import namedtuple
from itertools import zip_longest
from operator import mul
from typing import NamedTuple, Sequence

from .errors import ComputationError, ConfigurationError
from .model import Checked, XDomain
from .oned import GroundState
from .quadrature import gauss_panels, gauss_rule, linspace, log_panels, quintic_local

__all__ = [
    "CutoffFunction",
    "PhaseRule",
    "QuasiMode",
    "QuasiModeNorm",
    "CertificateRow",
    "build_cutoff",
    "choose_parameters",
    "quasimode_norm",
    "residual_norm",
    "weyl_certificate",
    "certificate_csv",
    "certificate_summary",
]


# --- logarithmic cutoff -----------------------------------------------------
#
# In u = ln z the rise and the descent are polynomials: chi = R(v), v = u - u0,
# with R = 8 (u/L)^3 (u0 = 0) on the rise and R = -2 v / L (u0 = L, so
# v = u - L) on the descent, L = ln k, before normalization.  Then
# chi' = R'(v)/z and chi'' = (R''(v) - R'(v))/z^2, and every moment is an
# integral of a polynomial times e^{cu}: int chi^2/z dz = int R^2 du,
# int z chi'^2 dz = int R'^2 du, int chi^2 dz = int R^2 e^u du,
# int chi'^2 dz = int R'^2 e^{-u} du, int chi''^2 dz = int (R'' - R')^2 e^{-3u} du
# and int chi^2/z^5 dz = int R^2 e^{-4u} du.


def _poly_val(p: Sequence[float], x: float) -> float:
    acc = 0.0
    for a in reversed(p):
        acc = acc * x + a
    return acc


def _poly_der(p: Sequence[float]) -> list[float]:
    return [j * a for j, a in enumerate(p)][1:] or [0.0]


def _poly_mul(p: Sequence[float], q: Sequence[float]) -> list[float]:
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _exp_poly_integral(p: Sequence[float], c: float, va: float, vb: float,
                       ea: float, eb: float) -> float:
    """int P(v) e^{cu} du over the u-interval whose ends have the shifted
    coordinates v = va, vb and the exponentials e^{cu} = ea, eb.

    The antiderivative is the polynomial one for c = 0, and
    e^{cu} sum_j (-1)^j P^(j)(v) / c^(j+1) otherwise."""
    if c == 0:
        anti = [0.0] + [a / (j + 1) for j, a in enumerate(p)]
        return _poly_val(anti, vb) - _poly_val(anti, va)
    q = [0.0] * len(p)
    term, scale = list(p), 1.0 / c
    while any(term):
        for i, a in enumerate(term):
            q[i] += scale * a
        term, scale = _poly_der(term), -scale / c
    return eb * _poly_val(q, vb) - ea * _poly_val(q, va)


def _log_jet(r: tuple, v: float, z: float) -> tuple[float, float, float]:
    """(chi, chi', chi'') at z of chi = R(v), v = ln z - u0, from the
    coefficient lists r = (R, R', R'')."""
    d1 = _poly_val(r[1], v)
    return _poly_val(r[0], v), d1 / z, (_poly_val(r[2], v) - d1) / (z * z)


def _log_moments(r: tuple, va: float, vb: float, za: float, zb: float) -> list[float]:
    """The six raw moments (see `CutoffFunction`) of the piece chi = R(v) on
    [za, zb], whose ends have the shifted coordinates va, vb."""
    sq = _poly_mul(r[0], r[0])
    sq1 = _poly_mul(r[1], r[1])
    dd = [a - b for a, b in zip_longest(r[2], r[1], fillvalue=0.0)]
    sq2 = _poly_mul(dd, dd)
    return [_exp_poly_integral(p, c, va, vb, za ** c, zb ** c)
            for p, c in ((sq, 0), (sq1, 0), (sq, 1), (sq1, -1), (sq2, -3), (sq, -4))]


def _bridge_jet(bridge: tuple, s: float) -> tuple[float, float, float]:
    """(chi, chi', chi'') of a unit-width quintic bridge (base, left jet,
    right jet), whose end values are offsets from `base`, at its local
    coordinate s in [0, 1]."""
    base, left, right = bridge
    v, d1, d2 = quintic_local(s, 1.0, left, right)
    return base + v, d1, d2


# Gauss order of the bridge moments: exact for the polynomial ones (degree
# <= 10 in s), and for chi^2/z and chi^2/z^5, z >= 4 on a unit interval, far
# past the rounding level
_BRIDGE_ORDER = 16


def _bridge_moments(bridge: tuple, z0: float) -> list[float]:
    """The six raw moments of the quintic bridge on [z0, z0 + 1]."""
    x, w = gauss_rule(_BRIDGE_ORDER)
    terms = []
    for xi, wi in zip(x, w):
        s = 0.5 * xi + 0.5
        v, d1, d2 = _bridge_jet(bridge, s)
        z = z0 + s
        terms.append([0.5 * wi * f for f in
                      (v * v / z, z * d1 * d1, v * v, d1 * d1, d2 * d2, v * v * z ** -5.0)])
    return [math.fsum(col) for col in zip(*terms)]


class CutoffFunction:
    """C^2 cutoff on [1, k]: cubic-log rise, logarithmic descent, and quintic
    Hermite interpolants bridging (sqrt(k), sqrt(k)+1) and (k-1, k].

    Every attribute follows from k; `build_cutoff` builds one per k and
    shares it, and copy and pickle return that one.  `c` is the
    normalization making the weighted mass int_1^k chi^2/z dz = 1, and
    `premass` = int_1^sqrt(k) chi_tilde^2 / z dz before it.  The moments are
    `mass_over_z` = int chi^2 / z dz (= 1 by construction), `j_weighted` =
    int z chi'^2 dz, `m_chi2` = int chi^2 dz, `m_dchi2` = int chi'^2 dz,
    `m_ddchi2` = int chi''^2 dz and `m_z5` = int chi^2 / z^5 dz: closed forms
    on the rise and the descent, a fixed Gauss rule on the bridges.
    `pieces` holds the coefficient lists (R, R', R'') of the rise and the
    descent and the two bridges as (base, left jet, right jet), their values
    offsets from base; the residual's z-rule evaluates them in place
    (`_residual_z_rule`).  The descent's end k - 1 enters only through
    ln(k - 1) - ln k = log1p(-1/k) and the bridge's local coordinate, so
    k - 1 == k in float64 (k >= 2^53) is harmless.
    """

    def __init__(self, k: float):
        if not 16.0 <= k < math.inf:
            raise ConfigurationError(f"cutoff requires a finite k >= 16, got {k!r}")
        k = float(k)
        L = math.log(k)
        z1, z2, z3 = math.sqrt(k), math.sqrt(k) + 1.0, k - 1.0
        rise = [[0.0, 0.0, 0.0, 8.0 / L**3]]
        descent = [[0.0, -2.0 / L]]
        for r in (rise, descent):
            r += [_poly_der(r[0]), _poly_der(_poly_der(r[0]))]
        v2 = math.log1p(1.0 / z1) - 0.5 * L      # ln(sqrt(k) + 1) - ln k
        v3 = math.log1p(-1.0 / k)                # ln(k - 1) - ln k
        # the rise ends at exactly 1, so the first bridge runs from an offset
        # of 0 to the descent's -2 log1p(1/sqrt(k)) / L, exact where a
        # difference of two values near 1 would carry its rounding (1e-16
        # over a unit width, a spurious slope that z chi'^2 weighs with
        # z ~ sqrt(k))
        first = (1.0, (0.0,) + _log_jet(rise, 0.5 * L, z1)[1:],
                 (-2.0 * math.log1p(1.0 / z1) / L,) + _log_jet(descent, v2, z2)[1:])
        last = (0.0, _log_jet(descent, v3, z3), (0.0, 0.0, 0.0))
        rise_m = _log_moments(rise, 0.0, 0.5 * L, 1.0, z1)
        raw = [math.fsum(parts) for parts in zip(
            rise_m, _bridge_moments(first, z1), _log_moments(descent, v2, v3, z2, z3),
            _bridge_moments(last, z3))]
        self.k, self.c, self.premass = k, raw[0] ** -0.5, rise_m[0]
        (self.mass_over_z, self.j_weighted, self.m_chi2, self.m_dchi2, self.m_ddchi2,
         self.m_z5) = (self.c * self.c * m for m in raw)
        self.pieces = (rise, descent, first, last)

    def __reduce__(self):
        return build_cutoff, (self.k,)

    def __repr__(self) -> str:
        return f"build_cutoff({self.k!r})"

    @property
    def breaks(self) -> tuple[float, float, float]:
        rk = math.sqrt(self.k)
        return rk, rk + 1.0, self.k - 1.0


_CUTOFF_CACHE: dict[float, CutoffFunction] = {}
# y = n_k z runs up to k n_k, and the residual takes y^4: it stays finite in
# float64 while k n_k <= 2^255
_MAX_KN = 2.0**255
# the largest ladder k = 2^p whose smallest n_k = 4k keeps k n_k <= _MAX_KN
_MAX_K_POW = 126
# n_k doublings tried by `choose_parameters` before its search gives up
_MAX_N_DOUBLINGS = 60
# lim J(k) ln^2 k: the rise and the descent alone give J = 28/(5 ln k) and
# weighted mass 5 ln k / 21 before normalization, so J ln^2 k = 588/25; with
# the bridges J(2^p) ln^2(2^p) exceeds it for every p >= 4 (28.14 at p = 4,
# falling to 23.52000002 at p = 53), by a relative 2.6 * 2^-(p/2) / ln k or
# so: 1.4e-11 at p = 64, and below rounding from p = 100 on
_J_LN2K_LIMIT = 588.0 / 25.0


def _first_ladder_pow(eps: float) -> int:
    """Smallest p that J(2^p) < eps allows, from J(2^p) > 588/25 / (p ln 2)^2.

    Raises ComputationError when that p exceeds _MAX_K_POW."""
    x = math.sqrt(_J_LN2K_LIMIT / eps) / math.log(2.0)
    if not x < _MAX_K_POW:
        # x = inf: 588/25 / eps overflowed, so p > sqrt(1.8e308) / ln 2
        need = f"2^{math.floor(x) + 1}" if x < math.inf else "2^(1e154 and more)"
        raise ComputationError(
            f"J(k) < {eps} needs k >= {need} > 2^{_MAX_K_POW}, the largest "
            f"ladder k with (k n_k)^4 finite in float64")
    return math.floor(x) + 1


def build_cutoff(k: float) -> CutoffFunction:
    """The cutoff for a finite ladder parameter k >= 16, built on the first
    call for that k and shared by every later one."""
    if k not in _CUTOFF_CACHE:
        _CUTOFF_CACHE[k] = CutoffFunction(k)
    return _CUTOFF_CACHE[k]


# --- phase rule -------------------------------------------------------------


class PhaseRule(NamedTuple):
    """theta'(y) = sqrt(E y^2 + mu); theta'' = E y / theta' = sqrt(E) / rho
    enters only through rho.  The methods take and return floats, and need
    E y^2 + mu > 0."""

    mu: float
    e_mag: float

    def is_real_from(self, y0: float) -> bool:
        """E y^2 + mu > 0 for every y >= y0 > 0."""
        y0 = float(y0)
        return self.e_mag * (y0 * y0) + self.mu > 0.0

    def jet(self, y: float) -> tuple[float, float, float]:
        """(theta'(y), rho(y), rho(y) - 1) with rho = theta'(y) / (sqrt(E) y),
        rho - 1 evaluated without cancellation."""
        y2 = y * y
        q = self.mu / (self.e_mag * y2)
        rho = math.sqrt(1.0 + q)
        return math.sqrt(self.e_mag * y2 + self.mu), rho, q / (1.0 + rho)


# --- quasi-mode -------------------------------------------------------------


class QuasiMode(Checked, namedtuple("QuasiMode", "mu cutoff n_k gs x_domain")):
    """Concrete Weyl test function, determined by (mu, k, n_k, ground state)
    on the x-domain of its configuration.  On an interval (-c, c) psi has
    the factor phi(x), a C^2 quintic-smoothstep plateau: 1 for |x| <= c/2, 0
    from |x| = c on.  No number depends on phi beyond its half-width c and
    sup phi = 1: `residual_norm` needs phi(t/y) = 1 for |t| <= t_max."""

    __slots__ = ()

    def __new__(cls, mu: float, cutoff: CutoffFunction, n_k: int, gs: GroundState,
                x_domain: XDomain = XDomain()):
        self = super().__new__(cls, mu, cutoff, n_k, gs, x_domain)
        if gs.e0 >= 0:
            raise ConfigurationError("quasi-modes need a negative 1D threshold")
        if not self.phase.is_real_from(n_k):
            raise ConfigurationError(
                f"theta' = sqrt(E y^2 + mu) is not real on the support y >= n_k = "
                f"{n_k} at mu = {mu!r}")
        return self

    @property
    def k(self) -> float:
        return self.cutoff.k

    @property
    def e_mag(self) -> float:
        return -self.gs.e0

    @property
    def support(self) -> tuple[float, float]:
        """y-support [n_k, k n_k] of the cutoff factor."""
        return float(self.n_k), float(self.cutoff.k * self.n_k)

    @property
    def phase(self) -> PhaseRule:
        return PhaseRule(self.mu, self.e_mag)


# --- ground-state moments ---------------------------------------------------


def _gram(w: Sequence[float], rows: Sequence[Sequence[float]]) -> list[list[float]]:
    """G_ij = sum_n w_n rows_i[n] rows_j[n], each sum correctly rounded."""
    wr = [list(map(mul, w, r)) for r in rows]
    g = [[0.0] * len(rows) for _ in rows]
    try:
        for i, a in enumerate(wr):
            for j in range(i, len(rows)):
                g[i][j] = g[j][i] = math.fsum(map(mul, a, rows[j]))
    except (OverflowError, ValueError) as exc:
        raise ComputationError(f"a quadrature sum leaves the float64 range: {exc}") from exc
    return g


def _qform(g: Sequence[Sequence[float]], v: Sequence[float]) -> float:
    """v^T g v."""
    return math.fsum(a * gij * b for a, row in zip(v, g) for gij, b in zip(row, v))


# the t-rule's order-10 Gauss panels are at most this wide
_T_SPACING = 0.2


def _t_rule(gs: GroundState):
    """Order-10 Gauss panels, at most `_T_SPACING` wide, on the ground
    state's nodes [-T, T], beyond which its tails are exponentials; the
    profile's breakpoints are panel edges, so each panel holds a smooth V."""
    lo, hi = gs.nodes[0], gs.nodes[-1]
    cuts = sorted({lo, hi, *gs.profile.breakpoints})
    edges = [lo]
    for a, b in zip(cuts, cuts[1:]):
        edges += linspace(a, b, math.ceil((b - a) / _T_SPACING) + 1)[1:]
    return gauss_panels(edges, 10)


def _residual_basis(gs: GroundState, t: Sequence[float]) -> list[list[float]]:
    """The real t-factors B_0..B_5 of the rank-6 residual amplitude:
    h, t h', t^2 h'', t^4 h'', t^3 h', t^2 h (h'' = p h by the ODE)."""
    h, h1 = zip(*map(gs.jet, t))
    hpp = list(map(mul, gs.ode_factors(t), h))
    t2 = [x * x for x in t]
    return [h, list(map(mul, t, h1)), list(map(mul, t2, hpp)),
            [x * x * y for x, y in zip(t2, hpp)], [x * y * z for x, y, z in zip(t, t2, h1)],
            list(map(mul, t2, h))]


def _tail_polys(kappa: float) -> list[list[float]]:
    """Beyond the last node, where h = s e^{-kappa (|t| - T)} and h'' =
    kappa^2 h, each B_j of `_residual_basis` is h times a polynomial in |t|
    (both tails give the same one); and the `mix` factor |B_0| + 2 |B_1| is
    h (1 + 2 kappa |t|).  Coefficient lists, lowest degree first."""
    k2 = kappa * kappa
    return [[1.0], [0.0, -kappa], [0.0, 0.0, k2], [0.0, 0.0, 0.0, 0.0, k2],
            [0.0, 0.0, 0.0, -kappa], [0.0, 0.0, 1.0], [1.0, 2.0 * kappa]]


class _GroundMoments(NamedTuple):
    """What every quasi-mode on one ground state needs from the t-rule."""

    t_max: float        # the truncation in |t|: the tails are cut at e^-30
    gram: list          # G = int B B^T dt over the basis B of _residual_basis
    mom: dict           # weighted moments behind the suppressed-term bounds


# Per ground state (hashed by identity, immutable): an entry lives exactly as
# long as its ground state and is a pure function of it.
_MOMENTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# the tails are cut where h has decayed by e^-_TAIL_DECAY from the last node
_TAIL_DECAY = 30.0


def _ground_moments(gs: GroundState) -> _GroundMoments:
    """Build the t-rule and its Gram matrix once per ground state.

    The t-rule covers the nodes [-T, T]; from T to t_max = T + 30/kappa each
    tail integral is int P(|t|) e^{-2 kappa (|t| - T)} dt in closed form
    (`_tail_polys`, `_exp_poly_integral`), weighed by the two end samples
    squared.  With f = -(i sqrt(E)/2) t^2 h, |f|^2 = (E/4) B_5^2,
    t^2 |f'|^2 = (E/4) (B_4 + 2 B_5)^2 and t^4 |f''|^2 = (E/4) (B_3 + 4 B_4
    + 2 B_5)^2, so every moment but `mix` is a quadratic form in G.
    """
    if gs not in _MOMENTS:
        t, w = _t_rule(gs)
        basis = _residual_basis(gs, t)
        gram = _gram(w, basis)
        mix = _gram(w, [[abs(a) + 2.0 * abs(b) for a, b in zip(basis[0], basis[1])]])[0][0]
        kap = gs.kappa
        edge = gs.nodes[-1]
        t_max = edge + _TAIL_DECAY / kap
        weight = gs.samples[0] ** 2 + gs.samples[-1] ** 2
        decay = math.exp(-2.0 * _TAIL_DECAY)

        def tail(p: Sequence[float], q: Sequence[float]) -> float:
            return weight * _exp_poly_integral(_poly_mul(p, q), -2.0 * kap, edge, t_max,
                                               1.0, decay)

        *polys, mix_poly = _tail_polys(kap)
        for i, p in enumerate(polys):
            for j in range(i, len(polys)):
                gram[i][j] += tail(p, polys[j])
                gram[j][i] = gram[i][j]
        quarter_e = -gs.e0 / 4.0
        mom = {
            "h2": gram[0][0],
            "t2h1": gram[1][1],
            "t4hpp": gram[2][2],
            "f2": quarter_e * gram[5][5],
            "t2f1": quarter_e * _qform(gram, (0.0, 0.0, 0.0, 0.0, 1.0, 2.0)),
            "t4fpp": quarter_e * _qform(gram, (0.0, 0.0, 0.0, 1.0, 4.0, 2.0)),
            "mix": mix + tail(mix_poly, mix_poly),
        }
        _MOMENTS[gs] = _GroundMoments(t_max, gram, mom)
    return _MOMENTS[gs]


# --- parameter selection ----------------------------------------------------


def suppressed_term_bounds(cut: CutoffFunction, n_k: int, mom: dict,
                           mu: float, e_mag: float) -> dict:
    """The explicit n_k-suppressed bounds on the residual terms, one entry per
    inequality, plus the extra phase term present when mu != 0.  A bound past
    the float64 range is inf."""
    n = float(n_k)
    n4 = n ** -4.0
    n8 = n ** -8.0
    bounds = {
        "x2_hpp": n4 * cut.m_chi2 * mom["t4hpp"],
        "x_hp_chi1": n4 * cut.m_dchi2 * mom["t2h1"],
        "h_chi2": n4 * cut.m_ddchi2 * mom["h2"],
        "x2_fpp": n8 * cut.m_chi2 * mom["t4fpp"],
        "x_fp": n4 * cut.m_chi2 * mom["t2f1"],
        "x_fp_chi1": n8 * cut.m_dchi2 * mom["t2f1"],
        "f_y2": n4 * cut.m_chi2 * mom["f2"],
        "f_chi2": n8 * cut.m_ddchi2 * mom["f2"],
        "f_chi1": n4 * cut.m_dchi2 * mom["f2"],
        "x_fp_y3": n8 * cut.m_chi2 * mom["t2f1"],
        "f_y4": n8 * cut.m_chi2 * mom["f2"],
    }
    if mu != 0.0:
        # (mu / n^2)^2 as a product, which gives inf where mu**2 would raise
        m = mu * n ** -2.0
        bounds["phase"] = (m * m / e_mag) * cut.mass_over_z * mom["mix"]
    return bounds


def choose_parameters(eps: float, gs: GroundState, mu: float = 0.0,
                      min_n: int = 1) -> tuple[float, int]:
    """Deterministic (k, n_k) selection.

    k is the smallest power of two from 16 to 2^126 with weighted derivative
    mass J(k) < eps; 2^126 is the largest k whose smallest n_k = 4k keeps
    y <= k n_k <= 2^255, so that the residual's y^4 stays finite.  Since
    J(k) ln^2 k > 588/25, no k up to 2^p0 with
    p0 = floor(sqrt(588/(25 eps)) / ln 2) qualifies, so the search starts at
    max(16, 2^(p0 + 1)) and usually builds one cutoff; an eps that needs
    k > 2^126 (eps <= 588/25 / (126 ln 2)^2 = 0.003083) fails before any is
    built.  n_k doubles from 4k (and past `min_n`, which enforces disjoint
    supports along a ladder, the interval plateau of `residual_norm` and
    the y_cutoff gate)
    until the correction-term norm bound is below 1/16, the suppressed
    residual bounds sum below eps and theta' is real on the support
    (E n_k^2 + mu > 0); it fails once k n_k would pass 2^255.
    """
    if not (0.0 < eps < 1.0):
        raise ConfigurationError("eps must lie in (0, 1)")
    if gs.e0 >= 0:
        raise ConfigurationError("parameter selection needs a negative threshold")
    cut = None
    # J(2^p) exceeds 588/25 / (p ln 2)^2, so no candidate is skipped; from
    # p = 100 or so on the excess is below rounding, and the computed J(2^p)
    # could pass an eps on the bound that the true J does not
    for p in range(max(4, _first_ladder_pow(eps)), _MAX_K_POW + 1):
        cand = build_cutoff(2.0**p)
        if cand.j_weighted < eps:
            cut = cand
            break
    if cut is None:
        raise ComputationError(f"no ladder k up to 2^{_MAX_K_POW} with J(k) < {eps}")

    mom = _ground_moments(gs).mom
    e_mag = -gs.e0
    phase = PhaseRule(mu, e_mag)
    n = int(4 * cut.k)
    while n <= min_n:
        n *= 2
    for _ in range(_MAX_N_DOUBLINGS):
        if n > _MAX_KN / cut.k:
            raise ComputationError(
                f"n_k search reached n_k = {n:.3g} at k = {cut.k:.3g}, past "
                f"k n_k = 2^255 where y^4 leaves the float64 range")
        corr = _correction_term(cut, n, mom)
        bounds = suppressed_term_bounds(cut, n, mom, mu, e_mag)
        total = sum(bounds.values())
        if corr < 1.0 / 16.0 and total < eps and phase.is_real_from(n):
            return cut.k, n
        n *= 2
    worst = max(bounds, key=bounds.get)
    raise ComputationError(
        f"n_k search exhausted; limiting term {worst} = {bounds[worst]!r}"
    )


# --- norm and residual ------------------------------------------------------


class QuasiModeNorm(NamedTuple):
    main_term: float        # squared norm of the leading part (= 1 in theory)
    correction_term: float  # squared norm of the f/y^2 part (< 1/16)
    norm: float


def _correction_term(cut: CutoffFunction, n_k: int, mom: dict) -> float:
    """Squared norm of the f/y^2 part of psi: n_k^-4 int chi^2/z^5 dz
    int |f|^2 dt."""
    return float(n_k) ** -4.0 * cut.m_z5 * mom["f2"]


def quasimode_norm(qm: QuasiMode) -> QuasiModeNorm:
    """||psi|| via the t = xy change of variables.

    The leading and correction parts are orthogonal pointwise (h is real, f
    imaginary), so the squared norm splits exactly.
    """
    mom = _ground_moments(qm.gs).mom
    main = qm.cutoff.mass_over_z * mom["h2"]
    corr = _correction_term(qm.cutoff, qm.n_k, mom)
    return QuasiModeNorm(main, corr, math.sqrt(main + corr))


# order-10 panels of the residual's z-rule per unit of ln z on the rise and
# the descent, where its integrand is a polynomial in ln z times a power of z
_Z_PANELS_PER_UNIT = 1.0


def _residual_z_rule(cut: CutoffFunction):
    """Nodes z, weights and cutoff jets (chi, chi', chi'') of the residual's
    z-rule: order-10 Gauss panels, uniform in ln z on the rise and on the
    descent (`_Z_PANELS_PER_UNIT` per unit), and 6 equal ones on each
    bridge, laid out in the bridge's local coordinate, where its jet is
    evaluated."""
    z1, z2, z3 = cut.breaks
    rise, descent, first, last = cut.pieces
    z, w, jets = [], [], []
    for r, u0, lo, hi in ((rise, 0.0, 1.0, z1), (descent, math.log(cut.k), z2, z3)):
        nodes, weights = gauss_panels(log_panels(lo, hi, _Z_PANELS_PER_UNIT), 10)
        z += nodes
        w += weights
        jets += [_log_jet(r, math.log(x) - u0, x) for x in nodes]
    for bridge, z0 in ((first, z1), (last, z3)):
        nodes, weights = gauss_panels(linspace(0.0, 1.0, 7), 10)
        z += [z0 + s for s in nodes]
        w += weights
        jets += [_bridge_jet(bridge, s) for s in nodes]
    c = cut.c
    return z, w, [(c * a, c * b, c * d) for a, b, d in jets]


def residual_norm(qm: QuasiMode) -> float:
    """||(H - mu) psi|| by quadrature in (t, z) = (xy, y/n_k).

    The common phase e^{i theta(y)} is factored out, and the y^2-proportional
    block cancels exactly through the eigenvalue ODE.  With y = n_k z,
    a = chi'/n_k and b = chi''/n_k^2, the identities t f' - 2 f =
    -(i sqrt(E)/2) t^3 h' and f = -(i sqrt(E)/2) t^2 h leave the amplitude
    the rank-6 sum r(z, t) = sum_j A_j(z) B_j(t) over the real basis B of
    `_residual_basis`, so ||r||^2 = sum_ij G_ij M_ij with the Gram matrix G
    of B on the t-rule and M_ij = sum_z (w_z / z) Re(conj(A_i) A_j) on the
    z-rule: O(n_z + n_t) work, not O(n_z n_t).

    A quasi-mode on an interval (-c, c) must keep its plateau phi(t/y) = 1,
    phi' = phi'' = 0 for |t| <= t_max, the truncation of the t-integrals,
    i.e. t_max <= n_k c/2; its residual is then the line residual.
    """
    gm = _ground_moments(qm.gs)
    c = qm.x_domain.c
    if qm.x_domain.kind == "interval" and gm.t_max > 0.5 * c * qm.n_k:
        raise ConfigurationError(
            f"interval quasi-mode needs n_k >= 2 t_max / c = {2.0 * gm.t_max / c:.6g} "
            f"to keep its plateau on |t| <= t_max; got n_k = {qm.n_k}")
    e = qm.e_mag
    s = math.sqrt(e)
    n = float(qm.n_k)
    phase = qm.phase

    z, wz, jets = _residual_z_rule(qm.cutoff)
    amps = []
    for zi, (chi, chi1, chi2) in zip(z, jets):
        y = n * zi
        y2 = y * y
        a = chi1 / n
        b = chi2 / (n * n)
        theta1, rho, rm1 = phase.jet(y)
        amps.append((
            # the real parts of A_0, A_1, A_2, A_4, A_5 (A_3 is imaginary)
            -b, -2.0 * a / y, -chi / y2, -e * chi * rho / y2,
            (-e * chi / (2.0 * rho) - s * a * theta1) / y2,
            # the imaginary parts of A_0, A_1, A_3, A_4, A_5 (A_2 is real)
            s * chi * rm1 / rho - 2.0 * a * theta1, -2.0 * s * chi * rm1,
            0.5 * s * chi / (y2 * y2), s * a / (y2 * y), 0.5 * s * b / y2))
    parts = list(zip(*amps))
    wr = [wi / zi for wi, zi in zip(wz, z)]
    g = gm.gram
    total = []
    for index, rows in (((0, 1, 2, 4, 5), parts[:5]), ((0, 1, 3, 4, 5), parts[5:])):
        m = _gram(wr, rows)
        total += [g[p][q] * m[i][j] for i, p in enumerate(index) for j, q in enumerate(index)]
    return math.sqrt(math.fsum(total))


# --- certificate ------------------------------------------------------------


class CertificateRow(NamedTuple):
    eps: float
    k: float
    n_k: int
    norm: float
    residual: float
    normalized_residual: float
    bound_9eps: float
    support: tuple[float, float]
    main_term: float
    correction_term: float


def weyl_certificate(config, gs: GroundState, mu: float,
                     eps_ladder: list[float]) -> list[CertificateRow]:
    """One quasi-mode per ladder entry, supports pairwise disjoint, each with
    its norm, residual, and the bound it is certified against, on the
    x-domain of `config` (`QuasiMode`).  Every support lies above the
    configuration's `y_cutoff`, where its gate keeps the channel term on."""
    if gs.e0 >= 0:
        raise ConfigurationError("certificate needs a supercritical channel")
    if not eps_ladder:
        raise ConfigurationError("eps ladder is empty")
    if any(not 0.0 < e < 1.0 for e in eps_ladder):
        raise ConfigurationError("eps ladder entries must lie in (0, 1)")
    if sorted(eps_ladder, reverse=True) != list(eps_ladder):
        raise ConfigurationError("eps ladder must be decreasing")
    _first_ladder_pow(eps_ladder[-1])  # fail before building any cutoff
    dom = config.x_domain

    rows = []
    # the first support [n_k, k n_k] starts past min_n: past a y_cutoff,
    # below which the gate switches the channel off, and on an interval
    # where phi(t/y) = 1 for |t| <= t_max, as residual_norm requires; a need
    # past the float range fails in the n_k search
    need = 1.0 if config.y_cutoff is None else config.y_cutoff
    if dom.kind == "interval":
        need = max(need, 2.0 * _ground_moments(gs).t_max / dom.c)
    min_n = math.ceil(min(need, _MAX_KN))
    for eps in eps_ladder:
        k, n_k = choose_parameters(eps, gs, mu, min_n=min_n)
        qm = QuasiMode(mu=mu, cutoff=build_cutoff(k), n_k=n_k, gs=gs, x_domain=dom)
        nr = quasimode_norm(qm)
        res = residual_norm(qm)
        rows.append(CertificateRow(
            eps=eps, k=k, n_k=n_k, norm=nr.norm, residual=res,
            normalized_residual=res / nr.norm,
            # 9 sup(phi)^2 eps, with sup phi = 1 on an interval too
            bound_9eps=9.0 * eps,
            support=qm.support, main_term=nr.main_term,
            correction_term=nr.correction_term,
        ))
        min_n = int(k * n_k)
    return rows


def certificate_csv(rows: list[CertificateRow]) -> str:
    lines = ["epsilon,k,n_k,norm,residual,normalized_residual,bound_9eps"]
    for r in rows:
        lines.append(f"{r.eps:.6g},{r.k:.6g},{r.n_k},{r.norm:.12g},"
                     f"{r.residual:.12g},{r.normalized_residual:.12g},{r.bound_9eps:.6g}")
    return "\n".join(lines) + "\n"


def certificate_summary(rows: list[CertificateRow]) -> dict:
    checks = {
        "norm_ge_half": all(r.norm >= 0.5 for r in rows),
        "correction_lt_sixteenth": all(r.correction_term < 1.0 / 16.0 for r in rows),
        "residual_sq_le_bound": all(r.residual**2 <= r.bound_9eps * (1.0 + 1e-6)
                                    for r in rows),
        "normalized_residual_le_2sqrt": all(
            r.normalized_residual <= 2.0 * math.sqrt(r.bound_9eps) * (1.0 + 1e-6)
            for r in rows),
        "normalized_residual_decreasing": all(
            a.normalized_residual > b.normalized_residual
            for a, b in zip(rows, rows[1:])),
        "supports_disjoint": all(a.support[1] < b.support[0]
                                 for a, b in zip(rows, rows[1:])),
    }
    return {
        "rows": [
            {"epsilon": r.eps, "k": r.k, "n_k": r.n_k, "norm": r.norm,
             "residual": r.residual,
             "normalized_residual": r.normalized_residual,
             "bound_9eps": r.bound_9eps}
            for r in rows
        ],
        "checks": checks,
        "all_pass": all(checks.values()),
    }
