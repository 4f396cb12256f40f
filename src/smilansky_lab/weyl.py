"""Quasi-mode construction certifying points of the essential spectrum.

In the supercritical regime the 2D operator admits, for every real mu, test
functions

    psi(x, y) = [h(xy) + f(xy)/y^2] e^{i theta(y)} chi(y / n_k),
    f(t) = -(i sqrt(E)/2) t^2 h(t),    theta'(y) = sqrt(E y^2 + mu),

with h the 1D channel ground state at threshold -E and chi a C^2 logarithmic
cutoff supported on [1, k].  This module builds the cutoff, selects (k, n_k)
for a requested accuracy, and evaluates the norm and residual ||(H - mu) psi||
by quadrature in (t, z) = (xy, y/n_k), factoring the unimodular phase out so
only theta' and theta'' ever enter.  The huge y^2-proportional terms cancel
algebraically through the eigenvalue ODE h'' = (omega^2 - lambda V - E0) h
and are removed before evaluation.  Everything that remains is O(1) or
n_k-suppressed, and is a rank-6 sum of products of functions of z and of t,
so the residual costs O(n_z + n_t).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ComputationError, ConfigurationError
from .model import eval_profile
from .oned import GroundState
from .quadrature import adaptive_integrate, gauss_panels, log_panels, quintic_hermite

__all__ = [
    "CutoffFunction",
    "PlateauCutoff",
    "PhaseRule",
    "QuasiMode",
    "QuasiModeNorm",
    "CertificateRow",
    "build_cutoff",
    "build_plateau_cutoff",
    "choose_parameters",
    "quasimode_norm",
    "residual_identity_check",
    "residual_norm",
    "weyl_certificate",
    "certificate_csv",
    "certificate_summary",
]


# --- logarithmic cutoff -----------------------------------------------------


def _rise(z, L: float, s: float, deriv: int):
    """Pre-normalization cubic-log rise s * 8 (ln z / L)^3 on [1, sqrt(k)]."""
    u = np.log(z)
    if deriv == 0:
        return s * 8.0 * u**3 / L**3
    if deriv == 1:
        return s * 24.0 * u**2 / (z * L**3)
    return s * 24.0 * u * (2.0 - u) / (z**2 * L**3)


def _descent(z, L: float, s: float, deriv: int):
    """Pre-normalization logarithmic descent s * 2 (L - ln z) / L on
    [sqrt(k) + 1, k - 1]."""
    if deriv == 0:
        return s * 2.0 * (L - np.log(z)) / L
    if deriv == 1:
        return s * -2.0 / (z * L)
    return s * 2.0 / (z**2 * L)


@dataclass(frozen=True)
class CutoffFunction:
    """C^2 cutoff on [1, k]: cubic-log rise, logarithmic descent, and quintic
    Hermite interpolants bridging (sqrt(k), sqrt(k)+1) and (k-1, k].

    `c` is the normalization making the weighted mass int_1^k chi^2/z dz = 1.
    Moment integrals are cached at construction.
    """

    k: float
    c: float
    prescale: float         # pre-normalization scaling; c compensates exactly
    premass: float          # int_1^sqrt(k) chi_tilde^2 / z dz
    mass_over_z: float      # int chi^2 / z dz  (= 1 by construction)
    j_weighted: float       # int z chi'^2 dz
    m_chi2: float           # int chi^2 dz
    m_dchi2: float          # int chi'^2 dz
    m_ddchi2: float         # int chi''^2 dz
    m_z5: float             # int chi^2 / z^5 dz
    # Hermite node data (nodes, values, first, second derivatives) on
    # (sqrt(k), sqrt(k)+1, k-1, k); only the two bridges are ever evaluated
    _bridges: tuple = field(repr=False, compare=False)

    @property
    def breaks(self) -> tuple[float, float, float]:
        rk = np.sqrt(self.k)
        return rk, rk + 1.0, self.k - 1.0

    def _pieces(self, z: np.ndarray, deriv: int) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        z1, z2, z3 = self.breaks
        L = np.log(self.k)
        out = np.zeros_like(z)
        m1 = (z >= 1.0) & (z <= z1)
        m2 = (z >= z2) & (z <= z3)
        mb = ((z > z1) & (z < z2)) | ((z > z3) & (z <= self.k))
        out[m1] = _rise(z[m1], L, self.prescale, deriv)
        out[m2] = _descent(z[m2], L, self.prescale, deriv)
        out[mb] = quintic_hermite(*self._bridges, z[mb], deriv)
        return out

    def raw(self, z) -> np.ndarray:
        """Pre-normalization chi_tilde."""
        return self._pieces(z, 0)

    def value(self, z) -> np.ndarray:
        return self.c * self._pieces(z, 0)

    def d1(self, z) -> np.ndarray:
        return self.c * self._pieces(z, 1)

    def d2(self, z) -> np.ndarray:
        return self.c * self._pieces(z, 2)


def _cutoff_edges(k: float, per_unit: float = 3.0) -> np.ndarray:
    z1, z2, z3 = np.sqrt(k), np.sqrt(k) + 1.0, k - 1.0
    edges = np.concatenate([
        log_panels(1.0, z1, per_unit),
        np.linspace(z1, z2, 5),
        log_panels(z2, z3, per_unit),
        np.linspace(z3, k, 5),
    ])
    return np.unique(edges)


def build_cutoff(k: float, prescale: float = 1.0) -> CutoffFunction:
    """Construct and normalize the cutoff for ladder parameter k >= 16.

    `prescale` multiplies the pre-normalization pieces; the normalization
    constant compensates exactly, so the returned cutoff is independent of it
    (exposed to make that invariance testable).
    """
    if k < 16:
        raise ConfigurationError("cutoff requires k >= 16")
    if prescale <= 0:
        raise ConfigurationError("prescale must be positive")
    k = float(k)
    if k - 1.0 == k:
        raise ComputationError(
            f"k={k!r} is too large for float64: the descent starts at k - 1 == k")
    z1, z2, z3 = np.sqrt(k), np.sqrt(k) + 1.0, k - 1.0
    L = np.log(k)
    bridges = (np.array([z1, z2, z3, k]),) + tuple(
        np.array([_rise(z1, L, prescale, d), _descent(z2, L, prescale, d),
                  _descent(z3, L, prescale, d), 0.0])
        for d in range(3))
    cut = CutoffFunction(k=k, c=1.0, prescale=prescale, premass=0.0,
                         mass_over_z=0.0, j_weighted=0.0,
                         m_chi2=0.0, m_dchi2=0.0, m_ddchi2=0.0, m_z5=0.0,
                         _bridges=bridges)

    edges = _cutoff_edges(k)
    try:
        raw_mass = adaptive_integrate(lambda z: cut.raw(z) ** 2 / z, edges)
        premass = adaptive_integrate(
            lambda z: cut.raw(z) ** 2 / z, np.unique(np.clip(edges, 1.0, z1)))
        c = raw_mass ** -0.5
        mass = adaptive_integrate(lambda z: (c * cut.raw(z)) ** 2 / z, edges)
        jw = adaptive_integrate(lambda z: z * (c * cut._pieces(z, 1)) ** 2, edges)
        m2 = adaptive_integrate(lambda z: (c * cut.raw(z)) ** 2, edges)
        md = adaptive_integrate(lambda z: (c * cut._pieces(z, 1)) ** 2, edges)
        mdd = adaptive_integrate(lambda z: (c * cut._pieces(z, 2)) ** 2, edges, rtol=1e-10)
        mz5 = adaptive_integrate(lambda z: (c * cut.raw(z)) ** 2 / z**5, edges)
    except RuntimeError as exc:
        raise ComputationError(f"cutoff quadrature failed for k={k}: {exc}") from exc

    return replace(cut, c=c, premass=premass, mass_over_z=mass, j_weighted=jw,
                   m_chi2=m2, m_dchi2=md, m_ddchi2=mdd, m_z5=mz5)


_CUTOFF_CACHE: dict[float, CutoffFunction] = {}
# largest p with 2^p - 1 != 2^p in float64; build_cutoff rejects larger k
_MAX_K_POW = np.finfo(float).nmant + 1
# lim J(k) ln^2 k: the rise and the descent alone give J = 28/(5 ln k) and
# weighted mass 5 ln k / 21 before normalization, so J ln^2 k = 588/25; with
# the bridges J(2^p) ln^2(2^p) exceeds it for every p = 4 .. _MAX_K_POW
# (28.14 at p = 4, falling to 23.52000002 at p = 53)
_J_LN2K_LIMIT = 588.0 / 25.0


def _first_ladder_pow(eps: float) -> int:
    """Smallest p that J(2^p) < eps allows, from J(2^p) > 588/25 / (p ln 2)^2.

    Raises ComputationError when that p exceeds _MAX_K_POW."""
    p = math.floor(math.sqrt(_J_LN2K_LIMIT / eps) / math.log(2.0)) + 1
    if p > _MAX_K_POW:
        raise ComputationError(
            f"J(k) < {eps} needs k >= 2^{p} > 2^{_MAX_K_POW}, the largest "
            f"ladder k with k - 1 != k in float64")
    return p


def cutoff_cached(k: float) -> CutoffFunction:
    if k not in _CUTOFF_CACHE:
        _CUTOFF_CACHE[k] = build_cutoff(k)
    return _CUTOFF_CACHE[k]


# --- plateau cutoff for the interval variant --------------------------------


@dataclass(frozen=True)
class PlateauCutoff:
    """C^2 plateau: 1 on [-w/2, w/2], quintic-smoothstep shoulders, 0 outside
    (-w, w).  sup |phi| = 1."""

    half_width: float = 1.0

    def _u(self, x: np.ndarray) -> np.ndarray:
        return np.clip((np.abs(x) / self.half_width - 0.5) * 2.0, 0.0, 1.0)

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = self._u(x)
        return 1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u**2)

    def d1(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = self._u(x)
        inner = -30.0 * u**2 * (1.0 - u) ** 2 * (2.0 / self.half_width)
        return np.where((np.abs(x) > 0.5 * self.half_width)
                        & (np.abs(x) < self.half_width),
                        inner * np.sign(x), 0.0)

    def d2(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = self._u(x)
        inner = -60.0 * u * (1.0 - u) * (1.0 - 2.0 * u) * (2.0 / self.half_width) ** 2
        return np.where((np.abs(x) > 0.5 * self.half_width)
                        & (np.abs(x) < self.half_width), inner, 0.0)

    @property
    def sup(self) -> float:
        return 1.0


def build_plateau_cutoff(half_width: float = 1.0) -> PlateauCutoff:
    return PlateauCutoff(half_width)


# --- phase rule -------------------------------------------------------------


@dataclass(frozen=True)
class PhaseRule:
    """theta'(y) = sqrt(E y^2 + mu); only theta' and theta'' are ever used."""

    mu: float
    e_mag: float

    def dtheta(self, y) -> np.ndarray:
        return np.sqrt(self.e_mag * np.asarray(y, dtype=float) ** 2 + self.mu)

    def d2theta(self, y) -> np.ndarray:
        return self.e_mag * np.asarray(y, dtype=float) / self.dtheta(y)

    def rho(self, y) -> np.ndarray:
        """theta'(y) / (sqrt(E) y)."""
        return np.sqrt(1.0 + self.mu / (self.e_mag * np.asarray(y, dtype=float) ** 2))

    def rho_minus_1(self, y) -> np.ndarray:
        """rho - 1 evaluated without cancellation."""
        q = self.mu / (self.e_mag * np.asarray(y, dtype=float) ** 2)
        return q / (1.0 + np.sqrt(1.0 + q))


# --- quasi-mode -------------------------------------------------------------


@dataclass(frozen=True)
class QuasiMode:
    """Concrete Weyl test function, determined by (mu, k, n_k, ground state)."""

    mu: float
    cutoff: CutoffFunction
    n_k: int
    gs: GroundState
    mode: str = "line"                      # "line" | "interval"
    phi: Optional[PlateauCutoff] = None

    def __post_init__(self):
        if self.mode not in ("line", "interval"):
            raise ConfigurationError(f"unknown quasi-mode variant {self.mode!r}")
        if self.mode == "interval" and self.phi is None:
            object.__setattr__(self, "phi", build_plateau_cutoff())
        if self.gs.e0 >= 0:
            raise ConfigurationError("quasi-modes need a negative 1D threshold")

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


def _t_rule(gs: GroundState, spacing: float = 0.2, order: int = 10):
    kap = max(gs.kappa, 0.3)
    xe = gs.nodes[-1] + 30.0 / kap
    n_panels = max(64, int(np.ceil(2.0 * xe / spacing)))
    return gauss_panels(np.linspace(-xe, xe, n_panels + 1), order)


def _residual_basis(gs: GroundState, t: np.ndarray) -> np.ndarray:
    """The real t-factors B_0..B_5 of the rank-6 residual amplitude:
    h, t h', t^2 h'', t^4 h'', t^3 h', t^2 h (h'' = p h by the ODE)."""
    h, h1, hpp = gs.h(t), gs.h1(t), gs.h2(t)
    return np.array([h, t * h1, t**2 * hpp, t**4 * hpp, t**3 * h1, t**2 * h])


@dataclass(frozen=True)
class _GroundMoments:
    """What every quasi-mode on one ground state needs from the t-rule."""

    t_max: float        # max |t| over the rule's nodes
    gram: np.ndarray    # G = B diag(w) B^T over the basis B of _residual_basis
    mom: dict           # weighted moments behind the suppressed-term bounds


# Per ground state (hashed by identity, immutable): an entry lives exactly as
# long as its ground state and is a pure function of it.
_MOMENTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _ground_moments(gs: GroundState) -> _GroundMoments:
    """Build the t-rule and its Gram matrix once per ground state.

    With f = -(i sqrt(E)/2) t^2 h, |f|^2 = (E/4) B_5^2,
    t^2 |f'|^2 = (E/4) (B_4 + 2 B_5)^2 and t^4 |f''|^2 = (E/4) (B_3 + 4 B_4
    + 2 B_5)^2, so every moment but `mix` is a quadratic form in G.
    """
    if gs not in _MOMENTS:
        t, w = _t_rule(gs)
        basis = _residual_basis(gs, t)
        gram = (basis * w) @ basis.T
        quarter_e = -gs.e0 / 4.0
        v_f1 = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.0])
        v_fpp = np.array([0.0, 0.0, 0.0, 1.0, 4.0, 2.0])
        mom = {
            "h2": float(gram[0, 0]),
            "t2h1": float(gram[1, 1]),
            "t4hpp": float(gram[2, 2]),
            "f2": float(quarter_e * gram[5, 5]),
            "t2f1": float(quarter_e * (v_f1 @ gram @ v_f1)),
            "t4fpp": float(quarter_e * (v_fpp @ gram @ v_fpp)),
            "mix": float(w @ (np.abs(basis[0]) + 2.0 * np.abs(basis[1])) ** 2),
        }
        _MOMENTS[gs] = _GroundMoments(float(np.max(np.abs(t))), gram, mom)
    return _MOMENTS[gs]


# --- parameter selection ----------------------------------------------------


def suppressed_term_bounds(cut: CutoffFunction, n_k: int, mom: dict,
                           mu: float, e_mag: float) -> dict:
    """The explicit n_k-suppressed bounds on the residual terms, one entry per
    inequality, plus the extra phase term present when mu != 0."""
    n4 = float(n_k) ** -4.0
    n8 = float(n_k) ** -8.0
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
        bounds["phase"] = (mu**2 / e_mag) * n4 * cut.mass_over_z * mom["mix"]
    return bounds


def choose_parameters(eps: float, gs: GroundState, mu: float = 0.0,
                      min_n: int = 1, max_n_doublings: int = 60) -> tuple[float, int]:
    """Deterministic (k, n_k) selection.

    k is the smallest power of two from 16 to 2^53 (the largest with
    k - 1 != k in float64) with weighted derivative mass J(k) < eps.  Since
    J(k) ln^2 k > 588/25 on that range, no k up to 2^p0 with
    p0 = floor(sqrt(588/(25 eps)) / ln 2) qualifies, so the search starts at
    max(16, 2^(p0 + 1)) and usually builds one cutoff; an eps that needs
    k > 2^53 (eps <= 588/25 / (53 ln 2)^2 = 0.01743) fails before any is
    built.  n_k doubles from 4k (and past `min_n`, which enforces disjoint supports along
    a ladder and the interval plateau of `residual_norm`) until the
    correction-term norm bound is below 1/16 and the suppressed residual
    bounds sum below eps.
    """
    if not (0.0 < eps < 1.0):
        raise ConfigurationError("eps must lie in (0, 1)")
    if gs.e0 >= 0:
        raise ConfigurationError("parameter selection needs a negative threshold")
    cut = None
    # J(2^p) exceeds 588/25 / (p ln 2)^2 by over 7e-10 relatively, far more
    # than the rounding of the bound, so no candidate is skipped
    for p in range(max(4, _first_ladder_pow(eps)), _MAX_K_POW + 1):
        cand = cutoff_cached(2.0**p)
        if cand.j_weighted < eps:
            cut = cand
            break
    if cut is None:
        raise ComputationError(f"no ladder k up to 2^{_MAX_K_POW} with J(k) < {eps}")

    mom = _ground_moments(gs).mom
    n = int(4 * cut.k)
    while n <= min_n:
        n *= 2
    for _ in range(max_n_doublings):
        corr = float(n) ** -4.0 * cut.m_z5 * mom["f2"]
        bounds = suppressed_term_bounds(cut, n, mom, mu, -gs.e0)
        total = sum(bounds.values())
        if corr < 1.0 / 16.0 and total < eps:
            return cut.k, n
        n *= 2
    worst = max(bounds, key=bounds.get)
    raise ComputationError(
        f"n_k search exhausted; limiting term {worst} = {bounds[worst]!r}"
    )


# --- norm and residual ------------------------------------------------------


@dataclass(frozen=True)
class QuasiModeNorm:
    main_term: float        # squared norm of the leading part (= 1 in theory)
    correction_term: float  # squared norm of the f/y^2 part (< 1/16)
    norm: float


def quasimode_norm(qm: QuasiMode) -> QuasiModeNorm:
    """||psi|| via the t = xy change of variables.

    The leading and correction parts are orthogonal pointwise (h is real, f
    imaginary), so the squared norm splits exactly.
    """
    mom = _ground_moments(qm.gs).mom
    main = qm.cutoff.mass_over_z * mom["h2"]
    corr = float(qm.n_k) ** -4.0 * qm.cutoff.m_z5 * mom["f2"]
    return QuasiModeNorm(main, corr, float(np.sqrt(main + corr)))


def quasimode_norm_direct(qm: QuasiMode, n_y: int = 400) -> float:
    """Direct 2D quadrature of |psi|^2 in (x, y); cross-check for the
    transformed route.  Only usable at medium n_k (x-spacing ~ 1/y)."""
    ylo, yhi = qm.support
    ynodes, yw = gauss_panels(np.linspace(ylo, yhi, n_y + 1), 8)
    t, tw = _t_rule(qm.gs)
    h = qm.gs.h(t)
    chi = qm.cutoff.value(ynodes / qm.n_k)
    acc = 0.0
    for yv, wv, cv in zip(ynodes, yw, chi):
        g2 = h**2 + (0.5 * np.sqrt(qm.e_mag) * t**2 * h / yv**2) ** 2
        if qm.mode == "interval":
            g2 = g2 * qm.phi.value(t / yv) ** 2
        # x-integral of |psi|^2 at fixed y equals (1/y) * t-integral
        acc += wv * cv**2 / yv * float(tw @ g2)
    return float(np.sqrt(acc))


def residual_identity_check(gs: GroundState, e_mag: Optional[float] = None) -> float:
    """Max pointwise defect of the algebraic identity behind the residual
    cancellation, with h' and h'' taken from central differences of the
    sampled eigenfunction (an independent route; the quasi-mode itself uses
    ODE-exact derivatives).  Converges at second order in the grid spacing."""
    e = -gs.e0 if e_mag is None else float(e_mag)
    s = np.sqrt(e)
    t = gs.nodes
    h = gs.samples
    hx = gs.grid.h
    v, _ = eval_profile(gs.profile, t)
    f = -0.5j * s * t**2 * h
    fpp = np.empty_like(f)
    fpp[1:-1] = (f[:-2] - 2.0 * f[1:-1] + f[2:]) / hx**2
    h1 = np.empty_like(h)
    h1[1:-1] = (h[2:] - h[:-2]) / (2.0 * hx)
    d = (-fpp[1:-1] + f[1:-1] * (e + gs.omega**2 - gs.lam * v[1:-1])
         - 2.0j * s * t[1:-1] * h1[1:-1] - 1.0j * s * h[1:-1])
    return float(np.max(np.abs(d)))


def _residual_z_rule(cut: CutoffFunction):
    z1, z2, z3 = cut.breaks
    edges = np.unique(np.concatenate([
        log_panels(1.0, z1, 4.0),
        np.linspace(z1, z2, 7),
        log_panels(z2, z3, 4.0),
        np.linspace(z3, cut.k, 7),
    ]))
    return gauss_panels(edges, 10)


def residual_norm(qm: QuasiMode, config=None) -> float:
    """||(H - mu) psi|| by quadrature in (t, z) = (xy, y/n_k).

    The common phase e^{i theta(y)} is factored out, and the y^2-proportional
    block cancels exactly through the eigenvalue ODE.  With y = n_k z,
    a = chi'/n_k and b = chi''/n_k^2, the identities t f' - 2 f =
    -(i sqrt(E)/2) t^3 h' and f = -(i sqrt(E)/2) t^2 h leave the amplitude
    the rank-6 sum r(z, t) = sum_j A_j(z) B_j(t) over the real basis B of
    `_residual_basis`, so ||r||^2 = sum_z (w_z / z) A(z)^H G A(z) with the
    Gram matrix G of B on the t-rule: O(n_z + n_t) work, not O(n_z n_t).

    `config`, when given, must agree with the quasi-mode variant (line vs
    interval x-domain).  An interval quasi-mode must keep its plateau
    phi(t/y) = 1, phi' = phi'' = 0 on the whole t-rule, i.e. max|t| <=
    n_k c/2; its residual is then the line residual.
    """
    if config is not None:
        want = "interval" if config.x_domain.kind == "interval" else "line"
        if want != qm.mode:
            raise ConfigurationError(
                f"quasi-mode variant {qm.mode!r} does not match the "
                f"{config.x_domain.kind!r} x-domain")
    gm = _ground_moments(qm.gs)
    if qm.mode == "interval" and gm.t_max > 0.5 * qm.phi.half_width * qm.n_k:
        raise ConfigurationError(
            f"interval quasi-mode needs n_k >= 2 max|t| / c = "
            f"{2.0 * gm.t_max / qm.phi.half_width:.6g} to keep its plateau on "
            f"the t-rule; got n_k = {qm.n_k}")
    e = qm.e_mag
    s = np.sqrt(e)
    n = float(qm.n_k)
    phase = qm.phase

    z, wz = _residual_z_rule(qm.cutoff)
    y = n * z
    chi = qm.cutoff.value(z)
    a = qm.cutoff.d1(z) / n
    b = qm.cutoff.d2(z) / n**2
    rho = phase.rho(y)
    rm1 = phase.rho_minus_1(y)
    theta1 = phase.dtheta(y)
    amp = np.array([
        1.0j * s * chi * rm1 / rho - 2.0j * a * theta1 - b,
        -2.0j * s * chi * rm1 - 2.0 * a / y,
        -chi / y**2,
        0.5j * s * chi / y**4,
        -e * chi * rho / y**2 + 1.0j * s * a / y**3,
        (-e * chi / (2.0 * rho) - s * a * theta1 + 0.5j * s * b) / y**2,
    ])
    per_z = np.sum(amp.conj() * (gm.gram @ amp), axis=0).real
    return float(np.sqrt(np.sum((wz / z) * per_z)))


# --- certificate ------------------------------------------------------------


@dataclass(frozen=True)
class CertificateRow:
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
    its norm, residual, and the bound it is certified against.  The x-domain
    of `config` selects the full-line or interval variant."""
    if gs.e0 >= 0:
        raise ConfigurationError("certificate needs a supercritical channel")
    if any(not 0.0 < e < 1.0 for e in eps_ladder):
        raise ConfigurationError("eps ladder entries must lie in (0, 1)")
    if sorted(eps_ladder, reverse=True) != list(eps_ladder):
        raise ConfigurationError("eps ladder must be decreasing")
    if eps_ladder:
        _first_ladder_pow(eps_ladder[-1])  # fail before building any cutoff
    mode = "interval" if config.x_domain.kind == "interval" else "line"
    phi = build_plateau_cutoff(config.x_domain.c) if mode == "interval" else None
    sup_phi = 1.0 if phi is None else phi.sup

    rows = []
    min_n = 1
    if mode == "interval":
        # keeps phi(t/y) = 1 on the whole t-rule, as residual_norm requires
        min_n = int(np.ceil(2.0 * _ground_moments(gs).t_max / phi.half_width))
    for eps in eps_ladder:
        k, n_k = choose_parameters(eps, gs, mu, min_n=min_n)
        qm = QuasiMode(mu=mu, cutoff=cutoff_cached(k), n_k=n_k, gs=gs,
                       mode=mode, phi=phi)
        nr = quasimode_norm(qm)
        res = residual_norm(qm, config)
        rows.append(CertificateRow(
            eps=eps, k=k, n_k=n_k, norm=nr.norm, residual=res,
            normalized_residual=res / nr.norm,
            bound_9eps=9.0 * sup_phi**2 * eps,
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
            r.normalized_residual <= 2.0 * np.sqrt(r.bound_9eps) * (1.0 + 1e-6)
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
