"""The 1D comparison operator -d2/dx2 + omega^2 - lambda V(x).

The sign of its spectral threshold decides the spectral character of the 2D
model, so everything here is built around computing that threshold reliably.

On the line, every channel profile vanishes outside its support [-a, a], so
the exterior of the support is eliminated exactly (a discrete transparent
boundary condition).  On the uniform chain of spacing h = a/m, a solution
below the continuum edge omega^2 decays outside the support like r^j, with
r + 1/r = 2 + (omega^2 - E) h^2 and r < 1.  So E is an eigenvalue exactly
when it is an eigenvalue of A(E): the central-difference matrix on the
2m - 1 support nodes with each end diagonal lowered by r/h^2.  The number of
eigenvalues of A(E) below E is nondecreasing in E, and the threshold is the
point where it leaves 0.  At E = omega^2 that count is 0 exactly when lambda V
vanishes on every support node; then there is no bound state, and the
threshold is omega^2 itself.  A coupling that places the
threshold at a target E is where the same count, at that fixed E, leaves 0
as lambda grows.  Both are bisections of the pure-Python Sturm count of
`sturm`, Richardson-extrapolated over m, 2m and 4m and gated at `rich_tol`.

The x-domain is the model's `XDomain`.  An interval (-c, c) keeps the
whole-interval assembly with Dirichlet, Neumann or periodic ends, on n, 2n
and 4n nodes (4n at most `NODE_CAP`); its minimal eigenvalue is a bisection
of the same count, bordered for the periodic wrap.  Both chains are Python
lists, so every 1D threshold and coupling imports only the standard
library.  `ground_state`, the eigenpair behind the Weyl quasi-modes, is
solved on the support chain at 2m (its threshold, then inverse iteration
of `sturm` on A(E0)), with a few exterior nodes u_edge r^j and the
geometric sum of the rest: its cost is that of the support.  `GroundState`
evaluates its interpolant on floats, so the Weyl path starts without numpy
too.

Each threshold and coupling logs one `smilansky_lab.oned` debug record: the
resolution, the three values, their Richardson gap and the bisection steps.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from .errors import ComputationError, ConfigurationError, RefinementError
from .model import PotentialProfile, XDomain, profile_values
from .sturm import bisect_count, chain_bracket, chain_lowest_pair, chain_norm, sturm_count

__all__ = [
    "Grid1D",
    "ComparisonSpec",
    "GroundState",
    "ResolutionPolicy",
    "ground_state",
    "threshold",
    "coarse_threshold",
    "critical_coupling",
    "tune_lambda_to_threshold",
]

_log = logging.getLogger(__name__)

_EPS = sys.float_info.epsilon
# the Richardson gate never asks the extrapolants to agree more closely than
# this, relative to the result: float64 rounding of the bisections and of the
# extrapolation alone spreads them over several eps |result|
_FLOAT_RESOLUTION = 64 * _EPS
# the most nodes one grid may hold: the finest 1D interval level here, a 2D
# grid in `grid2d`
NODE_CAP = 4_000_000


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with n interior points on (lo, hi)."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.hi <= self.lo:
            raise ConfigurationError("grid needs lo < hi")
        if self.n < 16:
            raise ConfigurationError("spectral grids need at least 16 interior points")

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.n + 1)

    def nodes(self, bc: str) -> tuple[float, list[float]]:
        """Spacing and nodes: the n interior vertices with Dirichlet ends,
        the n cell centres with Neumann or periodic ends."""
        if bc == "dirichlet":
            h = self.h
            return h, [self.lo + h * k for k in range(1, self.n + 1)]
        h = (self.hi - self.lo) / self.n
        return h, [self.lo + h * (k + 0.5) for k in range(self.n)]


@dataclass(frozen=True)
class ComparisonSpec:
    omega: float
    lam: float
    profile: PotentialProfile
    domain: XDomain = XDomain()

    def __post_init__(self):
        if self.omega <= 0 or self.lam < 0:
            raise ConfigurationError("need omega > 0 and lambda >= 0")


@dataclass(frozen=True)
class ResolutionPolicy:
    """Discretization policy: grid density and the Richardson gate."""

    points_per_unit: float = 120.0
    rich_tol: float = 1e-6

    def n_for(self, c: float) -> int:
        """Interior nodes n of the coarsest grid on (-c, c), checked before
        any grid is built: the finest, 4n, must not pass NODE_CAP."""
        n = max(64, math.ceil(self.points_per_unit * (c + c)))
        if 4 * n > NODE_CAP:
            raise ConfigurationError(
                f"the interval (-{c}, {c}) needs {4 * n} nodes at its finest "
                f"resolution, more than the cap of {NODE_CAP}")
        return n

    def m_for(self, a: float) -> int:
        """Steps of the support half-width a on the line (h = a/m)."""
        return math.ceil(self.points_per_unit * a)


def _interval_chain(spec: ComparisonSpec, grid: Grid1D):
    """Second-order central-difference assembly of L on the grid, as lists:
    (diagonal, off-diagonal, periodic wrap entry or None).

    Dirichlet drops the boundary points, Neumann mirrors ghost points across a
    cell-centered grid, periodic wraps (corner entry).
    """
    bc = spec.domain.bc
    h, x = grid.nodes(bc)
    base = 2.0 / h**2 + spec.omega**2
    diag = [base - spec.lam * vi for vi in profile_values(spec.profile, x)]
    off = [-1.0 / h**2] * (len(x) - 1)
    corner = None
    if bc == "neumann":
        diag[0] -= 1.0 / h**2
        diag[-1] -= 1.0 / h**2
    elif bc == "periodic":
        corner = -1.0 / h**2
    return diag, off, corner


def _min_eig(spec: ComparisonSpec, grid: Grid1D) -> float:
    """Minimal eigenvalue of the whole-interval assembly, bracketed by the
    Sturm count (the bordered count for the periodic wrap) to 1e-15 ||T||."""
    d, e, corner = _interval_chain(spec, grid)
    lo, hi = chain_bracket(d, e, corner, 1e-15 * max(1.0, chain_norm(d, e, corner)))
    return 0.5 * (lo + hi)


def _richardson(what: str, values: list[float], steps, policy: ResolutionPolicy) -> float:
    """Extrapolate values at resolutions (k, 2k, 4k) of an O(h^2) scheme.

    The (k, 2k) and (2k, 4k) extrapolants must agree to rich_tol, or to
    64 eps |r2| (_FLOAT_RESOLUTION) where float64 cannot resolve rich_tol
    at the size of the result; the second is returned, so three equal
    values give that value exactly.
    """
    r1 = values[1] + (values[1] - values[0]) / 3.0
    r2 = values[2] + (values[2] - values[1]) / 3.0
    gap = abs(r1 - r2)
    _log.debug("%s: values %r, Richardson gap %.3g, bisection steps %s",
               what, values, gap, steps)
    resolved = _FLOAT_RESOLUTION * abs(r2)
    if gap > max(policy.rich_tol, resolved):
        why = (f"disagree beyond rich_tol = {policy.rich_tol:g}"
               if resolved <= policy.rich_tol else
               f"disagree beyond what float64 resolves at this size, "
               f"64 eps |value| = {resolved:.3g}")
        raise RefinementError(
            f"Richardson extrapolants {why}: {r1!r} vs {r2!r} for the {what}; "
            f"raw values {values!r}")
    return r2


def _support_chain(omega: float, profile: PotentialProfile, m: int):
    """Spacing h = a/m, V on the 2m - 1 support nodes, the diagonal
    2/h^2 + omega^2 without the ends' transparent terms, and the squared
    off-diagonal 1/h^4."""
    h = profile.a / m
    v = profile_values(profile, [h * j for j in range(1 - m, m)])
    d = [2.0 / h**2 + omega**2] * (2 * m - 1)
    return h, v, d, [h**-4] * (2 * m - 2)


def _transparent_end(kappa2: float, h: float) -> float:
    """r/h^2, with r < 1 the decaying root of r + 1/r = 2 + kappa^2 h^2."""
    s = kappa2 * h * h
    return 1.0 / (1.0 + 0.5 * s + math.sqrt(s * (1.0 + 0.25 * s))) / (h * h)


def _chain_threshold(omega: float, lam: float, profile: PotentialProfile,
                    m: int) -> tuple[float, int]:
    """Discrete threshold on the chain of spacing a/m, and its bisection steps."""
    h, v, d0, e2 = _support_chain(omega, profile, m)
    w2 = omega**2
    # A(omega^2) - omega^2 is the Neumann chain minus lambda V, on which the
    # constant vector has Rayleigh quotient -lambda mean(V): a bound state
    # exists exactly when lambda V is nonzero on a support node
    if lam == 0.0 or max(v) <= 0.0:
        return w2, 0
    base = [di - lam * vi for di, vi in zip(d0, v)]

    def count(e: float) -> int:
        d = base.copy()
        end = _transparent_end(w2 - e, h)
        d[0] -= end
        d[-1] -= end
        return sturm_count(d, e2, e)

    # Rayleigh: the chain operator is >= omega^2 - lambda sup V, so no
    # eigenvalue of A(E) lies below E there; the bisection stops at the
    # rounding level eps ||A|| of the count
    lo = w2 - lam * profile.sup_value - 1.0
    tol = _EPS * (4.0 / h**2 + w2 + lam * profile.sup_value)
    lo, hi, steps = bisect_count(count, lo, w2, tol)
    return 0.5 * (lo + hi), steps


def _chain_coupling(omega: float, profile: PotentialProfile, target: float,
                   m: int) -> tuple[float, int]:
    """Coupling whose discrete threshold on the chain of spacing a/m is the
    target, and the doubling and bisection steps that found it."""
    h, v, d0, e2 = _support_chain(omega, profile, m)
    if max(v) <= 0.0:
        raise ComputationError(
            f"the profile vanishes on every support node at h = {h:.3g}: "
            "no coupling binds a state")
    end = _transparent_end(omega**2 - target, h)
    d0[0] -= end
    d0[-1] -= end

    def count(lam: float) -> int:
        return sturm_count([di - lam * vi for di, vi in zip(d0, v)], e2, target)

    # count(0) == 0 since target < omega^2; the doubling ends, because the
    # unit vector at a node with V_j > 0 has a negative Rayleigh quotient
    # once lambda V_j > d_j - target
    lo, hi, doublings = 0.0, 1.0, 0
    while not count(hi):
        lo, hi, doublings = hi, 2.0 * hi, doublings + 1
    # rounding level: a change of lambda by eps ||A|| / max V is within it
    vmax = max(v)
    tol = _EPS * (4.0 / h**2 + omega**2 + hi * vmax) / vmax
    lo, hi, steps = bisect_count(count, lo, hi, tol)
    return 0.5 * (lo + hi), doublings + steps


def threshold(spec: ComparisonSpec, policy: ResolutionPolicy = ResolutionPolicy()) -> float:
    """Richardson-extrapolated threshold inf sigma(L).

    On the line: the discrete threshold with transparent ends at h = a/m,
    a/2m and a/4m (m from `policy.m_for`).  On an interval: the minimal
    eigenvalue of the whole-interval assembly at n, 2n and 4n nodes.
    """
    if spec.domain.kind == "interval":
        c = spec.domain.c
        n = policy.n_for(c)
        values = [_min_eig(spec, Grid1D(-c, c, k)) for k in (n, 2 * n, 4 * n)]
        return _richardson(f"threshold at lambda={spec.lam!r} on (-{c}, {c}) "
                           f"with {spec.domain.bc} ends, n={n}", values, "-", policy)
    return _threshold_on_line(spec.omega, spec.lam, spec.profile, policy)


def coarse_threshold(spec: ComparisonSpec,
                     policy: ResolutionPolicy = ResolutionPolicy()) -> float:
    """The discrete threshold at the coarsest resolution of `threshold` (m
    steps of the support, or n interval nodes) alone: one Sturm bisection,
    neither extrapolated nor gated, so it carries the O(h^2) error of that
    resolution.  An estimate, for callers that certify what they do with it
    by other means."""
    if spec.domain.kind == "interval":
        c = spec.domain.c
        return _min_eig(spec, Grid1D(-c, c, policy.n_for(c)))
    return _chain_threshold(spec.omega, spec.lam, spec.profile,
                            policy.m_for(spec.profile.a))[0]


def _threshold_on_line(omega: float, lam: float, profile: PotentialProfile,
                       policy: ResolutionPolicy) -> float:
    m = policy.m_for(profile.a)
    runs = [_chain_threshold(omega, lam, profile, k) for k in (m, 2 * m, 4 * m)]
    return _richardson(f"threshold at lambda={lam!r} on the line, m={m}",
                       [e for e, _ in runs], [s for _, s in runs], policy)


@dataclass(frozen=True, eq=False)
class GroundState:
    """Minimal eigenpair of the discretized comparison operator on the line.

    `samples` u_j live on the uniform `nodes` of spacing h (the support chain
    and a few exterior nodes on each side), normalized so that
    sum(u_j^2) h = 1 over the whole chain, and positive.  The C^2 quintic Hermite
    interpolant matches the sampled values, fourth-order finite difference
    first derivatives, and ODE-exact second derivatives at the nodes; beyond
    the last node the analytic exponential tail takes over.  `jet` takes and
    returns floats.  Equality and hashing are by identity, so derived
    quantities can be cached per ground state.
    """

    e0: float
    samples: list[float]
    nodes: list[float]
    spacing: float
    lam: float
    omega: float
    profile: PotentialProfile
    # t -> (h, h', h'') of the quintic Hermite interpolant on [lo, hi]
    _interpolant: Callable[[float], tuple[float, float, float]] = field(repr=False)

    @property
    def kappa(self) -> float:
        """Tail decay rate sqrt(omega^2 - E0) outside the channel support."""
        return math.sqrt(max(self.omega**2 - self.e0, 0.0))

    def jet(self, t: float) -> tuple[float, float]:
        """(h(t), h'(t))."""
        lo, hi = self.nodes[0], self.nodes[-1]
        if t > hi:
            v = self.samples[-1] * math.exp(-self.kappa * (t - hi))
            return v, -self.kappa * v
        if t < lo:
            v = self.samples[0] * math.exp(-self.kappa * (lo - t))
            return v, self.kappa * v
        return self._interpolant(t)[:2]

    def ode_factors(self, ts: Sequence[float]) -> list[float]:
        """h''/h = omega^2 - lambda V(t) - E0 at the points ts, from the
        eigenvalue ODE."""
        return _ode_factors(self.omega, self.lam, self.profile, self.e0, ts)


def _ode_factors(omega: float, lam: float, profile: PotentialProfile, e0: float,
                 ts: Sequence[float]) -> list[float]:
    w2 = omega**2 - e0
    return [w2 - lam * v for v in profile_values(profile, ts)]


# exterior nodes u_edge r^j kept on each side of the support chain: the
# fourth-order slopes reach two nodes out, so every node of the support
# takes centred ones, and the one-sided ones fall on the exact exponential
_EXTERIOR_NODES = 4


def ground_state(spec: ComparisonSpec,
                 policy: ResolutionPolicy = ResolutionPolicy()) -> GroundState:
    """Minimal eigenpair on the line, on the support chain of spacing
    h = a/(2m), m = `policy.m_for(a)`, all on lists.

    E0 is the chain's threshold (`_chain_threshold`): the E that is the
    lowest eigenvalue of A(E), the support chain with transparent ends.  The
    eigenvector is that of A(E0), by `chain_lowest_pair`.  Outside the
    support the discrete solution is exactly u_edge r^j, with r the decaying
    root at E0: `_EXTERIOR_NODES` of those nodes complete the interpolant's
    data on each side, and the geometric sum of the rest completes the
    normalization over the whole line.  So the cost is that of the support
    alone.  Raises ConfigurationError when there is no decaying tail: no
    bound state below omega^2 (r = 1), or a decay that float64 cannot hold
    (r = 0).
    """
    from .quadrature import quintic_hermite

    if spec.domain.kind != "line":
        raise ConfigurationError("ground_state solves on the line only")
    omega, lam, profile = spec.omega, spec.lam, spec.profile
    m = 2 * policy.m_for(profile.a)
    h, v, d, _ = _support_chain(omega, profile, m)
    e0, _ = _chain_threshold(omega, lam, profile, m)
    kappa2 = omega**2 - e0
    end = _transparent_end(kappa2, h)
    r = end * h * h
    if not (kappa2 > 0.0 and r < 1.0):
        raise ConfigurationError(
            f"the channel binds no state below omega^2 = {omega**2!r} at "
            f"h = {h:.3g}: its ground state has no decaying tail")
    if r <= 0.0:
        raise ConfigurationError(
            f"the ground state's tail ratio r underflows to 0 at kappa h = "
            f"{math.sqrt(kappa2) * h:.3g}: float64 cannot hold its decay")
    d = [di - lam * vi for di, vi in zip(d, v)]
    d[0] -= end
    d[-1] -= end
    _, u = chain_lowest_pair(d, [-1.0 / h**2] * (2 * m - 2))
    if math.fsum(u) < 0.0:
        u = [-x for x in u]

    p = _EXTERIOR_NODES
    powers = [r**j for j in range(1, p + 1)]
    u = [u[0] * f for f in reversed(powers)] + u + [u[-1] * f for f in powers]
    # the exterior beyond the kept nodes: sum_{j >= 1} r^(2j) = r^2 / (1 - r^2)
    tail = (u[0] ** 2 + u[-1] ** 2) * (r * r / (1.0 - r * r))
    norm = math.sqrt((math.fsum(x * x for x in u) + tail) * h)
    u = [x / norm for x in u]
    x = [h * j for j in range(1 - m - p, m + p)]
    d1 = _fd4_derivative(u, h)
    d2 = [f * y for f, y in zip(_ode_factors(omega, lam, profile, e0, x), u)]
    return GroundState(
        e0=e0, samples=u, nodes=x, spacing=h, lam=lam, omega=omega,
        profile=profile, _interpolant=partial(quintic_hermite, x, u, d1, d2),
    )


def _fd4_derivative(u: Sequence[float], h: float) -> list[float]:
    """Fourth-order first derivative on a uniform grid, one-sided at the ends."""
    n = len(u)
    d = [(-25 * u[i] + 48 * u[i + 1] - 36 * u[i + 2] + 16 * u[i + 3] - 3 * u[i + 4])
         / (12 * h) for i in (0, 1)]
    d += [(u[i - 2] - 8 * u[i - 1] + 8 * u[i + 1] - u[i + 2]) / (12 * h)
          for i in range(2, n - 2)]
    d += [(25 * u[i] - 48 * u[i - 1] + 36 * u[i - 2] - 16 * u[i - 3] + 3 * u[i - 4])
          / (12 * h) for i in (n - 2, n - 1)]
    return d


def _coupling(omega: float, profile: PotentialProfile, target: float,
              tol: float, policy: ResolutionPolicy) -> float:
    """Richardson-extrapolated coupling with threshold `target` on the line,
    certified by one threshold at that coupling within tol of the target."""
    # a NaN target or omega passes the comparisons below and never ends the
    # doubling of the coupling bracket
    if not all(map(math.isfinite, (omega, target, tol))):
        raise ConfigurationError(
            f"omega, target and tol must be finite, got {omega!r}, {target!r}, {tol!r}")
    if tol <= 0:
        raise ConfigurationError("tolerance must be positive")
    if target >= omega**2:
        if target > omega**2:
            raise ConfigurationError("target threshold must be below omega^2")
        return 0.0
    m = policy.m_for(profile.a)
    runs = [_chain_coupling(omega, profile, target, k) for k in (m, 2 * m, 4 * m)]
    lam = _richardson(f"coupling at target {target!r} on the line, m={m}",
                      [lam for lam, _ in runs], [s for _, s in runs], policy)
    e = _threshold_on_line(omega, lam, profile, policy)
    if not abs(e - target) <= tol:
        raise RefinementError(
            f"the threshold {e!r} at the coupling {lam!r} misses the target "
            f"{target!r} by more than tol = {tol:g}")
    return lam


def critical_coupling(omega: float, profile: PotentialProfile, tol: float = 1e-6,
                      policy: ResolutionPolicy = ResolutionPolicy()) -> float:
    """The coupling at which the threshold of L on the line changes sign;
    the threshold there is checked to lie within tol of 0."""
    return _coupling(omega, profile, 0.0, tol, policy)


def tune_lambda_to_threshold(omega: float, profile: PotentialProfile, target: float,
                             tol: float = 1e-6,
                             policy: ResolutionPolicy = ResolutionPolicy()) -> float:
    """Coupling that places the threshold of L on the line at the requested
    energy (e.g. -1); the threshold there is checked to lie within tol."""
    return _coupling(omega, profile, target, tol, policy)
