"""The 1D comparison operator -d2/dx2 + omega^2 - lambda V(x).

The sign of its spectral threshold decides the spectral character of the 2D
model, so everything here is built around computing that threshold reliably.

Every channel profile vanishes outside its support [-a, a], so a threshold
is computed on the support chain alone: the Schur complement of the
potential-free exterior lowers each end diagonal by g/h^2.  On a chain of
spacing h the exterior solutions are r^j and r^-j, r + 1/r = 2 + (omega^2
- E) h^2, r < 1 below omega^2.  With N exterior nodes beyond each end, the
line (h = a/m, 2m - 1 support nodes) has N infinite and g = r, the discrete
transparent end; a Dirichlet end has g = r (1 - r^2N) / (1 - r^(2N+2)), a
Neumann end (the reflected last row) r (1 + r^(2N-1)) / (1 + r^(2N+1));
periodic ends take the Dirichlet g of the ring of M = 2N exterior nodes
and the corner entry -r^M (1 - r^2) / (1 - r^(2M+2)) / h^2.  Where the
exterior block is positive definite, Sylvester's law of inertia makes the
number of eigenvalues below E of the whole chain that of A(E) - E, A(E) the
support chain with these end terms; it leaves 0 at the threshold.  Only a
Dirichlet box has a threshold above omega^2, where cos(phi) = 1 + (omega^2
- E) h^2 / 2 and g = sin(N phi) / sin((N+1) phi).  The bisection's top is
the potential-free lowest eigenvalue (omega^2, or omega^2 + (4/h^2)
sin^2(pi/(2n + 2)) for a box of n nodes): above the threshold by min-max,
below the exterior block's spectrum by Cauchy interlacing, and the
threshold when lambda V vanishes on every support node.  A coupling that
places the line's threshold at a target E is where the same count, at that
fixed E, leaves 0 as lambda grows.

Both are bisections of the pure-Python Sturm count of `sturm` (cyclic for
periodic ends), Richardson-extrapolated over three resolutions and gated
at `rich_tol`: m, 2m and 4m steps of the support on the line, and on an
interval (-c, c) the grids of n, 2n and 4n nodes (interior vertices with
Dirichlet ends, cell centres otherwise), whose support nodes and exterior
counts are integer arithmetic: c does not enter the cost.  `ground_state`,
the eigenpair behind the Weyl quasi-modes, is solved on the line's support
chain at 2m by one bisection: E0 is its threshold, and the eigenvector comes
by inverse iteration on A(E0) from the bracket's lower end, shifted by the
change of the end terms, with a few exterior nodes u_edge r^j and the
geometric sum of the rest.  All of it runs
on floats and lists: the 1D commands and the Weyl path import only the
standard library.

Each threshold and coupling logs one `smilansky_lab.oned` debug record: the
resolution, the three values, their Richardson gap and the bisection steps
(`errors._debug`: in a process that has imported `logging`).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import ComputationError, ConfigurationError, RefinementError, _debug
from .model import NODE_CAP, Checked, PotentialProfile, XDomain, profile_values
from .sturm import bisect_count, cyclic_sturm_count, lowest_eigenvector, sturm_count

__all__ = [
    "ComparisonSpec",
    "GroundState",
    "ResolutionPolicy",
    "ground_state",
    "threshold",
    "coarse_threshold",
    "critical_coupling",
    "tune_lambda_to_threshold",
]

_EPS = sys.float_info.epsilon
# the Richardson gate never asks the extrapolants to agree more closely than
# this, relative to the result: float64 rounding of the bisections and of the
# extrapolation alone spreads them over several eps |result|
_FLOAT_RESOLUTION = 64 * _EPS


class ComparisonSpec(Checked, namedtuple("ComparisonSpec", "omega lam profile domain")):
    __slots__ = ()

    def __new__(cls, omega: float, lam: float, profile: PotentialProfile,
                domain: XDomain = XDomain()):
        if omega <= 0 or lam < 0:
            raise ConfigurationError("need omega > 0 and lambda >= 0")
        return super().__new__(cls, omega, lam, profile, domain)


class ResolutionPolicy(NamedTuple):
    """Discretization policy: grid density and the Richardson gate."""

    points_per_unit: float = 120.0
    rich_tol: float = 1e-6

    def n_for(self, c: float) -> int:
        """Nodes n of the coarsest grid on (-c, c).  The end terms take the
        node counts as floats, so the finest, 4n, must not overflow float64."""
        if not 4.0 * self.points_per_unit * (c + c) < math.inf:
            raise ConfigurationError(f"the interval (-{c}, {c}) is too long: its finest "
                                     "grid's node count overflows float64")
        return max(64, math.ceil(self.points_per_unit * (c + c)))

    def m_for(self, a: float) -> int:
        """Steps m of the support half-width a on the line (h = a/m), as
        many for a narrow support as for a unit one.  The finest chain, 8m - 1
        nodes at h = a/4m, may not pass NODE_CAP (an interval's finest chain
        is as long), and 1/h^4 must be a float64: h > 2^-256."""
        m = self.points_per_unit * max(a, 1.0)
        if not m <= NODE_CAP // 8:
            raise ConfigurationError(
                f"the channel support [-{a}, {a}] is too wide: its finest "
                f"chain would pass {NODE_CAP} nodes")
        m = math.ceil(m)
        if not a / (4 * m) > 2.0**-256:
            raise ConfigurationError(
                f"the channel support [-{a}, {a}] is too narrow: its finest "
                f"spacing a/(4m) = {a / (4 * m):.3g} puts 1/h^4 past float64")
        return m


def _rich_gate(value: float, policy: ResolutionPolicy) -> float:
    """The tolerance of the Richardson gate at the size of `value`: rich_tol,
    or 64 eps |value| (_FLOAT_RESOLUTION) where float64 cannot resolve it."""
    return max(policy.rich_tol, _FLOAT_RESOLUTION * abs(value))


def _richardson(what: str, values: list[float], steps, policy: ResolutionPolicy) -> float:
    """Extrapolate values at resolutions (k, 2k, 4k) of an O(h^2) scheme.

    The (k, 2k) and (2k, 4k) extrapolants must agree to `_rich_gate` at the
    size of the second, which is returned, so three equal values give that
    value exactly.
    """
    r1 = values[1] + (values[1] - values[0]) / 3.0
    r2 = values[2] + (values[2] - values[1]) / 3.0
    gap = abs(r1 - r2)
    _debug(__name__, "%s: values %r, Richardson gap %.3g, bisection steps %s",
           what, values, gap, steps)
    gate = _rich_gate(r2, policy)
    if gap > gate:
        why = (f"disagree beyond rich_tol = {policy.rich_tol:g}"
               if gate == policy.rich_tol else
               f"disagree beyond what float64 resolves at this size, "
               f"64 eps |value| = {gate:.3g}")
        raise RefinementError(
            f"Richardson extrapolants {why}: {r1!r} vs {r2!r} for the {what}; "
            f"raw values {values!r}")
    return r2


def _check_bracket(value: float, lo: float, h: float, policy: ResolutionPolicy) -> None:
    """Refuse a threshold whose bisection ended on a bracket [lo, 2 value -
    lo] wider than the Richardson gate's tolerance: at a small h the
    rounding level eps ||A|| of the count may pass the whole bracket, and
    equal midpoints would then pass the gate.  A NaN fails too."""
    width = 2.0 * (value - lo)
    gate = _rich_gate(value, policy)
    if not width <= gate:
        raise RefinementError(f"the chain resolves the threshold only to {width:.3g} "
                              f"> {gate:.3g} at h = {h:.3g}")


def _line_level(profile: PotentialProfile, m: int) -> tuple:
    """The 2m - 1 support nodes of spacing a/m on the line."""
    return profile.a / m, 2 * m - 2, None


def _interval_level(profile: PotentialProfile, domain: XDomain, n: int) -> tuple:
    """The grid of n nodes on (-c, c), x = (h/2) j, |j| <= n - 1, j = n + 1
    mod 2: interior vertices of h = 2c/(n + 1) with Dirichlet ends, cell
    centres of h = 2c/n otherwise.  The support chain takes a node with
    |x| >= a at each end (or stops at the ends), so V vanishes beyond it
    whatever the rounding of x."""
    h = (domain.c + domain.c) / (n + 1 if domain.bc == "dirichlet" else n)
    half_width = min(n - 1, 2 * math.ceil(profile.a / h) + 1 - n % 2)
    return h, half_width, (domain.bc, (n - 1 - half_width) // 2)


def _support_chain(omega: float, profile: PotentialProfile, h: float, half_width: int):
    """V on the support nodes x = (h/2) j, |j| <= half_width, the diagonal
    2/h^2 + omega^2 without the end terms, and the squared off-diagonal
    1/h^4."""
    v = profile_values(profile, [0.5 * h * j for j in range(-half_width, half_width + 1, 2)])
    return v, [2.0 / h**2 + omega**2] * len(v), [h**-4] * (len(v) - 1)


def _transparent_end(kappa2: float, h: float) -> float:
    """r/h^2, with r < 1 the decaying root of r + 1/r = 2 + kappa^2 h^2."""
    s = kappa2 * h * h
    return 1.0 / (1.0 + 0.5 * s + math.sqrt(s * (1.0 + 0.25 * s))) / (h * h)


def _end_terms(exterior: Optional[tuple[str, int]], w2: float, h: float,
               e: float) -> tuple[float, Optional[float]]:
    """At the energy e: the drop g/h^2 of each end diagonal of the support
    chain, and the corner entry between its ends (None but for periodic
    ends)."""
    if exterior is None:
        return _transparent_end(w2 - e, h), None
    bc, n = exterior
    if e >= w2:
        # a Dirichlet box at or above omega^2: U_{n-1}/U_n at cos(phi)
        phi = 2.0 * math.asin(0.5 * h * math.sqrt(e - w2))
        g = math.sin(n * phi) / math.sin((n + 1) * phi) if phi else n / (n + 1.0)
        return g / (h * h), None
    # r = e^-theta is the line's r; its powers go through theta, which keeps
    # 1 - r^k accurate when kappa h is small
    theta = 2.0 * math.asinh(0.5 * h * math.sqrt(w2 - e))
    if bc == "neumann":
        return ((math.exp(-theta) + math.exp(-2.0 * n * theta))
                / (1.0 + math.exp(-(2.0 * n + 1.0) * theta)) / (h * h)), None
    k = 2 * n if bc == "periodic" else n
    den = math.expm1(-(2.0 * k + 2.0) * theta) * h * h
    g = math.exp(-theta) * math.expm1(-2.0 * k * theta) / den
    if bc == "dirichlet":
        return g, None
    return g, -math.exp(-k * theta) * math.expm1(-2.0 * theta) / den


def _chain_count(omega: float, lam: float, profile: PotentialProfile, h: float,
                 half_width: int, exterior: Optional[tuple[str, int]]):
    """E -> the number of eigenvalues of A(E) below E, for E below omega^2
    or below a Dirichlet box's floor; E -> the diagonal of A(E) and its
    corner entry; and V on the support nodes."""
    v, d0, e2 = _support_chain(omega, profile, h, half_width)
    w2 = omega**2
    base = [di - lam * vi for di, vi in zip(d0, v)]
    off = [-1.0 / h**2] * len(e2)

    def matrix(e: float) -> tuple[list[float], Optional[float]]:
        d = base.copy()
        end, corner = _end_terms(exterior, w2, h, e)
        d[0] -= end
        d[-1] -= end
        return d, corner

    def count(e: float) -> int:
        d, corner = matrix(e)
        return (sturm_count(d, e2, e) if corner is None
                else cyclic_sturm_count(d, off, corner, e))
    return count, matrix, v


def _chain_threshold(omega: float, lam: float, profile: PotentialProfile, h: float,
                     half_width: int, exterior: Optional[tuple[str, int]] = None
                     ) -> tuple[float, int, float, Callable, list[float]]:
    """Discrete threshold at one resolution, its bisection steps, the lower
    end lo of its bracket (count(lo) == 0; the threshold itself where
    nothing binds), E -> the diagonal of A(E) and its corner entry, and V on
    the support nodes: the spacing h, the support chain x = (h/2) j,
    |j| <= half_width in steps of 2, and the exterior, None on the line,
    else the ends and the nodes N beyond each end of the chain."""
    count, matrix, v = _chain_count(omega, lam, profile, h, half_width, exterior)
    top = w2 = omega**2
    if exterior is not None and exterior[0] == "dirichlet":
        top += (2.0 / h * math.sin(0.5 * math.pi / (half_width + 2 + 2 * exterior[1]))) ** 2
    # A(top) - top is the potential-free chain minus lambda V, with a
    # positive lowest eigenvector: a state binds below top iff lambda V != 0
    if lam == 0.0 or max(v) <= 0.0:
        return top, 0, top, matrix, v
    # Rayleigh: the chain operator is >= omega^2 - lambda sup V, so no
    # eigenvalue of A(E) lies below E there; the bisection stops at the
    # rounding level eps ||A|| of the count
    lo = w2 - lam * profile.sup_value - 1.0
    tol = _EPS * (4.0 / h**2 + w2 + lam * profile.sup_value)
    lo, hi, steps = bisect_count(count, lo, top, tol)
    return 0.5 * (lo + hi), steps, lo, matrix, v


def _chain_coupling(omega: float, profile: PotentialProfile, target: float,
                   m: int) -> tuple[float, int]:
    """Coupling whose discrete threshold on the line's chain of spacing a/m
    is the target, and the doubling and bisection steps that found it."""
    h, half_width, _ = _line_level(profile, m)
    v, d0, e2 = _support_chain(omega, profile, h, half_width)
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


def _levels(spec: ComparisonSpec, policy: ResolutionPolicy) -> tuple[list[tuple], str]:
    """The three resolutions of spec's threshold, coarsest first, as
    arguments of `_chain_threshold`, and where they lie.  `policy.m_for`
    refuses a support too wide for the finest chain, on an interval too."""
    m = policy.m_for(spec.profile.a)
    if spec.domain.kind == "line":
        return ([_line_level(spec.profile, k) for k in (m, 2 * m, 4 * m)],
                f"on the line, m={m}")
    c = spec.domain.c
    n = policy.n_for(c)
    return ([_interval_level(spec.profile, spec.domain, k) for k in (n, 2 * n, 4 * n)],
            f"on (-{c}, {c}) with {spec.domain.bc} ends, n={n}")


def threshold(spec: ComparisonSpec, policy: ResolutionPolicy = ResolutionPolicy()) -> float:
    """Richardson-extrapolated threshold inf sigma(L), at m, 2m and 4m steps
    of the support on the line (`policy.m_for`), on the grids of n, 2n and
    4n nodes on an interval (`policy.n_for`)."""
    levels, where = _levels(spec, policy)
    runs = [_chain_threshold(spec.omega, spec.lam, spec.profile, *level)
            for level in levels]
    for level, (value, _, lo, _, _) in zip(levels, runs):
        _check_bracket(value, lo, level[0], policy)
    return _richardson(f"threshold at lambda={spec.lam!r} {where}",
                       [run[0] for run in runs], [run[1] for run in runs], policy)


def coarse_threshold(spec: ComparisonSpec) -> float:
    """The discrete threshold at the coarsest resolution of `threshold` alone
    (at the default policy): one Sturm bisection, neither extrapolated nor
    gated, so it carries the O(h^2) error of that resolution.  An estimate,
    for callers that certify what they do with it by other means."""
    level = _levels(spec, ResolutionPolicy())[0][0]
    return _chain_threshold(spec.omega, spec.lam, spec.profile, *level)[0]


class GroundState:
    """Minimal eigenpair of the discretized comparison operator on the line.

    `samples` u_j live on the uniform `nodes` of spacing h (the support chain
    and a few exterior nodes on each side), normalized so that
    sum(u_j^2) h = 1 over the whole chain, and positive.  The C^2 quintic Hermite
    interpolant matches the sampled values, fourth-order finite difference
    first derivatives, and ODE-exact second derivatives at the nodes; beyond
    the last node the analytic exponential tail takes over.  `jet` takes and
    returns floats.  Equality and hashing are by identity, so derived
    quantities can be cached per ground state (weakly: it is
    weak-referenceable).
    """

    def __init__(self, e0: float, samples: list[float], nodes: list[float],
                 spacing: float, lam: float, omega: float, profile: PotentialProfile,
                 _interpolant: Callable[[float], tuple[float, float, float]]):
        self.e0 = e0
        self.samples = samples
        self.nodes = nodes
        self.spacing = spacing
        self.lam = lam
        self.omega = omega
        self.profile = profile
        # t -> (h, h', h'') of the quintic Hermite interpolant on [lo, hi]
        self._interpolant = _interpolant

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
        return _ode_factors(self.omega, self.lam, self.e0, profile_values(self.profile, ts))


def _ode_factors(omega: float, lam: float, e0: float, v: Sequence[float]) -> list[float]:
    """h''/h = omega^2 - lambda V - E0 from the values v of V."""
    w2 = omega**2 - e0
    return [w2 - lam * vi for vi in v]


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
    eigenvector is that of A(E0), by inverse iteration (`lowest_eigenvector`)
    from the same bisection: its bracket's lower end lo, lowered by the
    change of the end terms from lo to E0, lies below the spectrum of A(E0)
    (Weyl's inequality), which one Sturm count certifies.  Outside the
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
    h, half_width, _ = _line_level(profile, m)
    e0, _, lo, matrix, v = _chain_threshold(omega, lam, profile, h, half_width)
    _check_bracket(e0, lo, h, policy)
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
    # A(E0) = A(lo) - delta (e_0 e_0^T + e_n e_n^T), delta = end(E0) - end(lo)
    # >= 0, and count(lo) == 0 makes A(lo) - lo positive definite
    d, _ = matrix(e0)
    sigma = lo - (end - _transparent_end(omega**2 - lo, h))
    u = lowest_eigenvector(d, [-1.0 / h**2] * (2 * m - 2), sigma)
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
    # V on the support nodes is the chain's: h j and (h/2)(2j) round the same
    # product, so only the exterior nodes need the profile
    v = profile_values(profile, x[:p]) + v + profile_values(profile, x[-p:])
    d2 = [f * y for f, y in zip(_ode_factors(omega, lam, e0, v), u)]
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


def tune_lambda_to_threshold(omega: float, profile: PotentialProfile, target: float,
                             tol: float = 1e-6,
                             policy: ResolutionPolicy = ResolutionPolicy()) -> float:
    """Richardson-extrapolated coupling that places the threshold of L on
    the line at the requested energy (e.g. -1), certified by one threshold
    at that coupling within tol of the target."""
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
    e = threshold(ComparisonSpec(omega, lam, profile), policy)
    if not abs(e - target) <= tol:
        raise RefinementError(
            f"the threshold {e!r} at the coupling {lam!r} misses the target "
            f"{target!r} by more than tol = {tol:g}")
    return lam


def critical_coupling(omega: float, profile: PotentialProfile, tol: float = 1e-6,
                      policy: ResolutionPolicy = ResolutionPolicy()) -> float:
    """The coupling at which the threshold of L on the line changes sign:
    `tune_lambda_to_threshold` at the target 0."""
    return tune_lambda_to_threshold(omega, profile, 0.0, tol, policy)
