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

Thresholds and couplings are bisections of the pure-Python Sturm count of
`sturm` (cyclic for periodic ends) on the support chain, whose
off-diagonal is the one entry -1/h^2.  Each count returns the last pivot
of the chain too, which changes sign at the threshold (or the coupling)
and steers `bisect_count` to the plain bisection's bracket in about a third
of its counts.  They are Richardson-extrapolated over three resolutions
and gated at `rich_tol`, by the one rule `_RESOLUTION` of every 1D solve:
m, 2m and 4m steps of the support on the line (m = ceil(120 max(a, 1))), and
on an interval (-c, c) the grids of n, 2n and 4n nodes (interior
vertices with Dirichlet ends, cell centres otherwise), whose support nodes
and exterior counts are integer arithmetic: c does not enter the cost.

Each resolution's chain is one `_Chain` record, built once: its spacing,
V on its nodes and its exterior.  One function writes the diagonal of
A(E) at a coupling (`_diagonal`) and one its end terms (`_end_terms`), for
thresholds, couplings and the ground state alike, and a tuned coupling is
certified by the threshold on the three chains it was bisected on.
`ground_state`, the eigenpair behind the Weyl quasi-modes, is solved on the
line's chain at 2m by one bisection: E0 is its threshold, and the
eigenvector comes by inverse iteration on A(E0) from the bracket's lower
end, shifted by the change of the end terms, with a few exterior nodes
u_edge r^j and the geometric sum of the rest.  All of it runs on floats and
lists: the 1D commands and the Weyl path import only the standard library.

Each threshold and coupling logs one `smilansky_lab.oned` debug record: the
resolution, the three values, their Richardson gap and the bisection steps
(`errors._debug`: in a process that has imported `logging`).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import NamedTuple, Optional, Sequence

from .errors import ComputationError, ConfigurationError, RefinementError, _debug
from .model import NODE_CAP, Checked, PotentialProfile, XDomain, _check_depth, profile_values
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
    """Grid density and Richardson gate: the rule of every 1D solve, `_RESOLUTION`."""

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


_RESOLUTION = ResolutionPolicy()


def _rich_gate(value: float) -> float:
    """The tolerance of the Richardson gate at the size of `value`: rich_tol,
    or 64 eps |value| (_FLOAT_RESOLUTION) where float64 cannot resolve it."""
    return max(_RESOLUTION.rich_tol, _FLOAT_RESOLUTION * abs(value))


def _richardson(what: str, values: list[float], steps) -> float:
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
    gate = _rich_gate(r2)
    if gap > gate:
        why = (f"disagree beyond rich_tol = {_RESOLUTION.rich_tol:g}"
               if gate == _RESOLUTION.rich_tol else
               f"disagree beyond what float64 resolves at this size, "
               f"64 eps |value| = {gate:.3g}")
        raise RefinementError(
            f"Richardson extrapolants {why}: {r1!r} vs {r2!r} for the {what}; "
            f"raw values {values!r}")
    return r2


def _check_bracket(value: float, lo: float, h: float) -> None:
    """Refuse a threshold whose bisection ended on a bracket [lo, 2 value -
    lo] wider than the Richardson gate's tolerance: at a small h the
    rounding level eps ||A|| of the count may pass the whole bracket, and
    equal midpoints would then pass the gate.  A NaN fails too."""
    width = 2.0 * (value - lo)
    gate = _rich_gate(value)
    if not width <= gate:
        raise RefinementError(f"the chain resolves the threshold only to {width:.3g} "
                              f"> {gate:.3g} at h = {h:.3g}")


class _Chain(NamedTuple):
    """One resolution's support chain: the spacing h, V on its nodes
    x = (h/2) j, |j| <= len(v) - 1, j = len(v) - 1 mod 2, and the exterior:
    None on the line, else the ends and the nodes N beyond each end."""

    h: float
    v: list
    exterior: Optional[tuple[str, int]]


def _chain(profile: PotentialProfile, domain: XDomain, k: int) -> _Chain:
    """The support chain at resolution k: on the line the 2k - 1 nodes of
    spacing a/k; on (-c, c) the grid of k nodes, x = (h/2) j, |j| <= k - 1,
    j = k + 1 mod 2 (interior vertices of h = 2c/(k + 1) with Dirichlet
    ends, cell centres of h = 2c/k otherwise), cut to a node with |x| >= a
    at each end (or to the ends), so V vanishes beyond it whatever the
    rounding of x."""
    if domain.kind == "line":
        h, half_width, exterior = profile.a / k, 2 * k - 2, None
    else:
        h = (domain.c + domain.c) / (k + 1 if domain.bc == "dirichlet" else k)
        half_width = min(k - 1, 2 * math.ceil(profile.a / h) + 1 - k % 2)
        exterior = domain.bc, (k - 1 - half_width) // 2
    v = profile_values(profile, [0.5 * h * j for j in range(-half_width, half_width + 1, 2)])
    return _Chain(h, v, exterior)


def _end_terms(chain: _Chain, w2: float, e: float) -> tuple[float, Optional[float]]:
    """At the energy e: the drop g/h^2 of each end diagonal of the chain,
    and the corner entry between its ends (None but for periodic ends).  On
    the line g = r < 1, the decaying root of r + 1/r = 2 + (omega^2 - e) h^2."""
    h = chain.h
    if chain.exterior is None:
        s = (w2 - e) * h * h
        return 1.0 / (1.0 + 0.5 * s + math.sqrt(s * (1.0 + 0.25 * s))) / (h * h), None
    bc, n = chain.exterior
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


def _diagonal(chain: _Chain, omega: float, lam: float, end: float) -> list[float]:
    """The diagonal of A(E) at the coupling lam: 2/h^2 + omega^2 - lam V,
    less the end term `end` (`_end_terms` at E) at both ends."""
    d0 = 2.0 / chain.h**2 + omega**2
    d = [d0 - lam * vi for vi in chain.v]
    d[0] -= end
    d[-1] -= end
    return d


def _chain_threshold(spec: ComparisonSpec, chain: _Chain) -> tuple[float, int, float]:
    """Discrete threshold of spec's operator on the chain, its bisection
    steps, and the lower end lo of its bracket (count(lo) == 0; the
    threshold itself where nothing binds)."""
    omega, lam, h = spec.omega, spec.lam, chain.h
    top = w2 = omega**2
    if chain.exterior is not None and chain.exterior[0] == "dirichlet":
        n = len(chain.v) + 2 * chain.exterior[1]
        top += (2.0 / h * math.sin(0.5 * math.pi / (n + 1))) ** 2
    # A(top) - top is the potential-free chain minus lambda V, with a
    # positive lowest eigenvector: a state binds below top iff lambda V != 0
    if lam == 0.0 or max(chain.v) <= 0.0:
        return top, 0, top
    b2, off = h**-4, -1.0 / h**2

    def count(e: float) -> tuple[int, float]:
        """The number of eigenvalues of A(e) below e, for e below omega^2 or
        below a Dirichlet box's floor, and the last pivot of A(e) - e."""
        end, corner = _end_terms(chain, w2, e)
        d = _diagonal(chain, omega, lam, end)
        return (sturm_count(d, b2, e) if corner is None
                else cyclic_sturm_count(d, off, corner, e))

    # Rayleigh: the chain operator is >= omega^2 - lambda sup V, so no
    # eigenvalue of A(E) lies below E there; the bisection stops at the
    # rounding level eps ||A|| of the count
    sup = spec.profile.sup_value
    lo, hi, steps = bisect_count(count, w2 - lam * sup - 1.0, top,
                                 _EPS * (4.0 / h**2 + w2 + lam * sup))
    return 0.5 * (lo + hi), steps, lo


def _chain_coupling(chain: _Chain, omega: float, target: float) -> tuple[float, int]:
    """Coupling whose discrete threshold on the line's chain is the target,
    and the doubling and bisection steps that found it."""
    h, vmax = chain.h, max(chain.v)
    if vmax <= 0.0:
        raise ComputationError(
            f"the profile vanishes on every support node at h = {h:.3g}: "
            "no coupling binds a state")
    end, b2 = _end_terms(chain, omega**2, target)[0], h**-4

    def count(lam: float) -> tuple[int, float]:
        return sturm_count(_diagonal(chain, omega, lam, end), b2, target)

    # count(0) == 0 since target < omega^2; the doubling ends, because the
    # unit vector at a node with V_j > 0 has a negative Rayleigh quotient
    # once lambda V_j > d_j - target
    lo, hi, doublings = 0.0, 1.0, 0
    while not count(hi)[0]:
        lo, hi, doublings = hi, 2.0 * hi, doublings + 1
    # rounding level: a change of lambda by eps ||A|| / max V is within it
    tol = _EPS * (4.0 / h**2 + omega**2 + hi * vmax) / vmax
    lo, hi, steps = bisect_count(count, lo, hi, tol)
    return 0.5 * (lo + hi), doublings + steps


def _levels(profile: PotentialProfile, domain: XDomain) -> tuple[int, str]:
    """The coarsest of the resolutions k, 2k and 4k of a threshold
    (`_chain`), and where they lie.  `m_for` refuses a support too wide for
    the finest chain, on an interval too."""
    m = _RESOLUTION.m_for(profile.a)
    if domain.kind == "line":
        return m, f"on the line, m={m}"
    n = _RESOLUTION.n_for(domain.c)
    return n, f"on (-{domain.c}, {domain.c}) with {domain.bc} ends, n={n}"


def threshold(spec: ComparisonSpec) -> float:
    """Richardson-extrapolated threshold inf sigma(L), at m, 2m and 4m steps
    of the support on the line (`m_for`), on the grids of n, 2n and 4n nodes
    on an interval (`n_for`)."""
    k, where = _levels(spec.profile, spec.domain)
    chains = [_chain(spec.profile, spec.domain, j) for j in (k, 2 * k, 4 * k)]
    return _threshold_on(spec, chains, where)


def _threshold_on(spec: ComparisonSpec, chains: list[_Chain], where: str) -> float:
    """`threshold` on its three chains, coarsest first."""
    runs = [_chain_threshold(spec, chain) for chain in chains]
    for chain, (value, _, lo) in zip(chains, runs):
        _check_bracket(value, lo, chain.h)
    return _richardson(f"threshold at lambda={spec.lam!r} {where}",
                       [run[0] for run in runs], [run[1] for run in runs])


def coarse_threshold(spec: ComparisonSpec) -> float:
    """The discrete threshold at the coarsest resolution of `threshold`: one
    Sturm bisection, neither extrapolated nor gated, with that resolution's
    O(h^2) error.  An estimate, for callers that certify its use otherwise."""
    k = _levels(spec.profile, spec.domain)[0]
    chain = _chain(spec.profile, spec.domain, k)
    return _chain_threshold(spec, chain)[0]


class GroundState(namedtuple("GroundState",
                             "e0 samples nodes spacing lam omega profile interpolant")):
    """Minimal eigenpair of the discretized comparison operator on the line.

    `samples` u_j live on the uniform `nodes` of spacing h (the support chain
    and a few exterior nodes on each side), normalized so that
    sum(u_j^2) h = 1 over the whole chain, and positive.  `interpolant` holds
    the nodes, values, slopes and second derivatives of the C^2 quintic
    Hermite interpolant: the samples, fourth-order finite difference first
    derivatives, and ODE-exact second derivatives (`_ode_factors`); beyond
    the last node the exponential tail of rate `kappa` takes over.
    """

    __slots__ = ()

    @property
    def kappa(self) -> float:
        """Tail decay rate sqrt(omega^2 - E0) outside the channel support."""
        return math.sqrt(max(self.omega**2 - self.e0, 0.0))


def _ode_factors(omega: float, lam: float, e0: float, v: Sequence[float]) -> list[float]:
    """h''/h = omega^2 - lambda V - E0 from the values v of V, by the
    eigenvalue ODE."""
    w2 = omega**2 - e0
    return [w2 - lam * vi for vi in v]


# exterior nodes u_edge r^j kept on each side of the support chain: the
# fourth-order slopes reach two nodes out, so every node of the support
# takes centred ones, and the one-sided ones fall on the exact exponential
_EXTERIOR_NODES = 4


def ground_state(spec: ComparisonSpec) -> GroundState:
    """Minimal eigenpair on the line, on the support chain of spacing
    h = a/(2m), m = `m_for(a)`, all on lists.

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
    if spec.domain.kind != "line":
        raise ConfigurationError("ground_state solves on the line only")
    omega, lam, profile = spec.omega, spec.lam, spec.profile
    m = 2 * _RESOLUTION.m_for(profile.a)
    chain = _chain(profile, spec.domain, m)
    h = chain.h
    e0, _, lo = _chain_threshold(spec, chain)
    _check_bracket(e0, lo, h)
    kappa2 = omega**2 - e0
    end = _end_terms(chain, omega**2, e0)[0]
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
    sigma = lo - (end - _end_terms(chain, omega**2, lo)[0])
    u = lowest_eigenvector(_diagonal(chain, omega, lam, end), -1.0 / h**2, sigma)
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
    v = profile_values(profile, x[:p]) + chain.v + profile_values(profile, x[-p:])
    d2 = [f * y for f, y in zip(_ode_factors(omega, lam, e0, v), u)]
    return GroundState(e0=e0, samples=u, nodes=x, spacing=h, lam=lam, omega=omega,
                       profile=profile, interpolant=(x, u, d1, d2))


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
                             tol: float = 1e-6) -> float:
    """Richardson-extrapolated coupling that places the threshold of L on
    the line at the requested energy (e.g. -1), certified by one threshold
    at that coupling within tol of the target.  A target so deep that its
    couplings put omega^2 + lambda sup V past 2^1020, the limit of
    `ModelConfig`, is a ConfigurationError."""
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
    m, where = _levels(profile, XDomain())
    chains = [_chain(profile, XDomain(), k) for k in (m, 2 * m, 4 * m)]
    runs = [_chain_coupling(chain, omega, target) for chain in chains]
    _check_depth(omega, max(lam for lam, _ in runs), profile,
                 f"the coupling that places the threshold at {target!r}")
    lam = _richardson(f"coupling at target {target!r} {where}",
                      [lam for lam, _ in runs], [s for _, s in runs])
    # the threshold at that coupling, on the chains of the bisections
    e = _threshold_on(ComparisonSpec(omega, lam, profile), chains, where)
    if not abs(e - target) <= tol:
        raise RefinementError(
            f"the threshold {e!r} at the coupling {lam!r} misses the target "
            f"{target!r} by more than tol = {tol:g}")
    return lam


def critical_coupling(omega: float, profile: PotentialProfile, tol: float = 1e-6) -> float:
    """The coupling at which the threshold of L on the line changes sign:
    `tune_lambda_to_threshold` at the target 0."""
    return tune_lambda_to_threshold(omega, profile, 0.0, tol)
