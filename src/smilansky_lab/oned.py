"""The 1D comparison operator -d2/dx2 + omega^2 - lambda V(x).

The sign of its spectral threshold decides the spectral character of the 2D
model, so everything here is built around computing that threshold reliably:
central-difference assembly, Sturm-bisection ground energies, Richardson
extrapolation over paired resolutions, adaptive domain truncation, and
bisection in the coupling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.linalg import eig_banded, eigh_tridiagonal

from .eigs import TridiagonalSym, shift_invert_lowest, sturm_smallest, upper_band
from .errors import ComputationError, ConfigurationError, RefinementError
from .model import PotentialProfile, eval_profile
from .quadrature import quintic_hermite

__all__ = [
    "Grid1D",
    "Domain1D",
    "ComparisonSpec",
    "GroundState",
    "ResolutionPolicy",
    "assemble_comparison",
    "ground_state",
    "threshold",
    "critical_coupling",
    "tune_lambda_to_threshold",
]

LAMBDA_CAP = 2.0**16


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

    def interior_nodes(self) -> np.ndarray:
        """Vertex-centered interior nodes, used with Dirichlet ends."""
        return self.lo + self.h * np.arange(1, self.n + 1)

    def centered_nodes(self) -> np.ndarray:
        """Cell-centered nodes, used with Neumann or periodic ends."""
        hc = (self.hi - self.lo) / self.n
        return self.lo + hc * (np.arange(self.n) + 0.5)


@dataclass(frozen=True)
class Domain1D:
    """Either a truncation [-X, X] of the line or a genuine interval (-c, c)."""

    kind: str = "truncated_line"
    half_width: float = 0.0
    bc: str = "dirichlet"

    def __post_init__(self):
        if self.kind not in ("truncated_line", "interval"):
            raise ConfigurationError(f"unknown 1D domain kind {self.kind!r}")
        if self.half_width <= 0:
            raise ConfigurationError("domain half-width must be positive")
        if self.bc not in ("dirichlet", "neumann", "periodic"):
            raise ConfigurationError(f"unknown boundary condition {self.bc!r}")


@dataclass(frozen=True)
class ComparisonSpec:
    omega: float
    lam: float
    profile: PotentialProfile
    domain: Domain1D

    def __post_init__(self):
        if self.omega <= 0 or self.lam < 0:
            raise ConfigurationError("need omega > 0 and lambda >= 0")
        if (self.domain.kind == "truncated_line"
                and self.domain.half_width < 4 * self.profile.a + 4 / self.omega):
            raise ConfigurationError(
                f"truncation X={self.domain.half_width} too close to the channel "
                f"support (need X >= 4a + 4/omega)"
            )


@dataclass(frozen=True)
class ResolutionPolicy:
    """Discretization policy: grid density, extrapolation and truncation checks."""

    points_per_unit: float = 120.0
    rich_tol: float = 1e-6
    trunc_tol: float = 1e-9
    max_doublings: int = 5

    def n_for(self, lo: float, hi: float) -> int:
        return max(64, int(np.ceil(self.points_per_unit * (hi - lo))))


def assemble_comparison(spec: ComparisonSpec, grid: Grid1D) -> TridiagonalSym:
    """Second-order central-difference assembly of L on the grid.

    Dirichlet drops the boundary points, Neumann mirrors ghost points across a
    cell-centered grid, periodic wraps (corner entry).
    """
    dom = spec.domain
    if not (np.isclose(grid.lo, -dom.half_width) and np.isclose(grid.hi, dom.half_width)):
        raise ConfigurationError(
            f"grid [{grid.lo}, {grid.hi}] does not cover the domain "
            f"[-{dom.half_width}, {dom.half_width}]"
        )
    bc = "dirichlet" if dom.kind == "truncated_line" else dom.bc
    if bc == "dirichlet":
        x = grid.interior_nodes()
        h = grid.h
    else:
        x = grid.centered_nodes()
        h = (grid.hi - grid.lo) / grid.n
    v, _ = eval_profile(spec.profile, x)
    diag = 2.0 / h**2 + spec.omega**2 - spec.lam * v
    off = np.full(len(x) - 1, -1.0 / h**2)
    corner = None
    if bc == "neumann":
        diag[0] -= 1.0 / h**2
        diag[-1] -= 1.0 / h**2
    elif bc == "periodic":
        corner = -1.0 / h**2
    return TridiagonalSym(diag, off, corner)


def _min_eig(spec: ComparisonSpec, grid: Grid1D) -> float:
    T = assemble_comparison(spec, grid)
    if T.corner is not None:
        return _periodic_min_eig(T)
    scale = max(1.0, float(np.max(np.abs(T.d))))
    return float(sturm_smallest(T, 1, tol=max(1e-15 * scale, 1e-13))[0])


def _periodic_min_eig(T: TridiagonalSym) -> float:
    """Minimal eigenvalue of the periodic wrap.

    Ordering the unknowns 0, n-1, 1, n-2, ... folds the cyclic tridiagonal
    matrix into a pentadiagonal band.  LAPACK's banded solver (eig_banded)
    gives a guess that banded shift-invert refines to rounding level; the
    Gershgorin bound minus one is the certified floor shift.
    """
    import scipy.sparse as sp

    n = T.n
    k = np.arange(n)
    # unknown k sits at position i[k] of the fold; off[k] couples k and k + 1
    i = np.where(2 * k < n, 2 * k, 2 * (n - 1 - k) + 1)
    j = np.roll(i, -1)
    off = np.append(T.e, T.corner)
    a = sp.csr_matrix((np.concatenate([T.d, off, off]),
                       (np.concatenate([i, i, j]), np.concatenate([i, j, i]))),
                      shape=(n, n))
    guess = float(eig_banded(upper_band(a), eigvals_only=True, select="i",
                             select_range=(0, 0))[0])
    floor = float(np.min(T.d - np.abs(off) - np.abs(np.roll(off, 1)))) - 1.0
    tol = 1e-12 * float(abs(a).sum(axis=1).max())
    (val,), _, (res,) = shift_invert_lowest(a, 1, floor, guess=guess, tol=tol)
    if not res <= tol:
        raise ComputationError(
            f"periodic minimal eigenvalue {val!r} has residual {res:.3g} > {tol:.3g}")
    return float(val)


def _resolve_truncation(spec: ComparisonSpec, policy: ResolutionPolicy) -> tuple[ComparisonSpec, bool]:
    """Pick the truncation adaptively: start from the decay-length estimate and
    double until the minimal eigenvalue stops moving.

    Returns (spec with resolved half-width, unbound flag).  The flag is set
    when the discrete minimum is the Dirichlet box artifact, i.e. no state
    below the continuum edge omega^2 is detectable.
    """
    if spec.domain.kind == "interval":
        return spec, False

    a, w2 = spec.profile.a, spec.omega**2
    X = max(spec.domain.half_width, a + 16.0 / np.sqrt(w2 + 1.0))
    cur_spec = replace(spec, domain=Domain1D("truncated_line", X))
    # odd n puts a node at x = 0 and makes X a whole number of steps, so the
    # doubled grid below contains every node of this one
    n = policy.n_for(-X, X) | 1
    e = _min_eig(cur_spec, Grid1D(-X, X, n))
    for _ in range(policy.max_doublings):
        binding = w2 + (np.pi / (2.0 * X)) ** 2 - e
        if binding <= 1e-8:
            return cur_spec, True
        # doubling n -> 2n+1 keeps the spacing and the nodes, so the
        # comparison isolates the truncation error
        X_next, n_next = 2.0 * X, 2 * n + 1
        nxt = replace(spec, domain=Domain1D("truncated_line", X_next))
        e_next = _min_eig(nxt, Grid1D(-X_next, X_next, n_next))
        if abs(e_next - e) < policy.trunc_tol:
            return nxt, False
        X, cur_spec, e, n = X_next, nxt, e_next, n_next
    if w2 + (np.pi / (2.0 * X)) ** 2 - e <= 1e-6:
        return cur_spec, True
    raise RefinementError(
        f"truncation did not stabilize below {policy.trunc_tol} up to X={X} "
        f"(last minimal eigenvalue {e!r})"
    )


def threshold(spec: ComparisonSpec, policy: ResolutionPolicy = ResolutionPolicy()) -> float:
    """Richardson-extrapolated minimal eigenvalue of L.

    Uses the O(h^2) order of the scheme over resolutions (n, 2n) and cross
    checks against the (2n, 4n) extrapolant; disagreement beyond rich_tol is a
    refinement error.  On the truncated line, a minimal eigenvalue that is
    indistinguishable from the Dirichlet box artifact means no state below
    the continuum edge, and the threshold is omega^2 itself.
    """
    spec, unbound = _resolve_truncation(spec, policy)
    if unbound:
        return spec.omega**2
    X = spec.domain.half_width
    n = policy.n_for(-X, X)
    e = [_min_eig(spec, Grid1D(-X, X, m)) for m in (n, 2 * n, 4 * n)]
    r1 = (4.0 * e[1] - e[0]) / 3.0
    r2 = (4.0 * e[2] - e[1]) / 3.0
    if abs(r1 - r2) > policy.rich_tol:
        raise RefinementError(
            f"Richardson extrapolants disagree: {r1!r} vs {r2!r} at n={n}..{4*n}, "
            f"X={X}; raw eigenvalues {e!r}"
        )
    return r2


@dataclass(frozen=True, eq=False)
class GroundState:
    """Minimal eigenpair of the discretized comparison operator.

    `samples` live on `nodes` (interior points, Dirichlet ends), normalized so
    that sum(h_i^2) * h_x = 1 and positive at the potential minimum.  The C^2
    quintic Hermite interpolant matches the sampled values, fourth-order
    finite difference first derivatives, and ODE-exact second derivatives at
    the nodes; beyond the last node the analytic exponential tail takes over.
    Equality and hashing are by identity, so derived quantities can be
    cached per ground state.
    """

    e0: float
    samples: np.ndarray
    nodes: np.ndarray
    grid: Grid1D
    lam: float
    omega: float
    profile: PotentialProfile
    no_bound_state: bool
    # (nodes, values, first, second derivatives) of the Hermite interpolant
    _hermite: tuple = field(repr=False)

    @property
    def kappa(self) -> float:
        """Tail decay rate sqrt(omega^2 - E0) outside the channel support."""
        return float(np.sqrt(max(self.omega**2 - self.e0, 0.0)))

    def h(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        lo, hi = self.nodes[0], self.nodes[-1]
        out = np.empty_like(t)
        inside = (t >= lo) & (t <= hi)
        out[inside] = quintic_hermite(*self._hermite, t[inside])
        right = t > hi
        out[right] = self.samples[-1] * np.exp(-self.kappa * (t[right] - hi))
        left = t < lo
        out[left] = self.samples[0] * np.exp(-self.kappa * (lo - t[left]))
        return out

    def h1(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        lo, hi = self.nodes[0], self.nodes[-1]
        out = np.empty_like(t)
        inside = (t >= lo) & (t <= hi)
        out[inside] = quintic_hermite(*self._hermite, t[inside], 1)
        right = t > hi
        out[right] = -self.kappa * self.samples[-1] * np.exp(-self.kappa * (t[right] - hi))
        left = t < lo
        out[left] = self.kappa * self.samples[0] * np.exp(-self.kappa * (lo - t[left]))
        return out

    def h2(self, t) -> np.ndarray:
        """Second derivative straight from the eigenvalue ODE."""
        t = np.asarray(t, dtype=float)
        v, _ = eval_profile(self.profile, t)
        return (self.omega**2 - self.lam * v - self.e0) * self.h(t)


def ground_state(spec: ComparisonSpec, grid: Grid1D,
                 flag_tol: float = 1e-6) -> GroundState:
    """Minimal eigenpair on the given grid (Dirichlet/truncated-line only)."""
    bc = "dirichlet" if spec.domain.kind == "truncated_line" else spec.domain.bc
    if bc != "dirichlet":
        raise ConfigurationError("ground_state supports Dirichlet-type grids only")
    T = assemble_comparison(spec, grid)
    _, vecs = eigh_tridiagonal(T.d, T.e, select="i", select_range=(0, 0))
    v = vecs[:, 0]
    e0 = float(v @ T.matvec(v))

    x = grid.interior_nodes()
    h = grid.h
    v = v / np.sqrt(np.sum(v**2) * h)
    vv, _ = eval_profile(spec.profile, x)
    anchor = int(np.argmax(vv)) if spec.lam > 0 else int(np.argmin(np.abs(x)))
    if v[anchor] < 0:
        v = -v

    # augment with the Dirichlet boundary zeros: the interpolant's node data
    xa = np.concatenate(([grid.lo], x, [grid.hi]))
    ha = np.concatenate(([0.0], v, [0.0]))
    d1 = _fd4_derivative(ha, h)
    va, _ = eval_profile(spec.profile, xa)
    d2 = (spec.omega**2 - spec.lam * va - e0) * ha
    return GroundState(
        e0=e0, samples=v, nodes=x, grid=grid, lam=spec.lam, omega=spec.omega,
        profile=spec.profile, no_bound_state=bool(e0 >= spec.omega**2 - flag_tol),
        _hermite=(xa, ha, d1, d2),
    )


def _fd4_derivative(u: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative on a uniform grid, one-sided at the ends."""
    n = len(u)
    d = np.empty(n)
    d[2:-2] = (u[:-4] - 8 * u[1:-3] + 8 * u[3:-1] - u[4:]) / (12 * h)
    for i in (0, 1):
        d[i] = (-25 * u[i] + 48 * u[i + 1] - 36 * u[i + 2]
                + 16 * u[i + 3] - 3 * u[i + 4]) / (12 * h)
    for i in (n - 2, n - 1):
        d[i] = (25 * u[i] - 48 * u[i - 1] + 36 * u[i - 2]
                - 16 * u[i - 3] + 3 * u[i - 4]) / (12 * h)
    return d


def _bisect_coupling(omega: float, profile: PotentialProfile, target: float,
                     tol: float, policy: ResolutionPolicy,
                     domain: Optional[Domain1D]) -> float:
    if tol <= 0:
        raise ConfigurationError("tolerance must be positive")
    if target >= omega**2:
        if target > omega**2:
            raise ConfigurationError("target threshold must be below omega^2")
        return 0.0
    dom = domain or Domain1D("truncated_line", 4 * profile.a + 4 / omega + 1.0)

    def ethresh(lam: float) -> float:
        return threshold(ComparisonSpec(omega, lam, profile, dom), policy)

    lam_lo, e_lo = 0.0, omega**2
    lam_hi = 1.0
    while True:
        e_hi = ethresh(lam_hi)
        if e_hi < target:
            break
        lam_lo, e_lo = lam_hi, e_hi
        lam_hi *= 2.0
        if lam_hi > LAMBDA_CAP:
            raise ComputationError(
                f"no threshold crossing of {target} found for lambda <= {LAMBDA_CAP}"
            )
    for _ in range(200):
        mid = 0.5 * (lam_lo + lam_hi)
        e_mid = ethresh(mid)
        if abs(e_mid - target) <= tol:
            return mid
        if e_mid > target:
            lam_lo = mid
        else:
            lam_hi = mid
    raise ComputationError("coupling bisection stalled before reaching tolerance")


def critical_coupling(omega: float, profile: PotentialProfile, tol: float = 1e-6,
                      policy: ResolutionPolicy = ResolutionPolicy(),
                      domain: Optional[Domain1D] = None) -> float:
    """The coupling at which the threshold of L changes sign."""
    return _bisect_coupling(omega, profile, 0.0, tol, policy, domain)


def tune_lambda_to_threshold(omega: float, profile: PotentialProfile, target: float,
                             tol: float = 1e-6,
                             policy: ResolutionPolicy = ResolutionPolicy(),
                             domain: Optional[Domain1D] = None) -> float:
    """Coupling that places the threshold at the requested energy (e.g. -1)."""
    return _bisect_coupling(omega, profile, target, tol, policy, domain)
