"""Reference implementations that only the tests read.

Each is an independent route to a number the package computes another way:
the slope V' of a channel profile; the dense matrix of a symmetric
tridiagonal; the scipy sparse matrix of an assembled 2D operator, and its
coordinate text; uniform 2D grids; the comparison operator assembled on a
whole interval, its lowest eigenvalue, and the ground state on the line
truncated with Dirichlet ends; the cutoff's jet at a point; a t-rule that
integrates the ground state's tails by quadrature; the quasi-mode norm
by direct 2D quadrature; and the defect of the identity behind the Weyl
residual, from finite differences.  They need numpy and scipy, which the
package itself does not load.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from smilansky_lab.grid2d import Grid2D, SparseHamiltonian
from smilansky_lab.model import PotentialProfile, XDomain, profile_values
from smilansky_lab.oned import ComparisonSpec, GroundState, _fd4_derivative, _ode_factors
from smilansky_lab.quadrature import gauss_panels, linspace, quintic_hermite
from smilansky_lab.weyl import (CutoffFunction, QuasiMode, _bridge_jet, _ground_moments,
                                _log_jet, _t_rule)


def profile_slopes(profile: PotentialProfile, t) -> np.ndarray:
    """V'(t), 0 for |t| >= a: the closed-form derivatives of cos2 and
    quartic, and for a table profile the slope of scipy's cubic Hermite
    spline through its nodes, values and PCHIP slopes, strictly inside the
    tabulated range."""
    from scipy.interpolate import CubicHermiteSpline

    t = np.asarray(t, dtype=float)
    a, amp = profile.a, profile.amplitude
    if profile.family == "table":
        x = profile._hermite[0]
        inside = (t > x[0]) & (t < x[-1])
        return np.where(inside, CubicHermiteSpline(*profile._hermite)(t, 1), 0.0)
    inside = np.abs(t) < a
    if profile.family == "cos2":
        dv = -amp * math.pi / (2.0 * a) * np.sin(math.pi * t / a)
    else:
        u = t / a
        dv = amp * (-4.0 * u * (1.0 - u * u)) / a
    return np.where(inside, dv, 0.0)


def uniform_grid(x_lo: float, x_hi: float, n_x: int, y_half: float,
                 n_y: int) -> Grid2D:
    """Uniform interior (vertex) nodes, placed from the midpoint out, so
    that on (-c, c) they are exactly mirror-symmetric about 0."""
    h = (x_hi - x_lo) / (n_x + 1)
    x = 0.5 * (x_lo + x_hi) + h * (np.arange(n_x) - 0.5 * (n_x - 1))
    return Grid2D(x_lo, x_hi, x, y_half, n_y)


def sparse_matrix(ham: SparseHamiltonian) -> sp.csr_matrix:
    """The sparse matrix I (x) Bx + C (x) I + diag(d) of `ham.op`, summed by
    scipy.sparse."""
    h = ham.op
    n_rows = len(h.d)
    cy = sp.diags([h.c, h.c], [-1, 1], shape=(n_rows, n_rows))
    return (sp.kron(sp.identity(n_rows), sp.csr_matrix(h.bx))
            + sp.kron(cy, sp.identity(h.bx.shape[0]))
            + sp.diags(h.d.ravel())).tocsr()


def coo_text(a: sp.csr_matrix) -> str:
    """Coordinate text format of a sparse matrix: one 'row col value' line
    per stored entry, in its CSR order."""
    coo = a.tocoo()
    return "\n".join(f"{i} {j} {v:.17g}"
                     for i, j, v in zip(coo.row, coo.col, coo.data)) + "\n"


def dense_tridiagonal(d, e, corner: Optional[float] = None) -> np.ndarray:
    """The dense symmetric tridiagonal matrix of diagonal d and off-diagonal
    e, with the periodic corner entry when one is given."""
    out = np.diag(np.asarray(d, dtype=float)) + np.diag(e, 1) + np.diag(e, -1)
    if corner is not None:
        out[0, -1] = out[-1, 0] = corner
    return out


def interval_chain(spec: ComparisonSpec, n: int):
    """The comparison operator assembled by central differences on the whole
    interval (-c, c) of `spec.domain`, with n nodes, as lists: (nodes,
    spacing, diagonal, off-diagonal, periodic corner entry or None).

    Dirichlet ends take the n interior vertices of spacing 2c/(n + 1);
    Neumann and periodic ends the n cell centres of spacing 2c/n, Neumann
    mirroring a ghost node across each end and periodic wrapping.
    """
    c, bc = spec.domain.c, spec.domain.bc
    if bc == "dirichlet":
        h = (c + c) / (n + 1)
        x = [-c + h * k for k in range(1, n + 1)]
    else:
        h = (c + c) / n
        x = [-c + h * (k + 0.5) for k in range(n)]
    base = 2.0 / h**2 + spec.omega**2
    diag = [base - spec.lam * vi for vi in profile_values(spec.profile, x)]
    corner = None
    if bc == "neumann":
        diag[0] -= 1.0 / h**2
        diag[-1] -= 1.0 / h**2
    elif bc == "periodic":
        corner = -1.0 / h**2
    return x, h, diag, [-1.0 / h**2] * (n - 1), corner


def interval_min_eig(spec: ComparisonSpec, n: int) -> float:
    """Lowest eigenvalue of `interval_chain` by LAPACK: the tridiagonal
    solver, or the dense one for the periodic wrap."""
    _, _, d, e, corner = interval_chain(spec, n)
    if corner is None:
        return float(eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                      select_range=(0, 0))[0])
    return float(np.linalg.eigvalsh(dense_tridiagonal(d, e, corner))[0])


def truncated_line_ground_state(spec: ComparisonSpec, c: float, n: int) -> GroundState:
    """Minimal eigenpair on the line truncated with Dirichlet ends at +-c:
    `interval_chain` with n nodes and LAPACK's tridiagonal solver.  Its samples are
    normalized on the grid, and its interpolant takes the boundary zeros as
    nodes."""
    x, h, d, e, _ = interval_chain(spec._replace(domain=XDomain("interval", c)), n)
    (e0,), vec = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    e0, v = float(e0), vec[:, 0].tolist()
    norm = math.sqrt(math.fsum(vi * vi for vi in v) * h)
    v = [vi / norm for vi in v]
    if math.fsum(v) < 0.0:
        v = [-vi for vi in v]
    xa = [-c, *x, c]
    ha = [0.0, *v, 0.0]
    d1 = _fd4_derivative(ha, h)
    d2 = [f * hv for f, hv in
          zip(_ode_factors(spec.omega, spec.lam, e0, profile_values(spec.profile, xa)), ha)]
    return GroundState(e0=e0, samples=v, nodes=x, spacing=h, lam=spec.lam,
                       omega=spec.omega, profile=spec.profile,
                       _interpolant=partial(quintic_hermite, xa, ha, d1, d2))


def cutoff_jet(cut: CutoffFunction, z: float) -> tuple[float, float, float]:
    """(chi, chi', chi'') at z, 0 off [1, k]; a bridge is evaluated at its
    local coordinate z - sqrt(k) or z - (k - 1)."""
    z1, z2, z3 = cut.breaks
    rise, descent, first, last = cut.pieces
    if not 1.0 <= z <= cut.k:
        return 0.0, 0.0, 0.0
    if z <= z1:
        jet = _log_jet(rise, math.log(z), z)
    elif z < z2:
        jet = _bridge_jet(first, z - z1)
    elif z <= z3:
        jet = _log_jet(descent, math.log(z) - math.log(cut.k), z)
    else:
        jet = _bridge_jet(last, z - z3)
    return tuple(cut.c * f for f in jet)


def line_t_rule(gs: GroundState, spacing: float = 0.2) -> tuple[np.ndarray, np.ndarray]:
    """The t-rule of `weyl._ground_moments` on the nodes, and order-10 Gauss
    panels at most `spacing` wide over the two tails out to t_max, where the
    package integrates in closed form."""
    t, w = _t_rule(gs)
    edge, t_max = gs.nodes[-1], _ground_moments(gs).t_max
    n_panels = math.ceil((t_max - edge) / spacing)
    tail, tw = gauss_panels(linspace(edge, t_max, n_panels + 1), 10)
    return (np.array([-x for x in reversed(tail)] + t + tail),
            np.array(list(reversed(tw)) + w + tw))


def quasimode_norm_direct(qm: QuasiMode, n_y: int = 400) -> float:
    """Direct 2D quadrature of |psi|^2 in (x, y) on the line; cross-check
    for the transformed route.  Only usable at medium n_k (x-spacing ~ 1/y)."""
    ylo, yhi = qm.support
    ynodes, yw = gauss_panels(linspace(ylo, yhi, n_y + 1), 8)
    t, tw = line_t_rule(qm.gs)
    h = np.array([qm.gs.jet(x)[0] for x in t])
    acc = 0.0
    for yv, wv in zip(ynodes, yw):
        g2 = h**2 + (0.5 * math.sqrt(qm.e_mag) * t**2 * h / yv**2) ** 2
        # x-integral of |psi|^2 at fixed y equals (1/y) * t-integral
        acc += wv * cutoff_jet(qm.cutoff, yv / qm.n_k)[0] ** 2 / yv * float(tw @ g2)
    return math.sqrt(acc)


def residual_identity_check(gs: GroundState, e_mag: Optional[float] = None) -> float:
    """Max pointwise defect of the algebraic identity behind the residual
    cancellation, with h' and h'' taken from central differences of the
    sampled eigenfunction (an independent route; the quasi-mode itself uses
    ODE-exact derivatives).  Converges at second order in the grid spacing."""
    e = -gs.e0 if e_mag is None else float(e_mag)
    s = np.sqrt(e)
    t = np.array(gs.nodes)
    h = np.array(gs.samples)
    hx = gs.spacing
    v = np.array(profile_values(gs.profile, gs.nodes))
    f = -0.5j * s * t**2 * h
    fpp = np.empty_like(f)
    fpp[1:-1] = (f[:-2] - 2.0 * f[1:-1] + f[2:]) / hx**2
    h1 = np.empty_like(h)
    h1[1:-1] = (h[2:] - h[:-2]) / (2.0 * hx)
    d = (-fpp[1:-1] + f[1:-1] * (e + gs.omega**2 - gs.lam * v[1:-1])
         - 2.0j * s * t[1:-1] * h1[1:-1] - 1.0j * s * h[1:-1])
    return float(np.max(np.abs(d)))
