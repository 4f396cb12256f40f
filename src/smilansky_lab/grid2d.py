"""Truncated 2D Hamiltonian on a grid, and the spectral-transition scan.

The operator is discretized with the 5-point stencil on [x_lo, x_hi] times
[-Y, Y], Dirichlet in y (truncation of the line), x boundary per the model
configuration, all three in one finite-volume x-stencil.  The channel term
y^2 V((x - b) y) narrows like a/y in x, so the x-mesh must resolve the a/Y
scale near each channel center; a graded mesh (fine near the centers, coarse
elsewhere) keeps that affordable.  H is block tridiagonal, one block per
y-row, with the x-stencil plus a diagonal on the blocks and scalar
couplings between them; the 2D solve and the matrix export work on that
form with numpy alone.  The transition itself
is read off the Y-dependence of the lowest eigenvalue: subcritical
configurations stabilize, supercritical ones plunge like -cY^2 with c near
the 1D channel energy |E0|.  With even channel profiles the operator
commutes with y -> -y, and when x -> -x also maps the channels onto each
other it commutes with that reflection too; the graded x-mesh is built from
x = 0 outward, so it keeps that symmetry.  A scan solves only the block of H
on vectors even under each such reflection (one closed-form fold of the 1D
stencil per axis, `_mirror_fold`), which holds the ground state: on both
shipped scan configs that is the even-even quarter block.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .eigs import BlockTridiagonal, shift_invert_lanczos
from .errors import ComputationError, ConfigurationError, RefinementError, _debug
from .model import NODE_CAP, Checked, ModelConfig, profile_values
from .oned import ComparisonSpec, coarse_threshold

__all__ = [
    "Grid2D",
    "SparseHamiltonian",
    "ScanRow",
    "TransitionScan",
    "graded_x_nodes",
    "assemble_h2d",
    "lowest_eigenvalues",
    "scan_grid",
    "transition_scan",
    "scan_csv",
]

# the pivot blocks of the 2D solve may take this many doubles per node of
# NODE_CAP: 512 MiB
_DOUBLES_PER_NODE = 16

# the scan mesh: the x-spacing of a graded x-mesh never exceeds _H_MAX, a
# scan grid has _Y_ROWS_PER_UNIT y-rows per unit of Y, and on the line it
# spans |x| < _X_HALF_WIDTH
_H_MAX = 0.25
_Y_ROWS_PER_UNIT = 12
_X_HALF_WIDTH = 6.0


class Grid2D(Checked, namedtuple("Grid2D", "x_lo x_hi x_nodes y_half n_y")):
    """Tensor grid: arbitrary interior x-nodes, uniform interior y-nodes, at
    most NODE_CAP of them."""

    __slots__ = ()

    def __new__(cls, x_lo: float, x_hi: float, x_nodes: np.ndarray, y_half: float,
                n_y: int):
        x = np.asarray(x_nodes, dtype=float)
        if not 1.0 < y_half < math.inf:
            raise ConfigurationError(f"y-truncation must satisfy 1 < Y < inf, got {y_half!r}")
        if n_y < 3 or len(x) < 3:
            raise ConfigurationError("need at least 3 interior nodes per direction")
        if np.any(np.diff(x) <= 0) or x[0] <= x_lo or x[-1] >= x_hi:
            raise ConfigurationError("x-nodes must be increasing and interior")
        if len(x) * n_y > NODE_CAP:
            raise ConfigurationError(
                f"grid size {len(x)}x{n_y} exceeds the memory cap")
        return super().__new__(cls, x_lo, x_hi, x, y_half, n_y)

    @property
    def n_x(self) -> int:
        return len(self.x_nodes)

    @property
    def h_y(self) -> float:
        return 2.0 * self.y_half / (self.n_y + 1)

    @property
    def y_nodes(self) -> np.ndarray:
        return np.linspace(-self.y_half, self.y_half, self.n_y + 2)[1:-1]

    @property
    def is_even_in_x(self) -> bool:
        """x -> -x maps the x-range and the x-nodes onto themselves, exactly."""
        x = self.x_nodes
        return self.x_lo == -self.x_hi and bool(np.array_equal(x, -x[::-1]))


def graded_x_nodes(x_lo: float, x_hi: float, centers: tuple[float, ...],
                   h_min: float) -> np.ndarray:
    """Interior nodes graded toward the channel centers, built outward from
    the midpoint of (x_lo, x_hi), which is a node.

    Local spacing max(h_min, |x - b|/4) near the nearest center, capped at
    _H_MAX; the |x|/4 law matches the a/y width of the channel at the height
    y = a/|x| where the point (x, y) last touches the support.  Each step
    takes the spacing at its own midpoint, as estimated from its start.  The
    nodes left of the midpoint are the negated walk to the right for the
    mirrored centers; so when the centers are mirror-symmetric about the
    midpoint (and it is 0, as on every scan domain) the nodes are exactly
    mirror-symmetric, and the x-fold of `assemble_h2d` is exact.
    """
    # a NaN or infinite wall never ends the walk
    if not -math.inf < x_lo < x_hi < math.inf:
        raise ConfigurationError(f"need a finite x-range, got ({x_lo!r}, {x_hi!r})")
    if not h_min > 0:
        raise ConfigurationError(f"need h_min > 0, got {h_min!r}")
    mid = 0.5 * (x_lo + x_hi)
    offsets = [b - mid for b in centers] or [0.0]

    def walk(offsets: list[float], end: float) -> list[float]:
        """Offsets t > 0 of the nodes right of the midpoint, up to the wall
        at t = end, for centers at `offsets`."""
        def spacing(t: float) -> float:
            d = min(abs(t - c) for c in offsets)
            return min(_H_MAX, max(h_min, d / 4.0))

        nodes, t = [], 0.0
        while True:
            step = spacing(t + 0.5 * spacing(t))
            t = t + step
            if t >= end - 0.5 * step:
                return nodes
            nodes.append(t)

    right = walk(offsets, x_hi - mid)
    left = walk([-c for c in offsets], mid - x_lo)
    return mid + np.array([-t for t in reversed(left)] + [0.0] + right)


class SparseHamiltonian(NamedTuple):
    """Assembled 5-point operator H = I (x) Bx + diag(d) + C (x) I.

    `op` holds the x-stencil Bx once, the y-diagonal plus the potential d
    row by row, and the scalar y-couplings C; the solve works on it
    directly.  Unknown (ix, iy) sits at index iy * n_x + ix (x runs
    fastest), so the matrix has half-bandwidth n_x.  `sector` is "full",
    "even" for the block of H on vectors even in y, or "even-even" for its
    block on vectors even in x and in y (see `assemble_h2d`); the
    eigenvalues of a block are those of the eigenvectors of H in its sector
    only.  `grid` is the full grid in every sector.
    """

    op: BlockTridiagonal
    grid: Grid2D
    potential_min: float
    sector: str = "full"

    @property
    def n(self) -> int:
        return self.op.n

    def export_coo(self) -> str:
        """Coordinate text format: one 'row col value' line per entry that
        is not exactly 0, rows ascending and columns ascending within a row.
        Row r = j n_x + i holds the coupling c[j-1] to the y-row below, row
        i of the stencil Bx with d[j, i] added on its diagonal, then the
        coupling c[j] to the y-row above."""
        h = self.op
        node = np.arange(h.n).reshape(h.d.shape)
        i, k = np.nonzero((h.bx != 0) | np.eye(len(h.bx), dtype=bool))
        coupling = np.repeat(h.c, len(h.bx))
        stencil = h.bx[i, k] + np.where(i == k, h.d[:, i], 0.0)
        rows = np.concatenate((node[1:].ravel(), node[:, i].ravel(), node[:-1].ravel()))
        cols = np.concatenate((node[:-1].ravel(), node[:, k].ravel(), node[1:].ravel()))
        vals = np.concatenate((coupling, stencil.ravel(), coupling))
        keep = vals != 0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        order = np.lexsort((cols, rows))
        return "\n".join(f"{r} {c} {v:.17g}" for r, c, v in
                         zip(rows[order].tolist(), cols[order].tolist(),
                             vals[order].tolist())) + "\n"


def _second_diff_1d(nodes: np.ndarray, lo: float, hi: float, bc: str) -> tuple:
    """Symmetric -d2/dx2 on the nodes of (lo, hi), in finite-volume form:
    (diagonal, off-diagonal, periodic corner entry or None).

    Node i owns the cell between the midpoints to its neighbours, of width
    w_i = (hl_i + hr_i)/2 for the spacings hl_i and hr_i to them, and the
    flux through each face is the difference quotient across it.  The
    operator W^-1 K (K the flux matrix) is symmetrized as W^-1/2 K W^-1/2:
    off-diagonal -1/(h_{i+1/2} sqrt(w_i w_{i+1})).  At the ends:
    - Dirichlet: the wall is a neighbour with value 0, at x_0 - lo and
      hi - x_{n-1};
    - Neumann: no flux through the wall, and the end cells reach it;
    - periodic: the wrap edge, of spacing (x_0 - lo) + (hi - x_{n-1}), is a
      face between nodes 0 and n-1 (the corner entry).
    On uniform vertex nodes (Dirichlet) or cell-centred nodes (Neumann,
    periodic) these are the classical three-point stencils.
    """
    d = np.diff(nodes)
    wall_lo, wall_hi = nodes[0] - lo, hi - nodes[-1]
    hl = np.concatenate(([wall_lo], d))
    hr = np.concatenate((d, [wall_hi]))
    if bc == "periodic":
        hl[0] = hr[-1] = wall_lo + wall_hi
    w = 0.5 * (hl + hr)
    flux = 1.0 / hl + 1.0 / hr
    if bc == "neumann":
        w[0] += 0.5 * wall_lo
        w[-1] += 0.5 * wall_hi
        flux[0] -= 1.0 / wall_lo
        flux[-1] -= 1.0 / wall_hi
    corner = None
    if bc == "periodic":
        corner = -1.0 / (hl[0] * np.sqrt(w[0] * w[-1]))
    diag, off = flux / w, -1.0 / (d * np.sqrt(w[:-1] * w[1:]))
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise ComputationError("non-finite matrix entries")
    return diag, off, corner


def _mirror_fold(d: np.ndarray, e: np.ndarray, corner: Optional[float]) -> tuple:
    """U^T t U as (diagonal, off-diagonal), for the symmetric tridiagonal
    t = (d, e, corner) that commutes with the mirror i -> n - 1 - i, and U
    the isometry onto its even vectors: column i = m, ..., n - 1 (m = n // 2)
    is e_i on the middle node (n odd), else (e_i + e_{n-1-i})/sqrt(2).  Then
    t U = U (U^T t U), so U^T t U is the block of t on the even vectors.

    It is the upper half d[m:], e[m:] of t but where a coupling crosses the
    mirror (the middle node's, n odd; the diagonal of the straddling pair,
    n even) or the corner lands (the last diagonal); each of those is the
    weighted t[i, j] + t[i, j'] + t[i', j] + t[i', j'] (i', j' the images),
    the float expression of the product U^T t U.
    """
    n, m = len(d), len(d) // 2
    diag, off = d[m:].copy(), e[m:].copy()
    if n % 2:
        off[0] = 0.5 * math.sqrt(0.5) * (e[m] + e[m - 1] + e[m] + e[m - 1])
    else:
        diag[0] = 0.5 * (d[m] + e[m - 1] + e[m - 1] + d[m - 1])
    if corner is not None:
        diag[-1] = 0.5 * (d[-1] + corner + corner + d[0])
    return diag, off


def _check_resolution(config: ModelConfig, grid: Grid2D) -> None:
    x = grid.x_nodes
    for ch in config.channels:
        half = ch.profile.a / grid.y_half
        inside = np.count_nonzero((x > ch.center - half) & (x < ch.center + half))
        # fewer than 3 interior nodes means fewer than 4 cells across the channel
        if inside < 3:
            raise RefinementError(
                f"x-grid does not resolve the channel centered at {ch.center} "
                f"(width {2 * half:.3g} at |y| = {grid.y_half} spans fewer than "
                f"4 cells)")


def _potential(config: ModelConfig, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """omega^2 y^2 - sum_j lambda_j y^2 V_j((x - b_j) y) at the nodes
    (x[i], y[j]), as an array of shape (len(y), len(x)).  V_j comes from
    `profile_values` on the flattened products; the y^2 terms stay numpy
    arithmetic, whose squares a float ** 2 (pow) may not match in the last
    bit."""
    x, y = np.broadcast_arrays(x[None, :], y[:, None])
    w = config.omega**2 * y**2
    gate = 1.0
    if config.y_cutoff is not None:
        gate = (np.abs(y) >= config.y_cutoff).astype(float)
    for ch in config.channels:
        v = profile_values(ch.profile, ((x - ch.center) * y).ravel().tolist())
        w = w - gate * ch.lam * y**2 * np.array(v).reshape(w.shape)
    return w


def assemble_h2d(config: ModelConfig, grid: Grid2D,
                 sector: str = "full") -> SparseHamiltonian:
    """Kronecker-sum assembly, x fastest: I (x) Bx + By (x) I + diag(potential),
    held as the dense Bx (`_second_diff_1d`), the diagonal of By plus the
    potential row by row, and the off-diagonal of By (`eigs.BlockTridiagonal`).

    sector="full" takes every node of `grid`.  The folded sectors assemble
    U^T H U for an isometry U onto the vectors even under a reflection that
    commutes with H, one `_mirror_fold` of the 1D stencil per folded axis:
    - "even" needs a potential even in y (`ModelConfig.is_even_in_y`) and
      folds y: the nodes y >= 0 of `grid.y_nodes` (the same values, so the
      potential is that of the upper half), ordered from the wall y = Y
      inward.  Its By is the Dirichlet stencil except in the row nearest
      y = 0: (-sqrt(2), 2)/h^2 when that node is y = 0 (n_y odd), diagonal
      1/h^2 when the nodes straddle y = 0 (n_y even).  The wall comes
      first, as in the full matrix, so a shift that is not below the
      spectrum of a plunging ground state fails early in the block
      factorization.
    - "even-even" also needs a potential even in x
      (`ModelConfig.is_even_in_x`) and x-nodes mirror-symmetric about 0
      (`Grid2D.is_even_in_x`), and folds x too, onto the nodes x >= 0 in
      increasing order: Bx becomes U_x^T Bx U_x, of order (n_x + 1) // 2,
      which is also the half-bandwidth of the block.
    A block has about 1/2 ("even") or 1/4 ("even-even") of the unknowns.
    """
    if sector not in ("full", "even", "even-even"):
        raise ConfigurationError(f"unknown sector {sector!r}")
    if sector != "full" and not config.is_even_in_y:
        raise ConfigurationError("the even-in-y sector needs even channel profiles")
    if sector == "even-even" and not (config.is_even_in_x and grid.is_even_in_x):
        raise ConfigurationError(
            "the even-in-x sector needs channels that x -> -x maps onto each "
            "other and x-nodes mirror-symmetric about x = 0")
    # the 2D solve stores one pivot inverse per y-row of the block, each of
    # the order of the block's x-stencil
    n_bx = (grid.n_x + 1) // 2 if sector == "even-even" else grid.n_x
    n_by = grid.n_y if sector == "full" else (grid.n_y + 1) // 2
    if n_bx**2 * n_by > _DOUBLES_PER_NODE * NODE_CAP:
        raise ConfigurationError(
            f"the {sector} block of the {grid.n_x}x{grid.n_y} grid needs "
            f"{n_bx**2 * n_by:.3g} doubles of pivot blocks, more than "
            f"{_DOUBLES_PER_NODE} per node of the memory cap")
    if config.x_domain.kind == "interval" and not (
            np.isclose(grid.x_hi, config.x_domain.c)
            and np.isclose(grid.x_lo, -config.x_domain.c)):
        raise ConfigurationError("grid x-range does not match the interval domain")
    _check_resolution(config, grid)

    dx, ex, corner = _second_diff_1d(grid.x_nodes, grid.x_lo, grid.x_hi,
                                     config.x_domain.bc)
    h2 = grid.h_y ** 2
    dy, ey = np.full(grid.n_y, 2.0 / h2), np.full(grid.n_y - 1, -1.0 / h2)
    x, y = grid.x_nodes, grid.y_nodes
    if sector != "full":
        dy, ey = (v[::-1] for v in _mirror_fold(dy, ey, None))
        y = y[grid.n_y // 2:][::-1]
    if sector == "even-even":
        dx, ex = _mirror_fold(dx, ex, corner)
        corner = None
        x = x[grid.n_x // 2:]
    bx = np.diag(dx) + np.diag(ex, 1) + np.diag(ex, -1)
    if corner is not None:
        bx[0, -1] = bx[-1, 0] = corner
    pot = _potential(config, x, y)
    return SparseHamiltonian(op=BlockTridiagonal(bx, pot + dy[:, None], ey),
                             grid=grid, potential_min=float(np.min(pot)), sector=sector)


def lowest_eigenvalues(ham: SparseHamiltonian, k: int = 1, tol: float = 1e-7,
                       seed: int = 1234, guess: Sequence[float] = ()
                       ) -> list[tuple[float, float]]:
    """k smallest eigenvalues of `ham` (of its sector: on a folded block,
    those of the eigenvectors of H even under its reflections) with
    independently recomputed residual norms, each ||H x - lambda x|| <= tol
    up to rounding of order eps ||H||.

    Shift-invert Lanczos on the block LDL^T factor
    (`eigs.shift_invert_lanczos`).  A guess near lambda0 in `guess`, such
    as lambda0 of the previous rung of a scan, puts the shift just below
    it, certified by its own factor; the guesses are tried in order, and
    without one, or when no such factor exists, the shift is the floor
    potential_min - max(1, 2^-20 |potential_min|), so that H - sigma >= I
    and the margin survives the rounding of a deep potential_min.  The solve
    is refused before it starts when ||H||_inf >= 2^512, the 2D depth limit:
    past it the squares of iterate entries of size 1/||H|| leave the normal
    float range.  A residual norm that float64 cannot hold raises
    ComputationError.
    """
    if not 1 <= k <= 20:
        raise ConfigurationError("eigenvalue count must be between 1 and 20")
    if k >= ham.n:
        raise ConfigurationError(
            f"{k} eigenvalues need more than {k} unknowns; the grid has {ham.n}")
    norm = ham.op.norm_inf()
    if not norm < 2.0**512:
        raise ConfigurationError(f"||H||_inf = {norm:.6g} is not below the 2D depth limit "
                                 f"2^512 = {2.0**512:.6g}")
    floor = ham.potential_min - max(1.0, 2.0**-20 * abs(ham.potential_min))
    vals, _, res = shift_invert_lanczos(ham.op, k, floor, guess=guess, tol=tol, seed=seed)
    if not np.all(np.isfinite(res)):
        raise ComputationError(f"residual norms {res.tolist()} are not finite: float64 "
                               "cannot hold the eigenpairs of this operator")
    return [(float(v), float(r)) for v, r in zip(vals, res)]


# --- transition scan --------------------------------------------------------


# a scan is subcritical when lambda0(Y_max) and lambda0(Y_max/2) agree to
# this, relative to max(1, |lambda0(Y_max)|)
_STABILITY_TOL = 0.01
# and supercritical when the -cY^2 fit has c > 0 and R^2 at least this
_R2_MIN = 0.95
# the residual the scan asks of each eigensolve
_EIG_TOL = 1e-7


class ScanRow(NamedTuple):
    y_half: float
    lambda0: float
    residual: float


class TransitionScan(NamedTuple):
    rows: tuple[ScanRow, ...]
    c_fit: float
    r_squared: float
    verdict: str


def scan_grid(config: ModelConfig, y_half: float, y_max: float) -> Grid2D:
    """The grid for truncation y_half on a ladder that ends at y_max.

    The x-nodes are graded toward the channel centers (on a periodic
    interval, by the distance modulo the period), with the floor tied to
    the top of the ladder, so the same x-grid serves every Y (exact
    Dirichlet domain nesting).  The x-range is centred at 0, so the nodes
    are mirror-symmetric about 0 when the centers (images included) are.
    The y-rows have spacing 1/_Y_ROWS_PER_UNIT, and on the line the x-range
    is (-_X_HALF_WIDTH, _X_HALF_WIDTH).  The x-spacing never exceeds _H_MAX,
    so the grid has at least (x_hi - x_lo)/_H_MAX - 2 x-nodes per y-row; a
    range where that many pass NODE_CAP is refused before the walk.
    """
    if not (math.isfinite(y_half) and math.isfinite(y_max)):
        raise ConfigurationError(f"need a finite truncation, got Y = {y_half!r}, "
                                 f"Y_max = {y_max!r}")
    if config.x_domain.kind == "interval":
        x_lo, x_hi = -config.x_domain.c, config.x_domain.c
    else:
        x_lo, x_hi = -_X_HALF_WIDTH, _X_HALF_WIDTH
    n_y = int(round(2.0 * y_half * _Y_ROWS_PER_UNIT)) - 1
    n_x = (x_hi - x_lo) / _H_MAX - 2.0
    if n_x * n_y > NODE_CAP:
        raise ConfigurationError(
            f"the x-range ({x_lo}, {x_hi}) needs at least {n_x:.6g} x-nodes at "
            f"spacing h_max = {_H_MAX}, {n_x * n_y:.6g} nodes with {n_y} "
            f"y-rows, more than the memory cap of {NODE_CAP}")
    centers = tuple(ch.center for ch in config.channels)
    if config.x_domain.kind == "interval" and config.x_domain.bc == "periodic":
        period = x_hi - x_lo
        centers += tuple(b + s for b in centers for s in (-period, period))
    a_min = min((ch.profile.a for ch in config.channels), default=1.0)
    x = graded_x_nodes(x_lo, x_hi, centers, a_min / (4.0 * y_max))
    return Grid2D(x_lo, x_hi, x, y_half, n_y)


def transition_scan(config: ModelConfig, y_ladder: list[float]) -> TransitionScan:
    """Lowest eigenvalue along an increasing Y ladder, the -cY^2 fit on the
    last half, and the verdict.

    Each lambda0 carries its residual ||H x - lambda0 x||, which must be at
    most 1e-6 max(1, |lambda0|); by Weyl's bound an eigenvalue of the
    truncated operator lies that close.  The x-grid and the y spacing are
    shared across the ladder, and the y-node sets nest, so Dirichlet domain
    monotonicity of lambda0 is exact and is checked; it also makes each
    previous lambda0 the eigensolver's guess, so a stabilizing ladder solves
    every later rung with a near shift.  Its first rung tries the shift
    just below sqrt(t_V) (t_V >= 0 the lowest channel threshold, estimated
    once before the first rung): on the line, lambda0 >= sqrt(t_V) is the
    adiabatic lower bound, and the shift is only a guess, certified by its
    block factor like every other.  On a plunging ladder (t_V < 0) the
    previous lambda0 lies above lambda0 and its shift would not factor.  There
    the ground state follows the wall law lambda0 ~ t_V Y^2 + a Y^(2/3) (an
    Airy layer at the truncation), so a later rung first tries
    t_V Y^2 + (lambda0(Y') - t_V Y'^2)(Y/Y')^(2/3), Y' the previous rung,
    then t_V Y^2, and the first rung tries t_V Y^2, each before the floor.
    Verdicts: subcritical when lambda0 at Y_max/2 and Y_max agree to 1 %
    (relative to max(1, |lambda0(Y_max)|)), supercritical when the fitted c
    is positive with R^2 >= 0.95, inconclusive otherwise.  The fit takes
    the rungs from index len(y_ladder) // 2 on, so a ladder of 3 or 4 rungs
    fits two points and R^2 = 1 by construction: the supercritical verdict
    then rests on c > 0 alone, and a subcritical ladder whose lambda0 still
    drifts by more than 1 % is called supercritical: 2, 3, 4 on
    `configs/single_channel.json` (t_V = 0.4296) gives c = 0.00108.

    Each rung is solved on the block of H on vectors even under every
    reflection that commutes with H (`assemble_h2d`): the even-even quarter
    block when the potential is even in x and in y
    (`ModelConfig.is_even_in_x`; `scan_grid` then makes the x-nodes
    mirror-symmetric), the even-in-y block ("even") when only every channel
    profile is even, and H itself ("full") otherwise.  H has nonpositive
    off-diagonals on a connected grid, so by Perron-Frobenius its lowest
    eigenvalue is simple with a positive eigenvector v.  A reflection R
    that commutes with H maps v to an eigenvector of the same simple
    eigenvalue, so R v = +-v, and R v is positive too: R v = v.  So the
    ground state is even under both reflections, and lambda0 is exactly the
    lowest eigenvalue of the block.  The unfolding map (the Kronecker
    product of the two axes' isometries) intertwines the block with H, so
    the residual of the block's pair is ||H x - lambda0 x|| of the unfolded
    vector, and the residual gate, the Rayleigh bound and the monotonicity
    check keep their meaning; the block factor certifies its shift below
    the spectrum of the block, which holds lambda0.  Each rung logs its
    sector and the order of its block at DEBUG.
    """
    if len(y_ladder) < 3 or any(b <= a for a, b in zip(y_ladder, y_ladder[1:])):
        raise ConfigurationError("Y ladder must be increasing with >= 3 entries")
    y_max = float(y_ladder[-1])
    sector = ("even-even" if config.is_even_in_x
              else "even" if config.is_even_in_y else "full")
    vals = []
    residuals = []
    # t_V only places shifts, and each shift is certified by its own block
    # factor, so the unextrapolated threshold of each channel is enough
    t_v = min((coarse_threshold(ComparisonSpec(config.omega, ch.lam, ch.profile,
                                               config.x_domain))
               for ch in config.channels), default=0.0)

    def guesses(y: float) -> list[float]:
        if t_v >= 0.0:
            return vals[-1:] or [math.sqrt(t_v)]
        plunge = t_v * y * y
        if not vals:
            return [plunge]
        # the wall law lambda0 ~ t_V Y^2 + a Y^(2/3), with a from the last rung
        y_prev = y_ladder[len(vals) - 1]
        return [plunge + (vals[-1] - t_v * y_prev**2) * (y / y_prev) ** (2.0 / 3.0),
                plunge]

    for y in y_ladder:
        grid = scan_grid(config, float(y), y_max)
        ham = assemble_h2d(config, grid, sector)
        (lam0, res), = lowest_eigenvalues(ham, 1, tol=_EIG_TOL, guess=guesses(y))
        _debug(__name__, "scan rung Y=%g: %s sector of order %d, lambda0 %.12g, "
               "residual %.3g", y, sector, ham.n, lam0, res)
        if not res <= 1e-6 * max(1.0, abs(lam0)):
            raise ComputationError(
                f"residual {res:.3g} of lambda0 = {lam0:.12g} at Y={y} exceeds "
                "1e-6 max(1, |lambda0|)")
        if lam0 < ham.potential_min - 1e-9 * max(1.0, abs(ham.potential_min)):
            raise ComputationError("eigenvalue below the Rayleigh potential bound")
        if vals and lam0 > vals[-1] + 1e-6 * max(1.0, abs(lam0)):
            raise ComputationError(
                f"lambda0 increased from Y={y_ladder[len(vals)-1]} to Y={y}; "
                "domain monotonicity violated beyond solver tolerance")
        vals.append(lam0)
        residuals.append(res)

    ys = np.asarray(y_ladder, dtype=float)
    window = slice(len(ys) // 2, None)
    a = np.column_stack([ys[window] ** 2, np.ones(len(ys[window]))])
    coef, *_ = np.linalg.lstsq(a, np.asarray(vals)[window], rcond=None)
    c_fit = float(-coef[0])
    pred = a @ coef
    ss_res = float(np.sum((np.asarray(vals)[window] - pred) ** 2))
    ss_tot = float(np.sum((np.asarray(vals)[window]
                           - np.mean(np.asarray(vals)[window])) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    verdict = "inconclusive"
    half = 0.5 * y_max
    if half in list(ys):
        lam_half = vals[list(ys).index(half)]
        drift = abs(vals[-1] - lam_half) / max(1.0, abs(vals[-1]))
        if drift <= _STABILITY_TOL:
            verdict = "subcritical"
    if verdict == "inconclusive" and c_fit > 0 and r2 >= _R2_MIN:
        verdict = "supercritical"

    rows = tuple(ScanRow(float(y), float(v), r) for y, v, r in zip(ys, vals, residuals))
    return TransitionScan(rows=rows, c_fit=c_fit, r_squared=r2, verdict=verdict)


def scan_csv(scan: TransitionScan) -> str:
    fit = f"{scan.c_fit:.12g},{scan.verdict}"
    lines = ["Y,lambda0,c_fit,verdict"]
    lines += [f"{r.y_half:.6g},{r.lambda0:.12g},{fit}" for r in scan.rows]
    return "\n".join(lines) + "\n"
