import json
import logging
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from oracles import coo_text, dense_tridiagonal, sparse_matrix, uniform_grid
from smilansky_lab import grid2d
from smilansky_lab.eigs import BlockTridiagonal
from smilansky_lab.errors import ComputationError, ConfigurationError, RefinementError
from smilansky_lab.model import (ChannelSpec, ModelConfig, PotentialProfile, XDomain,
                                 load_config)


@pytest.fixture(scope="module")
def small_grid():
    return uniform_grid(-4.0, 4.0, 40, 3.0, 50)


@pytest.fixture(scope="module")
def oscillator(small_grid):
    return grid2d.assemble_h2d(ModelConfig(omega=1.0), small_grid)


class TestAssembly:
    def test_exact_symmetry(self, oscillator):
        a = sparse_matrix(oscillator)
        assert abs(a - a.T).max() == 0.0

    def test_five_point_pattern(self, oscillator):
        a = sparse_matrix(oscillator)
        per_row = np.diff(a.indptr)
        assert np.max(per_row) <= 5

    def test_diagonal_lower_bound(self, oscillator, small_grid):
        g = small_grid
        hx = np.diff(g.x_nodes)[0]
        d = sparse_matrix(oscillator).diagonal()
        assert np.all(d >= 2.0 / hx**2 + 2.0 / g.h_y**2
                      + oscillator.potential_min - 1e-12)

    def test_separable_oracle(self, oscillator, small_grid):
        g = small_grid
        hx = np.diff(g.x_nodes)[0]
        ex = eigh_tridiagonal(np.full(g.n_x, 2.0 / hx**2), np.full(g.n_x - 1, -1.0 / hx**2),
                              eigvals_only=True, select="i", select_range=(0, 2))
        ey = eigh_tridiagonal(np.full(g.n_y, 2.0 / g.h_y**2) + g.y_nodes**2,
                              np.full(g.n_y - 1, -1.0 / g.h_y**2),
                              eigvals_only=True, select="i", select_range=(0, 2))
        sums = sorted(a + b for a in ex for b in ey)[:3]
        got = grid2d.lowest_eigenvalues(oscillator, 3, tol=1e-9)
        assert np.max(np.abs(np.array([v for v, _ in got])
                             - np.array(sums))) < 1e-8

    def test_zero_channel_ground_energy(self):
        # omega in y plus the Dirichlet box term in x, up to O(h^2)
        g = uniform_grid(-6.0, 6.0, 160, 6.0, 240)
        ham = grid2d.assemble_h2d(ModelConfig(omega=1.0), g)
        (val, _), = grid2d.lowest_eigenvalues(ham, 1)
        want = 1.0 + (np.pi / 12.0) ** 2
        assert abs(val - want) < 2e-3
        assert val >= 1.0 - 1e-6

    def test_resolution_check_names_channel(self):
        prof = PotentialProfile("cos2", 1.0, 1.0)
        cfg = ModelConfig(omega=1.0, channels=(ChannelSpec(2.0, 1.5, prof),))
        g = uniform_grid(-4.0, 4.0, 40, 8.0, 60)
        with pytest.raises(RefinementError, match="1.5"):
            grid2d.assemble_h2d(cfg, g)

    def test_interval_domain_mismatch_rejected(self):
        cfg = ModelConfig(omega=1.0, x_domain=XDomain("interval", 2.0, "dirichlet"))
        g = uniform_grid(-4.0, 4.0, 40, 3.0, 40)
        with pytest.raises(ConfigurationError):
            grid2d.assemble_h2d(cfg, g)

    def test_eigenvalue_count_needs_unknowns(self):
        # the Lanczos solve takes all but one of the 9 eigenvalues of the
        # 3x3 grid, as dense eigvalsh does; the ninth is refused
        ham = grid2d.assemble_h2d(ModelConfig(omega=1.0),
                                  uniform_grid(-2.0, 2.0, 3, 2.0, 3))
        want = np.linalg.eigvalsh(sparse_matrix(ham).toarray())
        got = grid2d.lowest_eigenvalues(ham, 8)
        assert len(got) == 8
        assert np.max(np.abs(np.array([v for v, _ in got]) - want[:8])) <= 1e-10
        with pytest.raises(ConfigurationError):
            grid2d.lowest_eigenvalues(ham, 9)

    def test_half_bandwidth_is_n_x(self, oscillator, small_grid):
        # x runs fastest; a graded scan grid keeps the same band
        cfg = ModelConfig(omega=1.0, channels=(
            ChannelSpec(2.0, 0.0, PotentialProfile("cos2", 1.0, 1.0)),))
        graded = grid2d.scan_grid(cfg, 3.0, 6.0)
        for ham, g in ((oscillator, small_grid),
                       (grid2d.assemble_h2d(cfg, graded), graded)):
            coo = sparse_matrix(ham).tocoo()
            assert g.n_x != g.n_y
            assert np.max(coo.col - coo.row) == g.n_x

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann", "periodic"])
    def test_matches_dense_on_interval(self, bc, monkeypatch):
        # the block solver against dense eigvalsh, k = 1 ... 4, on the
        # graded scan grid at 6 y-rows per unit, in both sectors
        monkeypatch.setattr(grid2d, "_Y_ROWS_PER_UNIT", 6)
        cfg = ModelConfig(omega=1.0, x_domain=XDomain("interval", 2.0, bc),
                          channels=(ChannelSpec(
                              3.0, 0.5, PotentialProfile("cos2", 1.0, 1.0)),))
        g = grid2d.scan_grid(cfg, 2.5, 2.5)
        for sector in ("full", "even"):
            ham = grid2d.assemble_h2d(cfg, g, sector)
            want = np.linalg.eigvalsh(sparse_matrix(ham).toarray())
            for k in range(1, 5):
                got = grid2d.lowest_eigenvalues(ham, k)
                assert np.max(np.abs(np.array([v for v, _ in got]) - want[:k])) < 1e-10
                assert all(r <= 1e-7 for _, r in got)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann", "periodic"])
    def test_finite_volume_stencil_is_classical_on_uniform_nodes(self, bc):
        # vertex nodes for Dirichlet, cell-centred ones for Neumann and
        # periodic ends
        n, lo, hi = 37, -1.5, 2.5
        if bc == "dirichlet":
            h = (hi - lo) / (n + 1)
            x = lo + h * np.arange(1, n + 1)
        else:
            h = (hi - lo) / n
            x = lo + h * (np.arange(n) + 0.5)
        want = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
                - np.diag(np.ones(n - 1), -1)) / h**2
        if bc == "neumann":
            want[0, 0] = want[-1, -1] = 1.0 / h**2
        elif bc == "periodic":
            want[0, -1] = want[-1, 0] = -1.0 / h**2
        got = dense_tridiagonal(*grid2d._second_diff_1d(x, lo, hi, bc))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_periodic_and_neumann_agree_on_an_even_profile(self):
        # with the channel at the center of (-c, c), the periodic ground
        # state is even about 0 and about the ends, where its slope vanishes:
        # it is the Neumann ground state; the two discretizations differ
        # only at the ends (a wrap face against two wall cells)
        lam = {}
        for bc in ("neumann", "periodic"):
            cfg = ModelConfig(omega=1.0, x_domain=XDomain("interval", 2.0, bc),
                              channels=(ChannelSpec(2.0, 0.0, COS2),))
            g = grid2d.scan_grid(cfg, 4.0, 4.0)
            (lam[bc], _), = grid2d.lowest_eigenvalues(grid2d.assemble_h2d(cfg, g, "even"))
        assert abs(lam["periodic"] - lam["neumann"]) <= 1e-5 * abs(lam["neumann"])

    def test_guess_above_lowest_falls_back_to_floor(self, oscillator, caplog):
        (base, _), = grid2d.lowest_eigenvalues(oscillator, 1)
        with caplog.at_level(logging.DEBUG, logger="smilansky_lab.eigs"):
            (got, _), = grid2d.lowest_eigenvalues(oscillator, 1, guess=[base + 1.0])
        assert abs(got - base) <= 1e-10 * max(1.0, abs(base))
        floor = oscillator.potential_min - 1.0
        assert f"(not definite), {floor:.9g} (factored)" in caplog.text

    def test_potential_min_above_minimum_is_computation_error(self, oscillator):
        # sigma = potential_min - 1 then sits above the lowest eigenvalue,
        # so H - sigma has no block Cholesky factor
        wrong = oscillator._replace(
            potential_min=float(sparse_matrix(oscillator).diagonal().max()) + 1.0)
        with pytest.raises(ComputationError, match="not positive definite"):
            grid2d.lowest_eigenvalues(wrong, 1)

    def test_memory_cap(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            uniform_grid(-4.0, 4.0, 4000, 3.0, 4000)
        free = ModelConfig(omega=1.0)
        # 2 million nodes pass the node count, but their pivot blocks, one
        # n_x x n_x inverse per y-row, would take 4e9 doubles; the check
        # comes before anything is assembled
        def no_stencil(*args):
            raise AssertionError("assembled past the pivot-block check")

        monkeypatch.setattr(grid2d, "_second_diff_1d", no_stencil)
        big = uniform_grid(-4.0, 4.0, 2000, 3.0, 1000)
        for sector in ("full", "even-even"):
            with pytest.raises(ConfigurationError, match="pivot blocks"):
                grid2d.assemble_h2d(free, big, sector)
        monkeypatch.undo()
        # the 401 x 400 grid: 6.4e7 doubles for the full matrix, past the
        # cap, but 201^2 x 200 = 8.1e6 for its even-even quarter block
        grid = uniform_grid(-4.0, 4.0, 401, 3.0, 400)
        with pytest.raises(ConfigurationError, match="pivot blocks"):
            grid2d.assemble_h2d(free, grid)
        ham = grid2d.assemble_h2d(free, grid, "even-even")
        assert ham.op.bx.shape == (201, 201) and ham.n == 201 * 200

    def test_coo_export_round_trip(self, oscillator):
        # the export, written from the block form, is byte for byte the text
        # of the matrix that scipy.sparse sums, rows and then columns
        # ascending: on the line, on Dirichlet, Neumann and periodic
        # intervals, and for two channels that no reflection maps onto each
        # other.  One loop keeps the test's id.
        single = ModelConfig(omega=1.0, channels=(ChannelSpec(2.0, 0.0, COS2),))
        configs = {"line": single,
                   "two-channels": ModelConfig(omega=1.0, channels=(
                       ChannelSpec(4.585884094238281, 0.0, COS2),
                       ChannelSpec(1.8, 3.0, PotentialProfile("quartic", 1.0, 1.0))))}
        for bc in ("dirichlet", "neumann", "periodic"):
            configs[bc] = single._replace(x_domain=XDomain("interval", 3.0, bc))
        for name, cfg in configs.items():
            grid = grid2d.scan_grid(cfg, 3.0, 3.0)
            ham = grid2d.assemble_h2d(cfg, grid)
            assert ham.export_coo() == coo_text(sparse_matrix(ham)), name
        # entries that come to exactly 0 (here a diagonal 2 - 2 and the
        # coupling c[0]) are left out, where scipy.sparse keeps them stored
        bx = np.array([[2.0, -1.0, -0.5], [-1.0, 2.0, -1.0], [-0.5, -1.0, 2.0]])
        ham = oscillator._replace(op=BlockTridiagonal(
            bx, np.array([[-2.0, 1.0, 0.0], [0.5, -2.0, 3.0], [1.0, 1.0, 1.0]]),
            np.array([0.0, -4.0])))
        a = sparse_matrix(ham).toarray()
        i, j = np.nonzero(a)
        assert len(i) == 27 + 12 - 6 - 2
        assert ham.export_coo() == "".join(f"{r} {c} {v:.17g}\n"
                                           for r, c, v in zip(i, j, a[i, j]))


class TestGradedMesh:
    def test_spacing_law(self):
        x = grid2d.graded_x_nodes(-6.0, 6.0, (0.0,), 1.0 / 64.0)
        d = np.diff(x)
        assert np.min(d) >= 1.0 / 64.0 - 1e-12
        assert np.max(d) <= 0.25 + 1e-12
        mid = 0.5 * (x[:-1] + x[1:])
        assert np.all(d <= np.maximum(1.0 / 64.0, np.abs(mid) / 4.0) * 1.35)

    @pytest.mark.parametrize("centers", [(), (0.0,), (-2.0, 2.0), (0.0, -12.0, 12.0),
                                         (-1.7, 0.0, 1.7, -13.7, 10.3, -10.3, 13.7)])
    def test_symmetric_centers_give_mirrored_nodes(self, centers):
        # the walk to the left is the negated walk to the right, from the
        # midpoint node, bitwise; the last two sets are periodic images
        # (b +- 12 on (-6, 6))
        x = grid2d.graded_x_nodes(-6.0, 6.0, centers, 1.0 / 64.0)
        assert len(x) % 2 == 1 and x[len(x) // 2] == 0.0
        assert np.array_equal(x, -x[::-1])

    @pytest.mark.parametrize("x_lo, x_hi", [(-np.inf, np.inf), (-np.nan, np.nan), (2.0, -2.0)])
    def test_bad_x_range_rejected(self, x_lo, x_hi):
        with pytest.raises(ConfigurationError, match="x-range"):
            grid2d.graded_x_nodes(x_lo, x_hi, (0.0,), 1.0 / 64.0)

    def test_floor_above_the_cap_meshes_at_the_cap(self):
        # a floor past _H_MAX, as a channel wider than the truncation gives,
        # was refused; the spacing law caps it
        x = grid2d.graded_x_nodes(-6.0, 6.0, (0.0,), 0.5)
        assert x[0] == -5.75 and np.all(np.diff(x) == 0.25)
        with pytest.raises(ConfigurationError, match="h_min > 0"):
            grid2d.graded_x_nodes(-6.0, 6.0, (0.0,), 0.0)

    def test_asymmetric_centers_keep_the_midpoint_node(self):
        x = grid2d.graded_x_nodes(1.0, 5.0, (3.5,), 1.0 / 64.0)
        assert 3.0 in x and not np.allclose(x - 3.0, (3.0 - x)[::-1])
        d = np.diff(x)
        assert np.min(d) >= 1.0 / 64.0 - 1e-12 and np.max(d) <= 0.25 + 1e-12

    def test_shipped_scan_grid_is_mirrored(self):
        root = Path(__file__).parents[1] / "configs"
        cfg = load_config(str(root / "single_channel.json"))
        g = grid2d.scan_grid(cfg, 4.0, 16.0)
        assert g.n_x == 69 and g.is_even_in_x

    def test_graded_matches_uniform_on_oscillator(self, monkeypatch):
        # graded assembly of a smooth problem agrees with the uniform
        # answer, with the spacing capped at 0.1
        monkeypatch.setattr(grid2d, "_H_MAX", 0.1)
        cfg = ModelConfig(omega=1.0)
        x = grid2d.graded_x_nodes(-5.0, 5.0, (0.0,), 1.0 / 32.0)
        g = grid2d.Grid2D(-5.0, 5.0, x, 4.0, 160)
        (v_graded, _), = grid2d.lowest_eigenvalues(grid2d.assemble_h2d(cfg, g), 1)
        gu = uniform_grid(-5.0, 5.0, 220, 4.0, 160)
        (v_uni, _), = grid2d.lowest_eigenvalues(grid2d.assemble_h2d(cfg, gu), 1)
        assert abs(v_graded - v_uni) < 5e-3

    def test_rayleigh_min_matches_solver(self):
        # independent randomized variational oracle: dense Rayleigh-Ritz over
        # 50-step Krylov spaces from 200 random starts
        rng = np.random.default_rng(11)
        cfg = ModelConfig(omega=1.0)
        g = uniform_grid(-3.0, 3.0, 18, 2.5, 20)
        ham = grid2d.assemble_h2d(cfg, g)
        (val, _), = grid2d.lowest_eigenvalues(ham, 1, tol=1e-10)
        a = sparse_matrix(ham)
        best = np.inf
        for _ in range(200):
            v = rng.standard_normal(ham.n)
            basis = [v / np.linalg.norm(v)]
            for _ in range(50):
                w = a @ basis[-1]
                for b in basis:
                    w = w - (b @ w) * b
                nw = np.linalg.norm(w)
                if nw < 1e-12:
                    break
                basis.append(w / nw)
            q = np.column_stack(basis)
            small = q.T @ (a @ q)
            best = min(best, float(np.linalg.eigvalsh(0.5 * (small + small.T))[0]))
        assert abs(best - val) < 1e-8


class TestScan:
    def test_ladder_validation(self):
        with pytest.raises(ConfigurationError):
            grid2d.transition_scan(ModelConfig(omega=1.0), [4.0, 3.0, 8.0])
        with pytest.raises(ConfigurationError):
            grid2d.transition_scan(ModelConfig(omega=1.0), [4.0, 8.0])
        for bad in ([4.0, 8.0, np.nan], [4.0, np.nan, 16.0], [4.0, 8.0, np.inf]):
            with pytest.raises(ConfigurationError, match="finite truncation"):
                grid2d.transition_scan(ModelConfig(omega=1.0), bad)

    def test_zero_channel_scan_subcritical(self, monkeypatch):
        # start the ladder at Y = 3 so the y-truncation error of the
        # oscillator mode is already below the stability tolerance
        monkeypatch.setattr(grid2d, "_X_HALF_WIDTH", 4.0)
        scan = grid2d.transition_scan(ModelConfig(omega=1.0), [3.0, 4.5, 6.0])
        assert scan.verdict == "subcritical"
        assert abs(scan.rows[-1].lambda0 - (1.0 + (np.pi / 8.0) ** 2)) < 0.02
        vals = [r.lambda0 for r in scan.rows]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_residual_gate(self, monkeypatch):
        monkeypatch.setattr(grid2d, "_X_HALF_WIDTH", 4.0)
        scan = grid2d.transition_scan(ModelConfig(omega=1.0), [2.0, 3.0, 4.0])
        assert all(0.0 <= r.residual <= 1e-6 * max(1.0, abs(r.lambda0))
                   for r in scan.rows)
        monkeypatch.setattr(grid2d, "lowest_eigenvalues",
                            lambda ham, k, tol, guess=(): [(1.0, 2e-6)])
        with pytest.raises(ComputationError, match="Y=2.0"):
            grid2d.transition_scan(ModelConfig(omega=1.0), [2.0, 3.0, 4.0])

    def test_ladder_rungs_take_one_factorization_and_few_solves(self, caplog):
        # Dirichlet nesting makes each previous lambda0 a certified guess on
        # a stabilizing ladder, whose first rung starts below the adiabatic
        # bound sqrt(t_V), and on a plunging one the wall law from t_V
        # places the shift: every rung factors its first shift, and takes
        # few solves.  Each eigensolve logs one record: every shift it tried
        # (one block factorization each, "factored" or "not definite"), and
        # its number of block solves.
        root = Path(__file__).parents[1] / "configs"
        for name, verdict, first_max, later_max in (
                ("single_channel", "subcritical", 12, 25),
                ("supercritical", "supercritical", 25, 15)):
            caplog.clear()
            cfg = load_config(str(root / f"{name}.json"))
            with caplog.at_level(logging.DEBUG, logger="smilansky_lab.eigs"):
                scan = grid2d.transition_scan(cfg, [4.0, 8.0, 16.0])
            rungs = [(shifts, solves) for _, shifts, solves in
                     (r.args for r in caplog.records if r.name == "smilansky_lab.eigs")]
            assert scan.verdict == verdict and len(rungs) == 3
            assert all(shifts.count("(factored)") == 1 and "not definite" not in shifts
                       for shifts, _ in rungs)
            assert first_max is None or rungs[0][1] <= first_max
            assert all(solves <= later_max for _, solves in rungs[1:])

    def test_csv_header(self, monkeypatch):
        monkeypatch.setattr(grid2d, "_X_HALF_WIDTH", 4.0)
        scan = grid2d.transition_scan(ModelConfig(omega=1.0), [2.0, 3.0, 4.0])
        lines = grid2d.scan_csv(scan).strip().split("\n")
        assert lines[0] == "Y,lambda0,c_fit,verdict"
        assert len(lines) == 4


COS2 = PotentialProfile("cos2", 1.0, 1.0)
MIRRORED_TABLE = PotentialProfile("table", 1.0, 1.0, table=(
    (-1.0, 0.0), (-0.5, 0.6), (0.0, 1.0), (0.5, 0.6), (1.0, 0.0)))
SKEWED_TABLE = PotentialProfile("table", 1.0, 1.0, table=(
    (-1.0, 0.0), (-0.5, 0.9), (0.0, 1.0), (0.5, 0.3), (1.0, 0.0)))


def _even_cases():
    """(id, config, grid) over x boundaries, x-grids, channels and both
    parities of n_y; the centred channels and the symmetric line cases are
    also even in x, on odd and even n_x."""
    cases = []
    for bc in ("dirichlet", "neumann", "periodic"):
        cfg = ModelConfig(omega=1.0, x_domain=XDomain("interval", 2.0, bc),
                          channels=(ChannelSpec(3.0, 0.5, COS2),))
        for n_y in (31, 30):
            cases.append((f"{bc}-ny{n_y}", cfg, uniform_grid(
                -2.0, 2.0, 24, 2.5, n_y)))
        centred = cfg._replace(channels=(ChannelSpec(3.0, 0.0, COS2),))
        for n_x in (25, 24):
            for n_y in (31, 30):
                cases.append((f"{bc}-centred-nx{n_x}-ny{n_y}", centred,
                              uniform_grid(-2.0, 2.0, n_x, 2.5, n_y)))
    line = {
        "graded": ModelConfig(omega=1.0, channels=(ChannelSpec(4.0, 0.0, COS2),)),
        "two-channels": ModelConfig(omega=1.0, channels=(
            ChannelSpec(4.0, 0.0, COS2),
            ChannelSpec(2.0, 2.5, PotentialProfile("quartic", 1.0, 1.0)))),
        "y-cutoff": ModelConfig(omega=1.0, channels=(ChannelSpec(4.0, 0.0, COS2),),
                                y_cutoff=0.7),
        "mirrored-table": ModelConfig(omega=1.0,
                                      channels=(ChannelSpec(4.0, 0.0, MIRRORED_TABLE),)),
    }
    for name, cfg in line.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid2d, "_Y_ROWS_PER_UNIT", 8)
            mp.setattr(grid2d, "_X_HALF_WIDTH", 5.0)
            g = grid2d.scan_grid(cfg, 3.0, 3.0)
        assert g.n_y == 47
        cases.append((f"{name}-ny47", cfg, g))
        cases.append((f"{name}-ny46", cfg, g._replace(n_y=46)))
    return cases


EVEN_CASES = _even_cases()


def _mirror_isometry(n):
    """The columns of `grid2d._mirror_fold`'s U on n nodes: node i of the
    upper half n // 2, ..., n - 1 spreads over i and n - 1 - i, weight
    1/sqrt(2) each, or 1 on a node that is its own image."""
    k = np.arange(n // 2, n)
    cols = np.arange(len(k))
    w = np.where(k == n - 1 - k, 1.0, np.sqrt(0.5))
    u = np.zeros((n, len(k)))
    u[k, cols] = w
    u[n - 1 - k, cols] = w
    return u


@pytest.mark.parametrize("n", range(3, 13))
def test_mirror_fold_is_the_block_of_the_isometry(n):
    # random mirror-symmetric tridiagonals, with and without a periodic
    # corner: the closed form is U^T T U to rounding, tridiagonal
    rng = np.random.default_rng(n)
    for corner in (None, float(rng.standard_normal())):
        for _ in range(20):
            d, e = rng.standard_normal((n + 1) // 2), rng.standard_normal(n // 2)
            d = np.concatenate((d, d[:n // 2][::-1]))
            e = np.concatenate((e, e[:(n - 1) // 2][::-1]))
            t = dense_tridiagonal(d, e, corner)
            u = _mirror_isometry(n)
            want = u.T @ t @ u
            got = grid2d._mirror_fold(d, e, corner)
            tol = 4 * np.finfo(float).eps * np.max(np.abs(t))
            assert np.max(np.abs(np.diag(want) - got[0])) <= tol
            assert np.max(np.abs(np.diag(want, 1) - got[1])) <= tol
            assert np.max(np.abs(want - dense_tridiagonal(*got))) <= tol
            # and leaves its input as it was
            assert np.array_equal(dense_tridiagonal(d, e, corner), t)


def _unfold(grid, sector):
    """The isometry from a folded block onto the vectors of the full grid
    even in y, and in x for "even-even": folded y-rows count from the wall
    y = Y inward, folded x-columns from x = 0 outward."""
    uy = _mirror_isometry(grid.n_y)[:, ::-1]
    ux = _mirror_isometry(grid.n_x) if sector == "even-even" else np.eye(grid.n_x)
    return sp.kron(sp.csr_matrix(uy), sp.csr_matrix(ux), format="csr")


class TestEvenSector:
    @pytest.mark.parametrize("cfg, grid", [c[1:] for c in EVEN_CASES],
                             ids=[c[0] for c in EVEN_CASES])
    def test_even_block_matches_full_operator(self, cfg, grid):
        full = grid2d.assemble_h2d(cfg, grid)
        a_full = sparse_matrix(full)
        (lam_full, _), = grid2d.lowest_eigenvalues(full, 1, tol=1e-10)
        scale = abs(a_full).max()
        sectors = ["even"]
        if cfg.is_even_in_x:
            assert grid.is_even_in_x
            sectors.append("even-even")
        else:
            with pytest.raises(ConfigurationError, match="even-in-x"):
                grid2d.assemble_h2d(cfg, grid, "even-even")
        for sector in sectors:
            block = grid2d.assemble_h2d(cfg, grid, sector)
            n_x = grid.n_x if sector == "even" else (grid.n_x + 1) // 2
            assert block.sector == sector and block.n == n_x * ((grid.n_y + 1) // 2)
            a_block = sparse_matrix(block)
            # the Perron-Frobenius premise: nonpositive off-diagonals
            for a in (a_full, a_block):
                assert (a - sp.diags(a.diagonal())).max() <= 0.0
            coo = a_block.tocoo()
            assert np.max(coo.col - coo.row) == n_x
            # the unfolding map is an isometry that intertwines the block with H
            u = _unfold(grid, sector)
            assert abs(u.T @ u - sp.identity(block.n)).max() <= 1e-15
            assert abs(a_full @ u - u @ a_block).max() <= 1e-12 * scale
            assert abs(block.potential_min - full.potential_min) <= 1e-12 * scale
            # so residuals agree, for any vector ...
            x = np.random.default_rng(3).standard_normal(block.n)
            lam = x @ (a_block @ x) / (x @ x)
            r_block = np.linalg.norm(a_block @ x - lam * x)
            r_full = np.linalg.norm(a_full @ (u @ x) - lam * (u @ x))
            assert abs(r_block - r_full) <= 1e-12 * r_full
            # ... and the block's ground state is the ground state
            (lam_block, res), = grid2d.lowest_eigenvalues(block, 1, tol=1e-10)
            assert abs(lam_block - lam_full) <= 1e-12 * max(1.0, abs(lam_full))
            assert res <= 1e-10

    def test_fold_needs_mirrored_nodes(self):
        cfg = ModelConfig(omega=1.0, channels=(ChannelSpec(4.0, 0.0, COS2),))
        x = grid2d.graded_x_nodes(-5.0, 5.0, (0.0,), 1.0 / 16.0)
        shifted = grid2d.Grid2D(-5.0, 5.0, x + 1e-3, 3.0, 47)
        assert cfg.is_even_in_x and not shifted.is_even_in_x
        with pytest.raises(ConfigurationError, match="mirror-symmetric"):
            grid2d.assemble_h2d(cfg, shifted, "even-even")

    def test_scans_fold_x_only_for_a_potential_even_in_x(self, caplog, monkeypatch):
        # the sector is read off the input, and each rung's debug record
        # names it with the order of its block (the skewed table, solved on
        # the full operator, is the next test)
        root = Path(__file__).parents[1] / "configs"
        monkeypatch.setattr(grid2d, "_Y_ROWS_PER_UNIT", 8)
        monkeypatch.setattr(grid2d, "_X_HALF_WIDTH", 4.0)
        ladder = [2.0, 3.0, 4.0]
        cases = [
            ("even-even", ModelConfig(omega=1.0, channels=(
                ChannelSpec(2.0, -2.0, COS2), ChannelSpec(2.0, 2.0, COS2)))),
            ("even", load_config(str(root / "two_channel.json"))),
            ("even", ModelConfig(omega=1.0, channels=(ChannelSpec(4.0, 0.5, COS2),))),
            ("even", ModelConfig(omega=1.0, channels=(
                ChannelSpec(2.0, -2.0, COS2), ChannelSpec(2.5, 2.0, COS2)))),
        ]
        for sector, cfg in cases:
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="smilansky_lab.grid2d"):
                grid2d.transition_scan(cfg, ladder)
            grids = [grid2d.scan_grid(cfg, y, 4.0) for y in ladder]
            orders = [(g.n_x + 1) // 2 * ((g.n_y + 1) // 2) if sector == "even-even"
                      else g.n_x * ((g.n_y + 1) // 2) for g in grids]
            assert [r.getMessage().split(": ")[1].split(",")[0]
                    for r in caplog.records] == [
                f"{sector} sector of order {n}" for n in orders]

    def test_asymmetric_table_scans_on_the_full_operator(self, caplog, monkeypatch):
        cfg = ModelConfig(omega=1.0, channels=(ChannelSpec(3.0, 0.0, SKEWED_TABLE),))
        monkeypatch.setattr(grid2d, "_Y_ROWS_PER_UNIT", 8)
        monkeypatch.setattr(grid2d, "_X_HALF_WIDTH", 4.0)
        ladder = [2.0, 3.0, 4.0]
        with caplog.at_level(logging.DEBUG, logger="smilansky_lab.grid2d"):
            scan = grid2d.transition_scan(cfg, ladder)
        grids = [grid2d.scan_grid(cfg, y, 4.0) for y in ladder]
        assert [r.getMessage().split(": ")[1].split(",")[0] for r in caplog.records] == [
            f"full sector of order {g.n_x * g.n_y}" for g in grids]
        want = [grid2d.lowest_eigenvalues(grid2d.assemble_h2d(cfg, g), 1)[0][0]
                for g in grids]
        assert np.allclose([r.lambda0 for r in scan.rows], want, rtol=1e-12, atol=0.0)
        with pytest.raises(ConfigurationError, match="even"):
            grid2d.assemble_h2d(cfg, grids[0], "even")

    @pytest.mark.parametrize("name", ["single_channel", "supercritical"])
    def test_shipped_scans_keep_the_full_operator_lambda0(self, name, caplog):
        root = Path(__file__).parents[1]
        pinned = json.loads((root / "tests" / "data" / "scan_ladder_4_8_16.json")
                            .read_text())
        want = pinned[name]
        cfg = load_config(str(root / "configs" / f"{name}.json"))
        with caplog.at_level(logging.DEBUG, logger="smilansky_lab.grid2d"):
            scan = grid2d.transition_scan(cfg, [4.0, 8.0, 16.0])
        assert np.allclose([r.lambda0 for r in scan.rows], want, rtol=1e-12, atol=0.0)
        assert [r.getMessage().split(": ")[1].split(",")[0] for r in caplog.records] == [
            f"even-even sector of order {n}" for n in (1680, 3360, 6720)]
        # halving the y-density, and the mirror-symmetric mesh, each moved
        # lambda0 by far less than its discretization error (about 1 %)
        for earlier in ("points_per_unit_y_24", "left_to_right_mesh"):
            assert np.allclose(want, pinned[earlier][name], rtol=1e-3, atol=0.0)

    @pytest.mark.parametrize("name", ["single_channel", "supercritical"])
    def test_y_density_error_is_a_tenth_of_the_x_error(self, name, monkeypatch):
        # lambda0 on the shipped y-density, at twice it, and at twice it
        # with every x-cell halved by inserting its midpoint: on every rung
        # the y-density moves lambda0 by at most a tenth of what the x-cells
        # do, so the y-rows are not where the mesh error lies
        cfg = load_config(str(Path(__file__).parents[1] / "configs" / f"{name}.json"))
        ladder = [4.0, 8.0, 16.0]
        shipped = grid2d.transition_scan(cfg, ladder).rows
        monkeypatch.setattr(grid2d, "_Y_ROWS_PER_UNIT", 24)
        ref = grid2d.transition_scan(cfg, ladder).rows
        for r_y, r_ref in zip(shipped, ref):
            g = grid2d.scan_grid(cfg, r_ref.y_half, ladder[-1])
            ends = np.concatenate(([g.x_lo], g.x_nodes, [g.x_hi]))
            x = np.sort(np.concatenate((g.x_nodes, 0.5 * (ends[:-1] + ends[1:]))))
            fine_x = grid2d.assemble_h2d(cfg, g._replace(x_nodes=x), "even-even")
            (lam_x, _), = grid2d.lowest_eigenvalues(fine_x, 1, guess=[r_ref.lambda0])
            assert (abs(r_y.lambda0 - r_ref.lambda0)
                    <= 0.1 * abs(lam_x - r_ref.lambda0))
