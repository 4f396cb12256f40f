import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from smilansky_lab.errors import ConfigurationError
from smilansky_lab.model import PotentialProfile, eval_profile
from smilansky_lab.oned import (ComparisonSpec, Domain1D, Grid1D,
                                ResolutionPolicy, _min_eig, _resolve_truncation,
                                assemble_comparison, critical_coupling,
                                ground_state, threshold,
                                tune_lambda_to_threshold)
from smilansky_lab.quadrature import gauss_panels

# regression values pinned from converged runs (cross-checked below against
# an independent dense solver)
LAM_CRIT_COS2 = 2.866302490234375
LAM_E0_MINUS1 = 4.585884094238281


class TestThreshold:
    def test_zero_coupling_is_continuum_edge(self, cos2_profile):
        spec = ComparisonSpec(1.0, 0.0, cos2_profile,
                              Domain1D("truncated_line", 12.0))
        assert threshold(spec) == 1.0

    def test_supercritical_value(self, cos2_profile):
        spec = ComparisonSpec(1.0, LAM_E0_MINUS1, cos2_profile,
                              Domain1D("truncated_line", 12.0))
        assert abs(threshold(spec) + 1.0) < 2e-6

    def test_independent_dense_oracle(self, cos2_profile):
        # same operator through scipy's dense tridiagonal solver
        lam = 1.5 * LAM_CRIT_COS2
        spec = ComparisonSpec(1.0, lam, cos2_profile,
                              Domain1D("truncated_line", 24.0))
        e = threshold(spec)
        n, X = 16000, 24.0
        x = np.linspace(-X, X, n + 2)[1:-1]
        h = x[1] - x[0]
        v, _ = eval_profile(cos2_profile, x)
        vals = eigh_tridiagonal(2.0 / h**2 + 1.0 - lam * v,
                                np.full(n - 1, -1.0 / h**2),
                                select="i", select_range=(0, 0))[0]
        assert abs(e - vals[0]) < 5e-6

    def test_truncation_doubles_only_while_the_eigenvalue_moves(self, cos2_profile):
        # the start X = 1 + 16/sqrt(2) is already converged to 1e-9, so one
        # doubling (whose nodes contain the start grid's) confirms it
        spec = ComparisonSpec(1.0, 4.0, cos2_profile,
                              Domain1D("truncated_line", 12.0))
        resolved, unbound = _resolve_truncation(spec, ResolutionPolicy())
        assert not unbound
        assert resolved.domain.half_width == 2.0 * (1.0 + 16.0 / np.sqrt(2.0))

    def test_interval_neumann_zero_potential(self, cos2_profile):
        spec = ComparisonSpec(2.0, 0.0, cos2_profile,
                              Domain1D("interval", 3.0, "neumann"))
        assert abs(threshold(spec) - 4.0) < 1e-8

    def test_interval_dirichlet_adds_box_energy(self, cos2_profile):
        spec = ComparisonSpec(1.0, 0.0, cos2_profile,
                              Domain1D("interval", 2.0, "dirichlet"))
        assert abs(threshold(spec) - (1.0 + (np.pi / 4.0) ** 2)) < 1e-7

    @pytest.mark.parametrize("n", [17, 64, 301])
    def test_periodic_min_eig_matches_dense(self, cos2_profile, dense_periodic_min, n):
        # the fold 0, n-1, 1, n-2, ... must keep odd and even orders exact
        spec = ComparisonSpec(1.0, 4.0, cos2_profile,
                              Domain1D("interval", 1.0, "periodic"))
        grid = Grid1D(-1.0, 1.0, n)
        assert abs(_min_eig(spec, grid) - dense_periodic_min(spec, grid)) < 1e-9

    def test_interval_periodic_threshold_matches_dense(self, cos2_profile,
                                                       dense_periodic_min):
        spec = ComparisonSpec(1.0, 4.0, cos2_profile,
                              Domain1D("interval", 1.0, "periodic"))
        policy = ResolutionPolicy(points_per_unit=16.0, rich_tol=1e-3)
        e = [dense_periodic_min(spec, Grid1D(-1.0, 1.0, m)) for m in (64, 128, 256)]
        assert abs(threshold(spec, policy) - (4.0 * e[2] - e[1]) / 3.0) < 1e-9


class TestCriticalCoupling:
    def test_pinned_value(self, lam_crit):
        assert abs(lam_crit - LAM_CRIT_COS2) < 1e-5 * LAM_CRIT_COS2

    def test_threshold_residual(self, cos2_profile, lam_crit):
        spec = ComparisonSpec(1.0, lam_crit, cos2_profile,
                              Domain1D("truncated_line", 12.0))
        assert abs(threshold(spec)) <= 1e-6

    def test_resolution_independence(self, cos2_profile, lam_crit):
        other = critical_coupling(1.0, cos2_profile,
                                  policy=ResolutionPolicy(points_per_unit=84.0))
        assert abs(other - lam_crit) <= 1e-3 * lam_crit

    def test_amplitude_covariance(self, cos2_profile, lam_crit):
        doubled = PotentialProfile("cos2", 1.0, 2.0)
        lam2 = critical_coupling(1.0, doubled)
        assert abs(2.0 * lam2 - lam_crit) <= 1e-3 * lam_crit

    def test_tuned_coupling_regression(self, lam_e0_minus1):
        assert abs(lam_e0_minus1 - LAM_E0_MINUS1) < 1e-9

    def test_monotone_in_target(self, cos2_profile, lam_e0_minus1, lam_crit):
        # deeper requested threshold needs stronger coupling
        assert lam_e0_minus1 > lam_crit


class TestGroundState:
    def test_eigen_invariants(self, gs_minus1):
        gs = gs_minus1
        assert abs(gs.e0 + 1.0) < 1e-4
        h = gs.grid.h
        assert abs(np.sum(gs.samples**2) * h - 1.0) < 1e-12
        # even potential: even ground state, zero derivative at the origin
        assert abs(gs.h1(0.0)) < 1e-8
        assert gs.h(0.0) > 0

    def test_quadrature_rayleigh_identity(self, gs_minus1):
        gs = gs_minus1
        t, w = gauss_panels(np.linspace(-11.0, 11.0, 441), 8)
        h, h1 = gs.h(t), gs.h1(t)
        v, _ = eval_profile(gs.profile, t)
        num = w @ (h1**2 + (gs.omega**2 - gs.lam * v) * h**2)
        den = w @ h**2
        assert abs(num / den - gs.e0) < 1e-4

    def test_ode_second_derivative(self, gs_minus1):
        gs = gs_minus1
        t = np.linspace(-2.0, 2.0, 17)
        v, _ = eval_profile(gs.profile, t)
        assert np.allclose(gs.h2(t), (gs.omega**2 - gs.lam * v - gs.e0) * gs.h(t))

    def test_exponential_tail(self, gs_minus1):
        gs = gs_minus1
        t = np.linspace(4.0, 8.0, 9)
        slopes = np.diff(np.log(gs.h(t))) / np.diff(t)
        assert np.max(np.abs(slopes + gs.kappa)) < 0.02 * gs.kappa

    def test_no_bound_state_flagged(self, cos2_profile):
        spec = ComparisonSpec(1.0, 0.05, cos2_profile,
                              Domain1D("truncated_line", 12.0))
        gs = ground_state(spec, Grid1D(-12.0, 12.0, 2001))
        assert gs.no_bound_state


class TestAssembly:
    def test_neumann_constant_mode(self, cos2_profile):
        spec = ComparisonSpec(1.0, 0.0, cos2_profile,
                              Domain1D("interval", 2.0, "neumann"))
        T = assemble_comparison(spec, Grid1D(-2.0, 2.0, 64))
        ones = np.ones(T.n)
        # constant vector is an exact discrete eigenvector at omega^2
        assert np.max(np.abs(T.matvec(ones) - 1.0 * ones)) < 1e-12

    def test_grid_validation(self, cos2_profile):
        spec = ComparisonSpec(1.0, 1.0, cos2_profile,
                              Domain1D("truncated_line", 12.0))
        with pytest.raises(ConfigurationError):
            assemble_comparison(spec, Grid1D(-8.0, 8.0, 100))

    def test_truncation_too_small_rejected(self, cos2_profile):
        with pytest.raises(ConfigurationError):
            ComparisonSpec(1.0, 1.0, cos2_profile,
                           Domain1D("truncated_line", 2.0))
