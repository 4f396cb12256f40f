import hashlib
import logging
import math
import struct
import weakref

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal

from oracles import interval_chain, interval_min_eig, truncated_line_ground_state
from smilansky_lab import oned, sturm, weyl
from smilansky_lab.errors import (ComputationError, ConfigurationError,
                                  RefinementError)
from smilansky_lab.model import PotentialProfile, XDomain, profile_values
from smilansky_lab.oned import (ComparisonSpec, ResolutionPolicy, coarse_threshold,
                                critical_coupling, ground_state, threshold,
                                tune_lambda_to_threshold)
from smilansky_lab.quadrature import gauss_panels
from smilansky_lab.sturm import cyclic_sturm_count, sturm_count

# the couplings with threshold 0 and -1 (cos2, a = 1, omega = 1), from the
# dense generalized eigenproblem of TestLineThreshold.test_couplings_match_dense
LAM_CRIT_COS2 = 2.8663043554
LAM_E0_MINUS1 = 4.5858855444

# a table profile that is not even
SKEWED_TABLE = PotentialProfile("table", 1.0, 1.0, table=(
    (-1.0, 0.0), (-0.5, 0.9), (0.0, 1.0), (0.5, 0.3), (1.0, 0.0)))
# cos^2(pi t / 2) sampled at 9 points, as a `table` profile
TABLE9 = PotentialProfile("table", 1.0, 1.0, table=tuple(
    (float(t), float(round(np.cos(np.pi * t / 2.0) ** 2, 6)))
    for t in np.linspace(-1.0, 1.0, 9)))
PROFILES = {"cos2": PotentialProfile("cos2", 1.0, 1.0),
            "quartic": PotentialProfile("quartic", 1.0, 1.0),
            "table": TABLE9}
# thresholds at omega = 1 from the solver this one replaced: the line
# truncated at X, doubled until the minimal eigenvalue moved by < 1e-9, with
# LAPACK Sturm bisection and Richardson over n, 2n, 4n nodes on [-X, X]
TRUNCATED_LINE_THRESHOLDS = {
    "cos2": (0.9975985545852412, 0.9479239100821849, 0.42955149303238405,
             -1.0000000000299074, -51.0865638398979),
    "quartic": (0.9972801652118685, 0.9418577209186948, 0.3806914415936559,
                -1.1282633493363736, -52.097371692577234),
    "table": (0.9975910620055973, 0.9478340931992411, 0.42998943346021345,
              -0.9955298345549832, -50.85943715663878),
}
PINNED_LAMBDAS = (0.1, 0.5, 2.0, 4.5858855443, 64.0)
# thresholds at ARRAY_PATH_LAMBDAS and the couplings with threshold 0 and -1
# (omega = 1), computed when the support values came from a numpy evaluator
# of the profile instead of `profile_values` on a list
ARRAY_PATH_LAMBDAS = (0.05, 0.5, 2.0, 4.5858855443, 64.0)
ARRAY_PATH_VALUES = {
    "cos2": ((0.9993876107117102, 0.9479239098363905, 0.42955149322369834,
              -0.9999999999828987, -51.086563835749),
             (2.8663043553582006, 4.5858855443802895)),
    "quartic": ((0.9993048740136148, 0.9418577206597547, 0.38069144183100434,
                 -1.1282633493887424, -52.09737168915225),
                (2.72964673708096, 4.387981119774243)),
}
# first 16 hex digits of the sha256 of the 2m - 1 support values V(h j),
# h = a/m, |j| < m, as little-endian doubles, for m = 120, 240, 480, from
# the earlier numpy evaluator
SUPPORT_VALUE_DIGESTS = {
    "cos2": ("364d165a4bdbbb5d", "1b140a128ae0d2d0", "a5ba74f7e94138d3"),
    "quartic": ("12c597cede102c3e", "b6b2cb1591696eef", "1215892daca194f7"),
    "table": ("eea52760f36ba90b", "8794d5a9e4050312", "bc96b5c56bf92d89"),
}


def line(lam, profile):
    return ComparisonSpec(1.0, lam, profile)


class TestThreshold:
    def test_zero_coupling_is_continuum_edge(self, cos2_profile):
        spec = ComparisonSpec(1.0, 0.0, cos2_profile)
        assert threshold(spec) == 1.0

    def test_supercritical_value(self, cos2_profile):
        spec = ComparisonSpec(1.0, LAM_E0_MINUS1, cos2_profile)
        assert abs(threshold(spec) + 1.0) < 2e-6

    def test_independent_dense_oracle(self, cos2_profile):
        # same operator through scipy's dense tridiagonal solver
        lam = 1.5 * LAM_CRIT_COS2
        spec = ComparisonSpec(1.0, lam, cos2_profile)
        e = threshold(spec)
        n, X = 16000, 24.0
        x = np.linspace(-X, X, n + 2)[1:-1]
        h = x[1] - x[0]
        v = np.array(profile_values(cos2_profile, x.tolist()))
        vals = eigh_tridiagonal(2.0 / h**2 + 1.0 - lam * v,
                                np.full(n - 1, -1.0 / h**2),
                                select="i", select_range=(0, 0))[0]
        assert abs(e - vals[0]) < 5e-6

    def test_interval_neumann_zero_potential(self, cos2_profile):
        spec = ComparisonSpec(2.0, 0.0, cos2_profile,
                              XDomain("interval", 3.0, "neumann"))
        assert abs(threshold(spec) - 4.0) < 1e-8

    def test_interval_dirichlet_adds_box_energy(self, cos2_profile):
        spec = ComparisonSpec(1.0, 0.0, cos2_profile,
                              XDomain("interval", 2.0, "dirichlet"))
        assert abs(threshold(spec) - (1.0 + (np.pi / 4.0) ** 2)) < 1e-7

    @pytest.mark.parametrize("n", [17, 64, 301])
    def test_periodic_min_eig_matches_dense(self, cos2_profile, n):
        # the cyclic Sturm count of the periodic wrap, at odd and even orders
        spec = ComparisonSpec(1.0, 4.0, cos2_profile,
                              XDomain("interval", 1.0, "periodic"))
        level = oned._interval_level(cos2_profile, spec.domain, n)
        got = oned._chain_threshold(1.0, 4.0, cos2_profile, *level)[0]
        assert abs(got - interval_min_eig(spec, n)) < 1e-9

    def test_interval_periodic_threshold_matches_dense(self, cos2_profile):
        spec = ComparisonSpec(1.0, 4.0, cos2_profile,
                              XDomain("interval", 1.0, "periodic"))
        policy = ResolutionPolicy(points_per_unit=16.0, rich_tol=1e-3)
        e = [interval_min_eig(spec, m) for m in (64, 128, 256)]
        assert abs(threshold(spec, policy) - (4.0 * e[2] - e[1]) / 3.0) < 1e-9

    def test_richardson_gate_is_never_finer_than_float64(self):
        # extrapolants (1 + 4/3 delta apart at the top) of three values
        # delta apart: at size 1 the gate is rich_tol = 1e-6 exactly, at
        # 1e14 it is 64 eps 1e14 = 1.42, and each failure names its gate
        pol = ResolutionPolicy()
        assert oned._richardson("t", [1.0, 1.0, 1.0 + 0.74e-6], "-", pol) > 1.0
        with pytest.raises(RefinementError, match="beyond rich_tol = 1e-06"):
            oned._richardson("t", [1.0, 1.0, 1.0 + 0.76e-6], "-", pol)
        assert oned._richardson("t", [1e14, 1e14, 1e14 + 1.0], "-", pol) > 1e14
        with pytest.raises(RefinementError, match="float64 resolves"):
            oned._richardson("t", [1e14, 1e14, 1e14 + 1.5], "-", pol)

    @pytest.mark.parametrize("a", [1e-8, 1e-20, 1e-60, 5e-75])
    def test_bisection_wider_than_the_gate_is_refused(self, a):
        # at h = a/120 the rounding level eps ||A|| of the count passes the
        # whole bracket [omega^2 - lambda - 1, omega^2] of width 3, and three
        # levels agreed on its midpoint -0.5; the true value is about 1 - a^2
        spec = line(2.0, PotentialProfile("cos2", a, 1.0))
        with pytest.raises(RefinementError, match="resolves the threshold only to 3 > 1e-06"):
            threshold(spec)
        with pytest.raises(RefinementError, match="resolves the threshold only to 3 > 1e-06"):
            ground_state(spec)

    def test_bisection_gate_boundary(self):
        # the finest level's bracket is 1.43e-6 wide at a = 0.01 and just
        # under 1e-6 at a = 0.014, where the value is 1 - a^2 to the gate
        with pytest.raises(RefinementError, match="only to 1.43e-06 > 1e-06 at h = 2.08e-05"):
            threshold(line(2.0, PotentialProfile("cos2", 0.01, 1.0)))
        got = threshold(line(2.0, PotentialProfile("cos2", 0.014, 1.0)))
        assert abs(got - (1.0 - 0.014**2)) <= ResolutionPolicy().rich_tol

    @pytest.mark.parametrize("domain", [XDomain(),
                                        XDomain("interval", 3.0, "neumann")])
    def test_coarse_threshold_is_the_first_resolution(self, cos2_profile, domain, caplog):
        spec = ComparisonSpec(1.0, 4.0, cos2_profile, domain)
        with caplog.at_level(logging.DEBUG, logger="smilansky_lab.oned"):
            t = threshold(spec)
        values = caplog.records[-1].args[1]
        assert coarse_threshold(spec) == values[0]
        assert abs(values[0] - t) <= 1e-4 * abs(t)


# a bump strictly between the nodes +-h/2 of every interval grid below
# (odd multiples of h/2 >= 1/960 from 0)
BETWEEN_NODES = PotentialProfile("table", 1.0, 1.0, table=(
    (-0.0005, 0.0), (0.0, 0.5), (0.0005, 0.0)))
# (profile, lambda, c, ends): each end condition; a Dirichlet box whose
# threshold lies above omega^2; supports that reach the ends (a >= c - h);
# a profile that is not even on a periodic interval; and profiles that
# vanish on every node
ORACLE_CASES = {
    "dirichlet": (PROFILES["cos2"], 4.0, 1.5, "dirichlet"),
    "neumann": (PROFILES["cos2"], 4.0, 1.5, "neumann"),
    "periodic": (PROFILES["cos2"], 4.0, 1.5, "periodic"),
    "above-omega2": (PROFILES["cos2"], 0.3, 1.2, "dirichlet"),
    "to-the-ends-dirichlet": (PROFILES["cos2"], 2.0, 1.0, "dirichlet"),
    "to-the-ends-neumann": (PROFILES["quartic"], 2.0, 1.0, "neumann"),
    "to-the-ends-periodic": (SKEWED_TABLE, 3.0, 1.0, "periodic"),
    "skewed-periodic": (SKEWED_TABLE, 3.0, 1.5, "periodic"),
    "vanishing-dirichlet": (BETWEEN_NODES, 1.0, 1.5, "dirichlet"),
    "vanishing-periodic": (BETWEEN_NODES, 1.0, 1.5, "periodic"),
}


class TestIntervalThreshold:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_support_chain_count_matches_the_whole_interval(self, case):
        # the support chain with its closed-form end terms against the
        # whole-interval assembly, on the grids of n, 2n and 4n nodes: the
        # same Sturm count at energies around and above the threshold, and
        # the same lowest eigenvalue within the two bisections' widths
        profile, lam, c, bc = ORACLE_CASES[case]
        spec = ComparisonSpec(1.0, lam, profile, XDomain("interval", c, bc))
        n = ResolutionPolicy().n_for(c)
        for k in (n, 2 * n, 4 * n):
            level = oned._interval_level(profile, spec.domain, k)
            got = oned._chain_threshold(1.0, lam, profile, *level)[0]
            want = interval_min_eig(spec, k)
            _, h, d, e, corner = interval_chain(spec, k)
            assert abs(got - want) <= 2e-15 * (4.0 / h**2 + 1.0 + lam), (k, got, want)
            count, _, _ = oned._chain_count(1.0, lam, profile, *level)
            # the end terms hold below the exterior's spectrum: omega^2, or
            # for a Dirichlet box its floor
            top = 1.0
            if bc == "dirichlet":
                top += (2.0 / h * math.sin(math.pi / (2 * k + 2))) ** 2
            energies = [want - 1e-7, want + 1e-7] + [want + (top - want) * f
                                                      for f in (0.25, 0.5, 0.75)]
            for x in filter(lambda x: x < top - 1e-7, energies):
                whole = (sturm_count(d, [b * b for b in e], x) if corner is None
                         else cyclic_sturm_count(d, e, corner, x))
                assert count(x) == whole, (k, x)
        if case == "above-omega2":
            assert got > 1.0
        if case.startswith("vanishing"):
            assert got == top


class TestLineThreshold:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_agrees_with_truncated_line_solver(self, name):
        got = [threshold(line(lam, PROFILES[name])) for lam in PINNED_LAMBDAS]
        assert np.max(np.abs(np.subtract(got, TRUNCATED_LINE_THRESHOLDS[name]))) <= 1e-8

    def test_five_knot_table_on_knot_aligned_nodes(self):
        # PCHIP is only C^1 at its knots; with h = a/m the knots are nodes and
        # the O(h^2) expansion holds (on [-X, X] grids the Richardson gate failed)
        skewed = PotentialProfile("table", 1.0, 1.0, table=(
            (-1.0, 0.0), (-0.5, 0.9), (0.0, 1.0), (0.5, 0.3), (1.0, 0.0)))
        lam, X = 4.5858855443, 12.0
        ref = []
        for h in (1.0 / 480.0, 1.0 / 960.0):
            n = int(round(2.0 * X / h)) - 1
            v = np.array(profile_values(skewed, (-X + h * np.arange(1, n + 1)).tolist()))
            ref.append(eigh_tridiagonal(2.0 / h**2 + 1.0 - lam * v,
                                        np.full(n - 1, -1.0 / h**2), eigvals_only=True,
                                        select="i", select_range=(0, 0))[0])
        assert abs(threshold(line(lam, skewed)) - (4.0 * ref[1] - ref[0]) / 3.0) <= 1e-8

    @pytest.mark.parametrize("lam", [0.01, 0.05])
    def test_weak_coupling_law(self, cos2_profile, lam):
        # 1 - (lambda/2 int V)^2 to leading order; int cos^2(pi t/2) = 1
        assert abs(threshold(line(lam, cos2_profile)) - (1.0 - (lam / 2.0) ** 2)) <= lam**3

    @staticmethod
    def _dense_coupling(profile, target, m):
        """1 / largest mu of V x = mu (A - target) x on the 2m - 1 support
        nodes, A with the transparent ends written out independently."""
        h = profile.a / m
        v = np.array(profile_values(profile, (h * np.arange(1 - m, m)).tolist()))
        s = (1.0 - target) * h * h
        r = (2.0 + s - np.sqrt((2.0 + s) ** 2 - 4.0)) / 2.0
        a = (np.diag(np.full(2 * m - 1, 2.0 / h**2 + 1.0 - target))
             - np.diag(np.full(2 * m - 2, 1.0 / h**2), 1)
             - np.diag(np.full(2 * m - 2, 1.0 / h**2), -1))
        a[0, 0] -= r / h**2
        a[-1, -1] -= r / h**2
        top = 2 * m - 2
        return 1.0 / eigh(np.diag(v), a, eigvals_only=True,
                          subset_by_index=[top, top])[0]

    @pytest.mark.parametrize("target, pinned", [(0.0, LAM_CRIT_COS2),
                                                (-1.0, LAM_E0_MINUS1)])
    def test_couplings_match_dense(self, cos2_profile, lam_crit, lam_e0_minus1,
                                   target, pinned):
        lams = [self._dense_coupling(cos2_profile, target, m) for m in (120, 240, 480)]
        want = lams[2] + (lams[2] - lams[1]) / 3.0
        got = lam_crit if target == 0.0 else lam_e0_minus1
        assert abs(got - want) <= 1e-9
        assert abs(pinned - want) <= 1e-9

    @pytest.mark.parametrize("name", sorted(SUPPORT_VALUE_DIGESTS))
    def test_support_values_equal_the_array_path(self, name):
        # bit for bit the pinned support values of the earlier numpy evaluator
        profile = PROFILES[name]
        for m, want in zip((120, 240, 480), SUPPORT_VALUE_DIGESTS[name], strict=True):
            v = oned._support_chain(1.0, profile, *oned._line_level(profile, m)[:2])[0]
            assert hashlib.sha256(struct.pack(f"<{len(v)}d", *v)).hexdigest()[:16] == want

    @pytest.mark.parametrize("name", sorted(ARRAY_PATH_VALUES))
    def test_list_path_matches_array_path(self, name):
        profile = PROFILES[name]
        got = ([threshold(line(lam, profile)) for lam in ARRAY_PATH_LAMBDAS]
               + [critical_coupling(1.0, profile),
                  tune_lambda_to_threshold(1.0, profile, -1.0)])
        thresholds, couplings = ARRAY_PATH_VALUES[name]
        for g, w in zip(got, thresholds + couplings, strict=True):
            assert abs(g - w) <= 1e-15 * abs(w)

    def test_profile_vanishing_on_every_node(self):
        # a bump strictly between the nodes 0 and h = 1/480 of every level
        narrow = PotentialProfile("table", 1.0, 1.0,
                                  table=((0.001, 0.0), (0.0015, 0.5), (0.002, 0.0)))
        assert threshold(line(1.0, narrow)) == 1.0
        with pytest.raises(ComputationError, match="vanishes on every support node"):
            critical_coupling(1.0, narrow)

    def test_coupling_certificate_uses_tol(self, cos2_profile, monkeypatch):
        real = oned.threshold
        monkeypatch.setattr(oned, "threshold", lambda *args: real(*args) + 2e-3)
        assert abs(critical_coupling(1.0, cos2_profile, tol=1e-2) - LAM_CRIT_COS2) < 1e-8
        with pytest.raises(RefinementError, match="misses the target"):
            critical_coupling(1.0, cos2_profile, tol=1e-3)

    @pytest.mark.parametrize("target, tol", [(math.nan, 1e-6), (-math.inf, 1e-6),
                                             (-1.0, math.nan), (-1.0, math.inf)])
    def test_non_finite_target_or_tol_rejected(self, cos2_profile, target, tol):
        # a NaN target passed every check and doubled the coupling forever
        with pytest.raises(ConfigurationError, match="finite"):
            tune_lambda_to_threshold(1.0, cos2_profile, target, tol=tol)
        if target == -1.0:
            with pytest.raises(ConfigurationError, match="finite"):
                critical_coupling(1.0, cos2_profile, tol=tol)

    def test_one_debug_record_per_threshold_and_coupling(self, cos2_profile, caplog):
        with caplog.at_level(logging.DEBUG, logger="smilansky_lab.oned"):
            threshold(line(2.0, cos2_profile))
            tune_lambda_to_threshold(1.0, cos2_profile, -1.0)
        msgs = [r.getMessage() for r in caplog.records]
        # the coupling, then the threshold that certifies it
        assert len(msgs) == 3
        assert msgs[0].startswith("threshold at lambda=2.0 on the line, m=120")
        assert msgs[1].startswith("coupling at target -1.0 on the line, m=120")
        assert all("Richardson gap" in m and "bisection steps [" in m for m in msgs)


class TestCriticalCoupling:
    def test_pinned_value(self, lam_crit):
        assert abs(lam_crit - LAM_CRIT_COS2) < 1e-5 * LAM_CRIT_COS2

    def test_threshold_residual(self, cos2_profile, lam_crit):
        spec = ComparisonSpec(1.0, lam_crit, cos2_profile)
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
        # the samples beyond the support are u_edge r^j, and the rest of
        # each tail sums geometrically
        u = np.array(gs.samples)
        r = u[-1] / u[-2]
        assert abs(u[0] / u[1] - r) <= 1e-12 * r
        tail = (u[0] ** 2 + u[-1] ** 2) * r**2 / (1.0 - r**2)
        assert abs((np.sum(u**2) + tail) * gs.spacing - 1.0) < 1e-12
        # even potential: even ground state, zero derivative at the origin
        h0, h1 = gs.jet(0.0)
        assert abs(h1) < 1e-8
        assert h0 > 0

    def test_quadrature_rayleigh_identity(self, gs_minus1):
        gs = gs_minus1
        t, w = map(np.array, gauss_panels(np.linspace(-11.0, 11.0, 441).tolist(), 8))
        h, h1 = np.array([gs.jet(x) for x in t]).T
        v = np.array(profile_values(gs.profile, t.tolist()))
        num = w @ (h1**2 + (gs.omega**2 - gs.lam * v) * h**2)
        den = w @ h**2
        assert abs(num / den - gs.e0) < 1e-4

    def test_ode_second_derivative(self, gs_minus1):
        gs = gs_minus1
        t = np.linspace(-2.0, 2.0, 17)
        v = np.array(profile_values(gs.profile, t.tolist()))
        h = np.array([gs.jet(x)[0] for x in t])
        assert np.allclose(np.array(gs.ode_factors(t.tolist())) * h,
                           (gs.omega**2 - gs.lam * v - gs.e0) * h)

    def test_identity_semantics(self, gs_minus1):
        # derived quantities are cached per ground state in a
        # WeakKeyDictionary: it hashes and compares by identity, and is
        # weak-referenceable
        gs = gs_minus1
        twin = oned.GroundState(gs.e0, gs.samples, gs.nodes, gs.spacing, gs.lam,
                                gs.omega, gs.profile, _interpolant=gs._interpolant)
        assert gs == gs and twin != gs and len({gs, twin}) == 2
        assert weakref.ref(gs)() is gs
        cache = weakref.WeakKeyDictionary({twin: 1})
        del twin
        assert len(cache) == 0

    def test_v_is_evaluated_once_per_node(self, cos2_profile, monkeypatch):
        # V on the support chain serves A(E) and the ODE-exact h'' alike;
        # only the exterior nodes take profile_values once more
        sizes = []
        real = oned.profile_values
        monkeypatch.setattr(oned, "profile_values",
                            lambda p, ts: sizes.append(len(ts)) or real(p, ts))
        gs = ground_state(ComparisonSpec(1.0, 4.0, cos2_profile))
        p = oned._EXTERIOR_NODES
        assert sorted(sizes) == sorted([p, p, len(gs.nodes) - 2 * p])

    def test_interval_spec_rejected(self, cos2_profile):
        spec = ComparisonSpec(1.0, 4.0, cos2_profile, XDomain("interval", 12.0))
        with pytest.raises(ConfigurationError, match="on the line only"):
            ground_state(spec)

    @pytest.mark.parametrize("profile", [PotentialProfile("cos2", 1.0, 1.0), SKEWED_TABLE],
                             ids=["cos2", "skewed_table"])
    def test_agrees_with_the_truncated_line(self, profile):
        # the support chain with transparent ends against the line truncated
        # at |x| = 12 with 4001 Dirichlet nodes (h = 0.006 there, a/240
        # here).  Both are O(h^2) discretizations: against a support chain
        # 8x finer, E0 and h of either are off by less than 1e-5, h' by up
        # to 2.2e-5 and the t^4-weighted moments by up to 2.4e-5 relative
        spec = ComparisonSpec(1.0, 5.0, profile)
        gs = ground_state(spec)
        ref = truncated_line_ground_state(spec, 12.0, 4001)
        assert abs(gs.e0 - ref.e0) <= 1e-5 * abs(ref.e0)
        for t in np.linspace(-3.0, 3.0, 61):
            (h, h1), (want, want1) = gs.jet(t), ref.jet(t)
            assert abs(h - want) <= 1e-5 and abs(h1 - want1) <= 3e-5, t
        mom, want = (weyl._ground_moments(g).mom for g in (gs, ref))
        for name in want:
            assert abs(mom[name] - want[name]) <= 5e-5 * want[name], name

    @pytest.mark.parametrize("lam", [2.0, 4.0, 20.0, 500.0])
    def test_work_is_fixed_by_the_support(self, cos2_profile, lam, monkeypatch):
        # the chain holds the 2m - 1 support nodes of h = a/2m and the fixed
        # exterior nodes, and the moments' t-rule stays on them, whatever the
        # decay rate kappa (0.76 to 21.6 here) and so the truncation.  One
        # bisection gives the eigenpair: its Sturm counts, and one more that
        # certifies the shift of the inverse iteration
        m = 2 * ResolutionPolicy().m_for(1.0)
        level = oned._line_level(cos2_profile, m)[:2]
        steps = oned._chain_threshold(1.0, lam, cos2_profile, *level)[1]
        counts = []

        def counted(*args):
            counts.append(args)
            return sturm_count(*args)
        monkeypatch.setattr(oned, "sturm_count", counted)
        monkeypatch.setattr(sturm, "sturm_count", counted)
        gs = ground_state(ComparisonSpec(1.0, lam, cos2_profile))
        assert len(counts) <= steps + 2
        assert len(gs.nodes) == len(gs.samples) == 2 * m - 1 + 2 * oned._EXTERIOR_NODES
        assert len(weyl._t_rule(gs)[0]) <= 600

    @pytest.mark.parametrize("profile", [PotentialProfile("cos2", 1.0, 1.0), SKEWED_TABLE],
                             ids=["cos2", "skewed_table"])
    @pytest.mark.parametrize("lam", [2.0, 5.0, 1e6])
    def test_eigenvector_matches_lapack(self, profile, lam):
        # the support samples against LAPACK's lowest eigenvector of A(E0),
        # the support chain with transparent ends at E0, whose lowest
        # eigenvalue is E0 to the bisection's rounding level
        gs = ground_state(ComparisonSpec(1.0, lam, profile))
        h, half_width, _ = oned._line_level(profile, 2 * ResolutionPolicy().m_for(1.0))
        d, _ = oned._chain_count(1.0, lam, profile, h, half_width, None)[1](gs.e0)
        (e0,), vec = eigh_tridiagonal(d, [-1.0 / h**2] * (len(d) - 1), select="i",
                                      select_range=(0, 0))
        assert abs(e0 - gs.e0) <= 4 * np.finfo(float).eps * (4.0 / h**2 + 1.0 + lam)
        p = oned._EXTERIOR_NODES
        u = np.array(gs.samples[p:-p])
        u /= np.linalg.norm(u)
        assert np.max(np.abs(u - vec[:, 0] * np.sign(u @ vec[:, 0]))) <= 1e-12

    @pytest.mark.parametrize("omega, lam", [(1.0, 0.0), (1e150, 4.585884094238281)])
    def test_no_bound_state_has_no_tail(self, cos2_profile, omega, lam):
        # lambda = 0, or a lambda V that rounds away against omega^2 = 1e300:
        # the threshold is omega^2, and r = 1
        with pytest.raises(ConfigurationError, match="no decaying tail"):
            ground_state(ComparisonSpec(omega, lam, cos2_profile))

    def test_tail_ratio_underflow_is_refused(self, cos2_profile):
        # kappa^2 h^2 = 1e160 / 240^2 makes r = 0 in float64
        with pytest.raises(ConfigurationError, match="underflows to 0"):
            ground_state(ComparisonSpec(1.0, 1e160, cos2_profile))

    def test_exponential_tail(self, gs_minus1):
        gs = gs_minus1
        t = np.linspace(4.0, 8.0, 9)
        slopes = np.diff(np.log([gs.jet(x)[0] for x in t])) / np.diff(t)
        assert np.max(np.abs(slopes + gs.kappa)) < 0.02 * gs.kappa


class TestAssembly:
    def test_neumann_constant_mode(self, cos2_profile):
        spec = ComparisonSpec(1.0, 0.0, cos2_profile,
                              XDomain("interval", 2.0, "neumann"))
        _, _, d, e, _ = interval_chain(spec, 64)
        a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        ones = np.ones(len(d))
        # constant vector is an exact discrete eigenvector at omega^2
        assert np.max(np.abs(a @ ones - 1.0 * ones)) < 1e-12

    def test_threshold_work_does_not_depend_on_c(self, cos2_profile, monkeypatch):
        # every Sturm count of an interval threshold runs on the support
        # chain, with the rest of the interval in its end terms: the chains
        # are as long at c = 1e6 (4n = 9.6e8 grid nodes) as at c = 3
        lengths = []
        for name in ("sturm_count", "cyclic_sturm_count"):
            real = getattr(oned, name)
            monkeypatch.setattr(oned, name, lambda d, *args, real=real, name=name: (
                lengths.append((name, len(d))) or real(d, *args)))
        for bc in ("dirichlet", "neumann", "periodic"):
            seen = []
            for c in (3.0, 1e6):
                lengths.clear()
                threshold(ComparisonSpec(1.0, 2.0, cos2_profile, XDomain("interval", c, bc)))
                seen.append(sorted(set(lengths)))
            assert seen[0] == seen[1], bc
            kind = "cyclic_sturm_count" if bc == "periodic" else "sturm_count"
            assert {name for name, _ in seen[0]} == {kind}
            # at most 2 a/h + 4 nodes on the finest grid, h about a/480 there
            assert max(n for _, n in seen[0]) <= 2 * 480 + 4
