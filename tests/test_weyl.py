import copy
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import (cutoff_jet, line_t_rule, quasimode_norm_direct,
                     residual_identity_check)
from smilansky_lab import oned, weyl
from smilansky_lab.cli import main
from smilansky_lab.errors import ComputationError, ConfigurationError, SmilanskyError
from smilansky_lab.model import ChannelSpec, ModelConfig, XDomain, profile_values
from smilansky_lab.oned import ComparisonSpec, ResolutionPolicy, ground_state

K_LADDER = [2.0**p for p in (4, 8, 12, 16)]

# (eps, k, n_k) pinned from the first successful selection run
PARAMS_REGRESSION = {0.1: (2.0**23, 2**25), 0.05: (2.0**32, 2**34)}

# c and the seven moments of build_cutoff(2^p), p = 4..52, pinned from an
# adaptive quadrature over the scipy BPoly bridges (they agree to 3.5e-13
# with an 8x finer order-24 Gauss rule)
CUTOFF_MOMENTS = json.loads(
    (Path(__file__).parent / "data" / "cutoff_moments.json").read_text())

# ground-state moments of gs_shipped (the support chain of h = 1/240), pinned
# from this package's t-rule and closed-form tails; a Gauss rule aligned with
# every interpolation node agrees to 2e-10 relative
H_MOMENTS = {"h2": 0.999999884441916, "t2h1": 0.5846869115112379,
             "t4hpp": 1.9536280122622767, "f2": 0.13075410803940207,
             "t2f1": 0.19826757609795898, "t4fpp": 1.1871386509526964,
             "mix": 5.338747299512972}


def brute_force_residual(qm: weyl.QuasiMode) -> float:
    """||(H - mu) psi|| on the line from the full complex integrand on the
    n_z x n_t tensor grid of residual_norm's own rules, the tails of the
    t-rule by quadrature (reference for the rank-6 sum and the closed-form
    tails).  On an interval the plateau is 1 on that grid, with zero
    derivatives, so this is the interval residual too."""
    gs = qm.moments.gs
    e = qm.e_mag
    s = np.sqrt(e)
    n = float(qm.n_k)
    phase = qm.phase
    t, tw = line_t_rule(gs)
    h, h1 = np.array([weyl._ground_jet(gs, x) for x in t]).T
    v = np.array(profile_values(gs.profile, t.tolist()))
    p = gs.omega**2 - gs.lam * v + e          # h'' = p h
    fh = -0.5j * s * t**2 * h
    f1 = -0.5j * s * (2.0 * t * h + t**2 * h1)
    znodes, zw = map(np.array, weyl._residual_z_rule(qm.cutoff)[:2])
    cutoff = [np.vectorize(lambda z, i=i: cutoff_jet(qm.cutoff, z)[i]) for i in range(3)]
    phase_jet = np.vectorize(phase.jet)
    total = 0.0
    for i0 in range(0, len(znodes), 64):
        z = znodes[i0:i0 + 64][:, None]
        wz = zw[i0:i0 + 64]
        cz, cz1, cz2 = (f(z) for f in cutoff)
        y = n * z
        theta1, rho, rm1 = phase_jet(y)
        t2_term = 1.0j * s * (h * (rm1 / rho) - 2.0 * t * h1 * rm1)
        t3_term = -t**2 * p * h / y**2
        t4_term = 0.5j * s * t**4 * p * h / y**4
        t5_term = -e * rho * t**3 * h1 / y**2 - (e / (2.0 * rho)) * t**2 * h / y**2
        g = h + fh / y**2
        g_y = t * h1 / y + t * f1 / y**3 - 2.0 * fh / y**3
        r = (cz * (t2_term + t3_term + t4_term + t5_term)
             + cz1 * (-2.0 * g_y - 2.0j * theta1 * g) / n - cz2 * g / n**2)
        total += float(np.sum((wz / z[:, 0]) * (np.abs(r) ** 2 @ tw)))
    return float(np.sqrt(total))


@pytest.fixture(scope="module")
def gm_minus1(gs_minus1):
    return weyl.ground_moments(gs_minus1)


@pytest.fixture(scope="module")
def gm_shipped(gs_shipped):
    return weyl.ground_moments(gs_shipped)


class TestCutoff:
    def test_weighted_mass_normalized(self):
        for k in K_LADDER:
            cut = weyl.build_cutoff(k)
            assert abs(cut.mass_over_z - 1.0) <= 1e-10

    def test_mass_against_scipy_quad(self):
        cut = weyl.build_cutoff(2.0**8)
        z1, z2, z3 = cut.breaks
        mass = sum(quad(lambda z: cutoff_jet(cut, z)[0] ** 2 / z,
                        a, b, limit=200)[0]
                   for a, b in [(1.0, z1), (z1, z2), (z2, z3), (z3, cut.k)])
        assert abs(mass - 1.0) < 1e-9

    def test_copy_and_pickle_keep_the_pieces(self):
        # a plain record: a copy or an unpickled cutoff equals the original,
        # field by field, pieces included
        cut = weyl.build_cutoff(2.0**8)
        for twin in (copy.copy(cut), copy.deepcopy(cut), pickle.loads(pickle.dumps(cut))):
            assert type(twin) is weyl.CutoffFunction and twin == cut

    def test_junction_continuity(self):
        cut = weyl.build_cutoff(2.0**8)
        eps = 1e-7
        for z in cut.breaks:
            for left, right in zip(cutoff_jet(cut, z - eps), cutoff_jet(cut, z + eps)):
                assert abs(left - right) <= 1e-4 * max(1.0, abs(left)) + 1e-8

    def test_support_and_endpoint_zeros(self):
        cut = weyl.build_cutoff(2.0**8)
        v = [cutoff_jet(cut, z)[0] for z in (0.5, 0.999, 1.0, cut.k, cut.k + 1.0)]
        assert v[0] == 0.0 and v[1] == 0.0 and v[4] == 0.0
        assert abs(v[2]) < 1e-12 and abs(v[3]) < 1e-12
        _, d1, d2 = cutoff_jet(cut, cut.k)
        assert abs(d1) < 1e-12
        assert abs(d2) < 1e-12

    def test_j_decreasing_on_ladder(self):
        js = [weyl.build_cutoff(k).j_weighted for k in K_LADDER]
        assert all(a > b for a, b in zip(js, js[1:]))

    def test_small_k_rejected(self):
        with pytest.raises(ConfigurationError):
            weyl.build_cutoff(8.0)

    def test_moments_match_pinned_values(self):
        for p, pinned in CUTOFF_MOMENTS.items():
            cut = weyl.build_cutoff(2.0 ** int(p))
            for name, want in pinned.items():
                got = getattr(cut, name)
                assert abs(got - want) <= 1e-12 * abs(want), (p, name, got, want)

    def test_j_ln2k_exceeds_its_limit(self):
        # J(2^p) ln^2(2^p) > 588/25 is what lets choose_parameters skip every
        # p below floor(sqrt(588/(25 eps)) / ln 2)
        for p, pinned in CUTOFF_MOMENTS.items():
            assert pinned["j_weighted"] * (int(p) * np.log(2.0)) ** 2 > 588.0 / 25.0, p

    def test_k_beyond_float64_resolution_rejected(self):
        # k - 1 == k in float64 from 2^53 on no longer matters: the descent
        # ends at ln(k - 1) = ln k + log1p(-1/k) and its bridge runs in the
        # local coordinate z - (k - 1); only a k past the float64 range fails
        for k in (2.0**54, 2.0**1023):
            cut = weyl.build_cutoff(k)
            assert abs(cut.mass_over_z - 1.0) <= 1e-15
            assert all(math.isfinite(getattr(cut, name)) for name in CUTOFF_MOMENTS["4"])
        for k in (math.inf, math.nan):
            with pytest.raises(SmilanskyError):
                weyl.build_cutoff(k)

    @pytest.mark.parametrize("p", [64, 128])
    def test_moments_past_the_pinned_ladder(self, p):
        cut = weyl.build_cutoff(2.0**p)
        log_k = p * math.log(2.0)
        # the rise alone carries the pre-normalization mass, exactly ln(k)/14
        assert abs(cut.premass - log_k / 14.0) <= 1e-15 * log_k
        assert abs(cut.mass_over_z - 1.0) <= 1e-15
        # J ln^2 k exceeds 588/25 by about 2.6 * 2^-(p/2) / ln k relatively:
        # 1.4e-11 at p = 64, and 1.6e-21 at p = 128, below float64
        # resolution, where J ln^2 k must round to 588/25
        excess = cut.j_weighted * log_k**2 / (588.0 / 25.0) - 1.0
        if p == 64:
            assert 1e-12 < excess < 1e-10
        else:
            assert abs(excess) <= 1e-15


class TestParameterSelection:
    def test_regression_pairs(self, gm_minus1):
        for eps, want in PARAMS_REGRESSION.items():
            cut, n_k = weyl.choose_parameters(eps, gm_minus1)
            assert (cut.k, n_k) == want

    def test_search_start_matches_exhaustive_scan(self, gm_minus1, monkeypatch):
        eps_values = list(np.geomspace(0.0175, 0.99, 22)[1:-1])
        # eps on the bound 588/25 / (p ln 2)^2 and one ulp to either side
        for p in (8, 23, 40, 52):
            edge = 588.0 / 25.0 / (p * np.log(2.0)) ** 2
            eps_values += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]

        def select(eps):
            cut, n_k = weyl.choose_parameters(eps, gm_minus1)
            return cut.k, n_k

        direct = [select(eps) for eps in eps_values]
        # scanning every p from 4, as with no lower bound on k
        monkeypatch.setattr(weyl, "_first_ladder_pow", lambda eps: 4)
        exhaustive = [select(eps) for eps in eps_values]
        assert direct == exhaustive

    def test_eps_past_the_ladder_fails_before_any_cutoff(self, gm_minus1, monkeypatch):
        def no_cutoff(k):
            raise AssertionError(f"cutoff built for k={k}")

        monkeypatch.setattr(weyl, "build_cutoff", no_cutoff)
        # 588/25 / (127 ln 2)^2 = 0.003035 > 0.003, so k = 2^128 is the first
        # candidate, past 2^126, where 4 k^2 = 2^254 is the last k n_k whose
        # fourth power is finite
        with pytest.raises(ComputationError, match=r"k >= 2\^128 > 2\^126"):
            weyl.choose_parameters(0.003, gm_minus1)
        # an eps whose 588/25 / eps overflows still names the limit
        with pytest.raises(ComputationError, match=r"> 2\^126"):
            weyl.choose_parameters(5e-324, gm_minus1)

    def test_eps_below_the_old_float64_resolution_limit(self, gm_minus1):
        # eps = 0.015 needs k = 2^58, where k - 1 == k in float64
        cut, n_k = weyl.choose_parameters(0.015, gm_minus1)
        assert cut.k == 2.0**58 and n_k >= 4 * cut.k

    @pytest.mark.parametrize("mu", [1e300, -1e300, 1e150, -1e150])
    def test_huge_mu_exhausts_the_n_k_search(self, gm_minus1, mu):
        # (mu / n_k^2)^2 is inf where mu**2 overflowed; for mu < 0 theta' must
        # also stay real on the support
        with pytest.raises(ComputationError, match="n_k search"):
            weyl.choose_parameters(0.1, gm_minus1, mu)

    def test_n_k_stops_at_the_float_range(self, gm_minus1):
        with pytest.raises(ComputationError, match=r"past k n_k = 2\^255"):
            weyl.choose_parameters(0.1, gm_minus1, min_n=2**240)

    def test_moments_match_pinned_values(self, gs_shipped):
        mom = weyl.ground_moments(gs_shipped).mom
        for name, want in H_MOMENTS.items():
            assert abs(mom[name] - want) <= 1e-12 * want, (name, mom[name], want)

    def test_k_monotone_in_eps(self, gm_minus1):
        cut1, _ = weyl.choose_parameters(0.1, gm_minus1)
        cut2, _ = weyl.choose_parameters(0.05, gm_minus1)
        assert cut2.k >= cut1.k

    def test_disjointness_rule(self, gm_minus1):
        cut1, n1 = weyl.choose_parameters(0.1, gm_minus1)
        _, n2 = weyl.choose_parameters(0.05, gm_minus1, min_n=int(cut1.k * n1))
        assert n2 > cut1.k * n1

    def test_bad_eps_rejected(self, gm_minus1):
        for eps in (0.0, 1.0, -0.2):
            with pytest.raises(ConfigurationError):
                weyl.choose_parameters(eps, gm_minus1)


class TestResidualIdentity:
    def test_second_order_convergence(self, cos2_profile, lam_e0_minus1, monkeypatch):
        spec = ComparisonSpec(1.0, lam_e0_minus1, cos2_profile)
        defects = []
        for ppu in (30.0, 60.0, 120.0):
            monkeypatch.setattr(oned, "_RESOLUTION", ResolutionPolicy(points_per_unit=ppu))
            gs = ground_state(spec)
            defects.append(residual_identity_check(gs))
        for a, b in zip(defects, defects[1:]):
            assert 3.0 <= a / b <= 5.0

    def test_tail_identity_analytic(self, gs_minus1):
        # outside supp V the exponential tail solves the identity exactly:
        # with h = exp(-kappa t), f = -(i s/2) t^2 h, all derivatives closed
        # form, the defect is zero in exact arithmetic
        gs = gs_minus1
        s = np.sqrt(-gs.e0)
        kap = gs.kappa
        t = np.linspace(2.0, 6.0, 41)
        h = np.exp(-kap * t)
        h1 = -kap * h
        h2 = kap**2 * h
        f2 = -0.5j * s * (2.0 * h + 4.0 * t * h1 + t**2 * h2)
        f = -0.5j * s * t**2 * h
        d = -f2 + f * (-gs.e0 + gs.omega**2) - 2j * s * t * h1 - 1j * s * h
        assert np.max(np.abs(d)) <= 1e-10


class TestQuasiMode:
    def test_norm_terms(self, gm_minus1):
        cut, n_k = weyl.choose_parameters(0.1, gm_minus1)
        qm = weyl.QuasiMode(mu=0.0, cutoff=cut, n_k=n_k, moments=gm_minus1)
        nr = weyl.quasimode_norm(qm)
        assert abs(nr.main_term - 1.0) < 1e-6
        assert nr.correction_term < 1.0 / 16.0
        assert nr.norm >= 0.5

    def test_transformed_norm_matches_direct(self, gm_minus1):
        qm = weyl.QuasiMode(mu=0.0, cutoff=weyl.build_cutoff(16.0), n_k=64,
                            moments=gm_minus1)
        a = weyl.quasimode_norm(qm).norm
        b = quasimode_norm_direct(qm, n_y=600)
        assert abs(a - b) < 1e-6

    def test_support(self, gm_minus1):
        qm = weyl.QuasiMode(mu=0.0, cutoff=weyl.build_cutoff(16.0), n_k=64,
                            moments=gm_minus1)
        assert qm.support == (64.0, 1024.0)

    def test_residual_bound(self, gm_minus1):
        cut, n_k = weyl.choose_parameters(0.1, gm_minus1)
        qm = weyl.QuasiMode(mu=0.0, cutoff=cut, n_k=n_k, moments=gm_minus1)
        r = weyl.residual_norm(qm)
        assert r**2 <= 0.9 * (1.0 + 1e-6)

    @pytest.mark.parametrize("mode", ["line", "interval"])
    @pytest.mark.parametrize("mu", [0.0, 0.8, -0.5])
    @pytest.mark.parametrize("pair", ["16,64", "eps=0.1"])
    def test_residual_matches_brute_force(self, gm_minus1, mode, mu, pair):
        k, n_k = (16.0, 64) if pair == "16,64" else PARAMS_REGRESSION[0.1]
        # a plateau of half-width 2 is 1 for |t| <= t_max ~ 22 at n_k = 64
        dom = XDomain("interval", 2.0) if mode == "interval" else XDomain()
        qm = weyl.QuasiMode(mu=mu, cutoff=weyl.build_cutoff(k), n_k=n_k,
                            moments=gm_minus1, x_domain=dom)
        want = brute_force_residual(qm)
        assert abs(weyl.residual_norm(qm) - want) <= 1e-12 * want

    def test_phase_must_be_real_on_the_support(self, gm_minus1):
        # theta' = sqrt(E y^2 + mu) at y = n_k = 64, E = 1
        with pytest.raises(ConfigurationError, match="not real"):
            weyl.QuasiMode(mu=-4096.5, cutoff=weyl.build_cutoff(16.0), n_k=64,
                           moments=gm_minus1)
        weyl.QuasiMode(mu=-4095.0, cutoff=weyl.build_cutoff(16.0), n_k=64, moments=gm_minus1)

    def test_interval_plateau_precondition(self, gm_minus1):
        # t_max is about 22 > n_k c / 2 = 16
        qm = weyl.QuasiMode(mu=0.0, cutoff=weyl.build_cutoff(16.0), n_k=32,
                            moments=gm_minus1, x_domain=XDomain("interval", 1.0))
        with pytest.raises(ConfigurationError, match="plateau"):
            weyl.residual_norm(qm)

    def test_residual_tracks_4ej(self, gs_minus1, gm_minus1):
        # the surviving term is 2 theta' chi'/n_k; its square integrates to
        # 4 E J(k) up to n_k-suppressed corrections
        cut, n_k = weyl.choose_parameters(0.1, gm_minus1)
        qm = weyl.QuasiMode(mu=0.0, cutoff=cut, n_k=n_k, moments=gm_minus1)
        r = weyl.residual_norm(qm)
        assert abs(r**2 - 4.0 * (-gs_minus1.e0) * cut.j_weighted) < 1e-4

    def test_mu_pair_symmetry(self, gm_minus1):
        cut, n_k = weyl.choose_parameters(0.1, gm_minus1)
        rp = weyl.residual_norm(weyl.QuasiMode(mu=0.8, cutoff=cut, n_k=n_k,
                                               moments=gm_minus1))
        rm = weyl.residual_norm(weyl.QuasiMode(mu=-0.8, cutoff=cut, n_k=n_k,
                                               moments=gm_minus1))
        assert abs(rp - rm) < 1e-9


class TestZRule:
    @pytest.mark.parametrize("eps", [0.1, 0.02, 0.005])
    @pytest.mark.parametrize("mu", [0.0, 2.5, -0.5])
    def test_one_panel_per_unit_is_resolved(self, gm_shipped, monkeypatch, eps, mu):
        # on the rise and the descent the integrand is a polynomial in ln z
        # times e^{cu}: order-10 panels 1 per unit of ln z agree with 4 per
        # unit to rounding, down to eps = 0.005 (k = 2^99)
        cut, n_k = weyl.choose_parameters(eps, gm_shipped, mu)
        qm = weyl.QuasiMode(mu=mu, cutoff=cut, n_k=n_k, moments=gm_shipped)
        got = weyl.residual_norm(qm)
        monkeypatch.setattr(weyl, "_Z_PANELS_PER_UNIT", 4.0)
        want = weyl.residual_norm(qm)
        assert abs(got - want) <= 1e-12 * want

    def test_node_count(self, monkeypatch):
        # k = 2^50: ln sqrt(k) = 17.3 on the rise and on the descent, so
        # 18 panels each, plus 6 on each bridge, of 10 nodes; 70 + 70 + 12
        # panels at 4 per unit
        cut = weyl.build_cutoff(2.0**50)
        z = weyl._residual_z_rule(cut)[0]
        assert len(z) == 10 * (18 + 18 + 12)
        monkeypatch.setattr(weyl, "_Z_PANELS_PER_UNIT", 4.0)
        assert len(z) <= 0.32 * len(weyl._residual_z_rule(cut)[0])


class TestCertificate:
    def test_full_line_ladder(self, supercritical_config, gs_minus1):
        rows = weyl.weyl_certificate(supercritical_config, gs_minus1, 0.0,
                                     [0.1, 0.05])
        assert all(weyl.certificate_checks(rows).values())
        assert rows[0].support[1] < rows[1].support[0]

    def test_interval_mode(self, cos2_profile, lam_e0_minus1, gs_minus1):
        cfg = ModelConfig(omega=1.0,
                          channels=(ChannelSpec(lam_e0_minus1, 0.0,
                                                cos2_profile),),
                          x_domain=XDomain("interval", 1.0, "dirichlet"))
        rows = weyl.weyl_certificate(cfg, gs_minus1, 0.3, [0.1])
        r = rows[0]
        assert r.norm >= 0.5 - 2.0 * np.sqrt(0.1)
        assert r.residual**2 <= 0.9 * (1.0 + 1e-6)

    def test_subcritical_rejected(self, cos2_profile, supercritical_config):
        # lambda = 2 binds a state at E0 = 0.43 > 0: a ground state, but no
        # quasi-modes
        gs = ground_state(ComparisonSpec(1.0, 2.0, cos2_profile))
        assert 0.0 < gs.e0 < 1.0
        with pytest.raises(ConfigurationError, match="supercritical"):
            weyl.weyl_certificate(supercritical_config, gs, 0.0, [0.1])

    def test_csv_shape(self, supercritical_config, tmp_path, capsys):
        # the `weyl` command's CSV on the same configuration, less its
        # `#` header lines
        ch, = supercritical_config.channels
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"omega": supercritical_config.omega, "channels": [
            {"lambda": ch.lam, "center": ch.center, "profile": ch.profile._asdict()}]}))
        assert main(["weyl", "--config", str(path), "--eps", "0.1", "--mu", "0"]) == 0
        lines = [ln for ln in capsys.readouterr().out.strip().split("\n")
                 if not ln.startswith("#")]
        assert lines[0] == "epsilon,k,n_k,norm,residual,normalized_residual,bound_9eps"
        assert len(lines) == 2
