"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Criterion 2 is expected to fail at k = 2^4: the claimed bound on
the pre-normalization cutoff mass evaluates to ln(k)/14 there, which is
below 1/4 for k = 16; the test states the requirement as written and reports
the honest result.
"""

import time

import numpy as np
import pytest

from smilansky_lab import bracketing, grid2d, oned, weyl
from scipy.linalg import eigh_tridiagonal

from oracles import residual_identity_check, uniform_grid
from smilansky_lab.eigs import shift_invert_lanczos
from smilansky_lab.model import ChannelSpec, ModelConfig, XDomain
from smilansky_lab.oned import (ComparisonSpec, ResolutionPolicy,
                                critical_coupling, ground_state, threshold,
                                tune_lambda_to_threshold)
from smilansky_lab.sturm import bisect_count, cyclic_sturm_count, lowest_eigenvector, sturm_count

K_LADDER = [2.0**p for p in (4, 8, 12, 16)]
C_J = 10.1507     # pinned by the k = 2^4 quadrature oracle run


def _report(num: int, label: str, ok: bool, elapsed: float, budget: float,
            detail: str = "") -> bool:
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"CRITERION {num:2d} {status}: {label} "
          f"({elapsed:.1f}s / budget {budget:.0f}s){extra}", flush=True)
    return ok and elapsed <= budget


@pytest.fixture(scope="module")
def scans(lam_crit, cos2_profile):
    """Shared transition scans for criteria 7 and 9."""
    ladder = [4.0, 8.0, 16.0, 24.0, 32.0]
    sub_cfg = ModelConfig(omega=1.0,
                          channels=(ChannelSpec(0.5 * lam_crit, 0.0,
                                                cos2_profile),))
    sup_cfg = ModelConfig(omega=1.0,
                          channels=(ChannelSpec(1.5 * lam_crit, 0.0,
                                                cos2_profile),))
    t0 = time.perf_counter()
    sub = grid2d.transition_scan(sub_cfg, ladder)
    sup = grid2d.transition_scan(sup_cfg, ladder)
    return sub_cfg, sub, sup, time.perf_counter() - t0


def test_criterion_1_cutoff_conditions():
    t0 = time.perf_counter()
    cuts = [weyl.build_cutoff(k) for k in K_LADDER]
    mass_ok = all(abs(c.mass_over_z - 1.0) <= 1e-10 for c in cuts)
    js = [c.j_weighted for c in cuts]
    dec_ok = all(a > b for a, b in zip(js, js[1:]))
    cj_ok = all(c.j_weighted * np.log(c.k) <= C_J for c in cuts)
    ok = _report(1, "cutoff normalization, J decreasing, J*ln(k) <= C_J",
                 mass_ok and dec_ok and cj_ok, time.perf_counter() - t0, 10.0)
    assert ok


def test_criterion_2_prenormalization_mass():
    t0 = time.perf_counter()
    masses = {c.k: c.premass for c in (weyl.build_cutoff(k) for k in K_LADDER)}
    ok = all(m >= 0.25 for m in masses.values())
    worst = min(masses.items(), key=lambda kv: kv[1])
    _report(2, "pre-normalization mass >= 1/4 on the whole ladder", ok,
            time.perf_counter() - t0, 5.0,
            detail=f"min at k={worst[0]:.0f}: {worst[1]:.4f}")
    assert ok, (
        "the stated bound fails at k=16, where the exact mass is ln(16)/14 "
        f"= {masses[16.0]:.4f} < 0.25; it holds only for k >= exp(3.5)")


def test_criterion_3_residual_identity(cos2_profile, lam_e0_minus1, monkeypatch):
    t0 = time.perf_counter()
    spec = ComparisonSpec(1.0, lam_e0_minus1, cos2_profile)
    defects = []
    # the support chain at m, 2m, 4m and 8m steps of the half-width
    for ppu in (120.0, 240.0, 480.0, 960.0):
        monkeypatch.setattr(oned, "_RESOLUTION", ResolutionPolicy(points_per_unit=ppu))
        gs = ground_state(spec)
        defects.append(residual_identity_check(gs))
    ratios = [a / b for a, b in zip(defects, defects[1:])]
    order_ok = all(3.0 <= r <= 5.0 for r in ratios)
    final_ok = defects[-1] <= 1e-6
    ok = _report(3, "residual identity: order-2 defect, <= 1e-6 at finest grid",
                 order_ok and final_ok, time.perf_counter() - t0, 30.0,
                 detail=f"defect {defects[-1]:.2e}, ratios "
                        + ",".join(f"{r:.2f}" for r in ratios))
    assert ok


def test_criterion_4_weyl_certificate(supercritical_config, gs_minus1):
    t0 = time.perf_counter()
    eps = [0.1, 0.05, 0.02]
    ok = True
    for mu in (0.0, 2.5, -0.5):
        rows = weyl.weyl_certificate(supercritical_config, gs_minus1, mu, eps)
        ok = ok and all(weyl.certificate_checks(rows).values())
    ok = _report(4, "full-line Weyl certificate over mu in {0, 2.5, -0.5}",
                 ok, time.perf_counter() - t0, 300.0)
    assert ok


def test_criterion_5_interval_variant(cos2_profile, lam_e0_minus1, gs_minus1):
    t0 = time.perf_counter()
    cfg = ModelConfig(omega=1.0,
                      channels=(ChannelSpec(lam_e0_minus1, 0.0, cos2_profile),),
                      x_domain=XDomain("interval", 1.0, "dirichlet"))
    eps = [0.1, 0.05, 0.02]
    rows = weyl.weyl_certificate(cfg, gs_minus1, 0.0, eps)
    ok = all(r.norm >= 0.5 - 2.0 * np.sqrt(r.eps) for r in rows)
    ok = ok and all(r.residual**2 <= 9.0 * r.eps * (1.0 + 1e-6) for r in rows)
    ok = _report(5, "interval-mode certificate with the quintic plateau", ok,
                 time.perf_counter() - t0, 300.0)
    assert ok


def test_criterion_6_critical_coupling(cos2_profile, lam_crit, monkeypatch):
    t0 = time.perf_counter()
    from smilansky_lab.model import PotentialProfile
    with monkeypatch.context() as mp:
        mp.setattr(oned, "_RESOLUTION", ResolutionPolicy(points_per_unit=84.0))
        other = critical_coupling(1.0, cos2_profile)
    repro_ok = abs(other - lam_crit) <= 1e-3 * lam_crit
    lam_doubled = critical_coupling(1.0, PotentialProfile("cos2", 1.0, 2.0))
    halving_ok = abs(2.0 * lam_doubled - lam_crit) <= 1e-3 * lam_crit
    e_res = threshold(ComparisonSpec(1.0, lam_crit, cos2_profile))
    res_ok = abs(e_res) <= 1e-6
    ok = _report(6, "critical coupling: resolution-stable, amplitude-covariant,"
                 " |E(lam_crit)| <= 1e-6",
                 repro_ok and halving_ok and res_ok,
                 time.perf_counter() - t0, 20.0,
                 detail=f"lam_crit={lam_crit:.7f}, E={e_res:.2e}")
    assert ok


def test_criterion_7_spectral_transition(scans, cos2_profile, lam_crit):
    sub_cfg, sub, sup, elapsed = scans
    t0 = time.perf_counter()
    vals = {r.y_half: r.lambda0 for r in sub.rows}
    drift = abs(vals[32.0] - vals[8.0]) / abs(vals[32.0])
    sub_ok = sub.verdict == "subcritical" and drift <= 0.01
    e0 = threshold(ComparisonSpec(1.0, 1.5 * lam_crit, cos2_profile))
    sup_ok = (sup.verdict == "supercritical"
              and abs(sup.c_fit - abs(e0)) <= 0.30 * abs(e0))
    ok = _report(7, "transition: subcritical stable, supercritical c ~ |E0|",
                 sub_ok and sup_ok, elapsed + time.perf_counter() - t0, 900.0,
                 detail=f"drift={drift:.2e}, c={sup.c_fit:.4f} vs |E0|={abs(e0):.4f}")
    assert ok


def test_criterion_8_multichannel_rule(cos2_profile, lam_e0_minus1):
    t0 = time.perf_counter()
    lam_plus = tune_lambda_to_threshold(1.0, cos2_profile, 0.3)
    base = ModelConfig(omega=1.0,
                       channels=(ChannelSpec(lam_e0_minus1, 0.0, cos2_profile),
                                 ChannelSpec(lam_plus, 3.0, cos2_profile)))
    perm = ModelConfig(omega=1.0,
                       channels=(ChannelSpec(lam_plus, 3.0, cos2_profile),
                                 ChannelSpec(lam_e0_minus1, 0.0, cos2_profile),
                                 ChannelSpec(0.0, -3.0, cos2_profile)))
    a = bracketing.classify(base)
    b = bracketing.classify(perm)
    ok = (a.verdict == "supercritical" and abs(a.t_v + 1.0) <= 2e-6
          and b.verdict == a.verdict and abs(a.t_v - b.t_v) < 1e-12)
    ok = _report(8, "two-channel t_V = -1, invariant under permutation and"
                 " zero-coupling channel", ok, time.perf_counter() - t0, 60.0,
                 detail=f"t_V={a.t_v:.8f}")
    assert ok


def test_criterion_9_bracketing_consistency(scans):
    sub_cfg, sub, _, _ = scans
    t0 = time.perf_counter()
    bound = bracketing.global_lower_bound(sub_cfg)
    min_lam0 = min(r.lambda0 for r in sub.rows)
    below_ok = isinstance(bound, float) and bound <= min_lam0
    strips = bracketing.strip_bounds(sub_cfg, 3000)
    nets = [s.net_bound for s in strips]
    diverge_ok = nets[-1] > nets[1500] > nets[750] > 0
    ok = _report(9, "global lower bound below every lambda0; strips diverge",
                 below_ok and diverge_ok, time.perf_counter() - t0, 120.0,
                 detail=f"bound={bound:.4f} <= min lambda0={min_lam0:.4f}")
    assert ok


def test_criterion_10_eigensolver_oracles():
    t0 = time.perf_counter()
    n = 50
    d, e = [2.0] * n, [-1.0] * (n - 1)
    oracle, vecs = eigh_tridiagonal(d, e)
    want = np.sort(2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    # the Sturm counts of the chain and of its periodic wrap (kernel 0),
    # bisected from below the Gershgorin bound 0
    lo, hi, _ = bisect_count(lambda x: sturm_count(d, 1.0, x), -1.0, 4.0, 1e-14)
    wrap_lo, wrap_hi, _ = bisect_count(lambda x: cyclic_sturm_count(d, -1.0, -1.0, x),
                                       -1.0, 4.0, 1e-14)
    # the lowest pair: inverse iteration from the bracket's lower end, and
    # the vector's Rayleigh quotient
    v = np.array(lowest_eigenvector(d, -1.0, lo))
    v *= np.sign(v @ vecs[:, 0])
    e0 = float(v @ (np.diag(d) + np.diag(e, 1) + np.diag(e, -1)) @ v)
    tri_ok = (np.max(np.abs(oracle - want)) < 1e-12 and lo <= want[0] <= hi
              and abs(e0 - oracle[0]) < 1e-13 and np.max(np.abs(v - vecs[:, 0])) < 1e-13
              and wrap_lo <= 0.0 <= wrap_hi)

    g = uniform_grid(-4.0, 4.0, 40, 3.0, 40)
    ham = grid2d.assemble_h2d(ModelConfig(omega=1.0), g)
    hx = np.diff(g.x_nodes)[0]
    ex = eigh_tridiagonal(np.full(40, 2.0 / hx**2), np.full(39, -1.0 / hx**2),
                          eigvals_only=True, select="i", select_range=(0, 1))
    ey = eigh_tridiagonal(np.full(40, 2.0 / g.h_y**2) + g.y_nodes**2,
                          np.full(39, -1.0 / g.h_y**2),
                          eigvals_only=True, select="i", select_range=(0, 1))
    sums = sorted(a + b for a in ex for b in ey)[:2]
    vals, vecs, res = shift_invert_lanczos(ham.op, 2, ham.potential_min - 1.0)
    sep_ok = np.all(res <= 1e-7) and np.max(np.abs(vals - np.array(sums))) < 1e-8
    orth_ok = np.max(np.abs(vecs.T @ vecs - np.eye(2))) <= 1e-10
    ok = _report(10, "tridiagonal Sturm bisection, separable sums vs block"
                 " shift-invert, orthogonality", tri_ok and sep_ok and orth_ok,
                 time.perf_counter() - t0, 30.0)
    assert ok
