import json
import math
from pathlib import Path

import pytest

from smilansky_lab import bracketing as br
from smilansky_lab import grid2d
from smilansky_lab.cli import RunRequest, run
from smilansky_lab.errors import ComputationError, ConfigurationError
from smilansky_lab.model import (ChannelSpec, ModelConfig, PotentialProfile, XDomain,
                                 load_config)
from smilansky_lab.oned import ComparisonSpec, threshold, tune_lambda_to_threshold


@pytest.fixture(scope="module")
def prof():
    return PotentialProfile("cos2", 1.0, 1.0)


@pytest.fixture(scope="module")
def lam_plus03(prof):
    return tune_lambda_to_threshold(1.0, prof, 0.3)


class TestClassify:
    def test_single_subcritical(self, prof, lam_crit):
        cfg = ModelConfig(omega=1.0,
                          channels=(ChannelSpec(0.5 * lam_crit, 0.0, prof),))
        cls = br.classify(cfg)
        assert cls.verdict == "subcritical" and cls.t_v > 0

    def test_two_channel_min_rule(self, prof, lam_e0_minus1, lam_plus03):
        cfg = ModelConfig(omega=1.0,
                          channels=(ChannelSpec(lam_e0_minus1, 0.0, prof),
                                    ChannelSpec(lam_plus03, 3.0, prof)))
        cls = br.classify(cfg)
        assert cls.verdict == "supercritical"
        assert abs(cls.t_v + 1.0) <= 2e-6

    def test_permutation_and_zero_channel_invariance(self, prof, lam_e0_minus1,
                                                     lam_plus03):
        base = ModelConfig(omega=1.0,
                           channels=(ChannelSpec(lam_e0_minus1, 0.0, prof),
                                     ChannelSpec(lam_plus03, 3.0, prof)))
        perm = ModelConfig(omega=1.0,
                           channels=(ChannelSpec(lam_plus03, 3.0, prof),
                                     ChannelSpec(lam_e0_minus1, 0.0, prof),
                                     ChannelSpec(0.0, -3.0, prof)))
        a, b = br.classify(base), br.classify(perm)
        assert a.verdict == b.verdict
        assert abs(a.t_v - b.t_v) < 1e-12

    def test_no_channel_rejected(self):
        with pytest.raises(ConfigurationError):
            br.classify(ModelConfig(omega=1.0))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
    def test_tol_must_be_positive_and_finite(self, prof, lam_crit, tol):
        # with tol = NaN both sign tests failed and t_V = 0.43 read "critical"
        cfg = ModelConfig(omega=1.0, channels=(ChannelSpec(0.5 * lam_crit, 0.0, prof),))
        with pytest.raises(ConfigurationError, match="positive and finite"):
            br.classify(cfg, tol=tol)


class TestStrips:
    def test_partition_of_positive_axis(self, prof, lam_crit):
        cfg = ModelConfig(omega=1.0,
                          channels=(ChannelSpec(0.5 * lam_crit, 0.0, prof),))
        strips = br.strip_bounds(cfg, 12)
        for a, b in zip(strips, strips[1:]):
            assert a.y_range[1] == b.y_range[0]
        assert strips[0].y_range[0] == 0.0

    def test_net_bound_identity(self, prof, lam_crit):
        cfg = ModelConfig(omega=1.0,
                          channels=(ChannelSpec(0.5 * lam_crit, 0.0, prof),))
        for s in br.strip_bounds(cfg, 8)[1:]:
            assert abs(s.net_bound - (s.separated_bound - s.correction)) < 1e-12

    def test_zero_coupling_strips(self):
        strips = br.strip_bounds(ModelConfig(omega=1.0), 6)
        for s in strips:
            assert s.correction == 0.0
            assert s.net_bound >= 0.0

    def test_correction_decay_trend(self, prof, lam_crit):
        ch = ChannelSpec(0.5 * lam_crit, 0.0, prof)
        ns = [2**j for j in range(3, 12)]
        corr = [br._correction(ch, n) for n in ns]
        # correction behaves like ln n / n: halves (up to the log factor)
        # under n doubling
        for n, c1, c2 in zip(ns, corr, corr[1:]):
            expect = 0.5 * math.log(2 * n) / math.log(n)
            assert abs(c2 / c1 - expect) < 0.2

    def test_divergence_when_positive(self, prof, lam_crit):
        cfg = ModelConfig(omega=1.0,
                          channels=(ChannelSpec(0.5 * lam_crit, 0.0, prof),))
        strips = br.strip_bounds(cfg, 3000)
        nets = [s.net_bound for s in strips]
        assert nets[-1] > nets[len(nets) // 2] > 0


class TestGlobalBound:
    def test_zero_coupling(self):
        assert br.global_lower_bound(ModelConfig(omega=1.0)) == 0.0

    def test_supercritical_routed(self, prof, lam_e0_minus1):
        cfg = ModelConfig(omega=1.0,
                          channels=(ChannelSpec(lam_e0_minus1, 0.0, prof),))
        assert br.global_lower_bound(cfg) == "unbounded below"

    def test_subcritical_finite_and_below_central(self, prof, lam_crit):
        lam = 0.5 * lam_crit
        cfg = ModelConfig(omega=1.0, channels=(ChannelSpec(lam, 0.0, prof),))
        bound = br.global_lower_bound(cfg)
        assert isinstance(bound, float)
        assert bound <= -lam * math.log(2.0) ** 2 + 1e-12

    @pytest.mark.parametrize("family, lam", [("cos2", 0.1), ("cos2", 2.0),
                                             ("quartic", 2.7), ("quartic", 0.5)])
    def test_bound_is_the_minimum_over_all_strips(self, family, lam):
        # the lemma: net(n) is nondecreasing for n >= 2, so min(central,
        # net(2)) is the minimum over every strip
        p = PotentialProfile(family, 1.0, 1.0)
        cfg = ModelConfig(omega=1.0, channels=(ChannelSpec(lam, 0.0, p),))
        central = -lam * math.log(2.0) ** 2
        nets = [s.net_bound for s in br.strip_bounds(cfg, 4096)]
        assert all(b >= a for a, b in zip(nets[1:], nets[2:]))
        assert br.global_lower_bound(cfg) == min([central] + nets)

    def test_negative_threshold_in_critical_band_has_no_bound(self, prof, lam_crit):
        # t_V ~ -1.5e-7: "critical" at tol 1e-6, but the strip bounds
        # ln^2(n) t_V - corr(n) tend to -inf
        cfg = ModelConfig(omega=1.0,
                          channels=(ChannelSpec(lam_crit * (1.0 + 1e-7), 0.0, prof),))
        cls = br.classify(cfg)
        assert cls.verdict == "critical" and -1e-6 < cls.t_v < 0.0
        with pytest.raises(ComputationError, match="t_V = -1.5"):
            br.global_lower_bound(cfg)
        assert "global_lower_bound" not in br.classification_json_dict(cfg, cls)

    def test_two_channels_routed_by_the_default_tol(self, prof, lam_crit):
        # supercritical at tol 1e-9 but critical at the default tol, which
        # routes the bound: two channels give none, and no error
        cfg = ModelConfig(omega=1.0, channels=(
            ChannelSpec(lam_crit * (1.0 + 1e-7), 0.0, prof),
            ChannelSpec(1.0, 3.0, PotentialProfile("quartic", 1.0, 1.0))))
        cls = br.classify(cfg, tol=1e-9)
        assert cls.verdict == "supercritical"
        assert "global_lower_bound" not in br.classification_json_dict(cfg, cls)


class TestIntervalDomains:
    # the fibre at height y is y^2 L on (-c|y|, c|y|), so the line's
    # threshold decides every end condition; cos2 with omega = 1 on (-1, 1)
    @staticmethod
    def config(lam, prof, bc):
        return ModelConfig(omega=1.0, channels=(ChannelSpec(lam, 0.0, prof),),
                           x_domain=XDomain("interval", 1.0, bc))

    @pytest.mark.parametrize("lam, bc", [(3.2, "dirichlet"), (2.0, "neumann"),
                                         (2.0, "periodic")])
    def test_verdict_is_the_scans(self, prof, lam, bc):
        # the threshold on (-1, 1) itself called these subcritical (t =
        # +1.036) and supercritical (t = -0.0504)
        cfg = self.config(lam, prof, bc)
        cls = br.classify(cfg)
        assert cls.t_v == threshold(ComparisonSpec(1.0, lam, prof))
        assert cls.verdict == grid2d.transition_scan(cfg, [4.0, 8.0, 16.0]).verdict

    def test_dirichlet_bound_is_the_lines(self, prof):
        cfg = self.config(2.0, prof, "dirichlet")
        bound = br.global_lower_bound(cfg)
        assert bound == br.global_lower_bound(cfg._replace(x_domain=XDomain()))
        assert abs(bound - -3.7934) < 1e-4
        scan = grid2d.transition_scan(cfg, [4.0, 8.0, 16.0])
        assert all(bound <= r.lambda0 for r in scan.rows)

    @pytest.mark.parametrize("bc", ["neumann", "periodic"])
    def test_neumann_and_periodic_ends_have_no_bound(self, prof, tmp_path, capsys, bc):
        # the fibre thresholds approach the line's from below there, so the
        # line's strip bounds do not hold; a supercritical channel is still
        # unbounded below
        cfg = self.config(2.0, prof, bc)
        with pytest.raises(ConfigurationError, match=f"no lower bound with {bc} ends"):
            br.global_lower_bound(cfg)
        cls = br.classify(cfg)
        assert cls.verdict == "subcritical"
        assert "global_lower_bound" not in br.classification_json_dict(cfg, cls)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"omega": 1.0, "channels": [{
            "lambda": 2.0, "profile": {"family": "cos2", "a": 1.0, "amplitude": 1.0}}],
            "x_domain": {"type": "interval", "c": 1.0, "bc": bc}}))
        assert run(RunRequest("bound", str(path))) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: no lower bound") and err.count("\n") == 1
        assert br.global_lower_bound(self.config(3.2, prof, bc)) == "unbounded below"


@pytest.mark.parametrize("command, config", [("classify", "two_channel.json"),
                                             ("classify", "single_channel.json"),
                                             ("bound", "single_channel.json")])
def test_one_threshold_per_channel(monkeypatch, tmp_path, command, config):
    path = str(Path(__file__).parents[1] / "configs" / config)
    calls = []

    def counting(spec, *args):
        calls.append(spec)
        return threshold(spec, *args)

    monkeypatch.setattr(br, "threshold", counting)
    assert run(RunRequest(command, path, output=str(tmp_path / "out.json"))) == 0
    assert len(calls) == len(load_config(path).channels)
