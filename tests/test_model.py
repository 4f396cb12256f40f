import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import profile_slopes
from smilansky_lab.errors import ConfigurationError
from smilansky_lab.grid2d import _potential
from smilansky_lab.model import (ChannelSpec, ModelConfig, PotentialProfile,
                                 XDomain, config_from_dict, load_config,
                                 profile_values)


def values(profile, t):
    return np.array(profile_values(profile, np.asarray(t, dtype=float).tolist()))


def potential_at(config, x, y):
    return _potential(config, np.array([x]), np.array([y]))[0, 0]


def digest(vals):
    """First 16 hex digits of the sha256 of the doubles, little-endian."""
    return hashlib.sha256(struct.pack(f"<{len(vals)}d", *vals)).hexdigest()[:16]


class TestProfiles:
    def test_cos2_values(self):
        p = PotentialProfile("cos2", 1.0, 1.0)
        t = [0.0, 0.5, 1.0, 2.0]
        v, dv = values(p, t), profile_slopes(p, t)
        assert v[0] == 1.0
        assert abs(v[1] - 0.5) < 1e-15
        assert v[2] == 0.0 and v[3] == 0.0
        assert dv[0] == 0.0

    def test_support_and_c1_matching(self):
        for fam in ("cos2", "quartic"):
            p = PotentialProfile(fam, 1.5, 2.0)
            t = np.array([1.5 - 1e-7, 1.5, 1.5 + 1e-7])
            v, dv = values(p, t), profile_slopes(p, t)
            assert v[1] == 0.0 and v[2] == 0.0
            assert abs(v[0]) < 1e-12 and abs(dv[0]) < 1e-6

    def test_derivative_bound_holds(self):
        for fam in ("cos2", "quartic"):
            p = PotentialProfile(fam, 0.7, 1.3)
            t = np.linspace(-0.7, 0.7, 20001)
            dv = profile_slopes(p, t)
            assert np.max(np.abs(dv)) <= p.derivative_bound * (1 + 1e-12)
            # and the bound is attained somewhere (not vacuously loose)
            assert np.max(np.abs(dv)) >= 0.99 * p.derivative_bound

    def test_table_profile(self):
        ts = np.linspace(-1, 1, 21)
        vs = np.cos(np.pi * ts / 2) ** 4
        vs[0] = vs[-1] = 0.0
        pts = tuple((float(t), float(v)) for t, v in zip(ts, vs))
        p = PotentialProfile("table", 1.0, 1.0, table=pts)
        v = values(p, [0.0, 5.0])
        assert abs(v[0] - 1.0) < 1e-12 and v[1] == 0.0

    def test_table_profile_matches_scipy_pchip(self):
        from scipy.interpolate import PchipInterpolator

        pts = ((-0.9, 0.0), (-0.4, 0.7), (-0.1, 1.0), (0.3, 1.0), (0.8, 0.2), (1.0, 0.0))
        p = PotentialProfile("table", 1.0, 2.5, table=pts)
        ref = PchipInterpolator([q[0] for q in pts], [2.5 * q[1] for q in pts])
        t = np.linspace(-0.9, 1.0, 1001)[1:-1]
        v, dv = values(p, t), profile_slopes(p, t)
        assert np.max(np.abs(v - ref(t))) <= 1e-14 * 2.5
        assert np.max(np.abs(dv - ref.derivative()(t))) <= 1e-14 * np.max(np.abs(dv))
        t = [-1.0, -0.9, 1.0, 1.5]
        v, dv = values(p, t), profile_slopes(p, t)
        assert np.all(v == 0.0) and np.all(dv == 0.0)

    def test_table_sup_value_exact(self):
        p = PotentialProfile("table", 1.0, 1.0, table=((-1, 0), (0, 1), (1, 0)))
        assert p.sup_value == 1.0
        p = PotentialProfile("table", 1.0, 2.5,
                             table=((-1, 0), (-0.2, 0.4), (0.5, 0.9), (1, 0)))
        assert p.sup_value == 2.5 * 0.9
        v = values(p, np.linspace(-1.0, 1.0, 20001))
        assert np.max(v) <= p.sup_value

    def test_table_derivative_bound_exact(self):
        rng = np.random.default_rng(2)
        tables = [((-1, 0), (0, 1), (1, 0))]
        for _ in range(20):
            ts = np.sort(rng.uniform(-1.0, 1.0, int(rng.integers(3, 12))))
            vs = rng.uniform(0.0, 1.0, ts.size)
            vs[0] = vs[-1] = 0.0
            tables.append(tuple(zip(ts, vs)))
        for table in tables:
            p = PotentialProfile("table", 1.0, 1.7, table=table)
            t = np.linspace(-1.0, 1.0, 200001)
            dv = profile_slopes(p, t)
            bound = p.derivative_bound
            assert np.max(np.abs(dv)) <= bound * (1 + 1e-14)  # rounding only
            assert np.max(np.abs(dv)) >= bound * (1 - 1e-4)  # attained

    def test_table_abscissae_outside_support_rejected(self):
        table = ((-1, 0), (0, 1), (1, 0))
        with pytest.raises(ConfigurationError):
            PotentialProfile("table", 0.5, 1.0, table=table)
        with pytest.raises(ConfigurationError):
            config_from_dict({"omega": 1.0, "channels": [
                {"lambda": 1.0, "profile": {"family": "table", "a": 0.5,
                                            "table": [list(q) for q in table]}}]})
        PotentialProfile("table", 1.0, 1.0, table=table)   # on the support: fine

    def test_is_even(self):
        # cos2 and quartic are even; a table only when its samples mirror
        # exactly about t = 0, and then its PCHIP interpolant is even too
        assert PotentialProfile("cos2").is_even and PotentialProfile("quartic").is_even
        mirrored = ((-1.0, 0.0), (-0.4, 0.7), (0.0, 1.0), (0.4, 0.7), (1.0, 0.0))
        p = PotentialProfile("table", 1.0, 1.0, table=mirrored)
        t = np.linspace(0.0, 1.0, 101)
        assert p.is_even
        assert np.allclose(values(p, t), values(p, -t), rtol=0.0, atol=1e-15)
        skewed = ((-1.0, 0.0), (-0.4, 0.7), (0.0, 1.0), (0.4, 0.6), (1.0, 0.0))
        assert not PotentialProfile("table", 1.0, 1.0, table=skewed).is_even
        shifted = ((-1.0, 0.0), (-0.5, 0.7), (0.0, 1.0), (0.4, 0.7), (1.0, 0.0))
        assert not PotentialProfile("table", 1.0, 1.0, table=shifted).is_even

    def test_list_values_equal_array_values(self):
        # bit for bit the pinned values of the earlier numpy evaluator: V at
        # t = 0, -0.6426, -1.3382 (outside) and -0.3499, and a digest of V
        # at all 2001 points
        t = np.random.default_rng(5).uniform(-1.5, 1.5, 2001)
        t[:3] = (-1.0, 0.0, 1.0)
        table = ((-1.0, 0.0), (-0.5, 0.9), (0.0, 1.0), (0.5, 0.3), (1.0, 0.0))
        pins = [(PotentialProfile("cos2", 1.3, 0.7), "d712bde0b0945ff1",
                 [0.7, 0.35626218694188466, 0.0, 0.5821604379975451]),
                (PotentialProfile("quartic", 0.8, 2.0), "f31fa8cbfc3a5d29",
                 [2.0, 0.25176288914003075, 0.0, 1.3080249325564617]),
                (PotentialProfile("table", 1.0, 1.5, table=table), "d0e41dd117c44079",
                 [1.5, 1.1572507208135423, 0.0, 1.4221343365691912])]
        for p, want_digest, want in pins:
            v = profile_values(p, t.tolist())
            assert [v[i] for i in (1, 3, 4, 5)] == want
            assert digest(v) == want_digest

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ConfigurationError):
            PotentialProfile("bump", 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            PotentialProfile("cos2", -1.0, 1.0)
        with pytest.raises(ConfigurationError):
            PotentialProfile("table", 1.0, 1.0, table=((0, 0), (1, 1), (2, 0.5)))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-5, 5), st.floats(0.2, 3.0), st.floats(0.1, 4.0))
    def test_nonnegative_and_compact(self, t, a, amp):
        for fam in ("cos2", "quartic"):
            p = PotentialProfile(fam, a, amp)
            v = profile_values(p, [t])
            assert v[0] >= 0.0
            if abs(t) >= a:
                assert v[0] == 0.0


class TestConfig:
    def test_potential_values(self):
        cfg = ModelConfig(omega=1.0)
        assert potential_at(cfg, 0.3, 2.0) == 4.0
        prof = PotentialProfile("cos2", 1.0, 1.0)
        cfg = ModelConfig(omega=1.0, channels=(ChannelSpec(2.0, 0.0, prof),))
        assert abs(potential_at(cfg, 0.0, 3.0) - (-9.0)) < 1e-12
        # outside the support: pure oscillator
        assert potential_at(cfg, 0.6, 2.0) == 4.0

    def test_translated_channel(self):
        prof = PotentialProfile("cos2", 1.0, 1.0)
        cfg = ModelConfig(omega=1.0, channels=(ChannelSpec(2.0, 3.0, prof),))
        assert abs(potential_at(cfg, 3.0, 3.0) - (-9.0)) < 1e-12

    def test_overlapping_channels_rejected(self):
        prof = PotentialProfile("cos2", 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            ModelConfig(omega=1.0, channels=(ChannelSpec(1.0, 0.0, prof),
                                             ChannelSpec(1.0, 1.5, prof)))

    @pytest.mark.parametrize("lam, profile", [
        (2.0, PotentialProfile("cos2", 1.0, 1e308)),
        (1e154, PotentialProfile("cos2", 1.0, 1e154)),
        (2.0, PotentialProfile("table", 1.0, 1.0, table=((-1, 0), (0, 1e308), (1, 0))))])
    def test_depth_float64_cannot_hold_rejected(self, lam, profile):
        # omega^2 + lambda sup V must leave 16x headroom below float64's
        # largest power of two for the chain norm 4/h^2 + omega^2 + lambda sup V
        with pytest.raises(ConfigurationError, match=r"is not below 2\^1020"):
            ModelConfig(omega=1.0, channels=(ChannelSpec(lam, 0.0, profile),))
        ModelConfig(omega=1.0, channels=(
            ChannelSpec(1e150, 0.0, PotentialProfile("cos2", 1.0, 1e150)),))

    def test_channel_outside_interval_rejected(self):
        prof = PotentialProfile("cos2", 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            ModelConfig(omega=1.0, channels=(ChannelSpec(1.0, 2.0, prof),),
                        x_domain=XDomain("interval", 2.5, "dirichlet"))

    def test_line_domain_takes_no_bc(self):
        # the line is truncated with Dirichlet ends; a Neumann or periodic
        # bc only makes sense on an interval
        assert XDomain("line", bc="dirichlet").bc == "dirichlet"
        for bc in ("neumann", "periodic", "robin"):
            with pytest.raises(ConfigurationError, match="interval"):
                XDomain("line", bc=bc)
            with pytest.raises(ConfigurationError, match="interval"):
                config_from_dict({"omega": 1.0, "x_domain": {"type": "line", "bc": bc}})

    def test_y_cutoff_gate(self):
        prof = PotentialProfile("cos2", 1.0, 1.0)
        cfg = ModelConfig(omega=1.0, channels=(ChannelSpec(2.0, 0.0, prof),),
                          y_cutoff=2.0)
        assert potential_at(cfg, 0.0, 1.0) == 1.0       # gated off
        assert potential_at(cfg, 0.0, 3.0) < 9.0        # active


class TestRecords:
    """The records are namedtuples whose `__new__` checks their fields;
    `_replace` must check them too (a namedtuple's own `_make` skips
    `__new__`)."""

    PROF = PotentialProfile("cos2", 1.0, 1.0)

    @pytest.mark.parametrize("record, change", [
        (ModelConfig(1.0), {"omega": -1.0}),
        (ModelConfig(1.0), {"y_cutoff": float("nan")}),
        (ModelConfig(1.0, (ChannelSpec(1.0, 0.0, PROF),)),
         {"x_domain": XDomain("interval", 0.5)}),
        (XDomain("interval", 2.0, "neumann"), {"c": -5.0}),
        (XDomain("interval", 2.0, "neumann"), {"kind": "line"}),
        (XDomain(), {"bc": "periodic"}),
        (ChannelSpec(1.0, 0.0, PROF), {"lam": -5.0}),
        (ChannelSpec(1.0, 0.0, PROF), {"center": float("inf")}),
        (PROF, {"a": 0.0}),
    ], ids=lambda v: repr(v)[:40])
    def test_replace_rejects_invalid_values(self, record, change):
        with pytest.raises(ConfigurationError):
            record._replace(**change)

    def test_replace_keeps_the_type_and_checks_pass(self):
        dom = XDomain("interval", 2.0, "neumann")._replace(c=3.0)
        assert type(dom) is XDomain and dom == XDomain("interval", 3.0, "neumann")
        # a table profile recomputes its PCHIP data for the new amplitude
        table = PotentialProfile("table", 1.0, 1.0, ((-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)))
        assert table._replace(amplitude=2.0).sup_value == 2.0

    def test_value_equality_hashing_and_repr(self):
        table = ((-1.0, 0.0), (0.0, 1.0), (1.0, 0.0))
        a = PotentialProfile("table", 1.0, 1.0, table)
        b = PotentialProfile("table", 1.0, 1.0, tuple(map(tuple, table)))
        assert a == b and hash(a) == hash(b) and a._hermite is not b._hermite
        assert repr(a) == f"PotentialProfile(family='table', a=1.0, amplitude=1.0, table={table!r})"
        cfg = ModelConfig(1.0, (ChannelSpec(2.0, 0.0, a),))
        assert cfg == ModelConfig(1.0, (ChannelSpec(2.0, 0.0, b),), XDomain(), None)
        assert len({cfg, ModelConfig(1.0, (ChannelSpec(2.0, 0.0, b),))}) == 1
        assert cfg != cfg._replace(omega=2.0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        prof = PotentialProfile("quartic", 1.2, 0.8)
        cfg = ModelConfig(omega=2.0, channels=(ChannelSpec(3.0, -2.0, prof),),
                          x_domain=XDomain("interval", 4.0, "neumann"))
        d = {"omega": 2.0,
             "channels": [{"lambda": 3.0, "center": -2.0,
                           "profile": {"family": "quartic", "a": 1.2, "amplitude": 0.8}}],
             "x_domain": {"type": "interval", "c": 4.0, "bc": "neumann"}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(d))
        back = load_config(str(path))
        assert back == cfg

    @pytest.mark.parametrize("path", [
        ("omega",), ("channels", 0, "lambda"), ("channels", 0, "center"),
        ("channels", 0, "profile", "a"), ("channels", 0, "profile", "amplitude"),
        ("channels", 1, "profile", "table", 1, 0), ("channels", 1, "profile", "table", 1, 1),
        ("x_domain", "c"), ("y_cutoff",)])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_rejected(self, tmp_path, path, bad):
        # json reads NaN and Infinity; NaN passed every sign check, and
        # "lambda": NaN printed NaN thresholds with exit 0
        d = {"omega": 1.0,
             "channels": [{"lambda": 2.0, "center": -0.5,
                           "profile": {"family": "cos2", "a": 0.5, "amplitude": 1.0}},
                          {"lambda": 2.0, "center": 1.0, "profile": {
                              "family": "table", "a": 0.5,
                              "table": [[-0.5, 0.0], [0.0, 1.0], [0.5, 0.0]]}}],
             "x_domain": {"type": "interval", "c": 2.0, "bc": "dirichlet"},
             "y_cutoff": 0.5}
        config_from_dict(d)
        leaf = d
        for key in path[:-1]:
            leaf = leaf[key]
        leaf[path[-1]] = 1234.5
        text = json.dumps(d).replace("1234.5", bad)
        p = tmp_path / "bad.json"
        p.write_text(text)
        with pytest.raises(ConfigurationError, match="finite"):
            load_config(str(p))

    def test_malformed_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"channels": []})
        with pytest.raises(ConfigurationError):
            config_from_dict({"omega": "fast"})
