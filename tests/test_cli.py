import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import smilansky_lab
from oracles import interval_min_eig, truncated_line_ground_state
from smilansky_lab import cli, weyl
from smilansky_lab.cli import RunRequest, main, run
from smilansky_lab.errors import ConfigurationError
from smilansky_lab.model import PotentialProfile, XDomain
from smilansky_lab.oned import ComparisonSpec, ResolutionPolicy, ground_state, threshold

SINGLE = {
    "omega": 1.0,
    "channels": [{"lambda": 2.0, "center": 0.0,
                  "profile": {"family": "cos2", "a": 1.0, "amplitude": 1.0}}],
    "x_domain": {"type": "line"},
}
SUPER = {
    "omega": 1.0,
    "channels": [{"lambda": 4.585884094238281, "center": 0.0,
                  "profile": {"family": "cos2", "a": 1.0, "amplitude": 1.0}}],
    "x_domain": {"type": "line"},
}
# a mirrored 5-knot table profile, and one that is not even
TABLE5 = {"family": "table", "a": 1.0, "amplitude": 1.0,
          "table": [[-1, 0], [-0.5, 0.5], [0, 1], [0.5, 0.5], [1, 0]]}
SKEWED5 = {"family": "table", "a": 1.0, "amplitude": 1.0,
           "table": [[-1, 0], [-0.5, 0.9], [0, 1], [0.5, 0.3], [1, 0]]}


def env_with_src():
    return dict(os.environ, PYTHONPATH=str(Path(smilansky_lab.__file__).resolve().parents[1]))


def run_with_scipy_blocked(runs, tmp_path):
    # a fresh process in which every scipy import raises ImportError; each
    # command must still exit 0
    out = str(tmp_path / "out")
    code = ("import importlib.abc, sys\n"
            "class NoScipy(importlib.abc.MetaPathFinder):\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'scipy' or name.startswith('scipy.'):\n"
            "            raise ImportError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "try:\n"
            "    import scipy\n"
            "except ImportError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('scipy was imported')\n"
            "import smilansky_lab.cli\n"
            "from smilansky_lab.cli import main\n"
            "assert smilansky_lab.grid2d.assemble_h2d\n"
            f"for args in {runs!r}:\n"
            f"    assert main(args + ['--output', {out!r}]) == 0, args\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env_with_src(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def single_cfg(tmp_path):
    p = tmp_path / "single.json"
    p.write_text(json.dumps(SINGLE))
    return str(p)


@pytest.fixture
def super_cfg(tmp_path):
    p = tmp_path / "super.json"
    p.write_text(json.dumps(SUPER))
    return str(p)


class TestRequests:
    def test_unknown_command_rejected(self, single_cfg):
        with pytest.raises(ConfigurationError):
            RunRequest("summon", single_cfg)

    def test_bad_parameters_rejected(self, single_cfg):
        with pytest.raises(ConfigurationError):
            RunRequest("scan", single_cfg, params={"ladder": [8.0, 4.0]})
        with pytest.raises(ConfigurationError):
            RunRequest("weyl", single_cfg, params={"eps": [1.5]})
        with pytest.raises(ConfigurationError):
            RunRequest("critical", single_cfg, params={"tol": -1.0})
        with pytest.raises(ConfigurationError):
            RunRequest("critical", single_cfg)._replace(params={"tol": -1.0})
        # `run` indexed p["target"], p["ladder"] and p["eps"] into a KeyError
        for command in ("tune", "scan", "weyl"):
            with pytest.raises(ConfigurationError, match="needs the parameter"):
                RunRequest(command, single_cfg)

    def test_unknown_parameter_rejected(self, single_cfg):
        with pytest.raises(ConfigurationError, match="eig1d takes no parameter 'tol'"):
            RunRequest("eig1d", single_cfg, params={"tol": 1e-6})
        with pytest.raises(ConfigurationError, match="takes no parameter 'ladders'"):
            RunRequest("scan", single_cfg, params={"ladder": [4.0], "ladders": [4.0]})

    @pytest.mark.parametrize("command, flags, required", [
        ("critical", [], {}), ("tune", ["--target", "-1"], {"target": -1.0}),
        ("eig1d", [], {}), ("eig2d", [], {}),
        ("scan", ["--ladder", "2,3,4"], {"ladder": [2.0, 3.0, 4.0]}),
        ("weyl", ["--eps", "0.1"], {"eps": [0.1]}), ("classify", [], {}), ("bound", [], {})])
    def test_cli_and_library_defaults_agree(self, single_cfg, super_cfg, tmp_path,
                                            command, flags, required):
        # `meta.params` records the defaults that ran for a library caller
        # as for the command line: `run(RunRequest("critical", cfg))` wrote
        # "params": {} where `smilansky-lab critical` wrote {"tol": 1e-06}
        cfg = super_cfg if command == "weyl" else single_cfg
        fmt = "csv" if command in ("scan", "weyl") else "json"
        by_cli, by_lib = tmp_path / "cli.out", tmp_path / "lib.out"
        assert main([command, "--config", cfg, *flags, "--output", str(by_cli)]) == 0
        assert run(RunRequest(command, cfg, params=dict(required), output=str(by_lib),
                              fmt=fmt)) == 0
        assert by_cli.read_text() == by_lib.read_text()

    def test_eig1d_help_names_its_operator(self, capsys):
        with pytest.raises(SystemExit):
            main(["eig1d", "--help"])
        assert "configuration's own x-domain" in capsys.readouterr().out

    def test_params_default_is_not_shared(self, single_cfg):
        a, b = RunRequest("eig1d", single_cfg), RunRequest("eig1d", single_cfg)
        assert a == b and a.params == {} and a.params is not b.params

    @pytest.mark.parametrize("command", ["critical", "tune", "eig1d", "eig2d", "classify",
                                         "bound"])
    def test_csv_is_refused_by_the_json_commands(self, single_cfg, capsys, command):
        # these commands wrote JSON and exited 0 under --format csv
        params = {"target": -1.0} if command == "tune" else None
        with pytest.raises(ConfigurationError, match=f"^{command} writes JSON only"):
            RunRequest(command, single_cfg, params=params, fmt="csv")
        flags = ["--target", "-1"] if command == "tune" else []
        assert main([command, "--config", single_cfg, *flags, "--format", "csv"]) == 2
        assert capsys.readouterr() == (
            "", f"configuration error: {command} writes JSON only; CSV is for scan and weyl\n")

    @pytest.mark.parametrize("args", [
        ["tune", "--target", "nan"], ["tune", "--target", "-1", "--tol", "inf"],
        ["critical", "--tol", "nan"], ["classify", "--tol", "nan"],
        ["eig2d", "--y-half", "nan"], ["eig2d", "--y-half", "inf"],
        ["scan", "--ladder", "4,8,nan"], ["scan", "--ladder", "4,8,inf"],
        ["weyl", "--mu", "nan", "--eps", "0.1"], ["weyl", "--eps", "0.1,nan"]],
        ids=lambda args: " ".join(args))
    def test_non_finite_parameters_exit_2(self, single_cfg, args):
        # a fresh process with a timeout: `tune --target nan` never ended,
        # `classify --tol nan` printed a verdict, the others failed with a
        # traceback or a message about something else
        proc = subprocess.run(
            [sys.executable, "-m", "smilansky_lab.cli", args[0], "--config", single_cfg,
             *args[1:]], env=env_with_src(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("configuration error: ")
        assert "must be finite" in proc.stderr or "must lie in (0, 1)" in proc.stderr
        assert proc.stdout == ""

    def test_non_finite_config_values_exit_2(self, tmp_path, capsys):
        # json reads NaN: "lambda": NaN gave NaN thresholds with exit 0, and
        # "omega": NaN a finite bound; "omega": -1 gave `eig2d` an eigenvalue
        for key, path, value in (("lambda", ("channels", 0), float("nan")),
                                 ("omega", (), float("nan")), ("omega", (), -1.0)):
            bad = json.loads(json.dumps(SINGLE))
            leaf = bad
            for k in path:
                leaf = leaf[k]
            leaf[key] = value
            p = tmp_path / f"{key}.json"
            p.write_text(json.dumps(bad))
            for command in ("eig1d", "classify", "bound", "eig2d"):
                assert main([command, "--config", str(p)]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert f"finite, got {value!r}" in captured.err


class TestCommands:
    def test_critical_json(self, single_cfg, tmp_path, capsys):
        out = tmp_path / "crit.json"
        code = run(RunRequest("critical", single_cfg, params={"tol": 1e-6},
                              output=str(out)))
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["lambda_crit"] - 2.8663025) < 1e-4
        assert payload["meta"]["seed"] == 1234
        assert len(payload["meta"]["config_sha256"]) == 16

    def test_tune_matches_library(self, single_cfg, tmp_path):
        out = tmp_path / "t.json"
        assert run(RunRequest("tune", single_cfg,
                              params={"target": -1.0, "tol": 1e-6},
                              output=str(out))) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["lambda"] - 4.5858841) < 1e-4

    def test_eig1d(self, super_cfg, tmp_path):
        out = tmp_path / "e.json"
        assert run(RunRequest("eig1d", super_cfg, output=str(out))) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["channels"][0]["threshold"] + 1.0) < 1e-5

    def test_classify_passthrough(self, super_cfg, tmp_path):
        out = tmp_path / "c.json"
        assert run(RunRequest("classify", super_cfg, output=str(out))) == 0
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "supercritical"
        assert payload["global_lower_bound"] == "unbounded below"

    def test_classify_loose_tol_keeps_default_bound_routing(self, super_cfg, tmp_path):
        # t_V = -1 is "critical" within tol = 2, but the bound is routed by
        # the default-tolerance verdict, as `bound` itself does
        out = tmp_path / "c.json"
        assert run(RunRequest("classify", super_cfg, params={"tol": 2.0},
                              output=str(out))) == 0
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "critical"
        assert payload["global_lower_bound"] == "unbounded below"

    def test_periodic_interval_eig1d_and_classify(self, tmp_path):
        cfg = tmp_path / "periodic.json"
        cfg.write_text(json.dumps({**SUPER, "channels": [{
            "lambda": 4.0, "center": 0.0,
            "profile": {"family": "cos2", "a": 1.0, "amplitude": 1.0}}],
            "x_domain": {"type": "interval", "c": 1.0, "bc": "periodic"}}))
        e1, c = tmp_path / "e.json", tmp_path / "c.json"
        assert run(RunRequest("eig1d", str(cfg), output=str(e1))) == 0
        assert run(RunRequest("classify", str(cfg), output=str(c))) == 0
        got = json.loads(e1.read_text())["channels"][0]["threshold"]
        # eig1d takes the threshold on (-1, 1), classify the line's, which
        # decides the phase on every x-domain
        spec = ComparisonSpec(1.0, 4.0, PotentialProfile("cos2", 1.0, 1.0),
                              XDomain("interval", 1.0, "periodic"))
        assert json.loads(c.read_text())["t_V"] == threshold(spec._replace(domain=XDomain()))
        # dense Richardson reference on the default grids n = 240, 480, 960
        e = [interval_min_eig(spec, n) for n in (240, 480, 960)]
        assert abs(got - (4.0 * e[2] - e[1]) / 3.0) <= ResolutionPolicy().rich_tol

    def test_narrow_channel_is_resolved_like_a_unit_one(self, tmp_path):
        # a = 0.1 takes the 120 steps of a = 1: x = a s maps the chain at
        # lambda = 2 / a^2 onto the unit one, so the threshold is
        # omega^2 + (t(1) - omega^2) / a^2 to rounding; at ceil(120 a) = 12
        # steps both commands fail the Richardson gate
        cfg = tmp_path / "narrow.json"
        cfg.write_text(json.dumps({**SINGLE, "channels": [{
            "lambda": 200.0, "center": 0.0,
            "profile": {"family": "cos2", "a": 0.1, "amplitude": 1.0}}]}))
        e1, c = tmp_path / "e.json", tmp_path / "c.json"
        assert run(RunRequest("eig1d", str(cfg), output=str(e1))) == 0
        assert run(RunRequest("critical", str(cfg), params={"tol": 1e-2},
                              output=str(c))) == 0
        got = json.loads(e1.read_text())["channels"][0]["threshold"]
        unit = threshold(ComparisonSpec(1.0, 2.0, PotentialProfile("cos2", 1.0, 1.0)))
        assert abs(got - (1.0 + (unit - 1.0) / 0.01)) <= 1e-9 * abs(got)
        assert json.loads(c.read_text())["lambda_crit"] > 0.0

    def test_weyl_csv(self, super_cfg, tmp_path):
        out = tmp_path / "w.csv"
        assert run(RunRequest("weyl", super_cfg,
                              params={"mu": 0.0, "eps": [0.1]},
                              output=str(out), fmt="csv")) == 0
        lines = out.read_text().strip().split("\n")
        headers = [ln for ln in lines if ln.startswith("#")]
        assert headers and any("config_sha256" in h for h in headers)
        assert "# all_pass=true" in headers
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0].startswith("epsilon,")
        assert len(data) == 2

    def test_weyl_failed_certificate_is_1(self, super_cfg, tmp_path, capsys, monkeypatch):
        real = weyl.certificate_checks

        def failing(rows):
            return {**real(rows), "norm_ge_half": False}

        monkeypatch.setattr(weyl, "certificate_checks", failing)
        out = tmp_path / "w.csv"
        assert run(RunRequest("weyl", super_cfg, params={"eps": [0.1]},
                              output=str(out), fmt="csv")) == 1
        err = capsys.readouterr().err
        assert "computation failed:" in err and "norm_ge_half" in err
        lines = out.read_text().strip().split("\n")
        assert "# all_pass=false" in lines
        assert len([ln for ln in lines if not ln.startswith("#")]) == 2

    def test_weyl_supports_start_past_y_cutoff(self, tmp_path, capsys):
        # below y_cutoff the gate switches the channel off, so a quasi-mode
        # there belongs to another operator: every n_k lies past it
        cfg = tmp_path / "gated.json"
        cfg.write_text(json.dumps({**SUPER, "y_cutoff": 1e12}))
        assert main(["weyl", "--config", str(cfg), "--eps", "0.1,0.05",
                     "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["all_pass"] and len(out["rows"]) == 2
        assert all(r["n_k"] > 1e12 for r in out["rows"])
        # a y_cutoff past k n_k = 2^255 fails in the n_k search
        cfg.write_text(json.dumps({**SUPER, "y_cutoff": 1e300}))
        assert main(["weyl", "--config", str(cfg), "--eps", "0.1"]) == 1
        assert "n_k search reached" in capsys.readouterr().err

    def test_scan_json_rows_carry_gated_residual(self, super_cfg, tmp_path):
        out = tmp_path / "s.json"
        assert run(RunRequest("scan", super_cfg, params={"ladder": [2.0, 3.0, 4.0]},
                              output=str(out))) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["Y"] for r in rows] == [2.0, 3.0, 4.0]
        assert all(0.0 <= r["residual"] <= 1e-6 * max(1.0, abs(r["lambda0"]))
                   for r in rows)

    def test_deterministic_output(self, super_cfg, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(RunRequest("classify", super_cfg, output=str(out))) == 0
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    @pytest.mark.parametrize("target, tol, code, out, err", [
        ("-1e308", "1e-6", 2, "",
         "configuration error: the coupling that places the threshold at -1e+308: "
         "omega^2 + lambda sup V = inf is not below 2^1020, past what float64 holds\n"),
        ("-1e306", "1e-6", 1, "",
         "computation failed: the threshold -9.999999999999999e+305 at the coupling "
         "1e+306 misses the target -1e+306 by more than tol = 1e-06\n"),
        ("-1e300", "1e295", 0,
         '{"lambda": 9.999999999999999e+299, "meta": {"command": "tune", '
         '"config_sha256": "e2d0d693d9bddb14", "params": {"target": -1e+300, '
         '"tol": 1e+295}, "seed": 1234}, "target": -1e+300}\n', "")],
        ids=["-1e308", "-1e306", "-1e300"])
    def test_tune_at_the_depth_limit(self, capsys, target, tol, code, out, err):
        # a coupling past ModelConfig's 2^1020 limit is refused: -1e308
        # overflowed the coupling to inf and failed with "the chain resolves
        # the threshold only to nan"
        assert main(["tune", "--config", str(CONFIGS / "single_channel.json"),
                     f"--target={target}", "--tol", tol]) == code
        assert capsys.readouterr() == (out, err)

    def test_missing_config_is_2(self, tmp_path):
        assert run(RunRequest("critical", str(tmp_path / "nope.json"))) == 2

    def test_malformed_config_is_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\"omega\": -3}")
        assert run(RunRequest("critical", str(p))) == 2

    def test_command_needing_channel_is_2(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"omega": 1.0}))
        assert run(RunRequest("critical", str(p))) == 2

    def test_weyl_eps_beyond_the_ladder_is_1(self, super_cfg, capsys, monkeypatch):
        # eps = 0.003 needs k >= 2^128, since 588/25 / (127 ln 2)^2 = 0.003035,
        # past the last ladder k = 2^126 whose (k n_k)^4 is finite in float64;
        # it fails before any cutoff of the ladder is built
        def no_cutoff(k):
            raise AssertionError(f"cutoff built for k={k}")

        monkeypatch.setattr(weyl, "build_cutoff", no_cutoff)
        assert main(["weyl", "--config", super_cfg,
                     "--eps", "0.1,0.05,0.003"]) == 1
        err = capsys.readouterr().err
        assert "computation failed:" in err and "k >= 2^128 > 2^126" in err

    @pytest.mark.parametrize("eps", ["0.1,0.1", "0.1,0.05,0.05"])
    def test_weyl_repeated_eps_is_2(self, capsys, monkeypatch, eps):
        # a repeated eps computed every row and then failed the
        # normalized_residual_decreasing check with exit 1; like a repeated
        # `scan` rung, it is refused before any cutoff is built
        def no_cutoff(k):
            raise AssertionError(f"cutoff built for k={k}")

        monkeypatch.setattr(weyl, "build_cutoff", no_cutoff)
        assert main(["weyl", "--config", str(CONFIGS / "supercritical.json"),
                     "--eps", eps]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "configuration error: eps ladder must be strictly decreasing\n"

    def test_weyl_builds_one_cutoff_per_row(self, capsys, monkeypatch):
        # choose_parameters hands the cutoff it selected to the quasi-mode,
        # so nothing is built twice or looked up again by k
        built = []
        real = weyl.build_cutoff
        monkeypatch.setattr(weyl, "build_cutoff", lambda k: built.append(k) or real(k))
        assert main(["weyl", "--config", str(CONFIGS / "supercritical.json"),
                     "--eps", "0.1,0.05,0.02"]) == 0
        assert len(built) == len(set(built)) == 3

    @pytest.mark.parametrize("x_domain", [{"type": "line"},
                                          {"type": "interval", "c": 1.0, "bc": "dirichlet"}],
                             ids=["line", "interval"])
    def test_weyl_builds_the_ground_moments_once(self, tmp_path, capsys, monkeypatch,
                                                 x_domain):
        # weyl_certificate builds them and hands them to every quasi-mode; a
        # per-ground-state cache was asked 9 times on the line and 10 on the
        # interval, where the first support also needs t_max
        built = []
        real = weyl.ground_moments
        monkeypatch.setattr(weyl, "ground_moments", lambda gs: built.append(gs) or real(gs))
        path = tmp_path / "cfg.json"
        shipped = json.loads((CONFIGS / "supercritical.json").read_text())
        path.write_text(json.dumps({**shipped, "x_domain": x_domain}))
        assert main(["weyl", "--config", str(path), "--eps", "0.1,0.05,0.02"]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("args", [["weyl", "--eps", ""], ["weyl", "--eps", ","],
                                      ["scan", "--ladder", ""]],
                             ids=lambda args: " ".join(args))
    def test_empty_list_is_2(self, super_cfg, args):
        # a fresh process: the empty lists ended in a KeyError traceback,
        # and `--eps ,` in a certificate without rows and all_pass=true
        proc = subprocess.run(
            [sys.executable, "-m", "smilansky_lab.cli", args[0], "--config", super_cfg,
             *args[1:]], env=env_with_src(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("configuration error: ")
        assert len(proc.stderr.splitlines()) == 1 and proc.stdout == ""

    def test_scan_and_eig2d_leave_out_bracketing(self, single_cfg, tmp_path):
        # a fresh process: the scan estimates t_V with oned alone
        out = str(tmp_path / "out")
        runs = [["scan", "--ladder", "2,3,4"], ["eig2d", "--y-half", "2"]]
        code = ("import sys\n"
                "from smilansky_lab.cli import main\n"
                f"for args in {runs!r}:\n"
                f"    assert main(args + ['--config', {single_cfg!r}, '--output', {out!r}]) == 0\n"
                "assert 'smilansky_lab.bracketing' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env_with_src(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_weyl_eps_0015_passes(self, super_cfg, capsys):
        # k = 2^58, where k - 1 == k in float64
        assert main(["weyl", "--config", super_cfg, "--eps", "0.1,0.05,0.015",
                     "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["all_pass"] and out["rows"][-1]["k"] == 2.0**58

    @pytest.mark.parametrize("args", [["--mu=1e300"], ["--mu=-1e300"], ["--eps", "1e-320"]],
                             ids=lambda args: " ".join(args))
    def test_weyl_float_range_is_1(self, super_cfg, args):
        # a fresh process: mu**2 and floor(sqrt(588/25 / eps)) overflowed into
        # a raw traceback
        eps = [] if "--eps" in args else ["--eps", "0.1"]
        proc = subprocess.run(
            [sys.executable, "-m", "smilansky_lab.cli", "weyl", "--config", super_cfg,
             *eps, *args], env=env_with_src(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("computation failed: ")
        assert "Traceback" not in proc.stderr

    def test_one_d_commands_leave_out_numpy(self, single_cfg, tmp_path):
        # a fresh process: thresholds and couplings on the line and on
        # intervals are Sturm counts on lists, with the closed-form end
        # terms of every end condition (c = 1e6 too) on `math`, and so is
        # the Weyl ground state, and a table profile's PCHIP runs on lists
        # too; only the 2D commands load numpy, in their own branches.  The
        # records are namedtuples and the debug records need `logging` only
        # where the process has loaded it, so no command loads `dataclasses`
        # or `logging`, and no 1D or `weyl` command `inspect` (numpy does);
        # only modules absent before the package is imported are checked
        quartic = tmp_path / "quartic.json"
        quartic.write_text(json.dumps({**SINGLE, "channels": [{
            "lambda": 2.0, "center": 0.0,
            "profile": {"family": "quartic", "a": 1.0, "amplitude": 1.0}}]}))
        table = tmp_path / "table.json"
        table.write_text(json.dumps({**SINGLE, "channels": [{
            "lambda": 2.0, "center": 0.0, "profile": TABLE5}]}))
        dirichlet = tmp_path / "dirichlet.json"
        dirichlet.write_text(json.dumps({**SINGLE, "x_domain": {
            "type": "interval", "c": 1.5, "bc": "dirichlet"}}))
        neumann = tmp_path / "neumann.json"
        neumann.write_text(json.dumps({**SINGLE, "x_domain": {
            "type": "interval", "c": 1.5, "bc": "neumann"}}))
        periodic = tmp_path / "periodic.json"
        periodic.write_text(json.dumps({**SINGLE, "x_domain": {
            "type": "interval", "c": 1.5, "bc": "periodic"}}))
        long_periodic = tmp_path / "long_periodic.json"
        long_periodic.write_text(json.dumps({**SINGLE, "x_domain": {
            "type": "interval", "c": 1e6, "bc": "periodic"}}))
        two = str(Path(__file__).parents[1] / "configs" / "two_channel.json")
        runs = [[command, "--config", cfg, *extra]
                for cfg in (single_cfg, str(quartic), str(table))
                for command, extra in (("critical", ["--tol", "1e-2"]),
                                       ("tune", ["--target", "-1"]),
                                       ("eig1d", []), ("classify", []), ("bound", []))]
        runs += [["eig1d", "--config", two], ["classify", "--config", two]]
        runs += [[command, "--config", str(cfg)]
                 for cfg in (dirichlet, neumann, periodic, long_periodic)
                 for command in ("eig1d", "classify")]
        runs += [["bound", "--config", str(dirichlet)]]
        supercritical = tmp_path / "super.json"
        supercritical.write_text(json.dumps(SUPER))
        table_super = tmp_path / "table_super.json"
        table_super.write_text(json.dumps({**SUPER, "channels": [{
            "lambda": 6.0, "center": 0.0, "profile": TABLE5}]}))
        runs += [["weyl", "--config", str(cfg), "--eps", "0.1"]
                 for cfg in (supercritical, table_super)]
        later = [["scan", "--config", single_cfg, "--ladder", "2,3,4"],
                 ["eig2d", "--config", single_cfg, "--y-half", "2"]]
        out = str(tmp_path / "out")
        code = ("import sys\n"
                "light = {'dataclasses', 'inspect', 'logging'} - set(sys.modules)\n"
                "import smilansky_lab.cli\n"
                "assert 'numpy' not in sys.modules\n"
                "from smilansky_lab.cli import main\n"
                f"for args in {runs!r}:\n"
                f"    assert main(args + ['--output', {out!r}]) == 0, args\n"
                "    assert 'numpy' not in sys.modules, args\n"
                "    assert not light & set(sys.modules), (args, light & set(sys.modules))\n"
                f"for args in {later!r}:\n"
                f"    assert main(args + ['--output', {out!r}]) == 0, args\n"
                "    assert 'numpy' in sys.modules, args\n"
                "    assert not light - {'inspect'} & set(sys.modules), args\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env_with_src(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_debug_records_reach_a_configured_logging(self, single_cfg, tmp_path):
        # a fresh process that sets up `logging` before the package runs
        # gets every DEBUG record, from the line that makes it; `scan`
        # takes unextrapolated thresholds, so `eig1d` makes the oned record
        out = str(tmp_path / "out")
        code = ("import logging\n"
                "logging.basicConfig(level=logging.DEBUG,\n"
                "                    format='%(name)s %(funcName)s: %(message)s')\n"
                "from smilansky_lab.cli import main\n"
                f"assert main(['eig1d', '--config', {single_cfg!r}, '--output', {out!r}]) == 0\n"
                f"assert main(['scan', '--config', {single_cfg!r}, '--ladder', '2,3,4',\n"
                f"             '--output', {out!r}]) == 0\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env_with_src(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        for start in ("smilansky_lab.oned _richardson: threshold at lambda=2.0",
                      "smilansky_lab.eigs shift_invert_lanczos: shift-invert on order",
                      "smilansky_lab.grid2d transition_scan: scan rung Y=4"):
            assert any(line.startswith(start) for line in lines), (start, proc.stderr)

    def test_weyl_huge_omega(self, tmp_path, capsys):
        # omega^2 overflowed into a raw OverflowError at 1e200; at 1e150 the
        # shipped coupling binds no state below omega^2 = 1e300 (lambda V
        # rounds away against it), and the certificate says so before any
        # solve; the line's ground state would have no decaying tail
        for omega, code, message in ((1e200, 2, "configuration error: omega must be"),
                                     (1e150, 2, "configuration error: certificate needs "
                                                "a supercritical channel")):
            path = tmp_path / "omega.json"
            path.write_text(json.dumps({**SUPER, "omega": omega}))
            assert main(["weyl", "--config", str(path), "--eps", "0.1"]) == code
            assert capsys.readouterr().err.startswith(message)
        spec = ComparisonSpec(1e150, SUPER["channels"][0]["lambda"],
                              PotentialProfile("cos2", 1.0, 1.0))
        with pytest.raises(ConfigurationError, match="no decaying tail"):
            ground_state(spec)
        # the truncated line's Dirichlet chain has diagonal 1e300, which
        # swallows its off-diagonal, and its bracket's margin, relative to
        # the chain's norm, keeps its eigenpair solvable
        gs = truncated_line_ground_state(spec, 12.0, 4001)
        assert abs(gs.e0 - 1e300) <= 1e-15 * 1e300

    @pytest.mark.parametrize("lam, message", [
        (0.0, "certificate needs a supercritical channel"),
        (1e160, "the ground state's tail ratio r underflows to 0")])
    def test_weyl_without_a_decaying_tail(self, tmp_path, lam, message):
        # lambda = 0 binds no state (r = 1); lambda = 1e160 binds one whose
        # tail ratio r, about 1 / (kappa h)^2, is 0 in float64: both exit 2
        # in a fresh process, with one line and no traceback
        path = tmp_path / "tail.json"
        path.write_text(json.dumps({**SUPER, "channels": [
            {**SUPER["channels"][0], "lambda": lam}]}))
        proc = subprocess.run(
            [sys.executable, "-m", "smilansky_lab.cli", "weyl", "--config", str(path),
             "--eps", "0.1"], env=env_with_src(), capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"configuration error: {message}"), proc.stderr
        assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("omega", [1e7, 1e9])
    @pytest.mark.parametrize("domain", [
        {"type": "line"}, {"type": "interval", "c": 3.0, "bc": "dirichlet"}])
    def test_eig1d_huge_omega(self, tmp_path, omega, domain):
        # the threshold is omega^2 - O(1), about 1e14 and 1e18, where float64
        # spacing is 0.016 and 128: the Richardson gate asks no agreement
        # finer than 64 eps |threshold| of the extrapolants, and names float
        # resolution when it fails
        path = tmp_path / "omega.json"
        path.write_text(json.dumps({**SINGLE, "omega": omega, "x_domain": domain}))
        out = tmp_path / "out.json"
        proc = subprocess.run(
            [sys.executable, "-m", "smilansky_lab.cli", "eig1d", "--config", str(path),
             "--output", str(out)], env=env_with_src(), capture_output=True, text=True)
        if proc.returncode:
            assert proc.returncode == 1 and "float64 resolves" in proc.stderr, proc.stderr
        else:
            (row,) = json.loads(out.read_text())["channels"]
            gate = 64 * sys.float_info.epsilon * omega**2
            assert abs(row["threshold"] - omega**2) <= gate + 10.0

    def test_two_d_commands_leave_out_numpy_random(self, single_cfg, super_cfg, tmp_path):
        # a fresh process: the Lanczos start vectors and restart directions
        # are splitmix64 outputs of (seed, index), so numpy.random is never
        # imported
        runs = [["scan", "--config", single_cfg, "--ladder", "2,3,4"],
                ["scan", "--config", super_cfg, "--ladder", "2,3,4"],
                ["eig2d", "--config", super_cfg, "--y-half", "3", "--k", "2"]]
        out = str(tmp_path / "out")
        code = ("import sys\n"
                "from smilansky_lab.cli import main\n"
                f"for args in {runs!r}:\n"
                f"    assert main(args + ['--output', {out!r}]) == 0, args\n"
                "assert 'numpy' in sys.modules and 'numpy.random' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env_with_src(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_weyl_leaves_out_numpy(self, tmp_path):
        # a fresh process per run: the cutoff moments are closed forms and
        # the quadratures loops over lists, for cos2 and quartic channels,
        # on the line and on the interval, at mu = 0 and mu != 0
        quartic = {**SUPER, "channels": [{"lambda": 6.0, "center": 0.0, "profile": {
            "family": "quartic", "a": 1.0, "amplitude": 1.0}}]}
        interval = {**SUPER, "x_domain": {"type": "interval", "c": 1.0, "bc": "dirichlet"}}
        cases = [(SUPER, []), (quartic, []), (interval, []), (SUPER, ["--mu", "2.5"]),
                 (quartic, ["--mu", "2.5"])]
        for i, (cfg, extra) in enumerate(cases):
            path = tmp_path / f"cfg{i}.json"
            path.write_text(json.dumps(cfg))
            args = ["weyl", "--config", str(path), "--eps", "0.1,0.05", *extra,
                    "--output", str(tmp_path / "out")]
            code = ("import sys\n"
                    "from smilansky_lab.cli import main\n"
                    f"assert main({args!r}) == 0\n"
                    "assert 'numpy' not in sys.modules\n")
            proc = subprocess.run([sys.executable, "-c", code], env=env_with_src(),
                                  capture_output=True, text=True)
            assert proc.returncode == 0, (cfg, extra, proc.stderr)

    def test_weyl_table_profile_rows(self, tmp_path, capsys):
        # a table profile's rows, pinned from the ground state on the support
        # chain, hold to 1e-12
        path = tmp_path / "table.json"
        path.write_text(json.dumps({**SUPER, "channels": [{"lambda": 6.0, "center": 0.0,
                                                          "profile": TABLE5}]}))
        assert main(["weyl", "--config", str(path), "--eps", "0.1,0.05,0.02",
                     "--mu=-0.5", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        want = [(2.0**23, 2**25, 0.9999999431048102, 0.8376427783428384),
                (2.0**32, 2**49, 0.9999999431048103, 0.6020392579846615),
                (2.0**50, 2**82, 0.9999999431048103, 0.3853047793379151)]
        for row, (k, n_k, norm, residual) in zip(rows, want, strict=True):
            assert (row["k"], row["n_k"]) == (k, n_k)
            assert abs(row["norm"] - norm) <= 1e-12 * norm
            assert abs(row["residual"] - residual) <= 1e-12 * residual

    @pytest.mark.parametrize("profile", [SUPER["channels"][0]["profile"], SKEWED5],
                             ids=["cos2", "skewed_table"])
    def test_weyl_rows_agree_with_the_truncated_line(self, tmp_path, capsys, monkeypatch,
                                                     profile):
        # the ground state on the support chain against the line truncated at
        # |x| = 12 with 4001 Dirichlet nodes: the same (k, n_k), and the
        # residual and the norm within 1e-5
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**SUPER, "channels": [
            {"lambda": 5.0, "center": 0.0, "profile": profile}]}))
        args = ["weyl", "--config", str(path), "--eps", "0.1,0.05,0.02", "--format", "json"]
        assert main(args) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        monkeypatch.setattr(cli, "ground_state", lambda spec: truncated_line_ground_state(
            spec, 12.0, 4001))
        assert main(args) == 0
        want = json.loads(capsys.readouterr().out)["rows"]
        for row, ref in zip(rows, want, strict=True):
            assert (row["k"], row["n_k"]) == (ref["k"], ref["n_k"])
            for key in ("residual", "norm"):
                assert abs(row[key] - ref[key]) <= 1e-5 * ref[key], key

    def test_negative_threshold_in_critical_band(self, tmp_path, capsys):
        # lambda just above lambda_crit: t_V = -1.5e-7 is "critical" at the
        # default tol, and there is no finite lower bound
        p = tmp_path / "band.json"
        p.write_text(json.dumps({**SINGLE, "channels": [{
            "lambda": 2.8663043553582006 * (1.0 + 1e-7), "center": 0.0,
            "profile": {"family": "cos2", "a": 1.0, "amplitude": 1.0}}]}))
        assert main(["bound", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("computation failed: t_V = -1.5")
        assert main(["classify", "--config", str(p)]) == 0
        cls = json.loads(capsys.readouterr().out)
        assert cls["verdict"] == "critical" and -1e-6 < cls["t_V"] < 0.0
        assert "global_lower_bound" not in cls

    def test_import_leaves_out_scipy_interpolate(self, tmp_path):
        # a fresh process with scipy blocked: a table profile uses the
        # package's own PCHIP
        table = tmp_path / "table.json"
        table.write_text(json.dumps({**SINGLE, "channels": [{
            "lambda": 2.0, "center": 0.0, "profile": TABLE5}]}))
        run_with_scipy_blocked([["eig1d", "--config", str(table)]], tmp_path)

    def test_import_leaves_out_scipy_sparse(self, single_cfg, tmp_path):
        # a fresh process with scipy blocked: the matrix export is written
        # from the block form, so `eig2d --export-matrix` needs numpy alone
        export = tmp_path / "h.coo"
        run_with_scipy_blocked([["eig2d", "--config", single_cfg, "--y-half", "3",
                                 "--export-matrix", str(export)]], tmp_path)
        assert export.read_text().startswith("0 0 ")

    def test_one_d_commands_leave_out_scipy_linalg(self, single_cfg, super_cfg, tmp_path):
        # a fresh process with scipy blocked: on the line, thresholds,
        # couplings and the weyl ground state are Sturm counts in pure Python
        run_with_scipy_blocked([["critical", "--config", single_cfg],
                                ["tune", "--config", single_cfg, "--target", "-1"],
                                ["eig1d", "--config", super_cfg],
                                ["classify", "--config", single_cfg],
                                ["bound", "--config", single_cfg],
                                ["weyl", "--config", super_cfg, "--eps", "0.1"]], tmp_path)

    def test_two_d_and_interval_commands_leave_out_scipy(self, single_cfg, super_cfg,
                                                         tmp_path):
        # a fresh process with scipy blocked: the 2D solve is a block LDL^T
        # factor and Lanczos on numpy, and interval thresholds are Sturm
        # counts on the support chain, cyclic for the periodic wrap
        periodic = tmp_path / "periodic.json"
        periodic.write_text(json.dumps({**SINGLE, "x_domain": {
            "type": "interval", "c": 1.5, "bc": "periodic"}}))
        dirichlet = tmp_path / "dirichlet.json"
        dirichlet.write_text(json.dumps({**SINGLE, "x_domain": {
            "type": "interval", "c": 1.5, "bc": "dirichlet"}}))
        run_with_scipy_blocked([["scan", "--config", single_cfg, "--ladder", "2,3,4"],
                                ["eig2d", "--config", super_cfg, "--y-half", "3", "--k", "2"],
                                ["scan", "--config", str(periodic), "--ladder", "2,3,4"],
                                ["eig2d", "--config", str(periodic), "--y-half", "3"],
                                ["eig1d", "--config", str(periodic)],
                                ["classify", "--config", str(periodic)],
                                ["bound", "--config", str(dirichlet)]], tmp_path)

    @pytest.mark.parametrize("flag", ["--output", "--export-matrix"])
    def test_unwritable_path_is_2(self, single_cfg, tmp_path, flag):
        # a fresh process: a missing parent directory and a directory are
        # configuration errors, reported without a traceback
        for path in (tmp_path / "missing" / "out", tmp_path):
            args = (["eig2d", "--config", single_cfg, "--y-half", "2", flag, str(path)]
                    if flag == "--export-matrix"
                    else ["bound", "--config", single_cfg, flag, str(path)])
            proc = subprocess.run([sys.executable, "-m", "smilansky_lab.cli", *args],
                                  env=env_with_src(), capture_output=True, text=True,
                                  timeout=60)
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr.startswith(f"configuration error: cannot write {path}: ")
            assert "Traceback" not in proc.stderr

    def test_empty_export_path_is_2(self, single_cfg, capsys):
        # it exported nothing, exit 0; now the path is written as given
        assert main(["eig2d", "--config", single_cfg, "--y-half", "2",
                     "--export-matrix", ""]) == 2
        out, err = capsys.readouterr()
        assert not out and err.startswith("configuration error: cannot write : ")

    def test_empty_output_path_is_2(self, single_cfg, capsys):
        # `--output ""` wrote to stdout with exit 0
        assert main(["bound", "--config", single_cfg, "--output", ""]) == 2
        out, err = capsys.readouterr()
        assert not out and err.startswith("configuration error: cannot write : ")

    def test_unwritable_export_fails_before_the_solve(self, single_cfg, tmp_path,
                                                      monkeypatch, capsys):
        # the matrix is exported right after assembly, so an unwritable path
        # exits 2 without a 2D solve
        from smilansky_lab import grid2d

        def no_solve(*args, **kwargs):
            raise AssertionError("the 2D solve ran")

        monkeypatch.setattr(grid2d, "lowest_eigenvalues", no_solve)
        assert main(["eig2d", "--config", single_cfg, "--y-half", "2",
                     "--export-matrix", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: cannot write {tmp_path}: ")

    @pytest.mark.parametrize("k", ["0", "21"])
    def test_refused_eigenvalue_count_writes_no_export(self, single_cfg, tmp_path, capsys, k):
        # the 1.16 MB matrix was written, and then the count refused
        export = tmp_path / "h.coo"
        assert main(["eig2d", "--config", single_cfg, "--k", k,
                     "--export-matrix", str(export)]) == 2
        out, err = capsys.readouterr()
        assert not out and err == ("configuration error: eigenvalue count must be "
                                   "between 1 and 20\n")
        assert not export.exists()

    def test_header_seed_is_the_solver_default(self):
        # `eig2d` and `scan` pass no seed: the header's is the start vector's
        from smilansky_lab.eigs import shift_invert_lanczos

        assert cli._SEED == inspect.signature(shift_invert_lanczos).parameters["seed"].default

    @pytest.mark.parametrize("command", ["critical", "tune"])
    def test_coupling_on_interval_domain_is_2(self, tmp_path, capsys, command):
        p = tmp_path / "interval.json"
        p.write_text(json.dumps({**SINGLE, "x_domain": {"type": "interval", "c": 1.0,
                                                        "bc": "dirichlet"}}))
        extra = ["--target", "-1"] if command == "tune" else []
        assert main([command, "--config", str(p), *extra]) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err
        assert "the x-domain is the interval (-1.0, 1.0) with dirichlet ends" in err

    @pytest.mark.parametrize("args", [["eig1d"], ["classify"], ["eig2d"],
                                      ["scan", "--ladder", "4,8,16"]], ids=lambda a: a[0])
    def test_huge_interval_fails_before_any_grid(self, tmp_path, capsys, monkeypatch,
                                                 args):
        # c = 1e7: a 1D threshold takes the support chain and the closed-form
        # end terms of the rest, and agrees with the line's; the 2D commands
        # would need billions of nodes, which is checked before any grid is
        # built
        from smilansky_lab import grid2d

        def heavy(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(grid2d, "graded_x_nodes", heavy)
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({**SINGLE, "x_domain": {"type": "interval", "c": 1e7,
                                                        "bc": "periodic"}}))
        code = main([args[0], "--config", str(p), *args[1:]])
        out, err = capsys.readouterr()
        if args[0] in ("eig1d", "classify"):
            assert code == 0, err
            payload = json.loads(out)
            got = (payload["channels"][0]["threshold"] if args[0] == "eig1d"
                   else payload["t_V"])
            line = threshold(ComparisonSpec(1.0, 2.0, PotentialProfile("cos2", 1.0, 1.0)))
            assert abs(got - line) <= 2 * ResolutionPolicy().rich_tol
        else:
            assert code == 2
            assert err.startswith("configuration error: ")
            assert "(-10000000.0, 10000000.0) needs" in err and "nodes" in err

    @pytest.mark.parametrize("c", [1e306, 1.7e308])
    def test_interval_beyond_float_node_counts_is_2(self, tmp_path, c):
        # 4 x 240 c grid nodes overflow float64: a fresh process exits 2 with
        # one line for each command that takes a 1D threshold on the
        # interval, and no traceback (it was a raw OverflowError); classify
        # and bound take the line's, which c does not enter
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({**SINGLE, "x_domain": {"type": "interval", "c": c,
                                                        "bc": "periodic"}}))
        for args in (["eig1d"], ["scan", "--ladder", "4,8,16"]):
            proc = subprocess.run(
                [sys.executable, "-m", "smilansky_lab.cli", args[0], "--config", str(p),
                 *args[1:]], env=env_with_src(), capture_output=True, text=True)
            assert proc.returncode == 2, (args, proc.stderr)
            assert proc.stderr.startswith("configuration error: the interval "), proc.stderr
            assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("a", [1e7, 1e307, 1e-100, 1e-300])
    def test_huge_channel_half_width_is_2(self, tmp_path, a):
        # the finest support chain would pass NODE_CAP: about 1e10 nodes at
        # a = 1e7, and at 1e307 the step count overflowed (a raw
        # OverflowError); at a = 1e-100 and 1e-300 its 1/h^4 overflowed (a
        # raw OverflowError too).  A fresh process, whose support chains
        # raise if built, exits 2 with one line for each command that takes
        # the 1D chain
        cfg = json.loads(json.dumps(SUPER))
        cfg["channels"][0]["profile"]["a"] = a
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(cfg))
        script = ("import sys\n"
                  "from smilansky_lab import cli, oned\n"
                  "def built(*args):\n"
                  "    raise AssertionError('a support chain was built')\n"
                  "assert callable(oned._chain)\n"
                  "oned._chain = built\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        for args in (["eig1d"], ["classify"], ["bound"], ["critical"],
                     ["weyl", "--eps", "0.1"]):
            proc = subprocess.run(
                [sys.executable, "-c", script, args[0], "--config", str(p), *args[1:]],
                env=env_with_src(), capture_output=True, text=True)
            assert proc.returncode == 2, (args, proc.stderr)
            assert proc.stderr.startswith("configuration error: the channel support "), \
                proc.stderr
            assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1

    def test_depth_float64_cannot_hold_is_2(self, tmp_path):
        # omega^2 + lambda sup V >= 2^1020: classify printed t_V = NaN with
        # the verdict "critical", eig1d NaN, bound -Infinity, scan a raw
        # LinAlgError traceback, and the table profile classified
        # "subcritical"; a fresh process exits 2 with one line for each
        def channel(lam, profile):
            return {**SINGLE, "channels": [{"lambda": lam, "center": 0.0,
                                            "profile": profile}]}
        cos2 = {"family": "cos2", "a": 1.0}
        runs = [(channel(2.0, {**cos2, "amplitude": 1e308}), args)
                for args in (["eig1d"], ["classify"], ["bound"],
                             ["scan", "--ladder", "4,8,16"])]
        runs += [(channel(1e154, {**cos2, "amplitude": 1e154}), ["classify"]),
                 (channel(2.0, {"family": "table", "a": 1.0, "amplitude": 1.0,
                                "table": [[-1, 0], [0, 1e308], [1, 0]]}), ["classify"])]
        p = tmp_path / "deep.json"
        for cfg, args in runs:
            p.write_text(json.dumps(cfg))
            proc = subprocess.run(
                [sys.executable, "-m", "smilansky_lab.cli", args[0], "--config", str(p),
                 *args[1:]], env=env_with_src(), capture_output=True, text=True)
            assert proc.returncode == 2, (args, proc.stderr)
            assert proc.stderr.startswith("configuration error: channel centered at 0.0: "
                                          "omega^2 + lambda sup V = "), proc.stderr
            assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1

    def test_deepest_channels_classify_and_scan(self, tmp_path, capsys):
        # lambda sup V = 1e300 still fits float64 in 1D; at lambda = 1e20
        # the floor potential_min - 1 rounded to potential_min, and scan
        # exited 1 with "the floor is not below the spectrum"
        p = tmp_path / "deep.json"
        p.write_text(json.dumps({**SINGLE, "channels": [{
            "lambda": 1e150, "center": 0.0,
            "profile": {"family": "cos2", "a": 1.0, "amplitude": 1e150}}]}))
        assert main(["classify", "--config", str(p)]) == 0
        cls = json.loads(capsys.readouterr().out)
        assert cls["verdict"] == "supercritical"
        assert abs(cls["t_V"] + 1e300) <= 1e-9 * 1e300
        # but past the 2D depth limit: exit 2 before the solve, not
        # "residuals": [Infinity]
        assert main(["eig2d", "--config", str(p)]) == 2
        assert "2D depth limit" in capsys.readouterr().err
        p.write_text(json.dumps({**SINGLE, "channels": [{
            "lambda": 1e20, "center": 0.0,
            "profile": {"family": "cos2", "a": 1.0, "amplitude": 1.0}}]}))
        assert main(["scan", "--config", str(p), "--ladder", "4,8,16"]) == 0
        assert capsys.readouterr().out.rstrip().endswith(",supercritical")

    @pytest.mark.parametrize("depth, code", [(1e75, 0), (1e80, 2)])
    def test_two_d_depth_limit(self, tmp_path, capsys, depth, code):
        # ||H||_inf >= 2^512 is refused before the solve; at 1e80 eig2d
        # printed an overflow RuntimeWarning and exited 1 with "residual
        # norms [inf]", and scan exited 1 with a false Rayleigh-bound failure
        p = tmp_path / "deep.json"
        p.write_text(json.dumps({**SINGLE, "channels": [{
            "lambda": depth, "center": 0.0,
            "profile": {"family": "cos2", "a": 1.0, "amplitude": depth}}]}))
        for args in (["eig2d"], ["scan", "--ladder", "4,8,16"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([args[0], "--config", str(p), *args[1:]]) == code, args
            out, err = capsys.readouterr()
            if code == 2:
                assert not out and err.count("\n") == 1
                assert err.startswith("configuration error: ||H||_inf = ")
                assert "not below the 2D depth limit 2^512" in err
            else:
                assert out and not err

    def test_scan_meets_the_depth_limit_before_any_solve(self, tmp_path, capsys,
                                                         monkeypatch):
        # ||H||_inf grows with Y on the shared x-grid: at 1.4e76 the scan
        # solved Y = 4 and 8 and then refused Y = 16 (||H||_inf = 4.97e154);
        # it now refuses before any block factor, while eig2d at Y = 8 solves
        from smilansky_lab import eigs

        p = tmp_path / "deep.json"
        p.write_text(json.dumps({**SINGLE, "channels": [{
            "lambda": 1.4e76, "center": 0.0,
            "profile": {"family": "cos2", "a": 1.0, "amplitude": 1.4e76}}]}))
        factors = []
        real = eigs._block_ldlt
        monkeypatch.setattr(eigs, "_block_ldlt",
                            lambda *args: factors.append(args) or real(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scan", "--config", str(p), "--ladder", "4,8,16"]) == 2
            out, err = capsys.readouterr()
            assert not out and err.count("\n") == 1 and not factors
            assert err.startswith("configuration error: ||H||_inf = 4.96547e+154 ")
            assert "not below the 2D depth limit 2^512" in err
            assert main(["eig2d", "--config", str(p), "--y-half", "8"]) == 0
        assert factors and capsys.readouterr().out

    def test_eig2d_on_a_channel_wider_than_the_truncation(self, tmp_path, capsys):
        # the x-spacing floor a/(4Y) = 0.3125 passes the cap 0.25, which
        # graded_x_nodes refused; eig2d now meshes at the cap, and agrees
        # with the scan's Y = 8 rung (floor 10/64) to its mesh error
        p = tmp_path / "wide.json"
        p.write_text(json.dumps({**SINGLE, "channels": [{
            "lambda": 0.02, "center": 0.0,
            "profile": {"family": "cos2", "a": 10.0, "amplitude": 1.0}}]}))
        assert main(["eig2d", "--config", str(p)]) == 0
        (lam0,) = json.loads(capsys.readouterr().out)["eigenvalues"]
        assert main(["scan", "--config", str(p), "--ladder", "4,8,16",
                     "--format", "json"]) == 0
        rung = json.loads(capsys.readouterr().out)["rows"][1]
        assert rung["Y"] == 8.0 and abs(lam0 - rung["lambda0"]) < 5e-6

    @pytest.mark.parametrize("a, lam", [(1e-8, 2.0), (5e-75, 2.0), (0.01, 2e4)])
    def test_unresolved_threshold_bisection_is_1(self, tmp_path, capsys, a, lam):
        # eig1d printed -0.5 at a = 1e-8 and 5e-75, and exited 0 at
        # a = 0.01, lambda = 2e4, where the finest bracket is 1.16e-6 wide
        p = tmp_path / "narrow.json"
        p.write_text(json.dumps({**SINGLE, "channels": [{
            "lambda": lam, "center": 0.0,
            "profile": {"family": "cos2", "a": a, "amplitude": 1.0}}]}))
        assert main(["eig1d", "--config", str(p)]) == 1
        out, err = capsys.readouterr()
        assert not out and err.startswith("computation failed: the chain resolves the "
                                          "threshold only to ")

    def test_weak_coupling_classify_and_bound_are_0(self, tmp_path, capsys):
        p = tmp_path / "weak.json"
        p.write_text(json.dumps({**SINGLE, "channels": [{
            "lambda": 0.05, "center": 0.0,
            "profile": {"family": "cos2", "a": 1.0, "amplitude": 1.0}}]}))
        assert main(["classify", "--config", str(p)]) == 0
        cls = json.loads(capsys.readouterr().out)
        assert cls["verdict"] == "subcritical"
        assert abs(cls["t_V"] - (1.0 - 0.025**2)) <= 0.05**3
        assert main(["bound", "--config", str(p)]) == 0
        assert isinstance(json.loads(capsys.readouterr().out)["global_lower_bound"], float)

    def test_bc_on_line_domain_is_2(self, tmp_path, capsys):
        p = tmp_path / "line_neumann.json"
        p.write_text(json.dumps({**SINGLE, "x_domain": {"type": "line", "bc": "neumann"}}))
        assert main(["scan", "--config", str(p), "--ladder", "4,8,16"]) == 2
        assert "needs an interval x-domain" in capsys.readouterr().err

    def test_main_entry(self, single_cfg, capsys):
        assert main(["critical", "--config", single_cfg]) == 0
        out = capsys.readouterr().out
        assert "lambda_crit" in out

    def test_critical_loose_tol(self, single_cfg, capsys):
        # --tol bounds the threshold at the returned coupling; a loose one
        # changes nothing else
        assert main(["critical", "--config", single_cfg, "--tol", "1e-2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["params"] == {"tol": 0.01}
        assert abs(payload["lambda_crit"] - 2.8663043554) < 1e-9


class TestStartup:
    def test_config_hash_is_sha256(self):
        # the builtin SHA-256 digest that replaced hashlib's
        import hashlib

        for path in sorted((Path(__file__).parents[1] / "configs").glob("*.json")):
            assert cli._config_hash(str(path)) == \
                hashlib.sha256(path.read_bytes()).hexdigest()[:16]

    def test_help_and_usage_errors_are_unchanged(self, monkeypatch, capsys):
        # `main` adds flags to the requested command only; the top-level and
        # every command's --help, and the usage errors, match the snapshot
        # of `data/cli_help.json`, taken when it added every command's flags
        # (at 80 columns: argparse wraps to the terminal, and its layout
        # differs between Python versions)
        snapshot = json.loads((Path(__file__).parent / "data" / "cli_help.json").read_text())
        if sys.version_info[:2] != tuple(map(int, snapshot["python"].split("."))):
            pytest.skip(f"the snapshot is of Python {snapshot['python']}'s argparse")
        monkeypatch.setenv("COLUMNS", str(snapshot["columns"]))
        for case in snapshot["cases"]:
            with pytest.raises(SystemExit) as exc:
                main(case["args"])
            out, err = capsys.readouterr()
            assert (exc.value.code, out, err) == (case["code"], case["stdout"],
                                                  case["stderr"]), case["args"]


CONFIGS = Path(__file__).parents[1] / "configs"
# the commands of perfbench/run.py's workloads, on the shipped configs
BENCHMARK_COMMANDS = [
    ["critical", "--config", str(CONFIGS / "single_channel.json"), "--tol", "1e-2"],
    ["classify", "--config", str(CONFIGS / "two_channel.json")],
    ["bound", "--config", str(CONFIGS / "single_channel.json")],
    ["scan", "--config", str(CONFIGS / "single_channel.json"), "--ladder", "4,8,16",
     "--format", "json"],
    ["scan", "--config", str(CONFIGS / "supercritical.json"), "--ladder", "4,8,16",
     "--format", "json"],
    ["weyl", "--config", str(CONFIGS / "supercritical.json"), "--eps", "0.1,0.05,0.02",
     "--format", "json"],
]


README = CONFIGS.parent / "README.md"


def readme_commands():
    """The `smilansky-lab` lines of the README's sh blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("smilansky-lab ")]


def documented_run(line):
    """A README line's arguments, and the exit code of its `# exit N`
    comment, 0 without one."""
    command, _, comment = line.partition("#")
    code = re.fullmatch(r"\s*exit ([012])\s*", comment)
    assert code or not comment, f"unknown comment in {line!r}"
    return shlex.split(command)[1:], int(code.group(1)) if code else 0


class TestReadme:
    """The README's command lines run as written, from the repository root."""

    @pytest.mark.parametrize("line", readme_commands())
    def test_line_exits_as_documented(self, line, monkeypatch, capsys):
        args, code = documented_run(line)
        monkeypatch.chdir(README.parent)
        assert main(args) == code, capsys.readouterr().err

    def test_lines_cover_every_command_and_both_failures(self):
        runs = [documented_run(line) for line in readme_commands()]
        shipped = {f"configs/{path.name}" for path in CONFIGS.glob("*.json")}
        for args, _ in runs:
            assert args.count("--config") == 1, args
            assert args[args.index("--config") + 1] in shipped, args
        assert {args[0] for args, _ in runs} == set(cli._COMMANDS)
        assert {1, 2} <= {code for _, code in runs}


def run_process(args, env=None, **kwargs):
    return subprocess.run([sys.executable, "-m", "smilansky_lab.cli", *args],
                          env=env or env_with_src(), capture_output=True, timeout=120,
                          **kwargs)


class TestProcessExit:
    """`process_main` ends the process through os._exit after `main`."""

    @pytest.mark.parametrize("args", BENCHMARK_COMMANDS, ids=lambda a: a[0])
    def test_stdout_is_the_in_process_output(self, args, capsys):
        assert main(args) == 0
        proc = run_process(args)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == capsys.readouterr().out.encode()

    def test_failed_certificate_writes_its_rows_and_exits_1(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "supercritical.json").read_text())
        cfg["channels"][0]["lambda"] = 10.0
        path = tmp_path / "lambda10.json"
        path.write_text(json.dumps(cfg))
        args = ["weyl", "--config", str(path), "--eps", "0.1,0.05,0.02"]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out.count("\n0.") == 3 and "# all_pass=false" in out
        proc = run_process(args, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, out, err)

    def test_configuration_error_exits_2_with_one_line(self, tmp_path):
        proc = run_process(["bound", "--config", str(tmp_path / "missing.json")], text=True)
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr.startswith("configuration error: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_full_stdout_exits_2_with_one_line(self, unbuffered):
        # a raw OSError traceback and exit 1 unbuffered, and "Exception
        # ignored" at the interpreter's final flush with exit 120 buffered
        env = {k: v for k, v in env_with_src().items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "smilansky_lab.cli", "bound", "--config",
                 str(CONFIGS / "single_channel.json")],
                env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == ("configuration error: cannot write <stdout>: "
                               "No space left on device\n")

    def test_atexit_handlers_run_and_teardown_is_skipped(self, tmp_path):
        # a handler registered before the module runs as __main__ still runs,
        # and what it prints unflushed still reaches stdout; a __main__ global
        # that the interpreter's teardown would collect is never collected
        code = ("import atexit, runpy, sys\n"
                "class Teardown:\n"
                "    def __del__(self):\n"
                "        print('teardown', flush=True)\n"
                "kept = Teardown()\n"
                "atexit.register(print, 'handler')\n"
                f"sys.argv = ['smilansky-lab', 'bound', '--config', "
                f"{str(CONFIGS / 'single_channel.json')!r}]\n"
                "runpy.run_module('smilansky_lab.cli', run_name='__main__')\n")
        env = {k: v for k, v in env_with_src().items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        payload, handler = proc.stdout.splitlines()
        assert "global_lower_bound" in json.loads(payload) and handler == "handler"

    def test_script_target_is_the_main_block(self):
        tomllib = pytest.importorskip("tomllib")
        import ast

        root = Path(__file__).parents[1]
        scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
        tree = ast.parse(Path(cli.__file__).read_text())
        block, = [node for node in tree.body if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "__name__ == '__main__'"]
        call, = [node.value for node in block.body]
        assert ast.unparse(call) == "process_main()"
        assert scripts["smilansky-lab"] == "smilansky_lab.cli:process_main"
        assert callable(cli.process_main)
