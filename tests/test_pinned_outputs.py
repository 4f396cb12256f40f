r"""The pure-Python outputs, pinned bit for bit.

`eig1d` on interval copies of `configs/single_channel.json`, `weyl` on
`configs/supercritical.json` and interval copies of it, and `critical`,
`tune`, `classify` and `bound` on shipped configs run on the standard
library alone, so their floats are the same on every platform; the pins in
`data/pure_python_pins.json` are compared with ==, and each `weyl` pin also
holds the command's whole CSV stdout, compared byte for byte.

The `eig1d` pins are regenerated from the repository root with

    PYTHONPATH=src:tests python -c "import json, tempfile, pathlib, \
    test_pinned_outputs as t; pins = json.loads(t.PINS_PATH.read_text()); \
    [pin.update(threshold=t.run_cli(pathlib.Path(tempfile.mkdtemp()), \
    'single_channel.json', pin['x_domain'], ['eig1d'])['channels'][0] \
    ['threshold']) for pin in pins['eig1d']]; \
    t.PINS_PATH.write_text(json.dumps(pins, indent=1) + '\\n')"

and the `weyl` pins with

    PYTHONPATH=src:tests python -c "import json, tempfile, pathlib, \
    test_pinned_outputs as t; pins = json.loads(t.PINS_PATH.read_text()); \
    runs = [t.run_cli(pathlib.Path(tempfile.mkdtemp()), 'supercritical.json', \
    pin['x_domain'], ['weyl', '--eps', '0.1,0.05,0.02', '--mu', repr(pin['mu'])]) \
    for pin in pins['weyl']]; [pin.update(rows=run['rows'], \
    all_pass=run['all_pass']) for pin, run in zip(pins['weyl'], runs)]; \
    [pin.update(csv=t.weyl_csv(pathlib.Path(tempfile.mkdtemp()), pin)) \
    for pin in pins['weyl']]; \
    t.PINS_PATH.write_text(json.dumps(pins, indent=1) + '\\n')"

and the pins of the other commands with

    PYTHONPATH=src:tests python -c "import json, tempfile, pathlib, \
    test_pinned_outputs as t; pins = json.loads(t.PINS_PATH.read_text()); \
    [pin.update(output=t.run_command(pathlib.Path(tempfile.mkdtemp()), \
    pin['config'], pin['args'])) for pin in pins['commands']]; \
    t.PINS_PATH.write_text(json.dumps(pins, indent=1) + '\\n')"
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from smilansky_lab.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PINS_PATH = Path(__file__).parent / "data" / "pure_python_pins.json"
PINS = json.loads(PINS_PATH.read_text())


def run_cli(tmp_path, config: str, x_domain: dict, args: list[str]) -> dict:
    return run_command(tmp_path, {**json.loads((CONFIGS / config).read_text()),
                                  "x_domain": x_domain}, args)


def config_path(tmp_path, config) -> Path:
    """A shipped config (a file name), or a config given as a dict written
    to a file."""
    if isinstance(config, str):
        return CONFIGS / config
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return cfg


def run_command(tmp_path, config, args: list[str]) -> dict:
    """The JSON output, less its `meta` header, of one command on a shipped
    config (a file name) or on a config given as a dict."""
    cfg = config_path(tmp_path, config)
    out = tmp_path / "out.json"
    assert main([args[0], "--config", str(cfg), "--output", str(out), "--format", "json",
                 *args[1:]]) == 0
    got = json.loads(out.read_text())
    del got["meta"]
    return got


@pytest.mark.parametrize("pin", PINS["eig1d"], ids=lambda p: p["x_domain"]["bc"])
def test_eig1d_interval_thresholds(tmp_path, pin):
    got = run_cli(tmp_path, "single_channel.json", pin["x_domain"], ["eig1d"])
    assert got["channels"][0]["threshold"] == pin["threshold"]


@pytest.mark.parametrize("pin", PINS["weyl"],
                         ids=lambda p: f"{p['x_domain'].get('bc', 'line')}-mu{p['mu']:g}")
def test_weyl_rows(tmp_path, pin):
    got = run_cli(tmp_path, "supercritical.json", pin["x_domain"],
                  ["weyl", "--eps", "0.1,0.05,0.02", "--mu", repr(pin["mu"])])
    assert got["rows"] == pin["rows"]
    assert got["all_pass"] == pin["all_pass"]


def weyl_csv(tmp_path, pin: dict) -> str:
    """The stdout of `weyl` in its default CSV format on the pin's copy of
    `configs/supercritical.json`."""
    cfg = config_path(tmp_path, {**json.loads((CONFIGS / "supercritical.json").read_text()),
                                 "x_domain": pin["x_domain"]})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["weyl", "--config", str(cfg), "--eps", "0.1,0.05,0.02",
                     "--mu", repr(pin["mu"])]) == 0
    return out.getvalue()


@pytest.mark.parametrize("pin", PINS["weyl"],
                         ids=lambda p: f"{p['x_domain'].get('bc', 'line')}-mu{p['mu']:g}")
def test_weyl_csv(tmp_path, pin):
    assert weyl_csv(tmp_path, pin) == pin["csv"]


@pytest.mark.parametrize("pin", PINS["commands"],
                         ids=lambda p: " ".join([*p["args"], str(p["config"])]))
def test_command_outputs(tmp_path, pin):
    assert run_command(tmp_path, pin["config"], pin["args"]) == pin["output"]
