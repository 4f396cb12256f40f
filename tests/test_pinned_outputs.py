r"""The pure-Python outputs, pinned bit for bit.

`eig1d` on interval copies of `configs/single_channel.json`, `weyl` on
`configs/supercritical.json` and interval copies of it, and `critical`,
`tune`, `classify` and `bound` on shipped configs run on the standard
library alone, so their floats are the same on every platform; the pins in
`data/pure_python_pins.json` are compared with ==.

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
    t.PINS_PATH.write_text(json.dumps(pins, indent=1) + '\\n')"

and the pins of the other commands with

    PYTHONPATH=src:tests python -c "import json, tempfile, pathlib, \
    test_pinned_outputs as t; pins = json.loads(t.PINS_PATH.read_text()); \
    [pin.update(output=t.run_command(pathlib.Path(tempfile.mkdtemp()), \
    pin['config'], pin['args'])) for pin in pins['commands']]; \
    t.PINS_PATH.write_text(json.dumps(pins, indent=1) + '\\n')"
"""

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


def run_command(tmp_path, config, args: list[str]) -> dict:
    """The JSON output, less its `meta` header, of one command on a shipped
    config (a file name) or on a config given as a dict."""
    if isinstance(config, str):
        cfg = CONFIGS / config
    else:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
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


@pytest.mark.parametrize("pin", PINS["commands"],
                         ids=lambda p: " ".join([*p["args"], str(p["config"])]))
def test_command_outputs(tmp_path, pin):
    assert run_command(tmp_path, pin["config"], pin["args"]) == pin["output"]
