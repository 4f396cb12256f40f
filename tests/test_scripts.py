import os
import subprocess
import sys
from pathlib import Path

import pytest

import smilansky_lab

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    """Run a script of scripts/ in a fresh process, as a user does."""
    env = dict(os.environ, PYTHONPATH=str(Path(smilansky_lab.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_weyl_certificate_script():
    # the script tunes E0 = -1 and prints one certificate
    proc = run_script("run_weyl_certificate.py", "--eps", "0.1", "--mu", "0")
    assert proc.returncode == 0, proc.stderr
    checks = [line for line in proc.stdout.splitlines() if line.startswith("checks:")]
    assert len(checks) == 1, proc.stdout
    pairs = [item.split("=") for item in checks[0][len("checks:"):].split(",")]
    assert len(pairs) == 6 and all(value == "True" for _, value in pairs), checks[0]


@pytest.mark.parametrize("name, args", [
    pytest.param("run_critical.py", ["--tol", "1e-2"], id="run_critical"),
    pytest.param("run_bracketing.py", [], id="run_bracketing"),
    pytest.param("run_transition.py", ["--ladder", "4", "8", "16", "--outdir"],
                 id="run_transition"),
])
def test_script_runs(tmp_path, name, args):
    # run_transition.py writes its CSVs under --outdir
    if args[-1:] == ["--outdir"]:
        args = [*args, str(tmp_path)]
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
