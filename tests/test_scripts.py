import os
import subprocess
import sys
from pathlib import Path

import smilansky_lab

ROOT = Path(__file__).resolve().parents[1]


def test_weyl_certificate_script():
    # a fresh process: the script tunes E0 = -1 and prints one certificate
    env = dict(os.environ, PYTHONPATH=str(Path(smilansky_lab.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_weyl_certificate.py"),
         "--eps", "0.1", "--mu", "0"], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    checks = [line for line in proc.stdout.splitlines() if line.startswith("checks:")]
    assert len(checks) == 1, proc.stdout
    pairs = [item.split("=") for item in checks[0][len("checks:"):].split(",")]
    assert len(pairs) == 6 and all(value == "True" for _, value in pairs), checks[0]
