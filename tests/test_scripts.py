"""The scripts under ``scripts/`` still run against the library."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_isola_sweep_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "isola_sweep.py"), "--eps", "0.06", "--eps", "0.08"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rows = [line.split() for line in lines[1:] if line.strip() and not line.startswith("growth fit:")]
    assert [float(r[0]) for r in rows] == [0.06, 0.08]
    assert sum(line.startswith("growth fit:") for line in lines) == 1
