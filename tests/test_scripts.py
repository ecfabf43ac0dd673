"""Smoke tests: the experiment scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import sphclt

ROOT = Path(__file__).resolve().parent.parent


def test_bound_tables_script_runs():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphclt.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "bound_tables.py"),
                          "--q", "2", "--ells", "16", "32"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert "fitted bound slope" in out.stdout
