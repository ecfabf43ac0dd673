"""Smoke tests: the experiment script and the README example run to completion."""

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
                          "--q", "2", "4", "--ells", "16", "32"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert "fitted bound slope" in out.stdout


def test_readme_library_example_runs(capsys):
    # the example imports only names the package exports
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
