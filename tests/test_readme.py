"""Smoke test: the README example runs to completion."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(capsys):
    # the example imports only names the package exports
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
