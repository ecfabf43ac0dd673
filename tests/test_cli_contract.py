"""The command-line contract, fuzzed over small argument vectors.

Whatever flags and values a command gets, it exits 0, 1, 2 or 3, prints at
most one line to stderr and never a traceback, and an exit of 0 or 1 leaves
its manifest and no CSV cell that reads as a number but is not finite (the
rule of the benchmark's output gate).  The flags come from each command's
own keys.  `--ell` is always given, and so is `--q` for `moments` and
`contractions`; any other key is given or not.  A value is valid for five
draws in six, so most examples reach the computation; the sixth draw picks
a degenerate or malformed value, the overflowing ones among them: q = 80
for the spectral commands (the bound overflows at ell = 2), q = 170 for the
sweeps and betas 0,0,1e160 (the variance overflows).  Three explicit
examples take each of these where it overflows.  One example in ten ends in
one more flag, which the command may not take, or may take but without its
value.  Every example stays cheap because the valid values are bounded:
  - ell: one to three multipoles out of 2, 4 and 6, increasing (one for
    `simulate`);
  - reps: 200 or 256 for the sweeps, 1 or 3 for `simulate`;
  - d: 2 or 3 for the sweeps, and 2, 3, 4, 45 or 171 for `moments` and
    `contractions`;
  - q: 2..4 for the sweeps and 2..6 for the spectral commands;
  - z and betas: a few small values.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphclt.cli import _COMMANDS, _SWEEPS, _keys, main

# key -> (valid values, degenerate or malformed values)
_VALUES = {
    "kind": (["h", "Z", "S"], ["h", "Z", "S", "x"]),
    "z": (["0", "1", "-1", "2.5"], ["nan", "40", "x"]),
    "betas": (["0,0,1", "0,1,0,1", "1,0,1", "0,0,0,0,1"], ["1", "0,0,inf", "0,0,1e160", "x"]),
    "seed": (["0", "1", "12345"], ["-1", "x"]),
    "threads": (["1", "2"], ["0", "x"]),
}
_SPECTRAL = {"d": (["2", "3", "4", "45", "171"], ["1", "400", "x"]),
             "q": ([str(q) for q in range(2, 7)], ["0", "1", "80", "x"])}
_SWEEP = {"d": (["2", "3"], ["1", "4", "x"]), "q": (["2", "3", "4"], ["0", "1", "170", "x"]),
          "replicas": (["200", "256"], ["0", "1", "5000001", "x"])}
_SIMULATE_REPS = {"replicas": (["1", "3"], ["0", "x"])}
_VALID_ELL = st.lists(st.sampled_from([2, 4, 6]), min_size=1, max_size=3, unique=True).map(
    lambda ls: ",".join(map(str, sorted(ls))))
_BAD_ELL = st.one_of(st.lists(st.integers(0, 8), min_size=1, max_size=3).map(lambda ls: ",".join(map(str, ls))),
                     st.sampled_from(["2..8", "8..2", "x", ""]))


@st.composite
def argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    values = dict(_VALUES, **(_SWEEP if command in _SWEEPS else _SPECTRAL))
    if command == "simulate":
        values.update(_SIMULATE_REPS)
    required = {"ell"} if command in _SWEEPS else {"ell", "q"}
    args = [command]
    for f in _keys(command):
        if f.name == "out_dir" or (f.name not in required and not draw(st.booleans())):
            continue
        flag, bad = f.metadata["flag"], draw(st.integers(0, 5)) == 0
        if f.name == "ell":
            valid = st.sampled_from(["2", "4", "6"]) if command == "simulate" else _VALID_ELL
            args += [flag, draw(_BAD_ELL if bad else valid)]
        else:
            args += [flag, draw(st.sampled_from(values[f.name][bad]))]
    if draw(st.integers(0, 9)) == 0:  # a flag the command does not take, or one without its value
        args += draw(st.sampled_from([["--q", "3"], ["--z", "1"], ["--ratio-tol", "0.5"], ["--z", "-1e300"],
                                      ["--seed"], ["--allow-odd"]]))
    return args


@settings(max_examples=80, deadline=None, derandomize=True)
@given(argv())
@example(["contractions", "--d", "2", "--q", "80", "--ell", "2,4"])
@example(["simulate", "--kind", "h", "--q", "170", "--ell", "2", "--reps", "1"])
@example(["clt", "--kind", "Z", "--betas", "0,0,1e160", "--ell", "4", "--reps", "200"])
def test_every_command_keeps_the_exit_contract(args):
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(args + ["--out-dir", out])
        assert code in (0, 1, 2, 3), args
        assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue(), args
        if code in (0, 1):
            assert list(Path(out).glob("*.manifest.json")), args
            assert not _nonfinite_cells(out), args


def _nonfinite_cells(out: str) -> list[str]:
    """The cells of the CSV files in `out` that read as floats but are not finite."""
    cells = (cell for path in Path(out).glob("*.csv") for line in path.read_text().splitlines()
             for cell in line.split(","))
    bad = []
    for cell in cells:
        try:
            value = float(cell)
        except ValueError:
            continue  # a text cell, such as a label or a blank bound
        if not math.isfinite(value):
            bad.append(cell)
    return bad


@pytest.mark.parametrize("args", [
    ["simulate", "--kind", "h", "--d", "2", "--q", "170", "--ell", "2", "--reps", "10", "--seed", "1"],
    ["moments", "--d", "2", "--q", "170", "--ell", "2"],
    ["simulate", "--kind", "Z", "--d", "2", "--betas", "0,0,1e160", "--ell", "4", "--reps", "10", "--seed", "1"],
    ["contractions", "--d", "2", "--q", "80", "--ell", "2"],
    ["clt", "--kind", "h", "--d", "2", "--q", "80", "--ell", "2,4,8", "--reps", "200", "--seed", "1"],
])
def test_an_overflowing_variance_or_bound_exits_3(args):
    # these once wrote inf or a normalized 0 and exited 0 or 1, two of them with an overflow warning
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(args + ["--out-dir", out])
    assert code == 3
    assert err.getvalue().count("\n") == 1 and "overflows a float" in err.getvalue()
    assert not caught, [str(w.message) for w in caught]
