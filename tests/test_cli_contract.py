"""The command-line contract, fuzzed over small argument vectors.

Whatever flags and values a command gets, it exits 0, 1, 2 or 3, prints at
most one line to stderr and never a traceback, and an exit of 0 or 1 leaves
its manifest.  The flags come from each command's own keys.  `--ell` is always
given, and so is `--q` for `moments` and `contractions`; any other key is
given or not.  A value is valid for five draws in six, so most examples reach
the computation; the sixth draw picks a degenerate or malformed value.  One
example in ten ends in one more flag, which the command may not take, or may
take but not with a value argparse accepts.  Every example stays cheap
because the valid values are bounded:
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
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sphclt.cli import _COMMANDS, _SWEEPS, _keys, main

# key -> (valid values, degenerate or malformed values)
_VALUES = {
    "kind": (["h", "Z", "S"], ["h", "Z", "S"]),  # argparse holds the choices
    "z": (["0", "1", "-1", "2.5"], ["nan", "40", "x"]),
    "betas": (["0,0,1", "0,1,0,1", "1,0,1", "0,0,0,0,1"], ["1", "0,0,inf", "x"]),
    "seed": (["0", "1", "12345"], ["-1", "x"]),
    "threads": (["1", "2"], ["0", "x"]),
}
_SPECTRAL = {"d": (["2", "3", "4", "45", "171"], ["1", "400", "x"]),
             "q": ([str(q) for q in range(2, 7)], ["0", "1", "x"])}
_SWEEP = {"d": (["2", "3"], ["1", "4", "x"]), "q": (["2", "3", "4"], ["0", "1", "x"]),
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
        if f.name == "allow_odd":
            args.append(flag)
        elif f.name == "ell":
            valid = st.sampled_from(["2", "4", "6"]) if command == "simulate" else _VALID_ELL
            args += [flag, draw(_BAD_ELL if bad else valid)]
        else:
            args += [flag, draw(st.sampled_from(values[f.name][bad]))]
    if draw(st.integers(0, 9)) == 0:  # a flag the command does not take, or one without its value
        args += draw(st.sampled_from([["--q", "3"], ["--z", "1"], ["--ratio-tol", "0.5"], ["--z", "-1e300"],
                                      ["--seed"]]))
    return args


@settings(max_examples=80, deadline=None, derandomize=True)
@given(argv())
def test_every_command_keeps_the_exit_contract(args):
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(args + ["--out-dir", out])
            except SystemExit as exc:  # argparse rejected a flag
                code = exc.code
        assert code in (0, 1, 2, 3), args
        assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue(), args
        if code in (0, 1):
            assert list(Path(out).glob("*.manifest.json")), args
