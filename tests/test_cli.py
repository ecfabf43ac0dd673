"""CLI surface: parsing, config files, outputs, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from sphclt.cli import (
    _COMMANDS,
    MAX_REPLICAS,
    UsageError,
    _keys,
    build_config,
    main,
    parse_betas_spec,
    parse_ell_spec,
    read_config_file,
)
from sphclt.specfun import SphereDim, dim_harmonics


def run_cli(*args):
    return main(list(args))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------------
# parsing
# ------------------------------------------------------------------

def test_parse_ell_specs():
    assert parse_ell_spec("16,64,128") == (16, 64, 128)
    assert parse_ell_spec("256..2048") == (256, 512, 1024, 2048)
    with pytest.raises(UsageError):
        parse_ell_spec("8..2")


def test_parse_betas():
    assert parse_betas_spec("0,0,1.5") == (0.0, 0.0, 1.5)
    with pytest.raises(UsageError):
        parse_betas_spec("a,b")


def test_config_file_merge_and_rejection(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 2\nq = 3\nell = 4,8\n# comment\n")
    values = read_config_file(str(cfg), "moments")
    assert values == {"d": 2, "q": 3, "ell": (4, 8)}
    bad = tmp_path / "bad.cfg"
    bad.write_text("qq = 3\n")
    with pytest.raises(UsageError, match="unknown key"):
        read_config_file(str(bad), "moments")
    # odd multipoles need no opt-in, so the old switch is an unknown key
    bad.write_text("allow_odd = true\n")
    with pytest.raises(UsageError, match="unknown key 'allow_odd'"):
        read_config_file(str(bad), "clt")


@pytest.mark.parametrize("args, named", [
    (("moments", "--q", "3", "--ell", "8..2"), "'8..2'"),
    (("clt", "--kind", "Z", "--betas", "1,x", "--ell", "8"), "'1,x'"),
    (("moments", "--q", "3", "--ell", "8", "--config", "missing.cfg"), "missing.cfg"),
    (("moments", "--q", "3", "--ell", "10.."), "bad multipole range '10..'"),
    (("moments", "--q", "3", "--ell", "..8"), "bad multipole range '..8'"),
    (("moments", "--q", "3", "--ell", "4..x"), "bad multipole range '4..x'"),
    (("moments", "--q", "3", "--config", "run.cfg"), "bad multipole range '10..'"),
    (("moments", "--q", "x", "--ell", "8"), "--q: invalid literal for int()"),
    ((), "no command"),
    (("moment", "--q", "3", "--ell", "8"), "unknown command 'moment'"),
    (("clt", "--q", "3", "--ell", "8", "--rep", "5"), "unknown flag '--rep'"),  # no abbreviations
    (("clt", "--q", "3", "--ell", "8", "--seed"), "--seed expects a value"),
    (("clt", "--ell", "8", "--out-dir", "--q", "3"), "--out-dir expects a value"),
    (("moments", "--q", "3", "--ell", "8", "8"), "unexpected argument '8'"),
])
def test_bad_value_or_config_exits_2_with_one_line(tmp_path, capsys, monkeypatch, args, named):
    # a flag's text and a config line go through one parser per key, and bad
    # argv is a UsageError, so each is one line from sphclt, never a usage message
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("ell = 10..\n")
    argv = [*args, "--out-dir", str(tmp_path)] if args else []  # empty argv stays empty
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err and "usage:" not in err


def test_a_bad_choice_reads_the_same_from_a_flag_and_a_config_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = X\n")
    messages = []
    for source in (["--kind", "X"], ["--config", str(cfg)]):
        assert run_cli("clt", "--q", "3", "--ell", "8", *source, "--out-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        messages.append(err.rsplit(": ", 1)[-1])  # after the source: the flag or file:line: key
    assert messages[0] == messages[1] == "invalid choice 'X' (choose from h, Z, S)\n"


def test_flag_equals_value_and_the_last_flag_wins(tmp_path):
    assert run_cli("moments", "--q=2", "--ell", "4", "--ell=2,4", "--d", "4", "--d", "3",
                   "--out-dir", str(tmp_path)) == 0
    rows = read_rows(tmp_path / "moments_d3_q2.csv")
    assert [r["ell"] for r in rows] == ["2", "4"]
    # a value may begin with a single '-'
    assert run_cli("simulate", "--kind", "Z", "--betas", "-1,0,1", "--ell", "4", "--reps", "2",
                   "--seed", "1", "--out-dir", str(tmp_path)) == 0


def test_flags_win_over_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 3\nq = 2\nell = 4\n")
    code = run_cli("moments", "--config", str(cfg), "--q", "2", "--ell", "2,4",
                   "--out-dir", str(tmp_path))
    assert code == 0
    rows = read_rows(tmp_path / "moments_d3_q2.csv")
    assert [r["ell"] for r in rows] == ["2", "4"]


def test_settable_keys_per_command():
    # pinned, so that a new option has to edit this test
    sweep = ["z", "ell", "seed", "replicas", "out_dir", "threads"]
    assert {command: [f.name for f in _keys(command)] for command in _COMMANDS} == {
        "moments": ["d", "q", "ell", "out_dir", "threads"],
        "contractions": ["d", "q", "ell", "out_dir", "threads"],
        "simulate": ["kind", "d", "q", "betas", *sweep],
        "clt": ["kind", "d", "q", "betas", *sweep],
        "excursion": ["d", *sweep],
    }


_RUNNABLE = {"moments": ("--q", "3", "--ell", "8"), "simulate": ("--q", "3", "--ell", "8"),
             "clt": ("--q", "3", "--ell", "8"), "excursion": ("--z", "1", "--ell", "8")}


@pytest.mark.parametrize("command, flag", [("moments", "--ratio-tol"), ("moments", "--slope-tol"),
                                           ("clt", "--excursion-qmax"),
                                           ("excursion", "--excursion-qmax"), ("clt", "--allow-odd")])
def test_fixed_check_settings_are_not_flags(tmp_path, capsys, command, flag):
    # the check tolerances and the excursion chaos truncation are constants,
    # so all_passed means the same thing for every run; odd multipoles need
    # no switch
    assert run_cli(command, *_RUNNABLE[command], flag, "0.5", "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"unknown flag {flag!r}" in err


@pytest.mark.parametrize("command, line", [("moments", "ratio_tol = 0.5"),
                                           ("moments", "slope_tol = 0.5"),
                                           ("simulate", "excursion_q_max = 12"),
                                           ("excursion", "excursion_q_max = 12"),
                                           ("clt", "format_version = 2")])
def test_fixed_check_settings_are_not_config_keys(tmp_path, capsys, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert run_cli(command, *_RUNNABLE[command], "--config", str(cfg),
                   "--out-dir", str(tmp_path)) == 2
    assert "unknown key" in capsys.readouterr().err


# ------------------------------------------------------------------
# subcommands
# ------------------------------------------------------------------

def test_moments_q2_closed_form(tmp_path):
    code = run_cli("moments", "--d", "3", "--q", "2", "--ell", "4,8", "--out-dir", str(tmp_path))
    assert code == 0
    rows = read_rows(tmp_path / "moments_d3_q2.csv")
    dim = SphereDim(3)
    expect = dim.mu_d / (2 * dim.mu_dm1 * dim_harmonics(4, 3))
    assert float(rows[0]["moment"]) == pytest.approx(expect, rel=1e-12, abs=0)
    assert "err_est" not in rows[0]
    assert float(rows[0]["c_qd"]) == pytest.approx(math.pi / 4, rel=1e-12, abs=0)
    assert rows[0]["ratio"] == ""
    manifest = json.loads((tmp_path / "moments_d3_q2.manifest.json").read_text())
    assert manifest["all_passed"] is True
    assert manifest["config"]["ell"] == [4, 8]
    assert "threads" not in manifest["config"]


def test_moments_usage_error_exit_2(tmp_path):
    assert run_cli("moments", "--d", "2", "--q", "1", "--ell", "4", "--out-dir", str(tmp_path)) == 2


def test_moments_ratio_check(tmp_path):
    code = run_cli("moments", "--d", "2", "--q", "3", "--ell", "128,256",
                   "--out-dir", str(tmp_path))
    assert code == 0
    manifest = json.loads((tmp_path / "moments_d2_q3.manifest.json").read_text())
    names = [c["name"] for c in manifest["checks"]]
    assert "asymptotic_ratio_final" in names


def test_contractions_closed_form_check(tmp_path):
    code = run_cli("contractions", "--d", "2", "--q", "2", "--ell", "8", "--out-dir", str(tmp_path))
    assert code == 0
    rows = read_rows(tmp_path / "contractions_d2_q2.csv")
    dim = SphereDim(2)
    expect = dim.mu_d ** 4 / dim_harmonics(8, 2) ** 3
    assert float(rows[0]["K"]) == pytest.approx(expect, rel=1e-10, abs=0)


def test_contractions_odd_odd_blank_bounds(tmp_path):
    # h is a.s. zero at odd ell and odd q: the bound columns stay blank
    code = run_cli("contractions", "--d", "2", "--q", "3", "--ell", "5", "--out-dir", str(tmp_path))
    assert code == 0
    rows = read_rows(tmp_path / "contractions_d2_q3.csv")
    assert rows and all(r["bound_tv"] == r["bound_k"] == r["bound_w"] == "" for r in rows)
    assert [r["K"] for r in rows] == ["0.0", "0.0"]  # the exact parity zeros, not an underflow
    manifest = json.loads((tmp_path / "contractions_d2_q3.manifest.json").read_text())
    assert manifest["checks"] == []  # the variance is exactly 0: nothing to compare


def _fit(x, y):
    """(slope, standard error of the slope) of the least-squares line, by np.polyfit."""
    (slope, _), (rss,), *_ = np.polyfit(x, y, 1, full=True)
    return slope, math.sqrt(rss / (len(x) - 2) / np.sum((x - np.mean(x)) ** 2))


def test_contractions_bound_slope_matches_an_independent_fit(tmp_path):
    code = run_cli("contractions", "--d", "2", "--q", "3", "--ell", "8..256", "--out-dir", str(tmp_path))
    assert code == 0
    rows = [r for r in read_rows(tmp_path / "contractions_d2_q3.csv") if r["r"] == "1"]
    log_ell = np.log([float(r["ell"]) for r in rows])
    slope, stderr = _fit(log_ell, np.log([float(r["bound_k"]) for r in rows]))
    theory, _ = _fit(log_ell, np.log([float(r["rate_theoretical"]) for r in rows]))
    fit = json.loads((tmp_path / "contractions_d2_q3.manifest.json").read_text())["summary"]["bound_slope"]
    assert len(rows) == 6 and set(fit) == {"slope", "stderr", "theory_slope"}
    assert abs(fit["slope"] - slope) <= 1e-12 and abs(fit["stderr"] - stderr) <= 1e-12
    assert abs(fit["theory_slope"] - theory) <= 1e-12
    assert fit["slope"] == pytest.approx(-0.4921, abs=1e-4) and fit["theory_slope"] == pytest.approx(-0.5)


@pytest.mark.parametrize("ells, used", [("8,16", 2), ("7,8,16", 2), ("7,8,9,16,32", 3)])
def test_contractions_bound_slope_skips_odd_ell_at_odd_q(tmp_path, ells, used):
    # h is a.s. zero at odd ell and odd q: that ell has no bound and no point in the fit
    code = run_cli("contractions", "--d", "2", "--q", "3", "--ell", ells, "--out-dir", str(tmp_path))
    assert code == 0
    fit = json.loads((tmp_path / "contractions_d2_q3.manifest.json").read_text())["summary"]["bound_slope"]
    if used < 3:
        assert fit == {"skipped": f"need at least three multipoles with a positive finite bound, got {used}"}
        return
    rows = [r for r in read_rows(tmp_path / "contractions_d2_q3.csv") if r["r"] == "1" and r["bound_k"]]
    assert [r["ell"] for r in rows] == ["8", "16", "32"]
    slope, _ = _fit(np.log([float(r["ell"]) for r in rows]), np.log([float(r["bound_k"]) for r in rows]))
    assert abs(fit["slope"] - slope) <= 1e-12


@pytest.mark.parametrize("d, ell, expected", [(60, 400, 0), (60, 100, 0), (30, 400, 0), (20, 400, 0)])
def test_contractions_variance_spectral_check(tmp_path, d, ell, expected):
    # at q = 3 the check compares Var h = 6 mu_d^2 b_ell^(2) / n_ell with the
    # one Rogers-Dougall coefficient b_ell^(2) in closed form.  An FFT moment
    # once behind variance_h lost the weight near the equator at large d, and
    # these runs failed (at d = 60, ell = 400 its bound_k was negative)
    code = run_cli("contractions", "--d", str(d), "--q", "3", "--ell", str(ell), "--out-dir", str(tmp_path))
    assert code == expected
    manifest = json.loads((tmp_path / f"contractions_d{d}_q3.manifest.json").read_text())
    [check] = [c for c in manifest["checks"] if c["name"] == f"variance_spectral_ell{ell}"]
    assert check["passed"] is (expected == 0)
    rows = read_rows(tmp_path / f"contractions_d{d}_q3.csv")
    assert all(float(r["bound_k"]) > 0.0 for r in rows)


@pytest.mark.parametrize("q, ell, expected", [(4, 8192, 0), (5, 4096, 0), (5, 4098, 3)])
def test_contractions_cap_binds_below_the_top_power(tmp_path, capsys, q, ell, expected):
    # no run expands G^{q-1}: K at r = 1 comes from the variance, and the
    # check's b_ell^(q-1) is one row over G^{q-2}.  So q = 4 needs only the
    # O(ell) G^2 (G^3 at ell = 8192 would have degree 24576), and from q = 5
    # on DEGREE_CAP binds at (q-2)*ell <= 12288
    code = run_cli("contractions", "--d", "2", "--q", str(q), "--ell", str(ell), "--out-dir", str(tmp_path))
    err = capsys.readouterr().err
    assert code == expected
    if expected == 3:
        assert err.count("\n") == 1 and "12294 of G^3 exceeds cap DEGREE_CAP" in err
        return
    assert err == ""
    manifest = json.loads((tmp_path / f"contractions_d2_q{q}.manifest.json").read_text())
    assert {c["name"]: c["passed"] for c in manifest["checks"]} == {f"variance_spectral_ell{ell}": True}


def test_contractions_bound_fault_propagates(tmp_path, monkeypatch):
    import sphclt.cli as cli

    def broken(*args):
        raise RuntimeError("bound fault")
    monkeypatch.setattr(cli, "berry_esseen_bound", broken)
    with pytest.raises(RuntimeError, match="bound fault"):
        run_cli("contractions", "--d", "2", "--q", "3", "--ell", "8", "--out-dir", str(tmp_path))


def test_simulate_rows(tmp_path):
    code = run_cli("simulate", "--kind", "h", "--d", "2", "--q", "2", "--ell", "8",
                   "--reps", "6", "--seed", "3", "--out-dir", str(tmp_path))
    assert code == 0
    rows = read_rows(tmp_path / "simulate_h_d2_ell8.csv")
    assert len(rows) == 6
    assert rows[0]["q_or_kind"] == "h2"
    manifest = json.loads((tmp_path / "simulate_h_d2_ell8.manifest.json").read_text())
    assert manifest["config"]["seed"] == 3


def test_simulate_records_entropy_seed(tmp_path):
    code = run_cli("simulate", "--kind", "h", "--d", "2", "--q", "2", "--ell", "4",
                   "--reps", "3", "--out-dir", str(tmp_path))
    assert code == 0
    manifest = json.loads((tmp_path / "simulate_h_d2_ell4.manifest.json").read_text())
    assert isinstance(manifest["config"]["seed"], int)


def test_clt_outputs_and_checks(tmp_path):
    code = run_cli("clt", "--kind", "h", "--d", "2", "--q", "2", "--ell", "8,16",
                   "--reps", "250", "--seed", "5", "--out-dir", str(tmp_path))
    assert code == 0
    rows = read_rows(tmp_path / "clt_h_d2_q2.csv")
    assert len(rows) == 2
    assert float(rows[1]["empirical_dK"]) < 0.5
    dat = (tmp_path / "clt_h_d2_q2_logdk.dat").read_text().strip().splitlines()
    assert len(dat) == 2 and len(dat[0].split()) == 2
    manifest = json.loads((tmp_path / "clt_h_d2_q2.manifest.json").read_text())
    assert all(c["passed"] for c in manifest["checks"])


def test_excursion_checks(tmp_path):
    code = run_cli("excursion", "--d", "2", "--z", "1.0", "--ell", "16",
                   "--reps", "300", "--seed", "7", "--out-dir", str(tmp_path))
    assert code == 0
    manifest = json.loads((tmp_path / "excursion_d2_z1.manifest.json").read_text())
    names = {c["name"] for c in manifest["checks"]}
    assert names == {"excursion_mean_ell16", "excursion_variance_ell16"}


def test_clt_kind_S_runs_excursion_checks(tmp_path):
    # at z = 20 the excursion set is the whole sphere: Var ~ 1e-162, dK = 1
    code = run_cli("clt", "--kind", "S", "--z", "20", "--ell", "16,32,64", "--reps", "200",
                   "--seed", "1", "--out-dir", str(tmp_path))
    assert code == 1
    manifest = json.loads((tmp_path / "clt_S_d2_z20.manifest.json").read_text())
    failed = {c["name"] for c in manifest["checks"] if not c["passed"]}
    assert {"excursion_mean_ell16", "excursion_variance_ell16"} <= failed


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, z, reps", [("simulate", "50", "3"), ("clt", "40", "200"),
                                             ("simulate", "1.2e154", "3"), ("simulate", "1e300", "3")])
def test_excursion_zero_variance_exits_2(tmp_path, capsys, command, z, reps):
    # exp(-z^2 / 2) underflows beyond |z| ~ 38, so the variance is 0 and the
    # excursion area cannot be normalized; from |z| ~ 1e154 z^2 overflows,
    # which must end in the same line and raise no numpy warning on the way
    code = run_cli(command, "--kind", "S", "--z", z, "--ell", "16", "--reps", reps,
                   "--seed", "1", "--out-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "variance" in err
    assert not list(tmp_path.glob("*.csv"))


def test_grid_failing_its_orthogonality_check_exits_3(tmp_path, capsys, monkeypatch):
    # a missed tolerance is a numerical fault, not a failed check of a claim
    import sphclt.simulate as simulate

    rule = simulate.gauss_jacobi_rule
    monkeypatch.setattr(simulate, "gauss_jacobi_rule", lambda n, d: (rule(n, d)[0] + 1e-6, rule(n, d)[1]))
    code = run_cli("simulate", "--kind", "h", "--d", "2", "--q", "2", "--ell", "8", "--reps", "3",
                   "--seed", "1", "--out-dir", str(tmp_path))
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "orthogonality check failed" in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_nonfinite_z_is_a_usage_error(tmp_path, capsys, source):
    args = ["excursion", "--ell", "16", "--reps", "200", "--seed", "1", "--out-dir", str(tmp_path)]
    if source == "flag":
        args += ["--z", "nan"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("z = inf\n")
        args += ["--config", str(cfg)]
    assert run_cli(*args) == 2
    assert "z must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command, source", [("simulate", "flag"), ("simulate", "config"),
                                             ("clt", "flag")])
def test_nonfinite_betas_are_usage_errors(tmp_path, capsys, command, source):
    args = [command, "--kind", "Z", "--ell", "8", "--reps", "200", "--seed", "1",
            "--out-dir", str(tmp_path)]
    if source == "flag":
        args += ["--betas", "0,0,nan"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("betas = 0,0,inf\n")
        args += ["--config", str(cfg)]
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "betas must be finite" in err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("d, mu", [(2, 4 * math.pi), (3, 2 * math.pi ** 2)], ids=["d2", "d3"])
def test_simulate_h0_reads_the_sphere_volume(tmp_path, d, mu):
    # h_{ell;0} = mu_d for every field: raw values only, nothing to normalize by
    assert run_cli("simulate", "--kind", "h", "--q", "0", "--d", str(d), "--ell", "8",
                   "--reps", "3", "--seed", "1", "--out-dir", str(tmp_path)) == 0
    rows = read_rows(tmp_path / f"simulate_h_d{d}_ell8.csv")
    assert len(rows) == 3
    for row in rows:
        assert row["q_or_kind"] == "h0" and row["normalized"] == ""
        assert float(row["raw"]) == pytest.approx(mu, rel=1e-12, abs=0)


def test_constant_kind_Z_exits_2_naming_zero_variance(tmp_path, capsys):
    code = run_cli("simulate", "--kind", "Z", "--betas", "2", "--ell", "8", "--reps", "3",
                   "--seed", "1", "--out-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "zero variance" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key, flag, value", [("replicas", "--reps", "-5"),
                                              ("threads", "--threads", "-3")])
def test_degenerate_counts_are_usage_errors(tmp_path, capsys, source, key, flag, value):
    args = ["simulate", "--kind", "h", "--q", "2", "--ell", "8", "--seed", "1",
            "--out-dir", str(tmp_path)]
    if source == "flag":
        args += [flag, value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        args += ["--config", str(cfg)]
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be >= 1" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("source, value", [("flag", "-1"), ("flag", str(2 ** 128)), ("config", "-5")])
def test_seed_out_of_range_is_a_usage_error_naming_the_seed(tmp_path, capsys, source, value):
    # numpy accepts 0 <= seed < 2**128; the check runs before any grid is built
    args = ["excursion", "--z", "1", "--ell", "8", "--reps", "200", "--out-dir", str(tmp_path)]
    if source == "flag":
        args += ["--seed", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = {value}\n")
        args += ["--config", str(cfg)]
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"seed must satisfy 0 <= seed < 2**128, got {value}" in err
    assert not list(tmp_path.glob("*.csv"))


def test_moments_log_slope_row(tmp_path):
    code = run_cli("moments", "--d", "2", "--q", "4", "--ell", "256..4096",
                   "--out-dir", str(tmp_path))
    assert code == 0
    rows = read_rows(tmp_path / "moments_d2_q4.csv")
    assert rows[-1]["kind"] == "log_slope"
    assert float(rows[-1]["moment"]) == pytest.approx(576.0, rel=0.10, abs=0)
    assert all(r["c_qd"] == "" for r in rows)  # (2, 4) has no limiting constant
    manifest = json.loads((tmp_path / "moments_d2_q4.manifest.json").read_text())
    assert any(c["name"] == "log_divergence_slope" and c["passed"] for c in manifest["checks"])


def test_cli_entry_point_help():
    out = subprocess.run([sys.executable, "-m", "sphclt.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    for sub in ("moments", "contractions", "simulate", "clt", "excursion"):
        assert sub in out.stdout
    sub_help = subprocess.run([sys.executable, "-m", "sphclt.cli", "clt", "--help"],
                              capture_output=True, text=True)
    for flag in ("--kind", "--d", "--q", "--betas", "--z", "--ell", "--reps", "--seed",
                 "--threads", "--config", "--out-dir"):
        assert flag in sub_help.stdout


def test_simulate_manifest_grid_descriptor(tmp_path):
    run_cli("simulate", "--kind", "S", "--d", "2", "--z", "0.5", "--ell", "8",
            "--reps", "3", "--seed", "1", "--out-dir", str(tmp_path))
    manifest = json.loads((tmp_path / "simulate_S_d2_ell8.manifest.json").read_text())
    grid = manifest["summary"]["grid"]
    assert grid["weight_sum"] == pytest.approx(4 * math.pi, rel=1e-12, abs=0)
    assert grid["exact_degree"] >= 32
    assert grid["folded"] is False and grid["n_nodes"] == 33 * 17


def test_manifests_describe_the_rule_they_integrated_on(tmp_path):
    # h at even ell integrates on the folded rule: the colatitude nodes t >= 0
    run_cli("simulate", "--kind", "h", "--q", "3", "--d", "2", "--ell", "8",
            "--reps", "3", "--seed", "1", "--out-dir", str(tmp_path))
    grid = json.loads((tmp_path / "simulate_h_d2_ell8.manifest.json").read_text())["summary"]["grid"]
    assert grid == {"d": 2, "n_nodes": 25 * 7, "exact_degree": 24, "folded": True,
                    "weight_sum": pytest.approx(4 * math.pi, rel=1e-12, abs=0)}
    # odd ell keeps the full rule
    run_cli("clt", "--kind", "h", "--q", "2", "--d", "3", "--ell", "3,4",
            "--reps", "200", "--seed", "1", "--out-dir", str(tmp_path))
    grids = json.loads((tmp_path / "clt_h_d3_q2.manifest.json").read_text())["summary"]["grids"]
    assert [(g["ell"], g["n_nodes"], g["exact_degree"], g["folded"]) for g in grids] == [
        (3, 7 * 4 * 4, 6, False), (4, 9 * 5 * 3, 8, True)]
    run_cli("excursion", "--d", "2", "--z", "1", "--ell", "3,4",
            "--reps", "200", "--seed", "1", "--out-dir", str(tmp_path))
    grids = json.loads((tmp_path / "excursion_d2_z1.manifest.json").read_text())["summary"]["grids"]
    assert [(g["ell"], g["n_nodes"], g["folded"]) for g in grids] == [(3, 13 * 7, False), (4, 17 * 9, False)]


@pytest.mark.parametrize("args, base", [
    (("moments", "--q", "3", "--ell", "8"), "moments_d2_q3"),
    (("contractions", "--q", "3", "--ell", "8"), "contractions_d2_q3"),
    (("simulate", "--q", "3", "--ell", "8", "--reps", "2", "--seed", "1"), "simulate_h_d2_ell8"),
    (("clt", "--q", "2", "--ell", "8", "--reps", "200", "--seed", "1"), "clt_h_d2_q2"),
    (("excursion", "--z", "1", "--ell", "8", "--reps", "200", "--seed", "1"), "excursion_d2_z1"),
])
def test_manifest_echoes_the_keys_its_command_takes(tmp_path, args, base):
    run_cli(*args, "--out-dir", str(tmp_path))
    config = json.loads((tmp_path / f"{base}.manifest.json").read_text())["config"]
    assert set(config) == {"command"} | {f.name for f in _keys(args[0])} - {"threads"}


@pytest.mark.parametrize("args, code, err", [
    # ell = 3 integrates on the full rule, 4 on the folded one
    (("clt", "--kind", "h", "--q", "2", "--d", "3", "--ell", "3,4", "--reps", "200"), 0, ""),
    (("clt", "--kind", "h", "--q", "3", "--ell", "5,7", "--reps", "200"), 2,
     "h3 has zero variance at (ell=5, d=2)"),
    (("clt", "--kind", "Z", "--betas", "0,1,0,1", "--ell", "3,5", "--reps", "200"), 2,
     "Z has zero variance at (ell=3, d=2)"),
    (("excursion", "--z", "1", "--ell", "3,5,7", "--reps", "2000", "--threads", "2"), 0, ""),
    (("excursion", "--z", "0", "--ell", "3,5", "--reps", "200"), 2, "S(z=0) has zero variance at (ell=3, d=2)"),
    (("simulate", "--kind", "h", "--q", "3", "--ell", "5", "--reps", "3"), 0, ""),
    (("clt", "--kind", "h", "--q", "4", "--ell", "1,2", "--reps", "2000"), 2, "got (1, 4, 2)"),
    # beta_3^2 overflows, but the third chaos has zero variance at odd ell
    (("clt", "--kind", "Z", "--betas", "0,1,0,1e160", "--ell", "3,5", "--reps", "200"), 2,
     "Z has zero variance at (ell=3, d=2)"),
])
def test_odd_multipoles_run_unless_nothing_is_left_to_measure(tmp_path, capsys, args, code, err):
    assert run_cli(*args, "--seed", "3", "--out-dir", str(tmp_path)) == code
    stderr = capsys.readouterr().err
    assert err in stderr and stderr.count("\n") == (code != 0)
    if code:
        assert not list(tmp_path.iterdir())  # refused before any output
        return
    manifest = json.loads(next(tmp_path.glob("*.manifest.json")).read_text())
    assert manifest["all_passed"]
    if args[0] == "simulate":  # h3 is a.s. 0 at odd ell: raw values only
        rows = read_rows(tmp_path / "simulate_h_d2_ell5.csv")
        assert len(rows) == 3 and all(r["normalized"] == "" for r in rows)


# the argv shapes of the `monte_carlo` workload of perfbench/run.py, at 200 replicas
_MONTE_CARLO = [
    ("clt --kind h --d 2 --q 3 --ell 16,64,128 --reps 200 --threads 2", "clt_h_d2_q3"),
    ("clt --kind Z --d 2 --betas 0,0,1,0,1 --ell 16,32,64 --reps 200 --threads 2", "clt_Z_d2_poly"),
    ("excursion --d 2 --z 1.0 --ell 16,64 --reps 200 --threads 2", "excursion_d2_z1"),
    ("simulate --kind h --d 2 --q 3 --ell 64 --reps 200", "simulate_h_d2_ell64"),
    ("simulate --kind h --d 3 --q 3 --ell 6 --reps 200", "simulate_h_d3_ell6"),
]


@pytest.mark.parametrize("args, base", _MONTE_CARLO, ids=[base for _, base in _MONTE_CARLO])
def test_the_benchmark_sweeps_run_in_float32_without_a_warning(tmp_path, capsys, args, base):
    # warnings are errors in this suite, those of the worker threads included:
    # a cast warning raised there fails the run
    assert run_cli(*args.split(), "--seed", "3", "--out-dir", str(tmp_path)) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads((tmp_path / f"{base}.manifest.json").read_text())
    assert manifest["all_passed"] and _reduction_dtypes(manifest["summary"]) == {"float32"}


def _reduction_dtypes(summary) -> set:
    """The `reduction_dtype` of each sweep row, or of the one `simulate` row."""
    return {g["reduction_dtype"] for g in summary.get("grids", [summary])}


@pytest.mark.parametrize("args, base", [
    ("simulate --kind h --q 12 --ell 4 --reps 3", "simulate_h_d2_ell4"),
    ("clt --kind Z --betas 1e6,0,1 --ell 4,8 --reps 200", "clt_Z_d2_poly"),
    ("simulate --kind h --q 38 --ell 2 --reps 3", "simulate_h_d2_ell2"),
], ids=["h12", "Z-offset", "h38"])
def test_each_row_records_its_reduction_dtype(tmp_path, args, base):
    # Clenshaw's rule keeps H_12 in float32, and 1e6 goes to the float64
    # offset; H_38 could leave the float32 range, so it reduces in float64
    assert run_cli(*args.split(), "--seed", "3", "--out-dir", str(tmp_path)) == 0
    summary = json.loads((tmp_path / f"{base}.manifest.json").read_text())["summary"]
    assert "synthesis_dtype" not in summary
    assert _reduction_dtypes(summary) == {"float64" if "38" in args else "float32"}


def test_a_polynomial_of_tiny_coefficients_reduces_in_float32(tmp_path):
    # 1e-46 T^2 once read 0 in float32, and the run exited 1 with sample
    # variance 0; scaled by its leading coefficient it is T^2, so the
    # distances are those of T^2
    dists = {}
    for betas in ("0,0,1e-46", "0,0,1"):
        out = tmp_path / betas
        assert run_cli("clt", "--kind", "Z", "--betas", betas, "--ell", "8,16,32", "--reps", "200",
                       "--seed", "1", "--out-dir", str(out)) == 0
        dists[betas] = [float(r["empirical_dK"]) for r in read_rows(out / "clt_Z_d2_poly.csv")]
    assert dists["0,0,1e-46"] == pytest.approx(dists["0,0,1"], rel=0, abs=1e-6)
    summary = json.loads((tmp_path / "0,0,1e-46" / "clt_Z_d2_poly.manifest.json").read_text())["summary"]
    assert _reduction_dtypes(summary) == {"float32"}


def test_a_chaos_of_zero_variance_leaves_the_sweep(tmp_path):
    # at odd ell the third chaos is identically 0: beta_3 = 1e160 changes neither
    # the bound nor a sample, and the sweep reads as that of T^2 on the same grid
    rows = {}
    for betas in ("0,0,1,1e160", "0,0,1,0"):
        out = tmp_path / betas.replace(",", "_")
        assert run_cli("clt", "--kind", "Z", "--d", "2", "--betas", betas, "--ell", "3", "--reps", "200",
                       "--seed", "1", "--out-dir", str(out)) == 0
        rows[betas] = (out / "clt_Z_d2_poly.csv").read_text()
    assert rows["0,0,1,1e160"] == rows["0,0,1,0"]


def test_cli_determinism_across_threads(tmp_path):
    args = ["clt", "--kind", "h", "--d", "2", "--q", "2", "--ell", "8,16",
            "--reps", "250", "--seed", "5", "--out-dir", str(tmp_path)]
    assert run_cli(*args, "--threads", "1") == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for p in tmp_path.iterdir():
        p.unlink()
    assert run_cli(*args, "--threads", "4") == 0
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second


@pytest.mark.parametrize("args", [
    "clt --kind h --d 2 --q 3 --ell 128 --reps 256",
    "simulate --kind h --d 2 --q 3 --ell 128 --reps 96",
    "excursion --d 2 --z 0.5 --ell 8,16 --reps 200",
    "simulate --kind Z --d 3 --betas 0,0,1,0,1 --ell 6 --reps 150",
], ids=["clt-256", "simulate-96", "excursion-200", "simulate-Z-150"])
def test_determinism_across_threads_where_blas_threads(tmp_path, args):
    # at ell = 128 the synthesis matmuls are large enough for OpenBLAS to
    # split them over threads; sampling pins BLAS to one thread at every
    # --threads, so the outputs cannot depend on it.  The indicator of the
    # excursion and a polynomial on S^3 run through the same sampler.
    outputs = []
    for threads in ("1", "2", "4"):
        assert run_cli(*args.split(), "--seed", "11", "--threads", threads, "--out-dir", str(tmp_path)) == 0
        outputs.append({p.name: p.read_bytes() for p in tmp_path.iterdir()})
        for p in tmp_path.iterdir():
            p.unlink()
    assert outputs[0] and outputs[0] == outputs[1] == outputs[2]


def test_simulate_normalizes_once_through_the_sampling_driver(tmp_path, monkeypatch):
    import sphclt.clt as clt

    calls = []
    variance = clt.Functional.variance

    def counted(self, ell, d):
        calls.append((self.label, ell, d))
        return variance(self, ell, d)
    monkeypatch.setattr(clt.Functional, "variance", counted)
    assert run_cli("simulate", "--kind", "Z", "--betas", "0,0,1,0,1", "--d", "2", "--ell", "16",
                   "--reps", "70", "--seed", "8", "--out-dir", str(tmp_path)) == 0
    assert calls == [("Z", 16, 2)]
    f = clt.Functional.of("Z", betas=(0.0, 0.0, 1.0, 0.0, 1.0))
    grid = f.grid(16, 2)
    expect = clt._samples(f, grid, 16, 8, 70, 1)
    rows = read_rows(tmp_path / "simulate_Z_d2_ell16.csv")
    assert [float(r["raw"]) for r in rows] == expect.tolist()
    scale = math.sqrt(variance(f, 16, 2))
    assert [float(r["normalized"]) for r in rows] == ((expect - f.mean(grid.dim)) / scale).tolist()


def test_cli_commands_never_load_scipy_or_argparse(tmp_path):
    # every command runs on numpy and the standard library; SciPy serves the
    # tests only, argv is read from the RunConfig key table, not argparse, and
    # every Gauss rule comes from gauss_jacobi_rule, not numpy.polynomial
    import sphclt
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphclt.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [
        ["moments", "--d", "2", "--q", "3", "--ell", "64..256"],
        ["moments", "--d", "3", "--q", "3", "--ell", "32..128"],
        ["contractions", "--d", "2", "--q", "3", "--ell", "8"],
        ["clt", "--kind", "h", "--d", "2", "--q", "2", "--ell", "8,16", "--reps", "200", "--seed", "1"],
        ["excursion", "--d", "2", "--z", "1.0", "--ell", "16", "--reps", "200", "--seed", "1"],
        ["simulate", "--kind", "h", "--d", "2", "--q", "2", "--ell", "8", "--reps", "4", "--seed", "1"],
    ]
    argvs = [run + ["--out-dir", str(tmp_path / str(i))] for i, run in enumerate(runs)]
    code = ("import json, sys\n"
            "import sphclt.cli\n"
            "codes = [sphclt.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules\n"
            "                                 if m.split('.')[0] in ('scipy', 'argparse', 'gettext')\n"
            "                                 or m.startswith(('numpy.fft', 'numpy.polynomial')))]))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    codes, loaded = json.loads(out.stdout)
    assert codes == [0] * len(runs)
    # nor numpy.fft (the FFT moment is a test oracle), numpy.polynomial, argparse or its gettext
    assert loaded == []


def _run_with_blas_env(tmp_path, blas_env):
    # a fresh interpreter: OpenBLAS reads its thread count when numpy loads
    import sphclt
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphclt.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(blas_env, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    code = ("import json, os, sys\n"
            "import sphclt.cli\n"
            "from sphclt import parallel\n"
            "blas = parallel._openblas_threads()\n"
            "exit_code = sphclt.cli.main(['moments', '--d', '2', '--q', '4', '--ell', '16..64',\n"
            "                             '--out-dir', sys.argv[1]])\n"
            "print(json.dumps([exit_code, blas and blas[0](), len(os.listdir('/proc/self/task')),\n"
            "                  os.environ['OPENBLAS_NUM_THREADS']]))")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_no_blas_thread_pool(tmp_path):
    # sphclt asks OpenBLAS for one thread before numpy loads: its own pool
    # does the parallel work, and idle BLAS workers spin; a count the user
    # set beforehand is kept
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads")
    exit_code, blas_threads, tasks, env = _run_with_blas_env(tmp_path / "unset", {})
    if blas_threads is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    assert (exit_code, blas_threads, tasks, env) == (0, 1, 1, "1")
    exit_code, _, _, env = _run_with_blas_env(tmp_path / "set", {"OPENBLAS_NUM_THREADS": "2"})
    assert (exit_code, env) == (0, "2")


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-file"])
def test_out_dir_on_a_file_exits_2_before_computing(tmp_path, capsys, monkeypatch, sub):
    import sphclt.cli as cli

    def never(*args):
        raise AssertionError("computed before the output directory was checked")
    monkeypatch.setattr(cli, "bessel_constant", never)
    monkeypatch.setattr(cli, "gegenbauer_moment", never)
    out_dir = tmp_path / "afile"
    out_dir.touch()
    if sub:
        out_dir = out_dir / sub
    assert run_cli("moments", "--d", "2", "--q", "3", "--ell", "16", "--out-dir", str(out_dir)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--out-dir" in err


@pytest.mark.parametrize("command, args, source", [
    ("moments", ("--q", "3"), "flag"), ("moments", ("--q", "3"), "config"),
    ("contractions", ("--q", "2"), "flag"), ("clt", ("--q", "2", "--reps", "200", "--seed", "1"), "flag"),
])
def test_ell_not_strictly_increasing_is_a_usage_error(tmp_path, capsys, command, args, source):
    # the final ratio check reads the last row, which must be the largest ell
    if source == "flag":
        args += ("--ell", "64,16")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ell = 16,16\n")
        args += ("--config", str(cfg))
    assert run_cli(command, *args, "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--ell must be strictly increasing" in err
    assert not list(tmp_path.glob("*.csv"))


def test_moment_degree_cap_exits_3(tmp_path, capsys):
    assert run_cli("moments", "--d", "2", "--q", "3", "--ell", "1000000000000",
                   "--out-dir", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds cap" in err


def test_moments_beyond_the_expansion_cap_exits_3(tmp_path, capsys):
    # Var h at q = 5 expands G^3, whose O(ell^2) pass DEGREE_CAP bounds
    assert run_cli("moments", "--q", "5", "--ell", "8192", "--out-dir", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "DEGREE_CAP" in err


def test_moments_large_d_variance(tmp_path):
    # Var h_{400;3,60} = 6 mu_d^2 b_400^(2) / n_400, here against b^(2) in exact
    # rationals; an FFT moment once wrote -1.4e-83.  The run exits 1 on the
    # asymptotic ratio alone: ell = 400 is far from the limit at d = 60
    from oracles import dougall_exact
    assert run_cli("moments", "--d", "60", "--q", "3", "--ell", "400", "--out-dir", str(tmp_path)) == 1
    [row] = read_rows(tmp_path / "moments_d60_q3.csv")
    exact = 6 * SphereDim(60).mu_d ** 2 * float(dougall_exact(400, 400, 200, 60) / dim_harmonics(400, 60))
    assert float(row["variance"]) == pytest.approx(exact, rel=1e-12, abs=0)
    manifest = json.loads((tmp_path / "moments_d60_q3.manifest.json").read_text())
    assert {c["name"]: c["passed"] for c in manifest["checks"]} == {
        "expansion_sum_ell400": True, "asymptotic_ratio_final": False}


def test_moments_expansion_sum_check_at_even_q_ell(tmp_path):
    # the expansions behind the variance sum to G_ell(1)^p = 1
    run_cli("moments", "--d", "3", "--q", "5", "--ell", "8,9", "--out-dir", str(tmp_path))
    manifest = json.loads((tmp_path / "moments_d3_q5.manifest.json").read_text())
    [check] = [c for c in manifest["checks"] if c["name"] == "expansion_sum_ell8"]
    assert check["passed"] and "over p = 2, 3" in check["detail"]


def test_moments_expansion_sum_check_at_odd_q_ell(tmp_path):
    # at odd q*ell the half moment is read from G^{q-1}, which is checked instead
    run_cli("moments", "--d", "3", "--q", "5", "--ell", "8,9", "--out-dir", str(tmp_path))
    manifest = json.loads((tmp_path / "moments_d3_q5.manifest.json").read_text())
    [check] = [c for c in manifest["checks"] if c["name"] == "expansion_sum_ell9"]
    assert check["passed"] and "over p = 4:" in check["detail"]


def test_moments_sums_the_variance_once_per_row(tmp_path, monkeypatch):
    # variance_h is memoized: each row computes its variance once, and an even
    # q*ell row's half moment from gegenbauer_moment reads it from the memo;
    # an odd q*ell moment needs no variance sum
    import sphclt.cli as cli
    import sphclt.moments as moments
    computed, variance = [], moments.variance_h

    def counted(ell, q, d):
        misses = variance.cache_info().misses
        value = variance(ell, q, d)
        if variance.cache_info().misses > misses:
            computed.append(ell)
        return value
    for mod in (cli, moments):
        monkeypatch.setattr(mod, "variance_h", counted)
    moments.gegenbauer_moment.cache_clear()
    variance.cache_clear()
    run_cli("moments", "--d", "3", "--q", "3", "--ell", "8,9,10", "--out-dir", str(tmp_path))
    assert computed == [8, 9, 10]
    rows = read_rows(tmp_path / "moments_d3_q3.csv")
    assert [float(r["moment"]) for r in rows] == [moments.gegenbauer_moment(ell, 3, 3, "half").value
                                                 for ell in (8, 9, 10)]


def test_moments_odd_half_moment_at_large_d(tmp_path):
    # the exact rationals of int_0^1 G^3 (1-t^2)^29 dt; the FFT moment wrote
    # 1.447e-51 and -1.647e-51 here.  The run exits 1 on the asymptotic ratio alone
    assert run_cli("moments", "--d", "60", "--q", "3", "--ell", "101,201", "--out-dir", str(tmp_path)) == 1
    moments = [float(row["moment"]) for row in read_rows(tmp_path / "moments_d60_q3.csv")]
    assert moments == pytest.approx([4.5822676970277094e-51, 4.1507242142656982e-66], rel=1e-12, abs=0)
    assert all(m > 0.0 for m in moments)
    manifest = json.loads((tmp_path / "moments_d60_q3.manifest.json").read_text())
    assert {c["name"]: c["passed"] for c in manifest["checks"]} == {
        "expansion_sum_ell101": True, "expansion_sum_ell201": True, "asymptotic_ratio_final": False}


def test_moments_log_slope_skipped_says_why(tmp_path):
    assert run_cli("moments", "--d", "2", "--q", "4", "--ell", "16,32,64",
                   "--out-dir", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "moments_d2_q4.manifest.json").read_text())
    assert manifest["summary"]["log_slope"] == {
        "skipped": "need max(ell) >= 4096 to be in the asymptotic regime"}
    assert [r["kind"] for r in read_rows(tmp_path / "moments_d2_q4.csv")] == ["moment"] * 3


def _perturb_contractions(monkeypatch):
    import sphclt.cli as cli
    monkeypatch.setattr(cli, "dim_harmonics", lambda ell, d: dim_harmonics(ell, d) + 1)


@pytest.mark.parametrize("args, base, fault, expected", [
    (("moments", "--q", "3", "--ell", "512"), "moments_d2_q3", None, 0),
    (("moments", "--q", "3", "--ell", "16"), "moments_d2_q3", None, 1),
    (("contractions", "--q", "2", "--ell", "8"), "contractions_d2_q2", None, 0),
    (("contractions", "--q", "2", "--ell", "8"), "contractions_d2_q2", _perturb_contractions, 1),
    (("simulate", "--q", "2", "--ell", "8", "--reps", "3", "--seed", "1"), "simulate_h_d2_ell8",
     None, 0),
    (("clt", "--q", "2", "--ell", "8,16", "--reps", "250", "--seed", "5"), "clt_h_d2_q2", None, 0),
    (("clt", "--kind", "S", "--z", "20", "--ell", "16", "--reps", "200", "--seed", "1"),
     "clt_S_d2_z20", None, 1),
    (("excursion", "--z", "1", "--ell", "16", "--reps", "300", "--seed", "7"), "excursion_d2_z1",
     None, 0),
    (("excursion", "--z", "20", "--ell", "16", "--reps", "200", "--seed", "1"), "excursion_d2_z20",
     None, 1),
    (("contractions", "--d", "2", "--q", "3", "--ell", "5"), "contractions_d2_q3", None, 0),
    (("clt", "--d", "3", "--q", "3", "--ell", "4", "--reps", "200", "--seed", "1"), "clt_h_d3_q3", None, 0),
], ids=["moments-pass", "moments-fail", "contractions-pass", "contractions-fail", "simulate-pass",
        "clt-pass", "clt-fail", "excursion-pass", "excursion-fail", "contractions-parity-zero",
        "clt-excluded-pair"])
def test_exit_code_follows_all_passed(tmp_path, capsys, monkeypatch, args, base, fault, expected):
    # 0 and 1 are the verdict of the checks, written to the manifest; only
    # errors, exits 2 and 3, print to stderr
    if fault is not None:
        fault(monkeypatch)
    code = run_cli(*args, "--out-dir", str(tmp_path))
    manifest = json.loads((tmp_path / f"{base}.manifest.json").read_text())
    assert code == expected and code == (0 if manifest["all_passed"] else 1)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("args, named", [
    (("moments", "--d", "2", "--q", "171", "--ell", "16"), "171! overflows a float"),
    (("simulate", "--kind", "h", "--q", "171", "--d", "2", "--ell", "2", "--reps", "2", "--seed", "1"),
     "171! overflows a float"),
    (("contractions", "--d", "2", "--q", "85", "--ell", "2"), "chaos order 85 exceeds 80"),
    (("clt", "--kind", "h", "--q", "90", "--d", "2", "--ell", "2,4", "--reps", "200", "--seed", "1"),
     "chaos order 90 exceeds 80"),
    (("moments", "--d", "27", "--q", "4", "--ell", "4"), "Bessel order 12.5, beyond 12"),
    (("moments", "--d", "171", "--q", "4", "--ell", "4"), "Bessel order 84.5, beyond 12"),
    (("moments", "--d", "177", "--q", "3", "--ell", "4"), "c(q=3, d=177) overflows a float"),
    (("moments", "--d", "100", "--q", "3", "--ell", "2048"), "ell^d = 2048^100 in the ratio column overflows"),
    (("moments", "--d", "26", "--q", "40", "--ell", "5"), "(2^nu Gamma(d/2))^q, which overflows a float"),
    (("moments", "--d", "400", "--q", "3", "--ell", "4"), "sphere dimension 400 exceeds 342"),
    (("contractions", "--d", "400", "--q", "3", "--ell", "4"), "sphere dimension 400 exceeds 342"),
    (("simulate", "--d", "3", "--q", "2", "--ell", "200", "--reps", "1", "--seed", "1"),
     "exceeds the budget of 2000000"),
    (("simulate", "--q", "3", "--ell", "99999999999999999998", "--reps", "2", "--seed", "1"),
     "exceeds the budget of 2000000"),
    # a grid of degree 1 has 2 nodes, but the synthesis arrays of these
    # fields are dense in (ell+1)^(d-1): 468 GiB, 72 GiB and beyond numpy's
    # array size
    (("simulate", "--d", "12", "--q", "0", "--betas", "0,1", "--ell", "8", "--reps", "300", "--seed", "1"),
     "takes 62762119218 values per replica, over the budget of 2000000"),
    (("simulate", "--d", "7", "--q", "0", "--ell", "16", "--reps", "200", "--seed", "1"),
     "takes 48275138 values per replica, over the budget of 2000000"),
    (("simulate", "--d", "40", "--q", "0", "--ell", "2", "--reps", "200", "--seed", "0"),
     "over the budget of 2000000"),
    (("contractions", "--d", "45", "--q", "2", "--ell", "4000"), "below the least normal float"),
    (("contractions", "--d", "171", "--q", "2", "--ell", "4"), "below the least normal float"),
    (("contractions", "--d", "45", "--q", "3", "--ell", "4000"), "below the least normal float"),
    (("moments", "--d", "171", "--q", "2", "--ell", "5000"), "n_{5000;171}, the number of degree-5000 "
     "harmonics on S^171, overflows a float"),
    (("contractions", "--d", "171", "--q", "2", "--ell", "5000"), "harmonics on S^171, overflows a float"),
    # beta_2^2 = 1e-400 reads 0, but T^2 is not almost surely 0: not a zero-variance functional
    (("clt", "--kind", "Z", "--betas", "0,0,1e-200", "--ell", "8", "--reps", "200", "--seed", "1"),
     "the variance of Z at (ell=8, d=2) is below the least normal float"),
    (("simulate", "--kind", "Z", "--betas", "0,0,1e-200", "--ell", "8", "--reps", "2", "--seed", "1"),
     "the variance of Z at (ell=8, d=2) is below the least normal float"),
], ids=["variance-q171", "simulate-q171", "bound-q85", "clt-bound-q90", "bessel-d27", "bessel-d171",
        "closed-form-q3-d177", "ratio-d100", "bessel-prefactor-q40", "volume-moments-d400", "volume-contractions-d400", "node-budget",
        "node-budget-azimuths", "synthesis-budget-d12", "synthesis-budget-d7", "synthesis-budget-d40",
        "q2-closed-form-d45", "q2-closed-form-d171", "contraction-norm-d45-q3", "q2-moment-d171",
        "q2-contraction-norm-d171", "variance-underflow-clt", "variance-underflow-simulate"])
def test_numerical_faults_exit_3_with_one_line(tmp_path, capsys, args, named):
    # each limit is checked before the computation it guards, so the run
    # ends in one line naming the limit, not in an OverflowError traceback
    assert run_cli(*args, "--out-dir", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("reps", ["5000001", "99999999999999999999"])
def test_replica_count_above_the_limit_exits_3_at_once(tmp_path, capsys, reps):
    # rejected in build_config, before fixed_chunks could list the chunks of
    # such a count
    start = time.perf_counter()
    code = run_cli("clt", "--q", "2", "--ell", "2", "--reps", reps, "--seed", "1", "--out-dir", str(tmp_path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"exceed the limit of {MAX_REPLICAS}" in err
    raw = dict(q="2", ell="2", replicas=str(MAX_REPLICAS), seed="1", out_dir=str(tmp_path))
    assert build_config("clt", raw).replicas == MAX_REPLICAS  # the limit itself is allowed


def test_an_error_outside_the_hierarchy_propagates(tmp_path, monkeypatch):
    # only a SphcltError carries an exit code; any other exception is a bug,
    # a ValueError included, and keeps its traceback
    import sphclt.cli as cli

    def boom(*args):
        raise ValueError("boom")
    monkeypatch.setattr(cli, "contraction_table", boom)
    with pytest.raises(ValueError, match="boom"):
        run_cli("contractions", "--q", "2", "--ell", "8", "--out-dir", str(tmp_path))


def test_every_raise_names_a_sphclt_error():
    # a new exception raised anywhere in the package must be a SphcltError
    # subclass with its own exit code, so `main` maps it and only it
    import ast
    import importlib
    from pathlib import Path

    import sphclt
    from sphclt.specfun import SphcltError

    raised = []
    for path in sorted(Path(sphclt.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"sphclt.{path.stem}" if path.stem != "__init__" else "sphclt")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                cls = getattr(module, ast.unparse(exc), None)
                raised.append(cls)
                assert (isinstance(cls, type) and issubclass(cls, SphcltError)
                        and cls.exit_code in (2, 3)), f"{path.name}:{node.lineno}: raise {ast.unparse(exc)}"
    assert len(raised) > 60


def test_every_top_level_definition_is_used_in_the_package():
    # src/ holds only what a command runs: a top-level function or class that
    # no module of the package names outside its own body (by a Name, an
    # Attribute or an import) belongs in tests/oracles.py or nowhere;
    # __init__.py only re-exports, so it neither defines nor uses
    import ast
    from pathlib import Path

    import sphclt

    defined, used = {}, set()
    for path in sorted(Path(sphclt.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if owner is not None:
                defined[owner] = f"{path.name}:{top.lineno}"
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                used.update(name for name in names if name != owner)
    assert len(defined) > 80
    assert sorted(f"{where} {name}" for name, where in defined.items() if name not in used) == []
