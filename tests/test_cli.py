"""CLI surface: parsing, config files, outputs, exit codes, determinism."""

import csv
import json
import math
import subprocess
import sys

import pytest

from sphclt.cli import UsageError, main, parse_betas_spec, parse_ell_spec, read_config_file
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
    # booleans: a word outside the yes/no vocabularies is named, not read as False
    flag = tmp_path / "flag.cfg"
    for word, value in (("yes", True), ("off", False)):
        flag.write_text(f"allow_odd = {word}\n")
        assert read_config_file(str(flag), "clt") == {"allow_odd": value}
    flag.write_text("allow_odd = maybe\n")
    with pytest.raises(UsageError, match="'maybe'"):
        read_config_file(str(flag), "clt")


@pytest.mark.parametrize("args, named", [
    (("moments", "--q", "3", "--ell", "8..2"), "'8..2'"),
    (("clt", "--kind", "Z", "--betas", "1,x", "--ell", "8"), "'1,x'"),
    (("moments", "--q", "3", "--ell", "8", "--config", "missing.cfg"), "missing.cfg"),
])
def test_bad_value_or_config_exits_2_with_one_line(tmp_path, capsys, monkeypatch, args, named):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*args, "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err


def test_flags_win_over_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 3\nq = 2\nell = 4\n")
    code = run_cli("moments", "--config", str(cfg), "--q", "2", "--ell", "2,4",
                   "--out-dir", str(tmp_path))
    assert code == 0
    rows = read_rows(tmp_path / "moments_d3_q2.csv")
    assert [r["ell"] for r in rows] == ["2", "4"]


# ------------------------------------------------------------------
# subcommands
# ------------------------------------------------------------------

def test_moments_q2_closed_form(tmp_path):
    code = run_cli("moments", "--d", "3", "--q", "2", "--ell", "4,8", "--out-dir", str(tmp_path))
    assert code == 0
    rows = read_rows(tmp_path / "moments_d3_q2.csv")
    dim = SphereDim(3)
    expect = dim.mu_d / (2 * dim.mu_dm1 * dim_harmonics(4, 3))
    assert float(rows[0]["moment"]) == pytest.approx(expect, rel=1e-12)
    assert rows[0]["err_est"] == "0.0"
    assert float(rows[0]["c_qd"]) == pytest.approx(math.pi / 4, rel=1e-12)
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
    assert float(rows[0]["K"]) == pytest.approx(expect, rel=1e-10)


def test_contractions_odd_odd_blank_bounds(tmp_path):
    # h is a.s. zero at odd ell and odd q: the bound columns stay blank
    code = run_cli("contractions", "--d", "2", "--q", "3", "--ell", "5", "--out-dir", str(tmp_path))
    assert code == 0
    rows = read_rows(tmp_path / "contractions_d2_q3.csv")
    assert rows and all(r["bound_tv"] == r["bound_k"] == r["bound_w"] == "" for r in rows)


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


@pytest.mark.parametrize("command, z, reps", [("simulate", "50", "3"), ("clt", "40", "200")])
def test_excursion_zero_variance_exits_2(tmp_path, capsys, command, z, reps):
    # phi(z) underflows beyond |z| ~ 38, so every chaos coefficient is 0 and
    # the excursion area cannot be normalized
    code = run_cli(command, "--kind", "S", "--z", z, "--ell", "16", "--reps", reps,
                   "--seed", "1", "--out-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "variance" in err
    assert not list(tmp_path.glob("*.csv"))


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


def test_moments_log_slope_row(tmp_path):
    code = run_cli("moments", "--d", "2", "--q", "4", "--ell", "256..4096",
                   "--out-dir", str(tmp_path))
    assert code == 0
    rows = read_rows(tmp_path / "moments_d2_q4.csv")
    assert rows[-1]["kind"] == "log_slope"
    assert float(rows[-1]["moment"]) == pytest.approx(576.0, rel=0.10)
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
                 "--threads", "--config", "--out-dir", "--allow-odd", "--excursion-qmax"):
        assert flag in sub_help.stdout


def test_simulate_manifest_grid_descriptor(tmp_path):
    run_cli("simulate", "--kind", "S", "--d", "2", "--z", "0.5", "--ell", "8",
            "--reps", "3", "--seed", "1", "--out-dir", str(tmp_path))
    manifest = json.loads((tmp_path / "simulate_S_d2_ell8.manifest.json").read_text())
    grid = manifest["summary"]["grid"]
    assert grid["weight_sum"] == pytest.approx(4 * math.pi, rel=1e-12)
    assert grid["exact_degree"] >= 32


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


@pytest.mark.parametrize("command, reps", [("clt", "256"), ("simulate", "96")])
def test_determinism_across_threads_where_blas_threads(tmp_path, command, reps):
    # at ell = 128 the synthesis matmuls are large enough for OpenBLAS to
    # split them over threads; sampling pins BLAS to one thread at every
    # --threads, so the outputs cannot depend on it
    args = [command, "--kind", "h", "--d", "2", "--q", "3", "--ell", "128", "--reps", reps,
            "--seed", "11"]
    outputs = []
    for threads in ("1", "2", "4"):
        assert run_cli(*args, "--threads", threads, "--out-dir", str(tmp_path)) == 0
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
    grid = clt.build_grid(2, f.degree(16))
    expect = clt._samples(f, grid, 16, 8, 70, 1)
    rows = read_rows(tmp_path / "simulate_Z_d2_ell16.csv")
    assert [float(r["raw"]) for r in rows] == expect.tolist()
    scale = math.sqrt(variance(f, 16, 2))
    assert [float(r["normalized"]) for r in rows] == ((expect - f.mean(grid.dim)) / scale).tolist()
