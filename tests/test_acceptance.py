"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

The PASS/FAIL lines bypass pytest's capture so they always reach the
console/pipe.  Statistical criteria fix their seeds, so every run is
identical.
"""

import csv
import math
import time

import pytest

from sphclt.clt import clt_sweep
from sphclt.cli import main as cli_main
from sphclt.contractions import contraction_table, cross_contraction
from sphclt.moments import gegenbauer_moment, log_divergence_check, variance_h
from sphclt.specfun import SphereDim, dim_harmonics

from oracles import mc_kernel_contraction

SEED = 7


@pytest.fixture(autouse=True)
def _console(capsys):
    # hand each criterion a capture-proof reporter
    global report

    def report(num, ok, detail):
        with capsys.disabled():
            print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} [{detail}]", flush=True)
        assert ok, f"criterion {num}: {detail}"

    yield


def test_criterion_01_second_moment_identity():
    t0 = time.time()
    worst = 0.0
    for d in (2, 3, 4, 5):
        dim = SphereDim(d)
        for ell in range(1, 65):
            got = gegenbauer_moment(ell, 2, d, "full").value
            expect = dim.mu_d / (dim.mu_dm1 * dim_harmonics(ell, d))
            worst = max(worst, abs(got / expect - 1.0))
    elapsed = time.time() - t0
    report(1, worst <= 1e-10 and elapsed < 10.0,
           f"max relative deviation {worst:.2e} over d=2..5, ell=1..64; {elapsed:.1f}s")


def test_criterion_02_variance_closed_form():
    got = variance_h(2, 2, 2)
    expect = 32.0 * math.pi ** 2 / 5.0
    rel = abs(got / expect - 1.0)
    report(2, rel <= 1e-10, f"Var[h(ell=2,q=2,d=2)] = {got!r}, 32 pi^2/5 = {expect!r}")


def test_criterion_03_moment_asymptotics(tmp_path):
    # the ratio column ell^d * m_half / c(q, d) that `sphclt moments` writes
    t0 = time.time()
    cases = {
        (2, 3): [256, 512, 1024, 2048],
        (2, 5): [256, 512, 1024, 2048],
        (2, 6): [256, 512, 1024, 2048],
        (3, 4): [64, 128, 256, 512],
        (3, 5): [64, 128, 256, 512],
        (4, 3): [64, 128, 256, 512],
        (3, 3): [64, 128, 256, 512],
    }
    all_ok, details = True, []
    for (d, q), ells in sorted(cases.items()):
        cli_main(["moments", "--d", str(d), "--q", str(q), "--ell", ",".join(map(str, ells)),
                  "--out-dir", str(tmp_path)])
        with open(tmp_path / f"moments_d{d}_q{q}.csv", newline="") as fh:
            ratios = [float(row["ratio"]) for row in csv.DictReader(fh)]
        devs = [abs(r - 1.0) for r in ratios]
        monotone = all(a > b for a, b in zip(devs, devs[1:]))
        in_band = len(ratios) == len(ells) and 0.95 <= ratios[-1] <= 1.05
        all_ok &= monotone and in_band
        details.append(f"(d={d},q={q}): {ratios[-1]:.4f}{'' if monotone else ' NOT-MONOTONE'}")
    elapsed = time.time() - t0
    report(3, all_ok and elapsed < 180.0, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_04_log_divergence_slope():
    t0 = time.time()
    slope, _, stderr = log_divergence_check([256, 512, 1024, 2048, 4096, 8192])
    elapsed = time.time() - t0
    ok = abs(slope - 576.0) <= 0.10 * 576.0 and elapsed < 120.0
    report(4, ok, f"slope {slope:.2f} +- {stderr:.2f} vs 576 (10%); {elapsed:.1f}s")


def test_criterion_05_contraction_closed_form_and_symmetry():
    worst = 0.0
    for d in (2, 3, 4, 5):
        dim = SphereDim(d)
        for ell in range(1, 65):
            got = contraction_table(ell, 2, d)[0]
            expect = dim.mu_d ** 4 / dim_harmonics(ell, d) ** 3
            worst = max(worst, abs(got / expect - 1.0))
    symmetric = True
    for (ell, q, d) in ((8, 4, 2), (6, 5, 3), (12, 7, 2)):
        table = contraction_table(ell, q, d)
        symmetric &= all(table[r - 1] == table[q - r - 1] for r in range(1, q))
    report(5, worst <= 1e-10 and symmetric,
           f"max relative deviation {worst:.2e}; symmetry exact: {symmetric}")


def test_criterion_06_mc_oracle_equivalence():
    t0 = time.time()
    all_ok, details = True, []
    for q in (3, 4):
        table = contraction_table(4, q, 2)
        for r in range(1, q):
            spectral = table[r - 1]
            est, se = mc_kernel_contraction(4, q, r, 2, n_samples=1_000_000, seed=SEED)
            z = (est - spectral) / se
            all_ok &= abs(z) <= 3.0
            details.append(f"q={q},r={r}: z={z:+.2f}")
    elapsed = time.time() - t0
    report(6, all_ok and elapsed < 120.0, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_07_bound_order_compliance():
    all_ok, details = True, []
    for q in (5, 7):
        scaled = [contraction_table(ell, q, 2)[0] * ell ** 4.5
                  for ell in (8, 16, 32, 64, 128, 256)]
        top = scaled[-3:]
        no_increase = top[0] >= top[1] >= top[2]
        all_ok &= no_increase
        details.append(f"q={q}: top three {top[0]:.3f}, {top[1]:.3f}, {top[2]:.3f}")
    report(7, all_ok, "; ".join(details))


def test_criterion_08_cross_term_cancellation():
    zero_ok = all(
        cross_contraction(ell, q1, q1 + 1, d) == 0.0
        for (ell, q1, d) in ((6, 2, 2), (8, 3, 3), (16, 4, 2))
    )
    stable_ok, details = True, []
    for (q1, q2, d) in ((2, 4, 2), (3, 5, 2), (2, 4, 3)):
        consts = []
        for ell in (16, 32, 64, 128):
            var = variance_h(ell, q1, d)
            val = cross_contraction(ell, q1, q2, d)
            stable_ok &= val > 0.0
            consts.append(val / (var ** 2 * float(ell) ** -(d - 1)))
        drift = abs(consts[-1] / consts[-2] - 1.0)
        stable_ok &= drift < 0.05
        details.append(f"(q1={q1},q2={q2},d={d}): C={consts[-1]:.4f} drift {drift:.3f}")
    report(8, zero_ok and stable_ok,
           f"adjacent orders exactly zero: {zero_ok}; " + "; ".join(details))


def test_criterion_09_clt_sweep_hermite():
    t0 = time.time()
    rep = clt_sweep("h", 2, [16, 64, 128], 2000, seed=SEED, q=3, threads=2)
    elapsed = time.time() - t0
    dks = [r.empirical_dK for r in rep.rows]
    decreasing = all(a > b for a, b in zip(dks, dks[1:]))
    bounded = all(r.empirical_dK <= r.explicit_bound + 3.0 * r.mc_stderr_scale for r in rep.rows)
    final = dks[-1] < 0.05
    report(9, decreasing and bounded and final and elapsed < 300.0,
           f"dK = {dks[0]:.4f} > {dks[1]:.4f} > {dks[2]:.4f}, bound ok: {bounded}; {elapsed:.1f}s")


def test_criterion_10_excursion_clt():
    t0 = time.time()
    rep = clt_sweep("S", 2, [16, 64], 2000, seed=SEED, z=1.0, threads=2)
    elapsed = time.time() - t0
    ok, details = True, []
    for r in rep.rows:
        mean_se = math.sqrt(r.sample_var / r.replicas)
        var_se = r.sample_var * math.sqrt(2.0 / (r.replicas - 1))
        mean_ok = abs(r.sample_mean - r.predicted_mean) <= 4.0 * mean_se
        var_ok = abs(r.sample_var - r.predicted_var) <= 4.0 * var_se
        ok &= mean_ok and var_ok
        details.append(f"ell={r.ell}: mean z={(r.sample_mean - r.predicted_mean) / mean_se:+.2f}, "
                       f"var z={(r.sample_var - r.predicted_var) / var_se:+.2f}")
    dks = [r.empirical_dK for r in rep.rows]
    ok &= dks[1] < 0.05 and dks[1] < dks[0]
    report(10, ok and elapsed < 300.0,
           "; ".join(details) + f"; dK {dks[0]:.4f} -> {dks[1]:.4f}; {elapsed:.1f}s")


def test_criterion_11_cli_determinism(tmp_path):
    args = ["clt", "--kind", "h", "--d", "2", "--q", "3", "--ell", "8,16",
            "--reps", "400", "--seed", str(SEED), "--out-dir", str(tmp_path)]
    assert cli_main(args + ["--threads", "1"]) == 0
    first = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    for p in tmp_path.iterdir():
        p.unlink()
    assert cli_main(args + ["--threads", "4"]) == 0
    second = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    identical = first == second
    report(11, identical,
           f"{len(first)} output files byte-identical across --threads 1 vs 4: {identical}")
