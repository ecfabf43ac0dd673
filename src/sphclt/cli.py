"""Command-line front end.

Subcommands drive the computational modules and emit CSV tables plus a JSON
manifest per run.  Configuration comes from an optional line-oriented file
(`key = value`, `#` comments) merged with flags; flags win, unknown keys are
rejected, and the manifest echoes every resolved value so a run can be
reproduced from its manifest alone.

Reproducibility rules: all randomness flows from one master seed (drawn from
OS entropy and recorded when --seed is absent); --threads only caps workers
and is deliberately kept out of the manifest, so reruns with the same seed
are byte-identical whatever the worker count.  No timestamps are written.

Exit codes: 0 all requested checks passed, 1 a check or tolerance failed,
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import secrets
import sys
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
# the functional_* helpers have no caller here; perfbench/spans.py wraps these bindings
from .clt import (
    CltReport,
    CltRow,
    Functional,
    _samples,
    clt_sweep,
    functional_excursion,
    functional_h,
    functional_Z,
    rate_fit,
)
from .contractions import berry_esseen_bound, contraction_table, rate_theoretical
from .moments import (
    DivergentIntegralError,
    ToleranceNotMetError,
    ZeroVarianceError,
    bessel_constant,
    gegenbauer_moment,
    log_divergence_check,
    variance_h,
)
# excursion_variance and sample_field have no caller here; perfbench/spans.py
# wraps these bindings
from .simulate import build_grid, excursion_variance, sample_field
from .specfun import SphereDim, dim_harmonics

FORMAT_VERSION = "1"


class UsageError(Exception):
    pass


def parse_ell_spec(text: str) -> tuple[int, ...]:
    """Multipole list: '16,64,128' or dyadic range '256..8192'."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if lo < 1 or hi < lo:
            raise UsageError(f"bad multipole range {text!r}")
        out = []
        val = lo
        while val <= hi:
            out.append(val)
            val *= 2
        return tuple(out)
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"bad multipole list {text!r}") from exc


def parse_betas_spec(text: str) -> tuple[float, ...]:
    """Monomial coefficients b_0,b_1,...,b_Q as a comma list."""
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad coefficient list {text!r}") from exc


def _parse_bool(raw: str) -> bool:
    word = raw.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"bad boolean {raw!r} (use true/false, yes/no, on/off or 1/0)")


_SWEEPS = ("simulate", "clt", "excursion")
_ALL = ("moments", "contractions") + _SWEEPS


def _key(default, flag: str, parse, help_text: str, commands: tuple[str, ...],
         choices=None, no_flag: tuple[str, ...] = ()):
    """A RunConfig field settable by `flag` and by its config-file key.

    `parse` turns the text of either into the value; the commands in
    `no_flag` take the key from a config file only.
    """
    return field(default=default, metadata=dict(flag=flag, parse=parse, help=help_text,
                                                 commands=commands, choices=choices,
                                                 no_flag=no_flag))


@dataclass(frozen=True)
class RunConfig:
    """Resolved parameters of one CLI run (defaults all explicit).

    Each settable key is declared once, here; the subcommand flags, the keys a
    config file may set and their parsing are all derived from these fields.
    """

    command: str
    kind: str | None = _key(None, "--kind", str, "functional family (default h)",
                            ("simulate", "clt"), choices=("h", "Z", "S"))
    d: int = _key(2, "--d", int, "sphere dimension (default 2)", _ALL)
    q: int | None = _key(None, "--q", int, "power of G (moments), chaos order (contractions) "
                         "or Hermite order (kind h)", ("moments", "contractions", "simulate", "clt"))
    betas: tuple[float, ...] | None = _key(None, "--betas", parse_betas_spec,
                                           "monomial coefficients b0,b1,... for kind Z",
                                           ("simulate", "clt"))
    z: float | None = _key(None, "--z", float, "excursion level (kind S)", _SWEEPS)
    ell: tuple[int, ...] = _key((), "--ell", parse_ell_spec,
                                "multipoles: '16,64' or dyadic '256..8192'", _ALL)
    ratio_tol: float = _key(0.05, "--ratio-tol", float,
                            "tolerance for the final ell^d*moment/c ratio (default 0.05)",
                            ("moments",))
    slope_tol: float = _key(0.10, "--slope-tol", float,
                            "relative tolerance for the (2,4) log-slope check (default 0.10)",
                            ("moments",))
    excursion_q_max: int = _key(8, "--excursion-qmax", int,
                                "chaos truncation order for the excursion variance (default 8)",
                                _SWEEPS, no_flag=("simulate",))
    seed: int | None = _key(None, "--seed", int,
                            "master seed; drawn from entropy and recorded if absent", _SWEEPS)
    replicas: int = _key(2000, "--reps", int, "replicas per multipole (default 2000)", _SWEEPS)
    allow_odd: bool = _key(False, "--allow-odd", _parse_bool,
                           "permit odd multipoles (odd chaoses vanish there)", _SWEEPS)
    out_dir: str = _key(".", "--out-dir", str, "output directory (default .)", _ALL)
    threads: int = _key(1, "--threads", int, "worker cap; outputs do not depend on it", _ALL)
    format_version: str = FORMAT_VERSION


def _keys(command: str):
    """The RunConfig fields that `command` accepts."""
    return [f for f in fields(RunConfig) if command in f.metadata.get("commands", ())]


def read_config_file(path: str, command: str) -> dict:
    parsers = {f.name: f.metadata["parse"] for f in _keys(command)}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in parsers:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r} for command {command!r}")
        values[key] = parsers[key](raw)
    return values


def build_config(command: str, args: argparse.Namespace) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(read_config_file(args.config, command))
    for f in _keys(command):
        flag_val = getattr(args, f.name, None)
        if flag_val is not None:
            values[f.name] = flag_val
    cfg = RunConfig(command=command, **values)
    if cfg.z is not None and not math.isfinite(cfg.z):
        raise UsageError(f"z must be finite, got {cfg.z}")
    if cfg.replicas < 1 or cfg.threads < 1:
        raise UsageError(f"replicas and threads must be >= 1, got {cfg.replicas} and {cfg.threads}")
    if cfg.seed is None and command in _SWEEPS:
        cfg = replace(cfg, seed=secrets.randbits(63))
    return cfg


# ------------------------------------------------------------------
# output helpers
# ------------------------------------------------------------------

def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def write_manifest(path: Path, cfg: RunConfig, outputs, checks, summary=None):
    config_echo = {
        f.name: getattr(cfg, f.name)
        for f in fields(RunConfig)
        if f.name != "threads"  # execution detail; kept out for byte-identical reruns
    }
    doc = {
        "format_version": cfg.format_version,
        "tool": {"name": "sphclt", "version": __version__},
        "command": cfg.command,
        "config": config_echo,
        "outputs": sorted(str(o) for o in outputs),
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks) if checks else True,
    }
    if summary is not None:
        doc["summary"] = summary
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


# ------------------------------------------------------------------
# subcommands
# ------------------------------------------------------------------

def cmd_moments(cfg: RunConfig) -> int:
    if cfg.q is None or cfg.q < 2:
        raise UsageError("moments requires --q >= 2 (q = 0, 1 are identically degenerate)")
    if not cfg.ell:
        raise UsageError("moments requires --ell")
    d, q = cfg.d, cfg.q
    dim = SphereDim(d)
    checks = []

    try:
        const = bessel_constant(q, d)  # closed form at q = 2, quadrature beyond
    except DivergentIntegralError:
        const = None  # the (2, 4) log-divergent case: no constant exists

    rows = []
    for ell in cfg.ell:
        if q == 2:
            half = dim.mu_d / (2.0 * dim.mu_dm1 * dim_harmonics(ell, d))
            moment, err = half, 0.0
        else:
            res = gegenbauer_moment(ell, q, d, "half")
            moment, err = res.value, res.err_est
        variance = variance_h(ell, q, d)
        c_val = const.value if const is not None else None
        ratio = None
        if const is not None and const.value != 0.0 and q >= 3:
            ratio = float(ell) ** d * moment / const.value
        rows.append(("moment", d, q, ell, moment, err, variance, c_val, ratio))

    if const is not None and q >= 3 and rows[-1][8] is not None:
        final_ratio = rows[-1][8]
        checks.append(_check(
            "asymptotic_ratio_final",
            abs(final_ratio - 1.0) <= cfg.ratio_tol,
            f"ell^d * moment / c = {final_ratio:.6f} at ell={cfg.ell[-1]} (tol {cfg.ratio_tol})",
        ))

    summary = {}
    ells = list(cfg.ell)
    dyadic = (len(ells) >= 3 and all(l & (l - 1) == 0 for l in ells)
              and ells == sorted(set(ells)) and max(ells) >= 4096)
    if (d, q) == (2, 4) and dyadic:
        rec = log_divergence_check(ells)
        rows.append(("log_slope", d, q, None, rec.slope, rec.stderr, None, None, None))
        checks.append(_check(
            "log_divergence_slope",
            abs(rec.slope - 576.0) <= cfg.slope_tol * 576.0,
            f"slope of Var*ell^2 vs log(ell) = {rec.slope:.2f} (target 576 +- {cfg.slope_tol:.0%})",
        ))
        summary["log_slope"] = {"slope": rec.slope, "stderr": rec.stderr, "intercept": rec.intercept}

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"moments_d{d}_q{q}.csv"
    write_csv(csv_path, ("kind", "d", "q", "ell", "moment", "err_est", "variance", "c_qd", "ratio"), rows)
    if const is not None:
        summary["c_qd"] = {"value": const.value, "mode": const.convergence_mode,
                           "zeros_used": const.zeros_used, "err_est": const.err_est}
    write_manifest(out / f"moments_d{d}_q{q}.manifest.json", cfg, [csv_path.name], checks, summary)
    return 0 if all(c["passed"] for c in checks) else 1


def cmd_contractions(cfg: RunConfig) -> int:
    if cfg.q is None or cfg.q < 2:
        raise UsageError("contractions requires --q >= 2")
    if not cfg.ell:
        raise UsageError("contractions requires --ell")
    d, q = cfg.d, cfg.q
    dim = SphereDim(d)
    checks = []
    rows = []
    for ell in cfg.ell:
        table = contraction_table(ell, q, d)
        try:
            bound = berry_esseen_bound(ell, q, d)
            tv, k, w = bound.bound_tv, bound.bound_k, bound.bound_w
        except ZeroVarianceError:  # h is a.s. zero (odd ell, odd q): no bound
            tv = k = w = None
        rate = rate_theoretical(ell, q, d)
        for r in range(1, q):
            rows.append((d, q, r, ell, float(table.K_values[r - 1]), tv, k, w, rate))
        if q == 2:
            exact = dim.mu_d ** 4 / dim_harmonics(ell, d) ** 3
            rel = abs(float(table.K_values[0]) / exact - 1.0)
            checks.append(_check(
                f"contraction_closed_form_ell{ell}", rel <= 1e-10,
                f"K(2;1) vs mu^4/n^3 relative deviation {rel:.3e}",
            ))

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"contractions_d{d}_q{q}.csv"
    write_csv(csv_path, ("d", "q", "r", "ell", "K", "bound_tv", "bound_k", "bound_w", "rate_theoretical"), rows)
    write_manifest(out / f"contractions_d{d}_q{q}.manifest.json", cfg, [csv_path.name], checks)
    return 0 if all(c["passed"] for c in checks) else 1


def _functional(cfg: RunConfig) -> Functional:
    """The run's functional; its kind defaults to S for `excursion`, else h."""
    kind = cfg.kind or ("S" if cfg.command == "excursion" else "h")
    return Functional.of(kind, cfg.q, cfg.betas, cfg.z, cfg.excursion_q_max)


def cmd_simulate(cfg: RunConfig) -> int:
    f = _functional(cfg)
    if len(cfg.ell) != 1:
        raise UsageError("simulate runs one multipole at a time; pass --ell with a single value")
    ell = cfg.ell[0]
    if ell % 2 and not cfg.allow_odd:
        raise UsageError("odd multipole; pass --allow-odd to simulate it anyway")
    d = cfg.d
    grid = build_grid(d, f.degree(ell))
    try:
        var = f.variance(ell, d)
    except ZeroVarianceError:
        if f.kind != "h":
            raise
        var = None  # h_{ell;q} is degenerate (q < 2, or odd q at odd ell): raw values only
    raw = _samples(f, grid, ell, cfg.seed, cfg.replicas, cfg.threads)
    normalized = [None] * raw.size if var is None else (raw - f.mean(grid.dim)) / math.sqrt(var)
    rows = [(rep, d, f.label, ell, cfg.z, value, scaled)
            for rep, (value, scaled) in enumerate(zip(raw, normalized))]

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"simulate_{f.kind}_d{d}_ell{ell}.csv"
    write_csv(csv_path, ("replica", "d", "q_or_kind", "ell", "z", "raw", "normalized"), rows)
    summary = {"grid": {"d": d, "n_nodes": grid.n_nodes, "exact_degree": grid.exact_degree,
                        "weight_sum": float(grid.weights.sum())}}
    write_manifest(out / f"simulate_{f.kind}_d{d}_ell{ell}.manifest.json", cfg, [csv_path.name], [], summary)
    return 0


_REPORT_HEADER = ("kind", "d", "q", "z") + tuple(f.name for f in fields(CltRow))


def _report_rows(report: CltReport):
    for r in report.rows:
        yield (report.kind, report.d, report.q, report.z) + astuple(r)


def _write_sweep_outputs(cfg: RunConfig, report: CltReport, base: str, checks):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{base}.csv"
    write_csv(csv_path, _REPORT_HEADER, _report_rows(report))
    outputs = [csv_path.name]
    for metric, attr in (("dk", "empirical_dK"), ("dw", "empirical_dW")):
        dat_path = out / f"{base}_log{metric}.dat"
        lines = [
            f"{repr(math.log(r.ell))} {repr(math.log(getattr(r, attr)))}"
            for r in report.rows if getattr(r, attr) > 0.0
        ]
        dat_path.write_text("\n".join(lines) + "\n")
        outputs.append(dat_path.name)

    summary = {"warnings": list(report.warnings)}
    try:
        fit = rate_fit(report)
        summary["rate_fit"] = {
            "slope": fit.slope, "stderr": fit.stderr, "theory_slope": fit.theory_slope,
            "decays_at_least_as_fast": fit.decays_at_least_as_fast,
            "n_used": fit.n_used, "n_below_floor": fit.n_below_floor,
        }
    except ValueError as exc:
        summary["rate_fit"] = {"skipped": str(exc)}
    write_manifest(out / f"{base}.manifest.json", cfg, outputs, checks, summary)


def _sweep_checks(report: CltReport) -> list[dict]:
    """Explicit-bound consistency where a bound exists; for kind S the sample
    mean and variance against mu_d*Phi(z) and the chaos prediction."""
    checks = []
    for r in report.rows:
        if r.explicit_bound is not None:
            ok = r.empirical_dK <= r.explicit_bound + 3.0 * r.mc_stderr_scale
            checks.append(_check(
                f"bound_consistency_ell{r.ell}", ok,
                f"dK = {r.empirical_dK:.4f} vs bound {r.explicit_bound:.4f} + 3*floor",
            ))
        if report.kind == "S":
            mean_se = math.sqrt(r.sample_var / r.replicas)
            var_se = r.sample_var * math.sqrt(2.0 / (r.replicas - 1))
            checks.append(_check(
                f"excursion_mean_ell{r.ell}",
                abs(r.sample_mean - r.predicted_mean) <= 4.0 * mean_se,
                f"sample mean {r.sample_mean:.6f} vs mu_d*Phi(z) = {r.predicted_mean:.6f} (4se = {4 * mean_se:.6f})",
            ))
            checks.append(_check(
                f"excursion_variance_ell{r.ell}",
                abs(r.sample_var - r.predicted_var) <= 4.0 * var_se,
                f"sample var {r.sample_var:.6f} vs chaos prediction {r.predicted_var:.6f} (4se = {4 * var_se:.6f})",
            ))
    return checks


def cmd_clt(cfg: RunConfig) -> int:
    """Serves `clt` and `excursion`, which is the kind S sweep under its own file names."""
    kind = _functional(cfg).kind
    if not cfg.ell:
        raise UsageError(f"{cfg.command} requires --ell")
    if cfg.command == "excursion":
        base = f"excursion_d{cfg.d}_z{cfg.z:g}"
    else:
        name_part = f"q{cfg.q}" if kind == "h" else ("poly" if kind == "Z" else f"z{cfg.z:g}")
        base = f"clt_{kind}_d{cfg.d}_{name_part}"
    report = clt_sweep(
        kind, cfg.d, list(cfg.ell), cfg.replicas, cfg.seed,
        q=cfg.q, betas=cfg.betas, z=cfg.z, threads=cfg.threads,
        allow_odd=cfg.allow_odd, excursion_q_max=cfg.excursion_q_max,
    )
    checks = _sweep_checks(report)
    _write_sweep_outputs(cfg, report, base, checks)
    return 0 if all(c["passed"] for c in checks) else 1


# ------------------------------------------------------------------
# argument parsing
# ------------------------------------------------------------------

_COMMANDS = {
    "moments": (cmd_moments, "Gegenbauer moment integrals, variances, limiting constants"),
    "contractions": (cmd_contractions, "contraction norms and Berry-Esseen bound tables"),
    "simulate": (cmd_simulate, "replica-level functional samples at one multipole"),
    "clt": (cmd_clt, "CLT sweep: empirical distances vs rates and bounds"),
    "excursion": (cmd_clt, "excursion-area CLT sweep with mean/variance checks"),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphclt",
        description="Variance asymptotics and quantitative CLTs for random spherical eigenfunctions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for f in _keys(command):
            meta = f.metadata
            if command in meta["no_flag"]:
                continue
            if meta["parse"] is _parse_bool:
                p.add_argument(meta["flag"], dest=f.name, action="store_const", const=True,
                               help=meta["help"])
            else:
                p.add_argument(meta["flag"], dest=f.name, type=meta["parse"],
                               choices=meta["choices"], help=meta["help"])
        p.add_argument("--config", help="line-oriented config file (key = value); flags win")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:  # from a flag's parser: argparse lets it through
        print(f"sphclt: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = build_config(args.command, args)
        return _COMMANDS[args.command][0](cfg)
    except (UsageError, ValueError) as exc:  # DivergentIntegralError etc. are ValueErrors
        print(f"sphclt {args.command}: {exc}", file=sys.stderr)
        return 2
    except ToleranceNotMetError as exc:
        print(f"sphclt {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
