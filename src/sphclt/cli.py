"""Command-line front end.

Subcommands drive the computational modules and emit CSV tables plus a JSON
manifest per run.  Configuration comes from an optional line-oriented file
(`key = value`, `#` comments) merged with flags; flags win, unknown keys are
rejected, one parser per key reads a flag's text and a config line alike, and
the manifest echoes the resolved value of every key the command takes so a
run can be reproduced from its manifest alone.  The flags themselves are read
from the same key table (`read_argv`): full names only, `--flag VALUE` or
`--flag=VALUE`, the last occurrence winning.

Reproducibility rules: all randomness flows from one master seed (drawn from
OS entropy and recorded when --seed is absent); --threads only caps workers
and is deliberately kept out of the manifest, so reruns with the same seed
are byte-identical whatever the worker count.  No timestamps are written.

Exit codes: 0 every check passed; 1 a check failed and its manifest was
written; 2 a usage error (`UsageError`); 3 a numerical fault
(`NumericalError`).  `main` prints one line for a `SphcltError` and returns
its class's code; any other exception is a bug and propagates.
"""

from __future__ import annotations

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
from .moments import (bessel_constant, dougall_coefficient, dougall_row, expand_power, fit_line, gegenbauer_moment,
                      log_divergence_check, variance_h)
# build_grid, excursion_variance and sample_field have no caller here;
# perfbench/spans.py wraps these bindings
from .simulate import build_grid, excursion_variance, sample_field
from .specfun import (DivergentIntegralError, NumericalError, SphcltError, SphereDim, UsageError, ZeroVarianceError,
                      dim_harmonics, float_harmonics)

FORMAT_VERSION = "1"
# the tolerances of the `moments` checks are fixed, so `all_passed` means the
# same thing for every run
RATIO_TOL = 0.05
SLOPE_TOL = 0.10
EXPANSION_SUM_TOL = 1e-12
# `simulate` holds about 200 bytes per replica in its CSV rows, the sweeps about
# 60 (tracemalloc peaks at 1e5 replicas, ell = 2): this many stay below 1 GB
MAX_REPLICAS = 5_000_000


def parse_ell_spec(text: str) -> tuple[int, ...]:
    """Multipole list: '16,64,128' or dyadic range '256..8192'."""
    text = text.strip()
    kind = "range" if ".." in text else "list"
    try:
        if kind == "list":
            return tuple(int(tok) for tok in text.split(",") if tok.strip())
        lo, hi = (int(part) for part in text.split("..", 1))
    except ValueError:
        lo = hi = 0  # not integers: rejected below
    if lo < 1 or hi < lo:
        raise UsageError(f"bad multipole {kind} {text!r}")
    return tuple(lo << k for k in range((hi // lo).bit_length()))  # lo * 2^k <= hi


def parse_betas_spec(text: str) -> tuple[float, ...]:
    """Monomial coefficients b_0,b_1,...,b_Q as a comma list."""
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad coefficient list {text!r}") from exc


_SWEEPS = ("simulate", "clt", "excursion")
_ALL = ("moments", "contractions") + _SWEEPS


def _key(default, flag: str, parse, help_text: str, commands: tuple[str, ...], choices=None):
    """A RunConfig field settable by `flag` and by its config-file key;
    `parse` turns the text of either into the value."""
    return field(default=default, metadata=dict(flag=flag, parse=parse, help=help_text,
                                                 commands=commands, choices=choices))


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
    seed: int | None = _key(None, "--seed", int,
                            "master seed; drawn from entropy and recorded if absent", _SWEEPS)
    replicas: int = _key(2000, "--reps", int, "replicas per multipole (default 2000)", _SWEEPS)
    out_dir: str = _key(".", "--out-dir", str, "output directory (default .)", _ALL)
    threads: int = _key(1, "--threads", int, "worker cap; outputs do not depend on it", _ALL)


def _keys(command: str):
    """The RunConfig fields that `command` accepts."""
    return [f for f in fields(RunConfig) if command in f.metadata.get("commands", ())]


def _parse(f, raw: str, source: str):
    """Key `f` from its text, a flag's or a config line's alike; a bad text,
    or one outside the key's choices, is a one-line UsageError naming its `source`."""
    choices = f.metadata["choices"]
    if choices is not None and raw not in choices:
        raise UsageError(f"{source}: invalid choice {raw!r} (choose from {', '.join(choices)})")
    try:
        return f.metadata["parse"](raw)
    except ValueError as exc:  # UsageError included
        raise UsageError(f"{source}: {exc}") from None


def read_config_file(path: str, command: str) -> dict:
    keys = {f.name: f for f in _keys(command)}
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
        if key not in keys:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r} for command {command!r}")
        values[key] = _parse(keys[key], raw, f"{path}:{lineno}: {key}")
    return values


def build_config(command: str, raw: dict) -> RunConfig:
    """The run's configuration from the raw texts of its flags, keyed by field
    name and "config" as `read_argv` returns them; flags win over the config file."""
    values = read_config_file(raw["config"], command) if "config" in raw else {}
    for f in _keys(command):
        if f.name in raw:
            values[f.name] = _parse(f, raw[f.name], f.metadata["flag"])
    cfg = RunConfig(command=command, **values)
    if not cfg.ell:
        raise UsageError(f"{command} requires --ell")
    if command in ("moments", "contractions") and (cfg.q is None or cfg.q < 2):
        raise UsageError(f"{command} requires --q >= 2")
    if cfg.z is not None and not math.isfinite(cfg.z):
        raise UsageError(f"z must be finite, got {cfg.z}")
    if cfg.seed is not None and not 0 <= cfg.seed < 2 ** 128:
        raise UsageError(f"seed must satisfy 0 <= seed < 2**128, got {cfg.seed}")
    if cfg.replicas < 1 or cfg.threads < 1:
        raise UsageError(f"replicas and threads must be >= 1, got {cfg.replicas} and {cfg.threads}")
    if cfg.replicas > MAX_REPLICAS:  # before fixed_chunks lists the chunks of such a count
        raise NumericalError(f"{cfg.replicas} replicas exceed the limit of {MAX_REPLICAS}, about 1 GB of samples")
    if any(a >= b for a, b in zip(cfg.ell, cfg.ell[1:])):
        raise UsageError(f"--ell must be strictly increasing, got {','.join(map(str, cfg.ell))}")
    if cfg.seed is None and command in _SWEEPS:
        cfg = replace(cfg, seed=secrets.randbits(63))
    try:  # before any computation, so a bad path fails at once
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create --out-dir {cfg.out_dir!r}: {exc.strerror}") from exc
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


def write_manifest(path: Path, cfg: RunConfig, outputs, checks, summary) -> bool:
    """Write the manifest; returns its `all_passed`."""
    # the command and the keys it takes, less threads: an execution detail,
    # kept out for byte-identical reruns
    config_echo = {"command": cfg.command}
    config_echo.update((f.name, getattr(cfg, f.name)) for f in _keys(cfg.command) if f.name != "threads")
    all_passed = all(c["passed"] for c in checks)
    doc = {
        "format_version": FORMAT_VERSION,
        "tool": {"name": "sphclt", "version": __version__},
        "command": cfg.command,
        "config": config_echo,
        "outputs": sorted(str(o) for o in outputs),
        "checks": checks,
        "all_passed": all_passed,
        "summary": summary,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return all_passed


def _write_outputs(cfg: RunConfig, base: str, header, rows, checks, summary, extra=()) -> int:
    """Write `{base}.csv` and `{base}.manifest.json`, which also lists the
    `extra` outputs; returns the exit code, 0 when every check passed, else 1."""
    out = Path(cfg.out_dir)
    write_csv(out / f"{base}.csv", header, rows)
    passed = write_manifest(out / f"{base}.manifest.json", cfg, [f"{base}.csv", *extra], checks, summary)
    return 0 if passed else 1


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


# ------------------------------------------------------------------
# subcommands
# ------------------------------------------------------------------

def cmd_moments(cfg: RunConfig) -> int:
    d, q = cfg.d, cfg.q
    checks = []

    try:
        const = bessel_constant(q, d)  # closed form at q = 2, quadrature beyond
    except DivergentIntegralError:
        const = None  # the (2, 4) log-divergent case: no constant exists

    rows = []
    for ell in cfg.ell:
        variance = variance_h(ell, q, d)
        moment = gegenbauer_moment(ell, q, d, "half").value
        if q >= 3:  # G_ell(1) = 1, so the expansions behind the moment sum to 1
            powers = sorted({q // 2, q - q // 2}) if q * ell % 2 == 0 else [q - 1]
            dev = max(abs(float(np.sum(expand_power(ell, p, d))) - 1.0) for p in powers)
            checks.append(_check(
                f"expansion_sum_ell{ell}", dev <= EXPANSION_SUM_TOL,
                f"max |sum_k b_k^(p) - 1| over p = {', '.join(map(str, powers))}: {dev:.3e} "
                f"(tol {EXPANSION_SUM_TOL})",
            ))
        c_val = const.value if const is not None else None
        try:
            ratio = float(ell) ** d * moment / c_val if c_val and q >= 3 else None
        except OverflowError:
            raise NumericalError(f"ell^d = {ell}^{d} in the ratio column overflows a float") from None
        rows.append(("moment", d, q, ell, moment, variance, c_val, ratio))

    final_ratio = rows[-1][7]  # at the largest ell: build_config keeps --ell increasing
    if final_ratio is not None:
        checks.append(_check(
            "asymptotic_ratio_final",
            abs(final_ratio - 1.0) <= RATIO_TOL,
            f"ell^d * moment / c = {final_ratio:.6f} at ell={cfg.ell[-1]} (tol {RATIO_TOL})",
        ))

    summary = {}
    if (d, q) == (2, 4):
        try:
            slope, intercept, stderr = log_divergence_check(cfg.ell)
        except UsageError as exc:  # the multipoles cannot carry the slope fit
            summary["log_slope"] = {"skipped": str(exc)}
        else:
            rows.append(("log_slope", d, q, None, slope, None, None, None))
            checks.append(_check(
                "log_divergence_slope",
                abs(slope - 576.0) <= SLOPE_TOL * 576.0,
                f"slope of Var*ell^2 vs log(ell) = {slope:.2f} (target 576 +- {SLOPE_TOL:.0%})",
            ))
            summary["log_slope"] = {"slope": slope, "stderr": stderr, "intercept": intercept}

    if const is not None:
        summary["c_qd"] = {"value": const.value, "mode": const.convergence_mode,
                           "zeros_used": const.zeros_used, "err_est": const.err_est}
    return _write_outputs(cfg, f"moments_d{d}_q{q}",
                          ("kind", "d", "q", "ell", "moment", "variance", "c_qd", "ratio"),
                          rows, checks, summary)


def _bound_slope(points) -> dict:
    """Least-squares slopes of log bound_k and of log rate_theoretical against
    log ell, over the (ell, bound_k, rate) points whose bound is positive and finite."""
    points = [p for p in points if p[1] is not None and 0.0 < p[1] < math.inf]
    if len(points) < 3:
        return {"skipped": f"need at least three multipoles with a positive finite bound, got {len(points)}"}
    log_ell, log_k, log_rate = np.log(np.array(points, dtype=float)).T
    slope, _, stderr = fit_line(log_ell, log_k)
    return {"slope": slope, "stderr": stderr, "theory_slope": fit_line(log_ell, log_rate)[0]}


def cmd_contractions(cfg: RunConfig) -> int:
    d, q = cfg.d, cfg.q
    dim = SphereDim(d)
    checks = []
    rows = []
    points = []
    for ell in cfg.ell:
        # the bound first: it rejects a chaos order beyond BOUND_MAX_ORDER before any expansion
        try:
            bound = berry_esseen_bound(ell, q, d)
            tv, k, w = bound.bound_tv, bound.bound_k, bound.bound_w
        except ZeroVarianceError:  # h is a.s. zero (odd ell, odd q): no bound
            tv = k = w = None
        K = contraction_table(ell, q, d)
        rate = rate_theoretical(ell, q, d)
        points.append((ell, k, rate))
        for r in range(1, q):
            rows.append((d, q, r, ell, float(K[r - 1]), tv, k, w, rate))
        if q == 2:  # contraction_table has raised if K, and so mu_d^4 / n^3, underflows
            exact = dim.mu_d ** 4 / dim_harmonics(ell, d) ** 3
            rel = abs(float(K[0]) / exact - 1.0)
            checks.append(_check(
                f"contraction_closed_form_ell{ell}", rel <= 1e-10,
                f"K(2;1) vs mu^4/n^3 relative deviation {rel:.3e}",
            ))
        if ell % 2 == 0 or q % 2 == 0:  # else the parity makes the variance exactly 0
            # int G^q = int G^{q-1} G_ell: the r = 1 form of the sum behind variance_h, with
            # b_ell^(q-1) as one Rogers-Dougall row over G^{q-2}; at q = 3 that row is the
            # sum itself, so its one term b_ell^(2) comes from the scalar closed form instead
            if q == 3:
                b_ell, source = dougall_coefficient(ell, ell, ell // 2, d), "c(ell, ell, ell/2)"
            else:
                b_ell, source = dougall_row(ell, q - 1, d), f"b_ell^({q - 1})"
            spectral = math.factorial(q) * dim.mu_d ** 2 * b_ell / float_harmonics(ell, d)
            variance = variance_h(ell, q, d)
            rel = abs(variance - spectral) / spectral if spectral > 0.0 else math.inf
            checks.append(_check(
                f"variance_spectral_ell{ell}", rel <= 1e-9,
                f"Var h vs q! mu_d^2 {source} / n relative deviation {rel:.3e}",
            ))

    return _write_outputs(cfg, f"contractions_d{d}_q{q}",
                          ("d", "q", "r", "ell", "K", "bound_tv", "bound_k", "bound_w", "rate_theoretical"),
                          rows, checks, {"bound_slope": _bound_slope(points)})


def _functional(cfg: RunConfig) -> Functional:
    """The run's functional; its kind defaults to S for `excursion`, else h."""
    kind = cfg.kind or ("S" if cfg.command == "excursion" else "h")
    return Functional.of(kind, cfg.q, cfg.betas, cfg.z)


def cmd_simulate(cfg: RunConfig) -> int:
    f = _functional(cfg)
    if len(cfg.ell) != 1:
        raise UsageError("simulate runs one multipole at a time; pass --ell with a single value")
    ell = cfg.ell[0]
    f = f.at(ell)
    d = cfg.d
    grid = f.grid(ell, d)
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

    summary = {"grid": grid.summary(), "reduction_dtype": f.reduction_dtype().name}
    return _write_outputs(cfg, f"simulate_{f.kind}_d{d}_ell{ell}",
                          ("replica", "d", "q_or_kind", "ell", "z", "raw", "normalized"), rows, [], summary)


_REPORT_HEADER = ("kind", "d", "q", "z") + tuple(f.name for f in fields(CltRow))


def _report_rows(report: CltReport):
    for r in report.rows:
        yield (report.kind, report.d, report.q, report.z) + astuple(r)


def _write_sweep_outputs(cfg: RunConfig, report: CltReport, base: str, checks) -> int:
    dats = [f"{base}_logdk.dat", f"{base}_logdw.dat"]
    for name, attr in zip(dats, ("empirical_dK", "empirical_dW")):
        lines = [
            f"{repr(math.log(r.ell))} {repr(math.log(getattr(r, attr)))}"
            for r in report.rows if getattr(r, attr) > 0.0
        ]
        (Path(cfg.out_dir) / name).write_text("\n".join(lines) + "\n")

    summary = {"warnings": list(report.warnings), "grids": list(report.grids)}
    try:
        summary["rate_fit"] = rate_fit(report)
    except UsageError as exc:
        summary["rate_fit"] = {"skipped": str(exc)}
    return _write_outputs(cfg, base, _REPORT_HEADER, _report_rows(report), checks, summary, dats)


def _sweep_checks(report: CltReport) -> list[dict]:
    """Explicit-bound consistency where a bound exists; for kind S the sample
    mean and variance against mu_d*Phi(z) and the exact `excursion_variance`."""
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
                f"sample var {r.sample_var:.6f} vs exact prediction {r.predicted_var:.6f} (4se = {4 * var_se:.6f})",
            ))
    return checks


def cmd_clt(cfg: RunConfig) -> int:
    """Serves `clt` and `excursion`, which is the kind S sweep under its own file names."""
    kind = _functional(cfg).kind
    if cfg.command == "excursion":
        base = f"excursion_d{cfg.d}_z{cfg.z:g}"
    else:
        name_part = f"q{cfg.q}" if kind == "h" else ("poly" if kind == "Z" else f"z{cfg.z:g}")
        base = f"clt_{kind}_d{cfg.d}_{name_part}"
    report = clt_sweep(kind, cfg.d, list(cfg.ell), cfg.replicas, cfg.seed, q=cfg.q,
                       betas=cfg.betas, z=cfg.z, threads=cfg.threads)
    return _write_sweep_outputs(cfg, report, base, _sweep_checks(report))


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

_HELP = ("-h", "--help")


def _help_text(command: str | None = None) -> str:
    """The command list, or `command`'s flags, from the RunConfig key table."""
    if command is None:
        lines = ["usage: sphclt COMMAND [--flag VALUE ...]",
                 "Variance asymptotics and quantitative CLTs for random spherical eigenfunctions",
                 "", "commands:"]
        lines += [f"  {name:<14}{text}" for name, (_, text) in _COMMANDS.items()]
        lines += ["", "sphclt COMMAND --help lists the flags of COMMAND"]
        return "\n".join(lines)
    entries = [(f.metadata["flag"], f.metadata["help"]
                + (f" (one of {', '.join(f.metadata['choices'])})" if f.metadata["choices"] else ""))
               for f in _keys(command)]
    entries.append(("--config", "line-oriented config file (key = value); flags win"))
    lines = [f"usage: sphclt {command} [--flag VALUE ...]", _COMMANDS[command][1], "",
             "flags, by full name as --flag VALUE or --flag=VALUE; the last one wins:"]
    lines += [f"  {flag:<11}{text}" for flag, text in entries]
    return "\n".join(lines)


def read_argv(command: str, args: list[str]) -> dict | None:
    """The raw texts of `command`'s flags in `args`, keyed by RunConfig field
    name and "config", or None where -h or --help asks for the help text.

    A flag is named in full, as `--flag VALUE` or `--flag=VALUE`; a value may
    begin with a single `-` but not with `--`, and the last occurrence of a
    flag wins.  Anything else is a one-line UsageError."""
    flags = {f.metadata["flag"]: f.name for f in _keys(command)}
    flags["--config"] = "config"
    raw = {}
    tokens = iter(args)
    for token in tokens:
        if token in _HELP:
            return None
        flag, eq, value = token.partition("=")
        if flag not in flags:
            if not token.startswith("-"):
                raise UsageError(f"unexpected argument {token!r}")
            raise UsageError(f"unknown flag {flag!r}; {command} takes {', '.join(flags)}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"{flag} expects a value")
        raw[flags[flag]] = value
    return raw


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        if command is None:
            if argv and argv[0] in _HELP:
                print(_help_text())
                return 0
            got = f"unknown command {argv[0]!r}" if argv else "no command"
            raise UsageError(f"{got}; choose from {', '.join(_COMMANDS)}, or --help")
        raw = read_argv(command, argv[1:])
        if raw is None:
            print(_help_text(command))
            return 0
        return _COMMANDS[command][0](build_config(command, raw))
    except SphcltError as exc:
        print(f"sphclt {command}: {exc}" if command else f"sphclt: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
