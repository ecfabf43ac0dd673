"""sphclt benchmark: whole CLI commands end to end, and per layer when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command of the workload runs in a fresh interpreter (``child.py``) on
the sources under ``src/``; nothing is installed.  Every command's outputs go
through ``gate.check_command`` and their SHA-256 digests are compared with
those of earlier runs of the same sources and arguments, kept in
``.perfbench/digests.json``, because the CLI promises byte-identical reruns.

``--trace 0`` runs whole passes over the workload's commands, starting
another only while it is expected to end within ``--seconds``, and reports
the end-to-end metrics of ``end_to_end``.  ``--trace 1`` runs one plain
pass and one traced pass and reports the per-layer metrics of ``spans.py``.
The last line of standard output is the result object; the run record with
its metadata goes to ``.perfbench/runs/``.  BLAS threading is left at its
default, which is what a user gets; the record names it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import spans  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0  # a run must end within 180 s; a command still running then is killed

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Command:
    args: str  # CLI arguments, subcommand first
    base: str  # stem of the output files

    @property
    def family(self) -> str:
        return self.args.split()[0]

    @property
    def replicas(self) -> int | None:
        words = self.args.split()
        return int(words[words.index("--reps") + 1]) if "--reps" in words else None

    def argv(self, seed: int) -> list[str]:
        seeded = self.family in gate.SWEEP_FAMILIES + ("simulate",)
        return self.args.split() + (["--seed", str(seed)] if seeded else [])


# Why each workload: see README.md.  Every per-family time is sized to about
# 4 s or more, because commands under 2 s varied by up to 2x between runs.
WORKLOADS = {
    "asymptotics": (
        Command("moments --d 2 --q 4 --ell 256..4096", "moments_d2_q4"),
        Command("moments --d 2 --q 3 --ell 256..2048", "moments_d2_q3"),
        Command("moments --d 3 --q 3 --ell 64..1024", "moments_d3_q3"),
        Command("contractions --d 2 --q 4 --ell 64,256,1024", "contractions_d2_q4"),
        Command("contractions --d 2 --q 3 --ell 256,1024,2048", "contractions_d2_q3"),
        Command("contractions --d 4 --q 4 --ell 64,256,1024", "contractions_d4_q4"),
    ),
    "monte_carlo": (
        Command("clt --kind h --d 2 --q 3 --ell 16,64,128 --reps 2000 --threads 2", "clt_h_d2_q3"),
        Command("clt --kind Z --d 2 --betas 0,0,1,0,1 --ell 16,32,64 --reps 1000 --threads 2",
                "clt_Z_d2_poly"),
        Command("excursion --d 2 --z 1.0 --ell 16,64 --reps 2000 --threads 2", "excursion_d2_z1"),
        Command("simulate --kind h --d 2 --q 3 --ell 64 --reps 2000", "simulate_h_d2_ell64"),
        Command("simulate --kind h --d 3 --q 3 --ell 6 --reps 1000", "simulate_h_d3_ell6"),
    ),
}


def family_metric(family: str) -> str:
    return "cli.sweep_s" if family in gate.SWEEP_FAMILIES else f"cli.{family}_s"


# ------------------------------------------------------------------
# one command
# ------------------------------------------------------------------

def run_command(cmd: Command, seed: int, work: Path, deadline: float,
                trace_path: Path | None) -> dict:
    """Run one command in a child interpreter; returns its record.

    The child runs in ``work`` and writes to the relative directory ``out``,
    because the manifest echoes ``--out-dir`` and must not differ between runs.
    """
    out_dir = work / "out"
    out_dir.mkdir(parents=True)
    result_path = work / "result.json"
    argv = cmd.argv(seed) + ["--out-dir", out_dir.name]
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(result_path), str(SRC),
         str(trace_path) if trace_path else "-", "--", *argv],
        stdout=sys.stderr, cwd=work,
    )
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)

    record = {"argv": argv, "family": cmd.family, "exit_code": proc.returncode,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if result_path.is_file():
        record.update(json.loads(result_path.read_text()))
    try:
        record["failures"] = gate.check_command(cmd.family, cmd.base, out_dir,
                                                proc.returncode, cmd.replicas)
    except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
        record["failures"] = [f"unreadable output: {exc!r}"]
    if "wall_s" not in record:
        record["failures"].append("no timing result (the child crashed or was killed)")
    record["digests"] = gate.digests(cmd.family, cmd.base, out_dir)
    record["output_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
    return record


class DigestStore:
    """Output digests of earlier runs, keyed by source digest and argv."""

    def __init__(self, path: Path, source: str):
        self.path = path
        self.source = source
        self.known = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, record: dict) -> None:
        key = f"{self.source} {' '.join(record['argv'])}"
        earlier = self.known.setdefault(key, record["digests"])
        if earlier != record["digests"]:
            changed = sorted(n for n in set(earlier) | set(record["digests"])
                             if earlier.get(n) != record["digests"].get(n))
            record["failures"].append(f"outputs differ from an earlier run: {changed}")

    def save(self) -> None:
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def run_pass(commands, seed, work: Path, deadline, store: DigestStore, trace_dir=None):
    records = []
    for i, cmd in enumerate(commands):
        trace_path = trace_dir / f"cmd{i}.json" if trace_dir else None
        record = run_command(cmd, seed, work / f"cmd{i}", deadline, trace_path)
        store.check(record)
        records.append(record)
        status = "ok" if not record["failures"] else "FAILED " + "; ".join(record["failures"])
        print(f"{record.get('wall_s', float('nan')):8.3f} s  sphclt {' '.join(record['argv'])}"
              f"  [{status}]", file=sys.stderr)
    return records


# ------------------------------------------------------------------
# metrics
# ------------------------------------------------------------------

def pass_metrics(records) -> dict:
    """Per-pass totals: wall, CPU, peak RSS and wall time per command family."""
    out = {
        "wall_s": sum(r.get("wall_s", 0.0) for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }
    for r in records:
        key = family_metric(r["family"])
        out[key] = out.get(key, 0.0) + r.get("wall_s", 0.0)
    return out


def end_to_end(passes) -> dict:
    """Times of the fastest pass, median peak RSS, median set-up over commands.

    Host CPU steal on a shared machine only ever slows a pass, and it came
    in bursts that hit one pass of a run and not the other, so the fastest
    pass is the steadiest estimate of a run's time.
    """
    per_pass = [pass_metrics(p) for p in passes]
    # 0.0 only when every child crashed, and then the run is not correct anyway
    setups = [r["setup_s"] for p in passes for r in p if "setup_s" in r] or [0.0]
    out = {
        "setup_s": statistics.median(setups),
        "wall_s": min(m["wall_s"] for m in per_pass),
        "cpu_s": min(m["cpu_s"] for m in per_pass),
        "peak_rss_mb": statistics.median(m["peak_rss_mb"] for m in per_pass),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in out.items()}


def per_layer(plain, traced, docs) -> dict:
    """Layer metrics of the traced pass, with the plain pass as the base."""
    metrics = spans.layer_metrics(docs)
    metrics["cli.output_bytes"] = (sum(r["output_bytes"] for r in traced), "B")
    base = pass_metrics(plain)
    for family in ("moments", "contractions", "clt", "simulate"):
        key = family_metric(family)
        metrics[key] = (base.get(key, 0.0), "s")
    metrics["trace_overhead_frac"] = (spans._ratio(pass_metrics(traced)["wall_s"], base["wall_s"])
                                      - 1.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ------------------------------------------------------------------
# metadata
# ------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # an exported checkout: the source digest identifies it
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def blas_info() -> dict:
    import ctypes

    import numpy as np

    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": cfg.get("name"), "version": cfg.get("version"), "threads": threads,
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                    if k in os.environ}}


def metadata(seed: int, source: str) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "source_sha256": source,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 20,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "seed": seed,
    }


# ------------------------------------------------------------------
# entry point
# ------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sphclt" / "cli.py").is_file():
        print(f"no sphclt sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    source = source_digest()
    commands = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = STATE / "work" / f"{tag}-{os.getpid()}"
    trace_dir = STATE / "traces" / tag
    (STATE / "runs").mkdir(parents=True, exist_ok=True)
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)  # spans of an earlier run with this tag
        trace_dir.mkdir(parents=True)
    store = DigestStore(STATE / "digests.json", source)
    passes = []
    try:
        if args.trace:
            passes.append(run_pass(commands, args.seed, work / "plain", deadline, store))
            passes.append(run_pass(commands, args.seed, work / "traced", deadline, store,
                                   trace_dir))
        else:
            while True:
                t0 = time.monotonic()
                passes.append(run_pass(commands, args.seed, work / f"pass{len(passes)}",
                                       deadline, store))
                took = time.monotonic() - t0
                if time.monotonic() + took - start > args.seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    store.save()

    records = [r for p in passes for r in p]
    failed = sum(1 for r in records if r["failures"])
    if args.trace:
        docs = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("cmd*.json"))]
        metrics = per_layer(passes[0], passes[1], docs)
    else:
        metrics = end_to_end(passes)
    meta = metadata(args.seed, source)
    (STATE / "runs" / f"{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "meta": meta, "passes": passes, "metrics": metrics},
        indent=1))
    print("meta: " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
