"""Output gate: decides whether one sphclt command produced correct output.

A command passes when it exited 0, its manifest says ``all_passed``, every
expected file exists, every numeric CSV and ``.dat`` cell is finite, and the
family's own checks hold:

- ``simulate``: one CSV row per requested replica;
- ``contractions``: bound columns never blank, and K(q; r) == K(q; q - r);
- ``moments``: variance == q! mu_d mu_{d-1} * 2 * moment on every moment row
  with q >= 3 and even q*ell (the identity recomputed here from the sphere
  volumes).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

RELATIVE_TOL = 1e-12
SWEEP_FAMILIES = ("clt", "excursion")  # both go through clt_sweep and write .dat files


def expected_files(family: str, base: str) -> list[str]:
    files = [f"{base}.csv", f"{base}.manifest.json"]
    if family in SWEEP_FAMILIES:
        files += [f"{base}_logdk.dat", f"{base}_logdw.dat"]
    return files


def _sphere_volume(d: int) -> float:
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RELATIVE_TOL * max(abs(a), abs(b))


def _nonfinite(cells) -> bool:
    for cell in cells:
        try:
            value = float(cell)
        except ValueError:
            continue  # text column such as "moment" or "h3"
        if not math.isfinite(value):
            return True
    return False


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _moments_failures(rows) -> list[str]:
    out = []
    for row in rows:
        if row["kind"] != "moment":
            continue
        q, d, ell = int(row["q"]), int(row["d"]), int(row["ell"])
        if q < 3 or (q * ell) % 2:  # full range is twice the half only for even q*ell
            continue
        expected = (math.factorial(q) * _sphere_volume(d) * _sphere_volume(d - 1)
                    * 2.0 * float(row["moment"]))
        if not _close(float(row["variance"]), expected):
            out.append(f"variance identity fails at ell={row['ell']}: "
                       f"{row['variance']} vs {expected!r}")
    return out


def _contractions_failures(rows) -> list[str]:
    out = []
    k_values = {}
    for row in rows:
        for col in ("bound_tv", "bound_k", "bound_w"):
            if row[col] == "":
                out.append(f"blank {col} at ell={row['ell']} r={row['r']}")
        k_values[(row["d"], row["q"], row["ell"], int(row["r"]))] = float(row["K"])
    for (d, q, ell, r), k in k_values.items():
        mirror = k_values.get((d, q, ell, int(q) - r))
        if mirror is None or not _close(k, mirror):
            out.append(f"K(q;r) != K(q;q-r) at ell={ell} r={r}")
    return out


def check_command(family: str, base: str, out_dir: Path, exit_code: int,
                  replicas: int | None = None) -> list[str]:
    """Reasons the command failed; an empty list means it passed."""
    out = []
    if exit_code != 0:
        out.append(f"exit code {exit_code}")
    missing = [name for name in expected_files(family, base) if not (out_dir / name).is_file()]
    if missing:
        return out + [f"missing output {name}" for name in missing]

    manifest = json.loads((out_dir / f"{base}.manifest.json").read_text())
    if manifest.get("all_passed") is not True:
        failed = [c["name"] for c in manifest.get("checks", []) if not c.get("passed")]
        out.append(f"manifest all_passed is false: {failed}")
    for name in manifest.get("outputs", []):
        if not (out_dir / name).is_file():
            out.append(f"manifest lists missing output {name}")

    rows = _read_csv(out_dir / f"{base}.csv")
    if any(_nonfinite(row.values()) for row in rows):
        out.append("non-finite CSV cell")
    for name in expected_files(family, base):
        if name.endswith(".dat") and _nonfinite((out_dir / name).read_text().split()):
            out.append(f"non-finite value in {name}")
    if family == "simulate" and len(rows) != replicas:
        out.append(f"{len(rows)} simulate rows for {replicas} replicas")
    if family == "contractions":
        out += _contractions_failures(rows)
    if family == "moments":
        out += _moments_failures(rows)
    return out


def digests(family: str, base: str, out_dir: Path) -> dict[str, str]:
    """SHA-256 of every output file that exists."""
    out = {}
    for name in expected_files(family, base):
        path = out_dir / name
        if path.is_file():
            out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out
