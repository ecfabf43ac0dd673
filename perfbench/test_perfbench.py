"""Tests of the benchmark's own parts: span accounting, the output gate and
the metric names declared in BENCHMARK.json."""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402

SRC = HERE.parent / "src"


def traced_command(tmp_path, argv):
    result, trace = tmp_path / "result.json", tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(result), str(SRC), str(trace), "--",
         *argv, "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text()), json.loads(trace.read_text())


def test_self_time_nonnegative_with_worker_threads(tmp_path):
    _, doc = traced_command(tmp_path, ["clt", "--kind", "h", "--d", "2", "--q", "3",
                                       "--ell", "8,16", "--reps", "512", "--threads", "2",
                                       "--seed", "3"])
    spans = doc["spans"]
    assert all(s["self_ns"] >= 0 for s in spans)
    main_thread = next(s["thread"] for s in spans if s["name"] == "cli.main")
    chunks = [s for s in spans if s["name"] == "clt.chunk"]
    assert len(chunks) == 16  # 2 multipoles x 512 replicas / 64 per chunk
    assert any(s["thread"] != main_thread for s in chunks)


def test_self_times_of_one_thread_sum_to_wall(tmp_path):
    result, doc = traced_command(tmp_path, ["moments", "--d", "2", "--q", "3",
                                            "--ell", "16,32"])
    (root,) = [s for s in doc["spans"] if s["name"] == "cli.main"]
    mine = [s for s in doc["spans"] if s["thread"] == root["thread"]]
    assert len(mine) > 1
    assert sum(s["self_ns"] for s in mine) == root["end_ns"] - root["start_ns"]
    assert abs((root["end_ns"] - root["start_ns"]) / 1e9 - result["wall_s"]) < 0.05


def write_outputs(out_dir, base, header, rows, checks):
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)] + [",".join(str(x) for x in row) for row in rows]
    (out_dir / f"{base}.csv").write_text("\n".join(lines) + "\n")
    manifest = {"outputs": [f"{base}.csv"], "checks": checks,
                "all_passed": all(c["passed"] for c in checks)}
    (out_dir / f"{base}.manifest.json").write_text(json.dumps(manifest))


CONTRACTION_HEADER = ("d", "q", "r", "ell", "K", "bound_tv", "bound_k", "bound_w",
                      "rate_theoretical")


def test_gate_fails_a_manifest_with_one_failed_check(tmp_path):
    rows = [(2, 2, 1, 8, 0.5, 0.2, 0.1, 0.08, 0.35)]
    good = [{"name": "a", "passed": True, "detail": ""}]
    write_outputs(tmp_path / "good", "contractions_d2_q2", CONTRACTION_HEADER, rows, good)
    assert gate.check_command("contractions", "contractions_d2_q2", tmp_path / "good", 0) == []
    bad = good + [{"name": "b", "passed": False, "detail": ""}]
    write_outputs(tmp_path / "bad", "contractions_d2_q2", CONTRACTION_HEADER, rows, bad)
    failures = gate.check_command("contractions", "contractions_d2_q2", tmp_path / "bad", 0)
    assert len(failures) == 1 and "all_passed" in failures[0]


def test_gate_fails_a_blank_contraction_bound(tmp_path):
    rows = [(2, 3, 1, 8, 0.5, "", "", "", 0.35), (2, 3, 2, 8, 0.5, "", "", "", 0.35)]
    write_outputs(tmp_path, "contractions_d2_q3", CONTRACTION_HEADER, rows, [])
    failures = gate.check_command("contractions", "contractions_d2_q3", tmp_path, 0)
    assert failures and all("blank bound" in f for f in failures)


def test_benchmark_json_declares_the_reported_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in declared["end_to_end"]} == set(run.END_TO_END_UNITS)
    record = {"family": "moments", "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0,
              "output_bytes": 1}
    layer = run.per_layer([record], [record], [])
    assert [m["name"] for m in declared["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]]["unit"] for m in declared["per_layer"])
