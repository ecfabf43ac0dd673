"""Run one sphclt CLI command in a fresh interpreter and report its timings.

Usage: python3 child.py RESULT_JSON SRC_DIR TRACE_JSON|- -- ARGV...

Exits with the exit code of ``sphclt.cli.main(ARGV)``.  Writes RESULT_JSON
with the set-up time from this file's first statement until ``sphclt.cli``
is imported (``setup_s`` in CPU time of this thread, ``setup_wall_s`` in wall
time) and the
wall time of ``main(ARGV)``.  When TRACE_JSON is not ``-``, the command runs
traced and its spans go to TRACE_JSON.  CPU time and peak RSS of the whole
command are read by the parent from ``wait4``.
"""

import time

T0, CPU0 = time.perf_counter(), time.thread_time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    result_path, src, trace_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON SRC_DIR TRACE_JSON|- -- ARGV...")
    sys.path.insert(0, src)
    import sphclt.cli

    setup_wall_s = time.perf_counter() - T0
    setup_s = time.thread_time() - CPU0
    tracer = None
    if trace_path != "-":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.perf_counter()
    if tracer is None:
        code = sphclt.cli.main(argv)
    else:
        with tracer.span("cli.main"):
            code = sphclt.cli.main(argv)
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(trace_path, {"argv": argv, "wall_s": wall_s,
                                 "caches": spans.cache_counts()})
    with open(result_path, "w") as fh:
        json.dump({"setup_s": setup_s, "setup_wall_s": setup_wall_s, "wall_s": wall_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
