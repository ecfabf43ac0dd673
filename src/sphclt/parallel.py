"""Deterministic work splitting.

Work is cut into chunks whose boundaries depend only on the task (never on
the worker count), each chunk is pure, and results are merged in chunk order.
OpenBLAS runs on one thread while a map runs, whatever the worker count, so
no BLAS call splits its sums differently between runs.  Consequently any
`threads` setting produces bit-identical output.

The package sets OPENBLAS_NUM_THREADS=1 before numpy loads (a value set
beforehand is kept), so OpenBLAS normally starts no thread pool at all: the
workers here do the parallel work, and idle BLAS threads would only spin.
`single_threaded_blas` stays as the guard for processes that loaded numpy
first, so the contract above does not depend on import order.

With threads > 1, worker i of the pool is bound to CPU i % n of the n CPUs
its starter may use, for the pool's lifetime.  Where the scheduler does not
balance load (a cpuset with sched_load_balance = 0), a new thread stays on
the CPU of the thread that started it, and two unbound workers time-slice
one CPU.  The caller's own mask is never changed, and where the system
refuses the binding the workers run unbound.  Binding moves where a chunk
runs, never what it computes.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

CHUNK = 64


def fixed_chunks(n_items: int):
    """[(start, stop), ...] covering range(n_items) in pieces of CHUNK items."""
    return [(lo, min(lo + CHUNK, n_items)) for lo in range(0, n_items, CHUNK)]


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or
    None when numpy links another BLAS."""
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        # the symbols carry the library's name: libopenblas64_*.so exports
        # openblas_get_num_threads64_
        prefix = lib.name[3:lib.name.index("openblas") + len("openblas")]
        for suffix in ("64_", ""):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def single_threaded_blas():
    """Run the block with OpenBLAS on one thread; restore the count after."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _pin(workers):
    """Pool initializer: bind the i-th worker started to CPU i % n of the n
    CPUs it may use; where the system cannot, the worker runs unbound."""
    try:
        cpus = sorted(os.sched_getaffinity(0))  # the mask of the thread that started it
        os.sched_setaffinity(0, {cpus[next(workers) % len(cpus)]})
    except (AttributeError, OSError):
        pass


def ordered_map(fn, items, threads: int = 1):
    """Map preserving order; threads only affect wall time, not results.

    With threads > 1 each worker is bound to one CPU, round robin, for the
    pool's lifetime (`_pin`); the caller's mask is left as it was."""
    with single_threaded_blas():
        if threads <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=threads, initializer=_pin, initargs=(itertools.count(),)) as pool:
            return list(pool.map(fn, items))
