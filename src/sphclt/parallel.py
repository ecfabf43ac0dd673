"""Deterministic work splitting.

Work is cut into chunks whose boundaries depend only on the task (never on
the worker count), each chunk is pure, and results are merged in chunk order.
OpenBLAS runs on one thread while a map runs, whatever the worker count, so
no BLAS call splits its sums differently between runs.  Consequently any
`threads` setting produces bit-identical output.
"""

from __future__ import annotations

import ctypes
import functools
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

CHUNK = 64


def fixed_chunks(n_items: int, chunk: int = CHUNK):
    """[(start, stop), ...] covering range(n_items) in fixed-size pieces."""
    return [(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or
    None when numpy links another BLAS."""
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
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


def ordered_map(fn, items, threads: int = 1):
    """Map preserving order; threads only affect wall time, not results."""
    with single_threaded_blas():
        if threads <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
