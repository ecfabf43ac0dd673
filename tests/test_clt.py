"""Distance estimators, sweep plumbing and rate diagnostics."""

import math
import os
import sys
import threading
import time
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from sphclt import clt
from sphclt.clt import (
    BLOCK_VALUES,
    CltReport,
    CltRow,
    Functional,
    _normal_quantiles,
    _samples,
    clt_sweep,
    functional_excursion,
    functional_h,
    functional_Z,
    kolmogorov_distance,
    rate_fit,
    wasserstein_distance,
)
from sphclt.parallel import CHUNK, single_threaded_blas
from sphclt.simulate import _replica_values, _sample_batch, _synthesis_plan, build_grid, excursion_variance, sample_field
from sphclt.specfun import NumericalError, UsageError, ZeroVarianceError, hermite

from oracles import float64_samples


# ------------------------------------------------------------------
# Kolmogorov distance
# ------------------------------------------------------------------

def test_kolmogorov_degenerate():
    assert kolmogorov_distance(np.zeros(10)) == pytest.approx(0.5)


def test_kolmogorov_exact_quantiles():
    n = 10_000
    q = ndtri((np.arange(1, n + 1) - 0.5) / n)
    assert kolmogorov_distance(q) <= 1e-4 + 0.5 / n


def test_kolmogorov_normal_critical_value():
    # ~99% of true-normal samples fall below 1.63/sqrt(n); all 20 fixed
    # Philox streams below were checked to do so
    n, below = 10_000, 0
    for seed in range(20):
        x = np.random.Generator(np.random.Philox(key=seed)).standard_normal(n)
        below += kolmogorov_distance(x) < 1.63 / math.sqrt(n)
    assert below == 20


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=60))
@settings(max_examples=50, deadline=None)
def test_kolmogorov_permutation_invariant(xs):
    arr = np.array(xs)
    rng = np.random.default_rng(0)
    assert kolmogorov_distance(rng.permutation(arr)) == kolmogorov_distance(arr)


def test_kolmogorov_duplicate_median_shift():
    rng = np.random.Generator(np.random.Philox(key=5))
    x = rng.standard_normal(501)
    base = kolmogorov_distance(x)
    dup = np.append(x, np.median(x))
    assert abs(kolmogorov_distance(dup) - base) <= 1.0 / x.size + 1e-12


@pytest.mark.parametrize("n", [2, 201, 4000])
def test_distances_match_their_scipy_forms(n):
    # the stdlib normal cdf and quantiles give SciPy's ndtr/ndtri statistics
    x = np.sort(np.random.Generator(np.random.Philox(key=n)).standard_normal(n) * 1.3 + 0.1)
    i = np.arange(1, n + 1)
    cdf = ndtr(x)
    dk = np.max(np.maximum(i / n - cdf, cdf - (i - 1) / n))
    dw = np.mean(np.abs(x - ndtri((i - 0.5) / n)))
    assert abs(kolmogorov_distance(x) - dk) <= 1e-15
    assert abs(wasserstein_distance(x) - dw) <= 1e-15


# ------------------------------------------------------------------
# Wasserstein distance
# ------------------------------------------------------------------

def test_normal_quantiles_are_the_loop_cached_and_read_only():
    inv_cdf = NormalDist().inv_cdf
    for n in (2, 7, 2000):
        q = _normal_quantiles(n)
        loop = np.array([inv_cdf((i - 0.5) / n) for i in range(1, n + 1)])
        assert q.tobytes() == loop.tobytes()
        assert _normal_quantiles(n) is q
        assert not q.flags.writeable
        with pytest.raises(ValueError):
            q[0] = 0.0


def test_wasserstein_degenerate_closed_form():
    c = 0.7
    expect = abs(c) * (2 * ndtr(abs(c)) - 1) + 2 * math.exp(-c * c / 2) / math.sqrt(2 * math.pi)
    assert wasserstein_distance(np.full(100_000, c)) == pytest.approx(expect, abs=1e-3)


def test_wasserstein_shifted_normals():
    rng = np.random.Generator(np.random.Philox(key=9))
    x = rng.standard_normal(20_000)
    mu = 0.4
    assert wasserstein_distance(x + mu) == pytest.approx(abs(mu), abs=0.03)


def test_wasserstein_standard_normal_small():
    rng = np.random.Generator(np.random.Philox(key=3))
    assert wasserstein_distance(rng.standard_normal(10_000)) <= 0.03


@given(st.lists(st.floats(-3, 3), min_size=5, max_size=50), st.floats(-2, 2))
@settings(max_examples=50, deadline=None)
def test_wasserstein_translation_inequality(xs, c):
    arr = np.array(xs)
    # triangle inequality form of translation covariance
    assert abs(wasserstein_distance(arr + c) - wasserstein_distance(arr)) <= abs(c) + 1e-9


# ------------------------------------------------------------------
# the functional pipeline
# ------------------------------------------------------------------

BETAS = (0.0, 0.0, 1.0, 0.0, 1.0)
ONE_REPLICA = {
    "h": lambda r: functional_h(r, 3, normalize=False),
    "Z": lambda r: functional_Z(r, BETAS, normalize=False),
    "S": lambda r: functional_excursion(r, 1.0),
}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("f", [Functional.of("h", q=3), Functional.of("Z", betas=BETAS),
                               Functional.of("S", z=1.0)], ids=["h", "Z", "S"])
def test_chunk_reduce_matches_per_replica_helpers(f, d):
    # a reduced batch and the per-realization helpers agree
    ell, seed = 6, 19
    grid = build_grid(d, f.degree(ell))
    chunk = f.reduce(_sample_batch(grid, ell, seed, range(5)), grid.weights)
    single = [ONE_REPLICA[f.kind](sample_field(d, ell, grid, seed, rep)).raw for rep in range(5)]
    np.testing.assert_allclose(chunk, single, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("f", [Functional.of("h", q=q) for q in (*range(9), 16)]
                         + [Functional.of("Z", betas=BETAS)],
                         ids=[f"h{q}" for q in (*range(9), 16)] + ["Z"])
def test_fused_reduce_matches_hermite_sums(f):
    # Clenshaw's rule on beta against sum_j beta_j H_j(T) @ w by the Hermite
    # recurrence, on fields of a grid exact for H_16 at ell = 8
    d, ell = 2, 8
    grid = build_grid(d, 16 * ell)
    fields = _sample_batch(grid, ell, 23, range(8))
    oracle = sum(b * (hermite(j, fields) @ grid.weights) for j, b in enumerate(f.beta) if b)
    sd = math.sqrt(f.variance(ell, d)) if len(f.beta) > 2 else 1.0  # h_0, h_1 are constant
    np.testing.assert_allclose(f.reduce(fields, grid.weights), oracle, rtol=0.0, atol=1e-13 * sd)


@pytest.mark.parametrize("f", [Functional.of("h", q=1), Functional.of("Z", betas=(0.5, 1.0)),
                               Functional.of("Z", betas=(0.0, 1.0)), Functional.of("Z", betas=(0.5, -2.0)),
                               Functional.of("h", q=3), Functional.of("Z", betas=BETAS),
                               Functional.of("Z", betas=(0.25, 0.0, -1.5, 0.0, 2.0))],
                         ids=["h1", "Z-T+c", "Z-T", "Z-linear", "h3", "Z", "Z-lead-2"])
def test_reduce_is_plain_horner_bitwise(f):
    # h_3 runs Horner's ops in float32, square, add -3, multiply, in one
    # buffer, bit for bit: the cost of the benchmark's sweeps; the other
    # kinds meet the recurrence oracle.  Work buffers are written before
    # they are read, and `fields` is left as it was
    grid = build_grid(2, 24)
    fields = _sample_batch(grid, 6, 31, range(4)).copy()
    kept = fields.copy()
    if f.label == "h3":
        fields, weights = fields.astype(np.float32), grid.weights.astype(np.float32)
        kept, oracle = fields.copy(), (((np.square(fields) + (-3.0)) * fields)[:, None, :] @ weights)[:, 0]
        assert f.buffers == 1
    else:
        weights = grid.weights
        oracle = sum(b * (hermite(j, fields) @ weights) for j, b in enumerate(f.beta) if b)
    sd = math.sqrt(f.variance(6, 2)) if len(f.beta) > 2 else 1.0
    for work in (None, [np.full(fields.shape, np.nan, weights.dtype) for _ in range(f.buffers)]):
        value = f.reduce(fields, weights, work)
        if f.label == "h3":
            assert np.array_equal(value, oracle)
        else:
            np.testing.assert_allclose(value, oracle, rtol=0.0, atol=1e-13 * sd)
        assert np.array_equal(fields, kept)


def test_samples_hold_one_field_at_a_time():
    # a 64-replica chunk at (d, ell, degree) = (2, 128, 384) is 38 MB of
    # fields; streaming blocks of 3 replicas keeps `_samples` near one block's
    # float32 synthesis buffers (2.6 MB peak)
    f = Functional.of("h", q=3)
    grid = build_grid(2, f.degree(128))
    tracemalloc.start()
    try:
        raw = _samples(f, grid, 128, 7, 64, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert raw.shape == (64,)
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("f, d, ell, replicas, block, fold", [
    (Functional.of("h", q=3), 2, 32, 150, 55, False),   # a partial last block in every chunk
    (Functional.of("h", q=3), 2, 128, 70, 3, False),    # 64 = 21 * 3 + 1
    (Functional.of("h", q=3), 2, 256, 3, 1, False),
    (Functional.of("h", q=3), 2, 32, 5, 55, False),     # one block shorter than B
    (Functional.of("Z", betas=BETAS), 2, 32, 70, 31, False),
    (Functional.of("S", z=1.0), 2, 32, 70, 31, False),
    (Functional.of("S", z=1.0), 3, 8, 70, 27, False),
    (Functional.of("h", q=3), 3, 10, 70, 33, False),
    (Functional.of("h", q=2), 4, 6, 70, 58, False),
    # on the rules `Functional.grid` folds, the circle products, or at
    # d >= 3 the level below the top, hold more values than the N nodes
    (Functional.of("h", q=3), 2, 32, 150, 81, True),    # circle 33 * 97 > N = 25 * 97
    (Functional.of("h", q=3), 2, 128, 70, 5, True),     # 64 = 12 * 5 + 4
    (Functional.of("Z", betas=BETAS), 2, 32, 70, 61, True),
    (Functional.of("h", q=3), 3, 10, 70, 48, True),     # level 2: 11 * 16 * 31 > N = 8 * 16 * 31
    (Functional.of("h", q=2), 4, 6, 70, 58, True),
    # the ids keep the block sizes of 2^16-value blocks, under which the cases
    # were named, so the test names stay stable; `block` is the size under BLOCK_VALUES
], ids=["h-d2-53", "h-d2-3", "h-d2-1", "h-d2-short", "Z-d2-30", "S-d2-30", "S-d3-15", "h-d3-34",
        "h-d4-58", "h-d2-fold-78", "h-d2-fold-5", "Z-d2-fold-59", "h-d3-fold-49", "h-d4-fold-58"])
def test_blocks_equal_the_one_replica_path_bitwise(f, d, ell, replicas, block, fold, threads):
    # a replica's value never depends on the block, chunk or thread it runs
    # in; as in `_samples`, the one-replica path runs BLAS on one thread,
    # in float32, and integrates on the same rule
    grid = f.grid(ell, d) if fold else build_grid(d, f.degree(ell))
    assert grid.folded == fold
    assert max(1, BLOCK_VALUES // _replica_values(grid, ell)) == block
    assert replicas % CHUNK != 0
    weights, total = grid.weights.astype(np.float32), float(np.sum(grid.weights))
    with single_threaded_blas():
        one = [f.reduce(_sample_batch(grid, ell, 13, (r,), dtype=np.float32), weights, total=total)
               for r in range(replicas)]
    assert np.array_equal(_samples(f, grid, ell, 13, replicas, threads), np.concatenate(one))


# ------------------------------------------------------------------
# float32 sampling
# ------------------------------------------------------------------

@pytest.mark.parametrize("f, d, ell", [
    (Functional.of("h", q=3), 2, 128), (Functional.of("h", q=2), 3, 12), (Functional.of("h", q=4), 4, 6),
    (Functional.of("Z", betas=BETAS), 2, 32), (Functional.of("Z", betas=BETAS), 3, 8),
    (Functional.of("Z", betas=(0.5, 0.0, -1.5, 0.0, 2.0)), 4, 4),
    (Functional.of("h", q=8), 2, 32), (Functional.of("h", q=8), 3, 6),
    (Functional.of("h", q=12), 2, 16), (Functional.of("h", q=30), 2, 8),
    (Functional.of("h", q=9), 2, 8), (Functional.of("h", q=16), 2, 8), (Functional.of("h", q=20), 2, 8),
    (Functional.of("h", q=37), 2, 8),  # the highest order in float32
    (Functional.of("h", q=20), 3, 6),  # h_37 at (3, 6) needs more than NODE_BUDGET nodes
    # an offset far above the spread, and coefficients near the float32 range and beyond
    (Functional.of("Z", betas=(1e6, 0.0, 1.0)), 2, 8), (Functional.of("Z", betas=(0.0, 0.0, 1e36)), 2, 8),
    (Functional.of("Z", betas=(0.0, 0.0, 1e-46)), 2, 8), (Functional.of("Z", betas=(0.0, 0.0, 1e-46, 0.0)), 2, 8),
], ids=["h3-d2-128", "h2-d3-12", "h4-d4-6", "Z-d2-32", "Z-d3-8", "Z-d4-4", "h8-d2-32", "h8-d3-6",
        "h12-d2-16", "h30-d2-8", "h9-d2-8", "h16-d2-8", "h20-d2-8", "h37-d2-8", "h20-d3-6", "Z-offset-d2-8", "Z-huge-d2-8",
        "Z-tiny-d2-8", "Z-tiny-trailing-0-d2-8"])
def test_float32_samples_are_float64_ones_to_1e_5_sigma(f, d, ell):
    # the same draws in both precisions: the values differ by float32 rounding alone
    grid = f.grid(ell, d)
    single = _samples(f, grid, ell, 11, 100, 2)
    double = float64_samples(f, grid, ell, 11, 100)
    assert f.reduction_dtype() == np.float32
    assert single.dtype == double.dtype == np.float64
    assert np.max(np.abs(single - double)) <= 1e-5 * math.sqrt(f.variance(ell, d))


@pytest.mark.parametrize("q", [60, 100, 150])
def test_high_orders_reduce_their_float32_fields_in_float64(q):
    # beyond the reach bound the float32 fields are reduced in float64; the
    # float64 Horner form was 1.3e-3 sigma off at q = 100 and 7.4 sigma at 150
    f, d, ell = Functional.of("h", q=q), 2, 2
    grid = f.grid(ell, d)
    assert f.reduction_dtype() == np.float64
    with single_threaded_blas():
        oracle = hermite(q, _sample_batch(grid, ell, 3, range(30))) @ grid.weights
    values = _samples(f, grid, ell, 3, 30, 1)
    assert np.max(np.abs(values - oracle)) <= 1e-5 * math.sqrt(f.variance(ell, d))


@pytest.mark.parametrize("d, ell, z", [(2, 64, 1.0), (3, 8, 0.25)])
def test_float32_excursion_areas_are_float64_ones_to_1e_2_sigma(d, ell, z):
    # an indicator flips at nodes within float32 rounding of z: a node's weight each
    f = Functional.of("S", z=z)
    grid = f.grid(ell, d)
    single = _samples(f, grid, ell, 11, 200, 2)
    double = float64_samples(f, grid, ell, 11, 200)
    assert np.max(np.abs(single - double)) <= 1e-2 * math.sqrt(excursion_variance(ell, d, z))


@pytest.mark.parametrize("d, ell", [(2, 128), (3, 24), (4, 8)])
def test_float32_plans_hold_no_subnormal(d, ell):
    # the sin^m theta factors near the poles fall below the least normal
    # float32; flushed to 0 they cannot slow the kernels that read them
    grid = Functional.of("h", q=3).grid(ell, d)
    _, trig, lams = _synthesis_plan(grid, ell, np.float32)
    for table in (trig, *lams):
        assert table.dtype == np.float32
        assert not np.any((table != 0.0) & (np.abs(table) < np.finfo(np.float32).tiny))


def test_the_reduction_leaves_float32_where_its_reach_bound_fails():
    # 34 sum_{k>=1} |beta_k / scale| a_k(8) against the largest float32: h_q
    # stays in float32 up to q = 37; constants are float64 in either precision,
    # and beta / scale moves huge and tiny polynomials into range
    assert [Functional.of("h", q=q).reduction_dtype() for q in range(45)] == \
        [np.float32] * 38 + [np.float64] * 7
    assert Functional.of("S", z=1.0).reduction_dtype() == np.float32
    for betas in (BETAS, (1e6, 0.0, 1.0), (1e300, 0.0, 1.0), (0.0, 0.0, 1e36), (0.0, 0.0, -1e-46)):
        assert Functional.of("Z", betas=betas).reduction_dtype() == np.float32
    # the leading beta sets the scale: T^2 beside 1e-60 T^4 reads 1e60 T^2
    assert Functional.of("Z", betas=(0.0, 0.0, 1.0, 0.0, 1e-60)).reduction_dtype() == np.float64


def test_a_value_beyond_the_reduction_range_raises():
    # beta / scale is in range, but the scale overflows the float64 sums:
    # the worker threads overflow without a warning, and the sampler raises
    f = Functional.of("Z", betas=(0.0, 0.0, 1e308))
    assert f.reduction_dtype() == np.float32
    with pytest.raises(NumericalError, match=r"Z at \(ell=4, d=2\) leaves the float64 range"):
        _samples(f, f.grid(4, 2), 4, 1, 150, 2)


def test_odd_multipoles_drop_the_odd_powers():
    # T(-x) = -T(x): the odd chaoses integrate to 0, whatever their coefficient
    assert Functional.of("Z", betas=(0.0, 0.0, 1.0, 1e160)).at(3) == Functional.of("Z", betas=(0.0, 0.0, 1.0))
    assert Functional.of("Z", betas=(0.0, 0.0, 1.0, 1e160)).at(4) == Functional.of("Z", betas=(0.0, 0.0, 1.0, 1e160))
    f = Functional.of("h", q=3).at(5)
    assert f.beta == (0.0,)
    assert f.grid(5, 2).exact_degree == 1  # the degree of p = 0, not of H_3 at ell = 5
    assert np.array_equal(_samples(f, f.grid(5, 2), 5, 1, 5, 1), np.zeros(5))


def test_workers_share_buffer_sets_safely():
    # chunks hand their buffer sets on to the next chunk of any worker; more
    # workers than cores and a short switch interval widen any race
    f = Functional.of("h", q=3)
    grid = build_grid(2, f.degree(16))
    one = _samples(f, grid, 16, 5, 20 * CHUNK + 7, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        four = _samples(f, grid, 16, 5, 20 * CHUNK + 7, 4)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(four, one)


@pytest.mark.parametrize("kind, params", [
    ("x", {"q": 2}), ("h", {}), ("h", {"q": -1}), ("Z", {}), ("Z", {"betas": ()}), ("S", {}),
    ("S", {"z": math.nan}), ("S", {"z": math.inf}),
])
def test_functional_of_rejects_bad_specs(kind, params):
    with pytest.raises(ValueError):
        Functional.of(kind, **params)
    if kind == "S":  # a sweep fails before it draws anything, not with NaN rows
        with pytest.raises(ValueError):
            clt_sweep(kind, 2, [4, 8], 200, 1, **params)


@pytest.mark.parametrize("f, ell", [
    (Functional.of("h", q=3), 5),                    # odd chaos at odd ell
    (Functional.of("Z", betas=(1.0, 0.5)), 8),       # no chaos of order >= 2
    (Functional.of("S", z=-60.0), 8),                # exp(-z^2 / 2) underflows to 0
], ids=["h", "Z", "S"])
def test_zero_variance_raises_for_every_kind(f, ell):
    with pytest.raises(ZeroVarianceError):
        f.variance(ell, 2)


@pytest.mark.parametrize("betas", [(0.0, 0.0, 1e-200), (0.0, 0.0, 1e-160), (0.0, 0.0, 1e-200, 1e-200)])
def test_a_nonzero_variance_that_underflows_raises(betas):
    # beta_2^2 Var h_2 is not 0, but its float is 0 or subnormal
    with pytest.raises(NumericalError, match=r"the variance of Z at \(ell=8, d=2\) is below the least normal float"):
        Functional.of("Z", betas=betas).variance(8, 2)


# ------------------------------------------------------------------
# sweeps
# ------------------------------------------------------------------

def test_sweep_determinism_and_thread_independence():
    for d in (2, 3):
        a = clt_sweep("h", d, [8, 16], 250, seed=42, q=2, threads=1)
        b = clt_sweep("h", d, [8, 16], 250, seed=42, q=2, threads=3)
        assert a.rows == b.rows


def test_sweep_builds_each_table_once(monkeypatch):
    # the synthesis tables of the grid and its sub-grid are built before the
    # chunks fan out to threads; a short switch interval widens any race
    import sphclt.simulate as simulate

    calls = []
    build = simulate._profile_stack

    def counted(ell, dim, t, lo):
        calls.append((dim.d, ell, t.size, lo))
        return build(ell, dim, t, lo)
    monkeypatch.setattr(simulate, "_profile_stack", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        four = clt_sweep("h", 3, [8], 256, 1, q=2, threads=4)
    finally:
        sys.setswitchinterval(interval)
    # the top table holds the 5 colatitude nodes t >= 0 of the folded rule, not all 9
    assert sorted(calls) == [(2, 8, 9, 0), (3, 8, 5, 8)]
    assert clt_sweep("h", 3, [8], 256, 1, q=2, threads=1) == four


@pytest.mark.parametrize("threads", [1, 3])
def test_ordered_map_runs_blas_on_one_thread_and_restores_it(threads):
    from sphclt import parallel

    blas = parallel._openblas_threads()
    if blas is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    get, put = blas
    before = get()
    put(2)
    count = get()  # OpenBLAS may cap the request at its own limit
    try:
        seen = parallel.ordered_map(lambda item: get(), range(4), threads)
        assert seen == [1, 1, 1, 1]
        assert get() == count
    finally:
        put(before)


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity here")


def _worker_masks(threads):
    """{thread: its CPU mask while it ran} over ordered_map on range(8); the
    first two items wait for each other, so with threads >= 2 two workers start."""
    from sphclt import parallel

    both = threading.Barrier(min(threads, 2), timeout=10)
    masks = {}

    def square(item):
        if item < 2:
            both.wait()
        masks[threading.get_ident()] = frozenset(os.sched_getaffinity(0))
        return item * item

    assert parallel.ordered_map(square, range(8), threads) == [i * i for i in range(8)]
    return masks


def _thread_count_settles_to(count):
    # a joined worker may stay listed for a moment while its OS thread exits
    deadline = time.monotonic() + 5
    while len(os.listdir("/proc/self/task")) != count and time.monotonic() < deadline:
        time.sleep(0.01)
    return len(os.listdir("/proc/self/task")) == count


@needs_affinity
def test_ordered_map_places_each_worker_on_its_own_cpu():
    mask = os.sched_getaffinity(0)
    if len(mask) < 2:
        pytest.skip("fewer than two CPUs allowed")
    tasks = len(os.listdir("/proc/self/task"))
    masks = _worker_masks(2)
    assert len(masks) == 2 and threading.get_ident() not in masks
    assert all(len(m) == 1 and m <= mask for m in masks.values())
    assert len(set(masks.values())) == 2
    # the caller keeps its mask, and the pinned workers exit with the pool
    assert os.sched_getaffinity(0) == mask
    assert _thread_count_settles_to(tasks)


@needs_affinity
def test_ordered_map_pins_nothing_on_one_thread():
    mask = os.sched_getaffinity(0)
    assert _worker_masks(1) == {threading.get_ident(): frozenset(mask)}
    assert os.sched_getaffinity(0) == mask


@pytest.mark.parametrize("unpinnable", ["raises", "missing"])
def test_ordered_map_runs_unpinned_where_it_cannot_pin(monkeypatch, unpinnable):
    def refuse(pid, cpus):
        raise OSError(22, "Invalid argument")

    if unpinnable == "raises":
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
    else:
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    masks = _worker_masks(2)
    assert len(masks) == 2
    if hasattr(os, "sched_getaffinity"):
        assert set(masks.values()) == {frozenset(os.sched_getaffinity(0))}


def test_sweep_validation():
    with pytest.raises(ValueError):
        clt_sweep("h", 2, [8], 100, seed=0, q=2)  # replicas < 200
    # odd ell needs no opt-in; the odd chaoses vanish there, so h2 keeps its
    # variance and h3 has none
    assert [r.ell for r in clt_sweep("h", 2, [7, 8], 300, seed=0, q=2).rows] == [7, 8]
    with pytest.raises(ZeroVarianceError, match=r"h3 has zero variance at \(ell=7, d=2\)"):
        clt_sweep("h", 2, [7], 300, seed=0, q=3)
    with pytest.raises(ValueError):
        clt_sweep("h", 2, [16, 8], 300, seed=0, q=2)  # not increasing
    with pytest.raises(ValueError):
        clt_sweep("x", 2, [8], 300, seed=0)


def test_sweep_without_a_bound_fails_before_drawing(monkeypatch):
    # h and Z have no bound at ell = 1: the sweep refuses before any replica
    def no_draws(*args):
        raise AssertionError("a replica was drawn")

    monkeypatch.setattr(clt, "_samples", no_draws)
    with pytest.raises(UsageError, match=r"got \(1, 4, 2\)"):
        clt_sweep("h", 2, [1, 2], 200, 1, q=4)


def test_sweep_excluded_pair_warning():
    # recorded in the report, and so in the manifest; no Python warning reaches stderr
    rep = clt_sweep("h", 3, [4, 6], 200, seed=1, q=3)
    assert len(rep.warnings) == 1 and "outside the proven CLT range" in rep.warnings[0]


def test_sweep_excursion_normalization():
    rep = clt_sweep("S", 2, [8, 16], 300, seed=2, z=1.0)
    for row in rep.rows:
        assert row.explicit_bound is None
        assert row.theoretical_rate == pytest.approx(row.ell ** -0.5)
        assert row.predicted_mean == pytest.approx(4 * math.pi * ndtr(1.0), rel=1e-12, abs=0)


def test_sweep_polynomial_kind():
    rep = clt_sweep("Z", 2, [8, 16], 250, seed=3, betas=(0.0, 0.0, 1.0, 0.5))
    for row in rep.rows:
        assert row.explicit_bound is not None
        assert row.theoretical_rate == pytest.approx(row.ell ** -0.5)  # beta_2 != 0


def test_sweep_polynomial_rank2_variance_scaling():
    # a rank-2 polynomial's variance decays like ell^{-(d-1)}
    rep = clt_sweep("Z", 2, [8, 16, 32], 600, seed=12, betas=(0.0, 0.0, 1.0))
    for row in rep.rows:
        se = row.predicted_var * math.sqrt(2.0 / (row.replicas - 1))
        assert abs(row.sample_var - row.predicted_var) <= 4.0 * se
    ratios = [a.predicted_var / b.predicted_var for a, b in zip(rep.rows, rep.rows[1:])]
    for r, (la, lb) in zip(ratios, [(8, 16), (16, 32)]):
        # exact identity: Var = 2 mu^2 / n with n = 2 ell + 1
        assert r == pytest.approx((2 * lb + 1) / (2 * la + 1), rel=1e-12, abs=0)


# ------------------------------------------------------------------
# rate fits
# ------------------------------------------------------------------

def _synthetic_report(ells, dks, replicas=10_000):
    rows = tuple(
        CltRow(ell=ell, replicas=replicas, empirical_dK=dk, empirical_dW=dk,
               mc_stderr_scale=0.5 / math.sqrt(replicas), theoretical_rate=ell ** -0.5,
               explicit_bound=None, exact_quadrature=True, sample_mean=0.0,
               sample_var=1.0, predicted_mean=0.0, predicted_var=1.0)
        for ell, dk in zip(ells, dks)
    )
    return CltReport(kind="h", d=2, q=3, z=None, rows=rows)


def test_rate_fit_synthetic_power_law():
    ells = [16, 32, 64, 128]
    fit = rate_fit(_synthetic_report(ells, [ell ** -0.5 for ell in ells]))
    assert fit["slope"] == pytest.approx(-0.5, abs=1e-12)
    assert fit["stderr"] == pytest.approx(0.0, abs=1e-12)
    assert fit["decays_at_least_as_fast"]


def test_rate_fit_constant_column():
    ells = [16, 32, 64, 128]
    fit = rate_fit(_synthetic_report(ells, [0.3] * 4))
    assert fit["slope"] == pytest.approx(0.0, abs=1e-12)
    assert not fit["decays_at_least_as_fast"]


def test_rate_fit_floor_exclusion():
    ells = [16, 32, 64, 128, 256]
    dks = [0.3, 0.2, 0.1, 1e-4, 1e-5]  # last two under the MC floor
    fit = rate_fit(_synthetic_report(ells, dks))
    assert fit["n_below_floor"] == 2
    assert fit["n_used"] == 3
    with pytest.raises(ValueError):
        rate_fit(_synthetic_report([16, 32], [0.3, 0.2]))
