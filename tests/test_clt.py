"""Distance estimators, sweep plumbing and rate diagnostics."""

import math
import sys
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

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
from sphclt.simulate import _replica_values, _sample_batch, build_grid, sample_field
from sphclt.specfun import ZeroVarianceError, hermite


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
    # Horner on the monomial coefficients against sum_j beta_j H_j(T) @ w by
    # the Hermite recurrence, on fields of a grid exact for H_16 at ell = 8
    d, ell = 2, 8
    grid = build_grid(d, 16 * ell)
    fields = _sample_batch(grid, ell, 23, range(8))
    oracle = sum(b * (hermite(j, fields) @ grid.weights) for j, b in enumerate(f.beta) if b)
    sd = math.sqrt(f.variance(ell, d)) if len(f.beta) > 2 else 1.0  # h_0, h_1 are constant
    np.testing.assert_allclose(f.reduce(fields, grid.weights), oracle, rtol=0.0, atol=1e-13 * sd)


def test_samples_hold_one_field_at_a_time():
    # a 64-replica chunk at (d, ell, degree) = (2, 128, 384) is 38 MB of
    # fields; streaming replicas keeps the driver near one field (0.6 MB)
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
    (Functional.of("h", q=3), 2, 16, 150, 53, False),   # a partial last block in every chunk
    (Functional.of("h", q=3), 2, 64, 70, 3, False),     # 64 = 21 * 3 + 1
    (Functional.of("h", q=3), 2, 128, 3, 1, False),
    (Functional.of("h", q=3), 2, 16, 5, 53, False),     # one block shorter than B
    (Functional.of("Z", betas=BETAS), 2, 16, 70, 30, False),
    (Functional.of("S", z=1.0), 2, 16, 70, 30, False),
    (Functional.of("S", z=1.0), 3, 6, 70, 15, False),
    (Functional.of("h", q=3), 3, 6, 70, 34, False),
    (Functional.of("h", q=2), 4, 4, 70, 58, False),
    # on the rules `Functional.grid` folds, the circle products, or at
    # d >= 3 the level below the top, hold more values than the N nodes
    (Functional.of("h", q=3), 2, 16, 150, 78, True),    # circle 17 * 49 > N = 13 * 49
    (Functional.of("h", q=3), 2, 64, 70, 5, True),      # 64 = 12 * 5 + 4
    (Functional.of("Z", betas=BETAS), 2, 16, 70, 59, True),
    (Functional.of("h", q=3), 3, 6, 70, 49, True),      # level 2: 7 * 10 * 19 > N = 5 * 10 * 19
    (Functional.of("h", q=2), 4, 4, 70, 58, True),
], ids=["h-d2-53", "h-d2-3", "h-d2-1", "h-d2-short", "Z-d2-30", "S-d2-30", "S-d3-15", "h-d3-34",
        "h-d4-58", "h-d2-fold-78", "h-d2-fold-5", "Z-d2-fold-59", "h-d3-fold-49", "h-d4-fold-58"])
def test_blocks_equal_the_one_replica_path_bitwise(f, d, ell, replicas, block, fold, threads):
    # a replica's value never depends on the block, chunk or thread it runs
    # in; as in `_samples`, the one-replica path runs BLAS on one thread and
    # integrates on the same rule
    grid = f.grid(ell, d) if fold else build_grid(d, f.degree(ell))
    assert grid.folded == fold
    assert max(1, BLOCK_VALUES // _replica_values(grid, ell)) == block
    assert replicas % CHUNK != 0
    with single_threaded_blas():
        one = [f.reduce(_sample_batch(grid, ell, 13, (r,)), grid.weights) for r in range(replicas)]
    assert np.array_equal(_samples(f, grid, ell, 13, replicas, threads), np.concatenate(one))


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


def test_sweep_validation():
    with pytest.raises(ValueError):
        clt_sweep("h", 2, [8], 100, seed=0, q=2)  # replicas < 200
    with pytest.raises(ValueError):
        clt_sweep("h", 2, [7, 8], 300, seed=0, q=2)  # odd ell without flag
    with pytest.raises(ValueError):
        clt_sweep("h", 2, [16, 8], 300, seed=0, q=2)  # not increasing
    with pytest.raises(ValueError):
        clt_sweep("x", 2, [8], 300, seed=0)


def test_sweep_excluded_pair_warning():
    # recorded in the report, and so in the manifest; no Python warning reaches stderr
    rep = clt_sweep("h", 3, [4, 6], 200, seed=1, q=3)
    assert len(rep.warnings) == 1 and "outside the proven CLT range" in rep.warnings[0]


def test_sweep_excursion_normalization():
    rep = clt_sweep("S", 2, [8, 16], 300, seed=2, z=1.0)
    for row in rep.rows:
        assert row.explicit_bound is None
        assert row.theoretical_rate == pytest.approx(row.ell ** -0.5)
        assert row.predicted_mean == pytest.approx(4 * math.pi * ndtr(1.0), rel=1e-12)


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
        assert r == pytest.approx((2 * lb + 1) / (2 * la + 1), rel=1e-12)


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
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)
    assert fit.decays_at_least_as_fast


def test_rate_fit_constant_column():
    ells = [16, 32, 64, 128]
    fit = rate_fit(_synthetic_report(ells, [0.3] * 4))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert not fit.decays_at_least_as_fast


def test_rate_fit_floor_exclusion():
    ells = [16, 32, 64, 128, 256]
    dks = [0.3, 0.2, 0.1, 1e-4, 1e-5]  # last two under the MC floor
    fit = rate_fit(_synthetic_report(ells, dks))
    assert fit.n_below_floor == 2
    assert fit.n_used == 3
    with pytest.raises(ValueError):
        rate_fit(_synthetic_report([16, 32], [0.3, 0.2]))
