"""Grids, Gaussian eigenfunction sampling and functional evaluation.

Statistical assertions use fixed seeds and 4-standard-error windows.  The
exact excursion variance is checked against an mpmath double integral, the
chaos series (whose Hermite projections of the indicator are checked against
30-digit mpmath quadrature of phi(x) H_q(x) over (-inf, z]), Sheppard's
arcsin law at z = 0, and a Monte Carlo variance on a fine grid.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_legendre, ndtr, sph_harm_y

import sphclt.simulate as simulate
from sphclt.clt import (
    Functional,
    _samples,
    functional_excursion,
    functional_h,
    functional_Z,
    monomial_to_hermite,
)
from sphclt.moments import variance_h
from sphclt.quadrature import panel_nodes
from sphclt.cli import MAX_REPLICAS
from sphclt.simulate import (
    NodeBudgetError,
    _profile_stack,
    _reseed,
    _sample_batch,
    _synthesis_buffers,
    _synthesis_plan,
    _synthesize_batch,
    build_grid,
    excursion_variance,
    fold_grid,
    sample_field,
    FieldRealization,
)
from sphclt.specfun import (GegenbauerCtx, SphereDim, UsageError, ZeroVarianceError, dim_harmonics, hermite,
                            orthonormal_jacobi)

from oracles import fft_moment, float64_samples, grid_nodes, recover_harmonic_coeffs


def phi(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def indicator_projection_oracle(z, q):
    """J_q(1{. <= z}) = int_{-inf}^z phi(x) H_q(x) dx by 30-digit mpmath.quad."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        def integrand(x):
            prev, cur = mpmath.mpf(1), x
            for n in range(1, q):
                prev, cur = cur, x * cur - n * prev
            return mpmath.npdf(x) * cur
        # breakpoints where phi is still resolved keep tanh-sinh accurate for huge z
        points = [-mpmath.inf] + [p for p in (-10, 0, 10) if p < z] + [mpmath.mpf(z)]
        return float(mpmath.quad(integrand, points))


# ------------------------------------------------------------------
# grids
# ------------------------------------------------------------------

def test_grid_d2_shape_and_weights():
    ell = 12
    grid = build_grid(2, 2 * ell)
    assert grid.n_nodes == (ell + 1) * (2 * ell + 1)
    assert grid.weights.sum() == pytest.approx(4 * math.pi, rel=1e-12, abs=0)
    assert grid.exact_degree >= 2 * ell
    assert np.all(grid.weights > 0)
    np.testing.assert_allclose(np.linalg.norm(grid_nodes(grid), axis=1), 1.0, atol=1e-12)


def test_grid_d3_weights():
    grid = build_grid(3, 16)
    assert grid.weights.sum() == pytest.approx(2 * math.pi ** 2, rel=1e-12, abs=0)
    np.testing.assert_allclose(np.linalg.norm(grid_nodes(grid), axis=1), 1.0, atol=1e-12)


def test_grid_orthogonality():
    grid = build_grid(2, 30)
    ctx = GegenbauerCtx(grid.exact_degree, SphereDim(2))
    pole = np.array([0.0, 0.0, 1.0])
    table = ctx.evaluate_all(grid_nodes(grid) @ pole)
    worst = np.max(np.abs(table[1:] @ grid.weights))
    assert worst < 1e-11 * 4 * math.pi


def test_grid_node_budget():
    with pytest.raises(NodeBudgetError):
        build_grid(2, 4000)  # 8 006 001 nodes; raises before any is allocated


def _monomial_exponents(n_vars, max_degree):
    """Exponent tuples of every monomial in n_vars variables of degree <= max_degree."""
    if n_vars == 0:
        return [()]
    return [(k,) + rest for k in range(max_degree + 1) for rest in _monomial_exponents(n_vars - 1, max_degree - k)]


@pytest.mark.parametrize("d, degree", [(2, 12), (2, 13), (3, 10), (4, 8), (5, 6)])
def test_folded_rule_equals_the_full_rule_on_even_monomials(d, degree):
    # every monomial of even degree <= exact_degree in the embedding
    # coordinates, odd node counts (with the equator t = 0) and even ones
    full = build_grid(d, degree)
    folded = fold_grid(full)
    assert folded.folded and folded.exact_degree == full.exact_degree
    assert folded.colat_t.size == full.colat_t.size // 2 + full.colat_t.size % 2
    assert np.all(folded.colat_t >= 0.0)
    x_full, x_fold = grid_nodes(full), grid_nodes(folded)
    checked = 0
    for powers in _monomial_exponents(d + 1, full.exact_degree):
        if sum(powers) % 2:
            continue
        m_full = np.prod(x_full ** np.array(powers), axis=1)
        m_fold = np.prod(x_fold ** np.array(powers), axis=1)
        scale = float(np.abs(m_full) @ full.weights)
        assert abs(float(m_fold @ folded.weights) - float(m_full @ full.weights)) <= 1e-13 * scale, powers
        checked += 1
    assert checked > 40
    # an odd integrand is not one the fold holds: x_d integrates to 0 on the
    # full rule, to twice its northern half on the folded one
    assert abs(float(x_full[:, -1] @ full.weights)) < 1e-13
    assert float(x_fold[:, -1] @ folded.weights) > 0.1


@pytest.mark.parametrize("f, d, ell", [
    (Functional.of("h", q=2), 2, 16), (Functional.of("h", q=3), 2, 16), (Functional.of("h", q=4), 2, 16),
    (Functional.of("Z", betas=(0.5, 0.0, 1.0, 0.0, 1.0)), 2, 8),
    (Functional.of("Z", betas=(0.5, 0.0, 1.0, 0.0, 1.0)), 3, 6),
    (Functional.of("Z", betas=(0.5, 0.0, 1.0, 0.0, 1.0)), 4, 4),
], ids=["h2-d2", "h3-d2", "h4-d2", "Z-d2", "Z-d3", "Z-d4"])
def test_folded_samples_agree_with_the_full_rule(f, d, ell):
    # the same fields, integrated on half the nodes: equal up to rounding
    folded = f.grid(ell, d)
    assert folded.folded
    full = build_grid(d, f.degree(ell))
    raw_full = float64_samples(f, full, ell, 17, 150)
    raw_fold = float64_samples(f, folded, ell, 17, 150)
    sd = float(np.std(raw_full, ddof=1))
    assert np.max(np.abs(raw_fold - raw_full)) <= 1e-12 * sd


@pytest.mark.parametrize("f, ell", [
    (Functional.of("S", z=1.0), 8), (Functional.of("S", z=0.0), 16),
    (Functional.of("h", q=2), 5), (Functional.of("Z", betas=(0.0, 0.0, 1.0)), 7),
], ids=["S-8", "S-16", "h-odd", "Z-odd"])
def test_kind_S_and_odd_ell_never_fold(f, ell):
    grid = f.grid(ell, 2)
    assert not grid.folded
    assert grid.n_nodes == build_grid(2, f.degree(ell)).n_nodes


def test_a_folded_grid_refuses_odd_fields():
    folded = Functional.of("h", q=2).grid(8, 2)
    with pytest.raises(UsageError):
        _sample_batch(folded, 5, 1, range(2))


# ------------------------------------------------------------------
# sampling
# ------------------------------------------------------------------

def test_sampling_deterministic():
    grid = build_grid(2, 24)
    a = sample_field(2, 8, grid, seed=11, replica=3)
    b = sample_field(2, 8, grid, seed=11, replica=3)
    assert np.array_equal(a.values, b.values)
    c = sample_field(2, 8, grid, seed=11, replica=4)
    assert not np.array_equal(a.values, c.values)


def _state_words(bit_generator):
    state = bit_generator.state
    return ([int(w) for w in state["state"]["counter"]], [int(w) for w in state["state"]["key"]],
            [int(w) for w in state["buffer"]], state["buffer_pos"], state["has_uint32"], state["uinteger"])


@pytest.mark.parametrize("seed", [0, 3, 2 ** 64 + 5, 2 ** 128 - 1])
def test_reseeded_stream_is_a_new_philox_bit_for_bit(seed):
    # the worker's one Philox, moved to each replica's stream, against a new
    # generator per replica; 5000 normals take more than 5000 words of the
    # stream, so the ziggurat rejected some draws and fell through to its tail
    gen = _synthesis_buffers(build_grid(2, 8), 4, 1)[0]
    for replica in (0, 63, MAX_REPLICAS - 1):
        gen.integers(0, 2 ** 32, size=3, dtype=np.uint32)  # leaves half a word and a part-used buffer
        _reseed(gen.bit_generator, seed, replica)
        fresh = np.random.Philox(key=seed, counter=replica << 128)
        assert _state_words(gen.bit_generator) == _state_words(fresh)
        draws = gen.standard_normal(5000)
        assert np.array_equal(draws, np.random.Generator(fresh).standard_normal(5000))
        counter = gen.bit_generator.state["state"]["counter"]
        assert int(counter[0]) * 4 > 5000 and int(counter[2]) == replica


def test_sampling_with_and_without_worker_buffers_is_bitwise_equal():
    grid = build_grid(3, 8)
    work = _synthesis_buffers(grid, 4, 3)
    for replicas in (range(3), [5, 2**40, 7]):
        assert np.array_equal(_sample_batch(grid, 4, 2 ** 64 + 9, replicas, work),
                              _sample_batch(grid, 4, 2 ** 64 + 9, replicas))


@pytest.mark.parametrize("replicas", [[70, 5, 69], range(60, 70), [5, 70]],
                         ids=["scattered", "across-chunks", "next-row-of-another-chunk"])
def test_a_request_draws_what_single_replicas_draw(replicas):
    # [70, 5, 69] never continues the stream, so each replica reseeds and
    # discards the rows before it; range(60, 70) runs into a second chunk;
    # 70 is row 6 of chunk 1, the row after 5 in chunk 0
    grid = build_grid(2, 16)
    single = np.concatenate([_sample_batch(grid, 8, 2 ** 64 + 9, [r]) for r in replicas])
    work = _synthesis_buffers(grid, 8, len(replicas))
    assert np.array_equal(_sample_batch(grid, 8, 2 ** 64 + 9, replicas), single)
    assert np.array_equal(_sample_batch(grid, 8, 2 ** 64 + 9, replicas, work), single)
    # the work set stands after the last replica; another seed must not continue its stream
    assert np.array_equal(_sample_batch(grid, 8, 3, [replicas[-1] + 1], work)[0],
                          sample_field(2, 8, grid, 3, replicas[-1] + 1).values)


@pytest.mark.parametrize("d, ell", [(2, 16), (3, 6), (4, 4)])
def test_circle_level_is_a_cos_plus_b_sin(d, ell):
    # each leaf's (a, b) row times its harmonic's [cos m phi; sin m phi] table,
    # against a cos(m phi) + b sin(m phi) in extended precision: one rounding
    # of the fused sum, 2^-52 (|a| + |b|).  The work set holds one array of
    # the circle's shape; degree 3 ell keeps every level's shape apart from it
    grid = build_grid(d, 3 * ell)
    work = _synthesis_buffers(grid, ell, 3)
    _sample_batch(grid, ell, 2 ** 64 + 9, [0, 5, 2 ** 40], work)
    pairs, trig, _ = _synthesis_plan(grid, ell)
    draws, circle = work[2], work[4]
    assert circle.shape == (3, *pairs.shape[:-1], grid.n_phi)
    assert sum(np.shape(a) == circle.shape for a in work) == 1
    ab = draws[:, pairs].astype(np.longdouble)[..., None]
    exact = ab[..., 0, :] * trig[:, 0] + ab[..., 1, :] * trig[:, 1]
    assert np.all(np.abs(circle - exact) <= 2.0 ** -52 * (np.abs(ab[..., 0, :]) + np.abs(ab[..., 1, :])))
    assert np.count_nonzero(draws[:, pairs]) == 3 * dim_harmonics(ell, d)  # every draw reaches one leaf


@pytest.mark.parametrize("d, ell, wanted", [(12, 8, 2 * 9 ** 11), (7, 16, 2 * 17 ** 6), (40, 2, 2 * 3 ** 39)])
def test_synthesis_above_the_budget_raises_before_allocating(d, ell, wanted):
    # a grid of degree 1 has 2 nodes, but the circle products of a degree-ell
    # field hold (ell+1)^(d-1) * n_phi values per replica
    grid = build_grid(d, 1)
    tracemalloc.start()
    try:
        with pytest.raises(NodeBudgetError, match=f"takes {wanted} values per replica"):
            _sample_batch(grid, ell, 1, range(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert grid not in simulate._PLANS or ell not in simulate._PLANS[grid]


def test_sampling_d2_statistics():
    ell, n = 10, 4000
    grid = build_grid(2, 2 * ell)
    reps = _sample_batch(grid, ell, seed=5, replicas=range(n))
    # unit variance at every node
    node_var = np.mean(reps ** 2, axis=0)
    assert np.max(np.abs(node_var - 1.0)) < 4.0 * math.sqrt(2.0 / n) * 1.25
    # covariance at a fixed pair matches the Gegenbauer kernel
    i, j = 0, grid.n_phi * 5 + 3
    nodes = grid_nodes(grid)
    cth = float(np.clip(nodes[i] @ nodes[j], -1, 1))
    emp = float(np.mean(reps[:, i] * reps[:, j]))
    exact = float(GegenbauerCtx(ell, SphereDim(2)).evaluate(cth))
    se = math.sqrt((1.0 + exact ** 2) / n)
    assert abs(emp - exact) < 4.0 * se


def test_sampling_d3_statistics():
    grid = build_grid(3, 12)
    n = 3000
    reps = _sample_batch(grid, 6, seed=9, replicas=range(n))
    assert abs(np.mean(reps ** 2) - 1.0) < 0.05
    i, j = 0, grid.n_nodes // 2
    nodes = grid_nodes(grid)
    cth = float(np.clip(nodes[i] @ nodes[j], -1, 1))
    emp = float(np.mean(reps[:, i] * reps[:, j]))
    exact = float(GegenbauerCtx(6, SphereDim(3)).evaluate(cth))
    assert abs(emp - exact) < 4.0 * math.sqrt((1 + exact ** 2) / n)


@pytest.mark.parametrize("d, ell, degree", [(2, 6, 12), (2, 40, 12), (3, 6, 12), (3, 40, 12), (4, 12, 6)])
def test_synthesis_covariance_oracle(d, ell, degree):
    # the identity batch gives every basis function: F^T F is the covariance;
    # it is synthesized in blocks of 128 rows to bound memory
    grid = build_grid(d, degree)
    eye = np.eye(dim_harmonics(ell, d))
    basis = np.concatenate([_synthesize_batch(grid, ell, eye[lo:lo + 128])
                            for lo in range(0, eye.shape[0], 128)])
    nodes = grid_nodes(grid)
    gram = np.clip(nodes @ nodes.T, -1.0, 1.0)
    kernel = GegenbauerCtx(ell, SphereDim(d)).evaluate(gram.ravel()).reshape(gram.shape)
    assert np.max(np.abs(basis.T @ basis - kernel)) < 1e-12


def _synthesize_per_m(grid, ell, coeffs):
    """Reference: the recursion one sub-field U_m at a time, each sub-level
    called on its own block of draws."""
    lam = _profile_stack(ell, grid.dim, grid.colat_t, ell)[0]  # (n_t, ell+1)
    sub = grid.sub
    if sub is None:
        m_phi = np.arange(ell + 1)[:, None] * (2.0 * math.pi * np.arange(grid.n_phi) / grid.n_phi)
        cos_m, sin_m = np.cos(m_phi), np.sin(m_phi)
        sub_fields = coeffs[:, :ell + 1, None] * cos_m
        sub_fields[:, 1:] += coeffs[:, ell + 1:, None] * sin_m[1:]
    else:
        sub_fields = np.empty((coeffs.shape[0], ell + 1, sub.n_nodes))
        start = 0
        for m in range(ell + 1):
            stop = start + (1 if m == 0 else dim_harmonics(m, sub.dim.d))
            sub_fields[:, m] = _synthesize_per_m(sub, m, coeffs[:, start:stop])
            start = stop
    return np.matmul(lam, sub_fields).reshape(coeffs.shape[0], grid.n_nodes)


@pytest.mark.parametrize("d, ell, degree", [(2, 64, 128), (3, 6, 12), (3, 24, 48), (3, 40, 12),
                                            (4, 12, 24), (5, 5, 10)])
def test_level_synthesis_matches_per_m_recursion(d, ell, degree):
    # same draws, same layout: every level at once in padded stacks agrees
    # with the per-m recursion up to the order of the sums
    grid = build_grid(d, degree)
    coeffs = np.random.Generator(np.random.Philox(key=d * 1000 + ell)).standard_normal(
        (3, dim_harmonics(ell, d)))
    ref = _synthesize_per_m(grid, ell, coeffs)
    assert np.max(np.abs(_synthesize_batch(grid, ell, coeffs) - ref)) <= 1e-13 * np.max(np.abs(ref))


def _rectangular_profile_stack(ell, dim, t, lo):
    """`_profile_stack` as it was when every row ran to degree ell."""
    d = dim.d
    m = np.arange(ell + 1)
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    lam = np.zeros((ell + 1 - lo, ell + 1, t.size))
    rows = orthonormal_jacobi(ell, m[:, None] + (d / 2.0 - 1.0), t, scale=s ** m[:, None])
    for k, p in enumerate(rows):
        rm = m[max(0, lo - k):ell + 1 - k]
        lam[rm + k - lo, rm] = p[rm]
    n_sub = np.array([simulate._n_harmonics(j, d - 1) for j in m], dtype=float)
    n_e = np.array([simulate._n_harmonics(e, d) for e in range(lo, ell + 1)], dtype=float)
    lam *= np.sqrt(dim.mu_d * n_sub / (n_e[:, None] * dim.mu_dm1))[:, :, None]
    return lam.transpose(0, 2, 1)


@pytest.mark.parametrize("d, ell", [(2, 64), (3, 12), (4, 6)])
def test_triangular_profile_stack_is_bitwise_the_rectangular_one(d, ell):
    # row m is advanced only to degree ell - m, and each row's arithmetic is unchanged
    level = build_grid(d, 2 * ell)
    while level is not None:
        for lo in (0, ell):
            new = _profile_stack(ell, level.dim, level.colat_t, lo)
            assert np.array_equal(new, _rectangular_profile_stack(ell, level.dim, level.colat_t, lo))
        level = level.sub


def test_profile_table_d2_matches_scipy_harmonics():
    # lam_{ell,m} = sqrt(2 n_{m;1} / (2 ell + 1)) sqrt(2 pi) |Y_ell^m(theta, 0)| with the
    # Condon-Shortley sign removed
    ell = 256
    grid = build_grid(2, 2 * ell)
    lam = _synthesis_plan(grid, ell)[-1][-1][0].T  # the top stack: lam_{ell} alone
    m = np.arange(ell + 1)
    theta = np.arccos(grid.colat_t)
    ylm = np.array([sph_harm_y(ell, k, theta, 0.0).real for k in m]) * (-1.0) ** m[:, None]
    norm = np.sqrt(2.0 * np.where(m == 0, 1, 2) / (2 * ell + 1)) * math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(lam - norm[:, None] * ylm)) < 1e-12


@pytest.mark.parametrize("d, ell", [(3, 32), (4, 12)])
def test_hermite_variance_high_degree(d, ell):
    # Var[h_{ell;2,d}] on a grid exact to 2*ell, in chunks to bound memory
    grid = build_grid(d, 2 * ell)
    n = 400
    vals = np.concatenate([hermite(2, _sample_batch(grid, ell, 17, range(lo, lo + 50))) @ grid.weights
                           for lo in range(0, n, 50)])
    target = variance_h(ell, 2, d)
    se = target * math.sqrt(2.0 / (n - 1))  # h_{ell;2} is close to Gaussian
    assert abs(float(np.var(vals, ddof=1)) - target) < 4.0 * se


def test_coefficient_recovery_variance():
    # E[a^2] = mu_2 / n_{ell;2} = 4 pi / 21 at ell = 10
    ell, n = 10, 800
    grid = build_grid(2, 2 * ell)
    reps = _sample_batch(grid, ell, seed=5, replicas=range(n))
    coefs = np.array([
        recover_harmonic_coeffs(FieldRealization(grid, reps[r], ell, 5, r))
        for r in range(n)
    ])
    target = 4 * math.pi / 21
    se = target * math.sqrt(2.0 / (n * (2 * ell + 1)))
    assert abs(coefs.var() - target) < 4.0 * se


@pytest.mark.parametrize("d, ell", [(2, 1), (2, 10), (2, 64), (3, 6), (3, 20), (4, 8), (5, 4)],
                         ids=["1", "10", "64", "d3-6", "d3-20", "d4-8", "d5-4"])
def test_recovery_returns_the_replica_draws(d, ell):
    # pins the draw layout (at d = 2 [a_0, a^c_1..a^c_ell, a^s_1..a^s_ell]) and
    # the (seed, replica) stream: recovery undoes the synthesis draw by draw
    seed, rep = 23, 5
    grid = build_grid(d, 2 * ell)
    coefs = recover_harmonic_coeffs(sample_field(d, ell, grid, seed, rep))
    n = dim_harmonics(ell, d)
    stream = np.random.Generator(np.random.Philox(key=seed, counter=(rep // 64) << 128))
    draws = stream.standard_normal((rep % 64 + 1, n))[rep % 64]
    scale = math.sqrt(grid.dim.mu_d / n)
    assert np.max(np.abs(coefs / scale - draws)) < 1e-12


@pytest.mark.parametrize("d, ell, degree", [(3, 40, 12), (2, 8, 15)])
def test_recovery_rejects_an_under_resolved_grid(d, ell, degree):
    # below degree 2*ell the quadrature cannot separate the harmonics: at
    # (3, 40, 12) the recovered draws would be off by about 10
    f = sample_field(d, ell, build_grid(d, degree), 23, 5)
    with pytest.raises(ValueError, match=f"degree {2 * ell}, .* degree {f.grid.exact_degree}"):
        recover_harmonic_coeffs(f)


def test_parseval_on_grid():
    for d, ell in ((2, 10), (3, 10)):
        grid = build_grid(d, 2 * ell)
        f = sample_field(d, ell, grid, seed=8, replica=0)
        coefs = recover_harmonic_coeffs(f)
        assert float(np.sum(coefs ** 2)) == pytest.approx(float(f.values ** 2 @ grid.weights), abs=1e-9)


def test_synthesis_plan_holds_one_stack_per_level():
    # lower levels hold lam_{e} for every e <= ell in one stack; no azimuth
    # tables beyond degree ell are kept
    grid = build_grid(3, 128)
    tracemalloc.start()
    try:
        _sample_batch(grid, 64, 0, ())
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 4 * 2 ** 20


# ------------------------------------------------------------------
# functionals
# ------------------------------------------------------------------

@pytest.fixture(scope="module")
def field_d2():
    grid = build_grid(2, 40)
    return sample_field(2, 10, grid, seed=3, replica=0)


def test_functional_h_trivial_orders(field_d2):
    h0 = functional_h(field_d2, 0, normalize=False)
    assert h0.raw == pytest.approx(4 * math.pi, rel=1e-12, abs=0)
    h1 = functional_h(field_d2, 1, normalize=False)
    assert abs(h1.raw) < 1e-10


def test_functional_h_zero_variance(field_d2):
    grid = field_d2.grid
    odd = sample_field(2, 9, grid, seed=3, replica=1)
    with pytest.raises(ZeroVarianceError):
        functional_h(odd, 3)
    assert functional_h(odd, 3, normalize=False).raw == pytest.approx(0.0, abs=1e-9)


def test_functional_h_exactness_flag(field_d2):
    assert functional_h(field_d2, 4, normalize=True).exact_quadrature
    assert not functional_h(field_d2, 5, normalize=True).exact_quadrature


def test_functional_h_empirical_variance():
    ell, q, n = 8, 2, 2000
    grid = build_grid(2, q * ell)
    reps = _sample_batch(grid, ell, seed=13, replicas=range(n))
    vals = hermite(q, reps) @ grid.weights
    target = variance_h(ell, q, 2)
    kurt = float(np.mean((vals - vals.mean()) ** 4)) / float(np.var(vals)) ** 2
    se = target * math.sqrt(max(kurt - 1.0, 0.1) / n)
    assert abs(float(np.var(vals, ddof=1)) - target) < 4.0 * se


def test_grid_exactness_consistency():
    # same coefficients on a doubled grid: quadrature-exact functionals move
    # only at rounding level
    for q in (2, 3, 4):
        g1 = build_grid(2, 4 * 10)
        g2 = build_grid(2, 8 * 10)
        f1 = sample_field(2, 10, g1, seed=4, replica=2)
        f2 = sample_field(2, 10, g2, seed=4, replica=2)
        a = functional_h(f1, q, normalize=False).raw
        b = functional_h(f2, q, normalize=False).raw
        assert abs(a - b) < 1e-9


def test_monomial_to_hermite():
    np.testing.assert_allclose(monomial_to_hermite([0, 0, 1]), [1, 0, 1])        # t^2 = H0 + H2
    np.testing.assert_allclose(monomial_to_hermite([0, 0, 0, 1]), [0, 3, 0, 1])  # t^3 = 3H1 + H3
    np.testing.assert_allclose(monomial_to_hermite([0, 0, 0, 0, 1]), [3, 0, 6, 0, 1])
    with pytest.raises(ValueError):
        monomial_to_hermite(np.zeros(20))


def test_functional_Z_identities(field_d2):
    h2 = functional_h(field_d2, 2, normalize=False).raw
    h3 = functional_h(field_d2, 3, normalize=False).raw
    z2 = functional_Z(field_d2, [0, 0, 1], normalize=False)
    assert z2.raw == pytest.approx(4 * math.pi + h2, rel=1e-12, abs=0)
    z3 = functional_Z(field_d2, [0, 0, 0, 1], normalize=False)
    assert z3.raw == pytest.approx(h3, abs=1e-10)


def test_functional_excursion_limits(field_d2):
    assert functional_excursion(field_d2, 60.0).raw == pytest.approx(4 * math.pi, rel=1e-12, abs=0)
    assert functional_excursion(field_d2, -60.0).raw == 0.0


def test_functional_excursion_symmetry():
    ell, n = 8, 1500
    grid = build_grid(2, 4 * ell)
    reps = _sample_batch(grid, ell, seed=21, replicas=range(n))
    centered = (reps <= 0.0) @ grid.weights - 4 * math.pi * 0.5
    se = float(np.std(centered)) / math.sqrt(n)
    assert abs(float(np.mean(centered))) < 4.0 * se


# ------------------------------------------------------------------
# Hermite projections and the excursion variance
# ------------------------------------------------------------------

# the relative error that the docstring of `excursion_variance` states at
# even ell, and at odd ell for z = 0 and |z| >= 0.1
EXCURSION_RTOL = 1e-10


def indicator_projections(z, q_max):
    """J_q(1{. <= z}) / sqrt(q!) for q = 0..q_max: J_0 = Phi(z) and, since
    (phi H_{q-1})' = -phi H_q, J_q = -phi(z) H_{q-1}(z).  The normalized
    H_n / sqrt(n!) follow their own recurrence, so nothing overflows."""
    out = [float(ndtr(z))]
    prev, cur = 0.0, 1.0  # H_{q-2} / sqrt((q-2)!) and H_{q-1} / sqrt((q-1)!)
    for q in range(1, q_max + 1):
        out.append(-phi(z) * cur / math.sqrt(q))
        prev, cur = cur, (z * cur - math.sqrt(q - 1) * prev) / math.sqrt(q)
    return out


def chaos_partial_sums(ell, d, z, qs):
    """The chaos series of Var S_z summed to each q_max in qs:
    sum_{q=2}^{q_max} (J_q^2 / q!) mu_d mu_{d-1} integral_0^pi G^q sin^{d-1}."""
    dim = SphereDim(d)
    J = indicator_projections(z, max(qs))
    total, sums = 0.0, []
    for q in range(2, max(qs) + 1):
        total += J[q] ** 2 * dim.mu_d * dim.mu_dm1 * fft_moment(ell, q, d)
        if q in qs:
            sums.append(total)
    return sums


def excursion_variance_oracle(ell, d, z):
    """Var S_z as an mpmath double integral over theta in [0, pi] and u in
    [0, arcsin G(cos theta)] of exp(-z^2 / (1 + sin u)), at 18 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(18):
        zz = mpmath.mpf(z) ** 2

        def gegenbauer(t):
            prev, cur = mpmath.mpf(1), t
            for n in range(1, ell):
                prev, cur = cur, ((2 * n + d - 1) * t * cur - n * prev) / (n + d - 1)
            return cur

        def inner(u):
            s = 1 + mpmath.sin(u)
            return mpmath.exp(-zz / s) if s else mpmath.mpf(0)

        def outer(theta):
            a = mpmath.asin(gegenbauer(mpmath.cos(theta)))
            return mpmath.quad(inner, [0, a], method="gauss-legendre") * mpmath.sin(theta) ** (d - 1)

        total = mpmath.quad(outer, mpmath.linspace(0, mpmath.pi, ell + 2), method="gauss-legendre")
        return float(total * SphereDim(d).mu_d * SphereDim(d).mu_dm1 / (2 * mpmath.pi))


def test_hermite_projection_indicator_values():
    z = 1.0
    J = [j * math.sqrt(math.factorial(q)) for q, j in enumerate(indicator_projections(z, 2))]
    assert J[0] == pytest.approx(ndtr(z), abs=1e-12)
    assert J[1] == pytest.approx(-phi(z), abs=1e-12)
    # magnitude z*phi(z); the <= z convention makes the sign negative
    assert J[2] == pytest.approx(-z * phi(z), abs=1e-12)
    assert abs(J[2]) == pytest.approx(math.exp(-0.5) / math.sqrt(2 * math.pi), abs=1e-12)


@pytest.mark.parametrize("z", [-1.3, 0.0, 0.6, 2.2, 1e6])
@pytest.mark.parametrize("q", [1, 2, 3, 4, 6, 8])
def test_hermite_projection_matches_parts_oracle(z, q):
    assert indicator_projections(z, q)[q] * math.sqrt(math.factorial(q)) == pytest.approx(
        indicator_projection_oracle(z, q), abs=1e-11)


@pytest.mark.parametrize("d, ell, z", [(2, 2, 0.25), (2, 5, 1.0), (2, 8, 2.0), (2, 8, 0.0),
                                       (3, 2, 2.0), (3, 5, 0.25), (3, 8, 1.0), (3, 2, 0.0)])
def test_excursion_variance_matches_mpmath_double_integral(d, ell, z):
    assert excursion_variance(ell, d, z) == pytest.approx(
        excursion_variance_oracle(ell, d, z), rel=EXCURSION_RTOL, abs=0)


def excursion_variance_scipy_d2(ell, z):
    """Var S_z on S^2 by scipy's adaptive quad: theta over panels between the
    zeros of the Legendre polynomial and graded toward both poles, u over
    [0, arcsin P_ell(cos theta)] with break points at |z| multiples from the
    ends, where e^{-z^2/(1+sin u)} turns on within about |z| of -pi/2."""
    zz = z * z

    def g(u):
        return math.exp(-zz / (1.0 + math.sin(u))) - math.exp(-zz) * math.cos(u) if math.sin(u) > -1.0 else 0.0

    def inner(theta):
        a = math.asin(min(1.0, max(-1.0, float(eval_legendre(ell, math.cos(theta))))))
        points = [a + math.copysign(k * abs(z), -a) for k in (1, 3, 10, 30, 100)]
        points = [p for p in points if min(0.0, a) < p < max(0.0, a)] or None
        return quad(g, 0.0, a, points=points, epsabs=1e-17, epsrel=1e-14, limit=400)[0] * math.sin(theta)

    breaks = set(np.linspace(0.0, math.pi, 4 * ell + 3))
    breaks |= {e for k in (0.1, 0.3, 1, 3, 10, 30, 100) for e in (k * abs(z), math.pi - k * abs(z))}
    breaks = sorted(b for b in breaks if 0.0 <= b <= math.pi)
    total = sum(quad(inner, lo, hi, epsabs=1e-17, epsrel=1e-13, limit=400)[0] for lo, hi in zip(breaks, breaks[1:]))
    return 4.0 * math.pi * 2.0 * math.pi / (2.0 * math.pi) * total


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("ell, z", [(1, 0.01), (5, 0.01), (1, 0.001), (3, -0.01), (1, 1.0),
                                    (33, 0.01), (65, 0.01)])
def test_excursion_variance_at_odd_ell_and_small_level_matches_scipy(ell, z):
    # at odd ell the upper limit arcsin G of the u integral reaches pi/2 at
    # theta = 0, where the mirrored term e^{-z^2/(1-sin u)} turns on within
    # about |z|; on the first theta panel the u rule is halved toward it, so
    # small levels keep their accuracy (the rule of one 48-node panel was off
    # by 2.8e-7 at z = 0.01 and 1.6e-5 at 0.001)
    assert excursion_variance(ell, 2, z) == pytest.approx(excursion_variance_scipy_d2(ell, z), rel=1e-9, abs=0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_excursion_variance_vanishes_at_odd_ell_and_level_zero(d):
    # T(-x) = -T(x) at odd ell, so {T <= 0} always has measure mu_d / 2
    assert excursion_variance(5, d, 0.0) == 0.0
    with pytest.raises(ZeroVarianceError):
        Functional.of("S", z=0.0).variance(7, d)


@pytest.mark.parametrize("z", [0.0, 0.25, 1.0, 2.0])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("ell", [16, 64])
def test_excursion_variance_is_the_sum_of_the_chaos_series(ell, d, z):
    exact = excursion_variance(ell, d, z)
    tails = [exact - s for s in chaos_partial_sums(ell, d, z, (8, 16, 32, 64))]
    # every term is >= 0: the tail left after q_max is positive and shrinks
    assert all(t > 0.0 for t in tails)
    assert all(later < earlier for earlier, later in zip(tails, tails[1:]))
    # the terms decay like q^{-(d+3)/2}, so the tail after 64 is about the
    # sum over 33..64 divided by 2^{(d+1)/2} - 1; at z = 0 the q <= 8 sum
    # misses 19 % (d = 2) and 10 % (d = 3) of the variance
    predicted = (tails[2] - tails[3]) / (2.0 ** ((d + 1) / 2) - 1.0)
    assert tails[3] == pytest.approx(predicted, rel=0.1, abs=0)


@pytest.mark.parametrize("d, ell", [(2, 2), (2, 16), (3, 8), (4, 64), (2, 256)])
def test_excursion_variance_at_level_zero_is_sheppards_arcsin_law(d, ell):
    # C_0(rho) = arcsin(rho) / (2 pi), integrated on a rule 4 times finer
    dim = SphereDim(d)
    theta, w = panel_nodes(0.0, math.pi, 4 * (ell + 2), 32)
    rho = np.clip(GegenbauerCtx(ell, dim).evaluate(np.cos(theta)), -1.0, 1.0)
    sheppard = dim.mu_d * dim.mu_dm1 / (2 * math.pi) * float(np.sum(w * np.sin(theta) ** (d - 1) * np.arcsin(rho)))
    assert excursion_variance(ell, d, 0.0) == pytest.approx(sheppard, rel=EXCURSION_RTOL, abs=0)


@pytest.mark.parametrize("ell", [5, 16])
@pytest.mark.parametrize("d", [2, 3])
def test_excursion_variance_is_even_in_the_level(d, ell):
    for z in (0.25, 1.0, 2.0):
        assert excursion_variance(ell, d, -z) == excursion_variance(ell, d, z)


def test_excursion_variance_matches_monte_carlo_on_a_fine_grid():
    # at z = 0 every odd chaos contributes at the same order, so a truncated
    # chaos series falls short (by 19 % at q <= 8); on a grid of degree 24 ell
    # quadrature noise is small next to the 2.2 % standard error of 4000 replicas
    ell, n = 16, 4000
    grid = build_grid(2, 24 * ell)
    raw = _samples(Functional.of("S", z=0.0), grid, ell, 5, n, 2)
    sample_var = float(np.var(raw, ddof=1))
    se = sample_var * math.sqrt(2.0 / (n - 1))
    assert abs(sample_var - excursion_variance(ell, 2, 0.0)) <= 4.0 * se
