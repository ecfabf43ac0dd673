"""Grids, Gaussian eigenfunction sampling and functional evaluation.

Statistical assertions use fixed seeds and 4-standard-error windows; the
Hermite projections of the indicator are checked against 30-digit mpmath
quadrature of phi(x) H_q(x) over (-inf, z].
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr, sph_harm_y

import sphclt.simulate as simulate
from sphclt.clt import functional_excursion, functional_h, functional_Z, monomial_to_hermite
from sphclt.moments import ZeroVarianceError, variance_h
from sphclt.simulate import (
    NodeBudgetError,
    _sample_batch,
    _synthesis_tables,
    _synthesize_batch,
    build_grid,
    excursion_variance,
    hermite_projection,
    recover_harmonic_coeffs,
    sample_field,
    FieldRealization,
)
from sphclt.specfun import GegenbauerCtx, SphereDim, dim_harmonics, gegenbauer_value, hermite


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
    assert grid.weights.sum() == pytest.approx(4 * math.pi, rel=1e-12)
    assert grid.exact_degree >= 2 * ell
    assert np.all(grid.weights > 0)
    np.testing.assert_allclose(np.linalg.norm(grid.nodes, axis=1), 1.0, atol=1e-12)


def test_grid_d3_weights():
    grid = build_grid(3, 16)
    assert grid.weights.sum() == pytest.approx(2 * math.pi ** 2, rel=1e-12)
    np.testing.assert_allclose(np.linalg.norm(grid.nodes, axis=1), 1.0, atol=1e-12)


def test_grid_orthogonality():
    grid = build_grid(2, 30)
    ctx = GegenbauerCtx(grid.exact_degree, SphereDim(2))
    pole = np.array([0.0, 0.0, 1.0])
    table = ctx.evaluate_all(grid.nodes @ pole)
    worst = np.max(np.abs(table[1:] @ grid.weights))
    assert worst < 1e-11 * 4 * math.pi


def test_grid_node_budget():
    with pytest.raises(NodeBudgetError):
        build_grid(2, 4000, node_budget=10_000)


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


def test_sampling_d2_statistics():
    ell, n = 10, 4000
    grid = build_grid(2, 2 * ell)
    reps = _sample_batch(grid, ell, seed=5, replicas=range(n))
    # unit variance at every node
    node_var = np.mean(reps ** 2, axis=0)
    assert np.max(np.abs(node_var - 1.0)) < 4.0 * math.sqrt(2.0 / n) * 1.25
    # covariance at a fixed pair matches the Gegenbauer kernel
    i, j = 0, grid.n_phi * 5 + 3
    cth = float(np.clip(grid.nodes[i] @ grid.nodes[j], -1, 1))
    emp = float(np.mean(reps[:, i] * reps[:, j]))
    exact = gegenbauer_value(ell, 2, cth)
    se = math.sqrt((1.0 + exact ** 2) / n)
    assert abs(emp - exact) < 4.0 * se


def test_sampling_d3_statistics():
    grid = build_grid(3, 12)
    n = 3000
    reps = _sample_batch(grid, 6, seed=9, replicas=range(n))
    assert abs(np.mean(reps ** 2) - 1.0) < 0.05
    i, j = 0, grid.n_nodes // 2
    cth = float(np.clip(grid.nodes[i] @ grid.nodes[j], -1, 1))
    emp = float(np.mean(reps[:, i] * reps[:, j]))
    exact = gegenbauer_value(6, 3, cth)
    assert abs(emp - exact) < 4.0 * math.sqrt((1 + exact ** 2) / n)


@pytest.mark.parametrize("d, ell, degree", [(2, 6, 12), (2, 40, 12), (3, 6, 12), (3, 40, 12), (4, 12, 6)])
def test_synthesis_covariance_oracle(d, ell, degree):
    # the identity batch gives every basis function: F^T F is the covariance
    grid = build_grid(d, degree)
    basis = _synthesize_batch(grid, ell, np.eye(dim_harmonics(ell, d)))
    gram = np.clip(grid.nodes @ grid.nodes.T, -1.0, 1.0)
    kernel = GegenbauerCtx(ell, SphereDim(d)).evaluate(gram.ravel()).reshape(gram.shape)
    assert np.max(np.abs(basis.T @ basis - kernel)) < 1e-12


def _synthesize_per_m(grid, ell, coeffs):
    """Reference: the recursion one sub-field U_m at a time, each sub-level
    called on its own block of draws."""
    lam, cos_m, sin_m = _synthesis_tables(grid, ell)
    sub = grid.sub
    if sub is None:
        sub_fields = coeffs[:, :ell + 1, None] * cos_m
        sub_fields[:, 1:] += coeffs[:, ell + 1:, None] * sin_m[1:]
    else:
        sub_fields = np.empty((coeffs.shape[0], ell + 1, sub.n_nodes))
        start = 0
        for m in range(ell + 1):
            stop = start + (1 if m == 0 else dim_harmonics(m, sub.dim.d))
            sub_fields[:, m] = _synthesize_per_m(sub, m, coeffs[:, start:stop])
            start = stop
    return np.matmul(lam.T, sub_fields).reshape(coeffs.shape[0], grid.n_nodes)


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


def test_large_batches_are_synthesized_in_slices(monkeypatch):
    # a slice holds at most LEAF_BUDGET leaf values; slicing changes nothing
    grid = build_grid(3, 12)
    coeffs = np.random.Generator(np.random.Philox(key=4)).standard_normal((10, dim_harmonics(6, 3)))
    whole = _synthesize_batch(grid, 6, coeffs)
    monkeypatch.setattr(simulate, "LEAF_BUDGET", 3 * 7 ** 2 * grid.n_phi)
    assert np.array_equal(_synthesize_batch(grid, 6, coeffs), whole)


def test_profile_table_d2_matches_scipy_harmonics():
    # lam_{ell,m} = sqrt(2 n_{m;1} / (2 ell + 1)) sqrt(2 pi) |Y_ell^m(theta, 0)| with the
    # Condon-Shortley sign removed
    ell = 256
    grid = build_grid(2, 2 * ell)
    lam = _synthesis_tables(grid, ell)[0]
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


@pytest.mark.parametrize("ell", [1, 10, 64])
def test_recovery_returns_the_replica_draws(ell):
    # pins the d = 2 draw layout [a_0, a^c_1..a^c_ell, a^s_1..a^s_ell] and the
    # (seed, replica) stream: recovery undoes the synthesis draw by draw
    seed, rep = 23, 5
    grid = build_grid(2, 2 * ell)
    coefs = recover_harmonic_coeffs(sample_field(2, ell, grid, seed, rep))
    draws = simulate._replica_rng(seed, rep).standard_normal(2 * ell + 1)
    scale = math.sqrt(4 * math.pi / (2 * ell + 1))
    assert np.max(np.abs(coefs / scale - draws)) < 1e-12


def test_parseval_on_grid():
    ell = 10
    grid = build_grid(2, 2 * ell)
    f = sample_field(2, ell, grid, seed=8, replica=0)
    coefs = recover_harmonic_coeffs(f)
    assert float(np.sum(coefs ** 2)) == pytest.approx(float(grid.integrate(f.values ** 2)), abs=1e-9)


# ------------------------------------------------------------------
# functionals
# ------------------------------------------------------------------

@pytest.fixture(scope="module")
def field_d2():
    grid = build_grid(2, 40)
    return sample_field(2, 10, grid, seed=3, replica=0)


def test_functional_h_trivial_orders(field_d2):
    h0 = functional_h(field_d2, 0, normalize=False)
    assert h0.raw == pytest.approx(4 * math.pi, rel=1e-12)
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
    assert z2.raw == pytest.approx(4 * math.pi + h2, rel=1e-12)
    z3 = functional_Z(field_d2, [0, 0, 0, 1], normalize=False)
    assert z3.raw == pytest.approx(h3, abs=1e-10)


def test_functional_excursion_limits(field_d2):
    assert functional_excursion(field_d2, 60.0).raw == pytest.approx(4 * math.pi, rel=1e-12)
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

def test_hermite_projection_indicator_values():
    z = 1.0
    assert hermite_projection(("indicator", z), 0) == pytest.approx(ndtr(z), abs=1e-12)
    assert hermite_projection(("indicator", z), 1) == pytest.approx(-phi(z), abs=1e-12)
    # magnitude z*phi(z); the <= z convention makes the sign negative
    assert hermite_projection(("indicator", z), 2) == pytest.approx(-z * phi(z), abs=1e-12)
    assert abs(hermite_projection(("indicator", z), 2)) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2 * math.pi), abs=1e-12)


@pytest.mark.parametrize("z", [-1.3, 0.0, 0.6, 2.2, 1e6])
@pytest.mark.parametrize("q", [1, 2, 3, 4, 6, 8])
def test_hermite_projection_matches_parts_oracle(z, q):
    assert hermite_projection(("indicator", z), q) == pytest.approx(
        indicator_projection_oracle(z, q), abs=1e-11)


def test_hermite_projection_callable_path():
    assert hermite_projection(lambda t: t * t, 2) == pytest.approx(2.0, abs=1e-10)
    assert hermite_projection(lambda t: t * t, 0) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(TypeError):
        hermite_projection("indicator", 2)


def test_excursion_variance_truncation():
    v8 = excursion_variance(16, 2, 1.0, q_max=8)
    v12 = excursion_variance(16, 2, 1.0, q_max=12)
    assert v8 > 0
    assert abs(v12 - v8) / v8 < 0.01  # truncation tail is sub-percent
