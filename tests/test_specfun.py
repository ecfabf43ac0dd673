"""Special-function layer: normalizations, recurrences, Bessel accuracy.

Independent oracles used here:
  - a raw Jacobi P^(a,a) three-term recurrence (normalized at the end),
  - a standalone Legendre recurrence,
  - 40-digit mpmath Gegenbauer values at the degrees the grid checks run,
  - a pure-python Bessel power series + bisection for the first zero of J0.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphclt.specfun import (
    GegenbauerCtx,
    SphereDim,
    bessel_j,
    bessel_j_zeros,
    NumericalError,
    dim_harmonics,
    harmonics_table,
    hermite,
    normal_cdf,
    orthonormal_jacobi,
    sphere_volume,
)


# ------------------------------------------------------------------
# oracles
# ------------------------------------------------------------------

def jacobi_symmetric_oracle(ell, alpha, t):
    """Raw Jacobi P_ell^(alpha,alpha)(t) by the generic Jacobi recurrence
    (the alpha^2 - beta^2 term vanishes for equal parameters)."""
    p_prev, p = 1.0, (alpha + 1.0) * t
    if ell == 0:
        return 1.0
    for n in range(1, ell):
        a1 = 2 * (n + 1) * (n + 2 * alpha + 1) * (2 * n + 2 * alpha)
        a3 = (2 * n + 2 * alpha) * (2 * n + 2 * alpha + 1) * (2 * n + 2 * alpha + 2) * t
        a4 = 2 * (n + alpha) * (n + alpha) * (2 * n + 2 * alpha + 2)
        p_prev, p = p, (a3 * p - a4 * p_prev) / a1
    return p


def legendre_oracle(ell, t):
    p_prev, p = 1.0, t
    if ell == 0:
        return 1.0
    for n in range(1, ell):
        p_prev, p = p, ((2 * n + 1) * t * p - n * p_prev) / (n + 1)
    return p


def bessel_j0_series(x):
    term, out = 1.0, 1.0
    for k in range(1, 80):
        term *= -(x * x / 4.0) / (k * k)
        out += term
    return out


# ------------------------------------------------------------------
# dimensions and measures
# ------------------------------------------------------------------

def test_sphere_measures():
    dim = SphereDim(2)
    assert dim.mu_d == pytest.approx(4 * math.pi, rel=1e-14, abs=0)
    assert dim.mu_dm1 == pytest.approx(2 * math.pi, rel=1e-14, abs=0)
    assert sphere_volume(3) == pytest.approx(2 * math.pi ** 2, rel=1e-14, abs=0)
    assert sphere_volume(0) == pytest.approx(2.0, rel=1e-14, abs=0)
    with pytest.raises(ValueError):
        SphereDim(1)


def test_dim_harmonics_values():
    assert dim_harmonics(5, 2) == 11
    assert dim_harmonics(2, 3) == 9
    assert dim_harmonics(1, 4) == 5
    with pytest.raises(ValueError):
        dim_harmonics(0, 2)


@given(ell=st.integers(1, 200), d=st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_dim_harmonics_binomial_identity(ell, d):
    # independent identity: dim of degree-ell harmonics in d+1 variables
    expect = math.comb(ell + d, d) - math.comb(ell + d - 2, d)
    assert dim_harmonics(ell, d) == expect


@pytest.mark.parametrize("d", [2, 3, 4, 30, 60, 171, 342])
@pytest.mark.parametrize("kmax", [0, 20, 400])
def test_harmonics_table_is_the_float_of_each_exact_count(kmax, d):
    # bit for bit, through int64 (d <= 4, and d = 30 up to kmax = 20) and
    # through one pass in Python integers beyond; a RuntimeWarning would fail the suite
    n = harmonics_table(kmax, d)
    assert n.dtype == np.float64 and not n.flags.writeable
    assert n.tolist() == [1.0] + [float(dim_harmonics(k, d)) for k in range(1, kmax + 1)]


@pytest.mark.parametrize("kmax, d", [(8192, 171), (2048, 342)])
def test_harmonics_table_beyond_the_float_range_raises(kmax, d):
    with pytest.raises(NumericalError, match="overflows a float"):
        harmonics_table(kmax, d)


# ------------------------------------------------------------------
# Gegenbauer
# ------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("ell", [0, 1, 2, 7, 40, 256])
def test_gegenbauer_normalization_and_parity(d, ell):
    ctx = GegenbauerCtx(ell, SphereDim(d))
    assert ctx.evaluate(1.0) == pytest.approx(1.0, abs=1e-13)
    t = np.linspace(-1, 1, 41)
    vals = ctx.evaluate(t)
    flipped = ctx.evaluate(-t)
    np.testing.assert_allclose(flipped, (-1.0) ** ell * vals, atol=1e-13)


def test_gegenbauer_trivial_values():
    assert GegenbauerCtx(2, SphereDim(2)).evaluate(0.0) == pytest.approx(-0.5, abs=1e-15)
    assert GegenbauerCtx(5, SphereDim(3)).evaluate(1.0) == pytest.approx(1.0, abs=1e-14)


def test_gegenbauer_matches_jacobi_oracle():
    # (ell=3, d=4, t=0.3): normalized symmetric Jacobi, alpha = d/2 - 1 = 1
    raw = jacobi_symmetric_oracle(3, 1.0, 0.3)
    at_one = jacobi_symmetric_oracle(3, 1.0, 1.0)
    assert GegenbauerCtx(3, SphereDim(4)).evaluate(0.3) == pytest.approx(raw / at_one, rel=1e-13, abs=0)
    # odd dimension (half-integer alpha) as well
    for ell in (2, 5, 11):
        raw = jacobi_symmetric_oracle(ell, 0.5, -0.42)
        at_one = jacobi_symmetric_oracle(ell, 0.5, 1.0)
        value = GegenbauerCtx(ell, SphereDim(3)).evaluate(-0.42)
        assert value == pytest.approx(raw / at_one, rel=1e-12, abs=0)


@pytest.mark.parametrize("n, alpha, points", [(384, 0.0, 193), (384, 0.5, 193), (2048, 1.0, 50), (256, 0.0, 1000)])
@pytest.mark.parametrize("scaled", [False, True])
def test_orthonormal_jacobi_scalar_weight_is_bitwise_the_array_path(n, alpha, points, scaled):
    # one weight takes its b_k in Python floats; the array path, alpha given as
    # a one-element array, takes them in numpy: the same roundings either way
    t = np.cos(np.linspace(0.01, math.pi - 0.01, points))
    scale = np.linspace(0.5, 2.0, points) if scaled else 1.0
    scalar = list(orthonormal_jacobi(n, alpha, t, scale))
    array = list(orthonormal_jacobi(n, np.array([alpha]), t, scale))
    assert len(scalar) == len(array) == n + 1
    assert all(np.array_equal(a, b) for a, b in zip(scalar, array))


@pytest.mark.parametrize("ell", [1, 3, 10, 64, 201])
def test_gegenbauer_d2_is_legendre(ell):
    ctx = GegenbauerCtx(ell, SphereDim(2))
    for t in (-0.97, -0.5, 0.0, 0.31, 0.9):
        assert ctx.evaluate(t) == pytest.approx(legendre_oracle(ell, t), abs=1e-13)


def test_gegenbauer_d3_closed_form():
    # G_{ell;3}(cos t) = sin((ell+1) t) / ((ell+1) sin t)
    for ell in (1, 4, 17, 120):
        ctx = GegenbauerCtx(ell, SphereDim(3))
        for theta in (0.2, 0.9, 2.4):
            expect = math.sin((ell + 1) * theta) / ((ell + 1) * math.sin(theta))
            assert ctx.evaluate(math.cos(theta)) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 7])
@pytest.mark.parametrize("ell", [512, 2048])
def test_gegenbauer_matches_mpmath_at_high_degree(ell, d):
    # grid builds check degrees up to about 2000; the error peaks next to t = +-1
    mpmath = pytest.importorskip("mpmath")
    theta = np.concatenate(([1e-3, 1e-2, 0.1], np.linspace(0.3, math.pi - 0.3, 7),
                            [math.pi - 0.1, math.pi - 1e-2, math.pi - 1e-3]))
    t = np.cos(theta)
    with mpmath.workdps(40):
        lam = mpmath.mpf(d - 1) / 2  # G_{ell;d} = C_ell^lam / C_ell^lam(1)
        at_one = mpmath.gegenbauer(ell, lam, 1)
        expect = np.array([float(mpmath.gegenbauer(ell, lam, mpmath.mpf(x)) / at_one) for x in t])
    ctx = GegenbauerCtx(ell, SphereDim(d))
    assert np.max(np.abs(ctx.evaluate(t) - expect)) <= 5e-12
    assert ctx.evaluate(1.0) == 1.0
    assert np.all(ctx.evaluate_all(np.array([1.0]))[:, 0] == 1.0)


def test_gegenbauer_beyond_the_float_range_raises():
    # p_ell(1) = sqrt(n_{ell;d} mu_{d-1} / mu_d), and n_{20000;342} is about 1e751
    with pytest.raises(NumericalError, match="overflows a float"):
        GegenbauerCtx(20000, SphereDim(342)).evaluate(np.array([0.0, 0.5]))


# ------------------------------------------------------------------
# Hermite
# ------------------------------------------------------------------

def test_hermite_values():
    assert hermite(2, 0.0) == pytest.approx(-1.0)
    assert hermite(3, 2.0) == pytest.approx(2.0)
    assert hermite(4, 1.0) == pytest.approx(-2.0)
    assert hermite(0, 3.7) == 1.0


@given(q=st.integers(1, 12), t=st.floats(-4, 4))
@settings(max_examples=60, deadline=None)
def test_hermite_recurrence_property(q, t):
    assert hermite(q + 1, t) == pytest.approx(t * hermite(q, t) - q * hermite(q - 1, t),
                                              rel=1e-10, abs=1e-9)


# ------------------------------------------------------------------
# Bessel
# ------------------------------------------------------------------

def test_bessel_trivials():
    assert bessel_j(0, 0.0) == pytest.approx(1.0)
    assert bessel_j(0.5, math.pi) == pytest.approx(0.0, abs=1e-14)
    assert bessel_j(1.5, 0.0) == 0.0


def test_bessel_first_zero_against_series_rootfind():
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bessel_j0_series(lo) * bessel_j0_series(mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert root == pytest.approx(2.404825557695773, abs=1e-10)
    assert bessel_j(0, root) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("nu", [0.0, 1.0, 2.0, 0.5, 1.5])
def test_bessel_zero_tables(nu):
    z = bessel_j_zeros(nu, 50)
    assert np.all(np.diff(z) > 0)
    assert np.max(np.abs(bessel_j(nu, z))) < 1e-9


def test_bessel_half_integer_closed_forms():
    x = np.linspace(0.3, 80.0, 57)
    expect_half = np.sqrt(2.0 / (math.pi * x)) * np.sin(x)
    np.testing.assert_allclose(bessel_j(0.5, x), expect_half, atol=1e-13)
    expect_3half = np.sqrt(2.0 / (math.pi * x)) * (np.sin(x) / x - np.cos(x))
    np.testing.assert_allclose(bessel_j(1.5, x), expect_3half, atol=1e-12)


def _mpmath_besselj(nu, x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return np.array([float(mpmath.besselj(nu, mpmath.mpf(float(v)))) for v in x])


# dense points where the scheme switches: power series or Bessel's integral
# below, Hankel's expansion above
BESSEL_POINTS = np.concatenate((np.geomspace(0.01, 1e5, 400), np.linspace(3.9, 4.1, 81),
                                np.linspace(24.9, 25.1, 81), [0.0]))


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5])
def test_bessel_half_integer_against_mpmath(nu):
    np.testing.assert_allclose(bessel_j(nu, BESSEL_POINTS), _mpmath_besselj(nu, BESSEL_POINTS),
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("nu", [0.0, 1.0, 2.0, 3.0])
def test_bessel_integer_against_mpmath(nu):
    np.testing.assert_allclose(bessel_j(nu, BESSEL_POINTS), _mpmath_besselj(nu, BESSEL_POINTS),
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("nu", [11.5, 12.0])
def test_bessel_top_orders_against_mpmath(nu):
    # half-integer orders above 4 switch to the power series at x = nu
    x = np.concatenate((BESSEL_POINTS, np.linspace(nu - 0.1, nu + 0.1, 41)))
    np.testing.assert_allclose(bessel_j(nu, x), _mpmath_besselj(nu, x), rtol=0, atol=1e-14)


def test_normal_cdf_matches_scipy():
    from scipy.special import ndtr
    # in the far left tail both lose relative digits to the rounding of x^2/2
    x = np.linspace(-40.0, 10.0, 2001)
    np.testing.assert_allclose(normal_cdf(x), ndtr(x), rtol=0, atol=2.3e-16)
    x = np.linspace(-5.0, 10.0, 1501)
    np.testing.assert_allclose(normal_cdf(x), ndtr(x), rtol=1e-14, atol=0)
    assert normal_cdf(0.3) == pytest.approx(float(ndtr(0.3)), rel=1e-15, abs=0)
    assert isinstance(normal_cdf(0.3), float)
    assert normal_cdf(x.reshape(1, -1)).shape == (1, x.size)


def test_bessel_order_validation():
    with pytest.raises(ValueError):
        bessel_j(0.3, 1.0)
    with pytest.raises(ValueError):
        bessel_j(-1.0, 1.0)
    with pytest.raises(ValueError):
        bessel_j(12.5, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0.0, -0.1)
