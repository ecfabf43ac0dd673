"""Spectral expansions, contraction norms, bounds and rates.

The Monte Carlo evaluation of the 4-point cyclic integral doubles as the
independent oracle for the spectral collapse; the Legendre linearization of
P_2^2 is checked against its textbook coefficients.
"""

import math

import numpy as np
import pytest

from sphclt.contractions import (
    DegreeCapError,
    ZeroVarianceError,
    berry_esseen_bound,
    contraction_norm,
    contraction_table,
    cross_contraction,
    expand_power,
    kernel_contraction,
    mc_kernel_contraction,
    poly_bound,
    poly_rate,
    rate_theoretical,
)
from sphclt.moments import gegenbauer_moment, variance_h
from sphclt.specfun import SphereDim, dim_harmonics

MU = {d: SphereDim(d) for d in (2, 3, 4, 5)}


# ------------------------------------------------------------------
# expand_power
# ------------------------------------------------------------------

def test_expand_power_identity():
    sc = expand_power(3, 1, 2)
    np.testing.assert_allclose(sc.coeffs, [0, 0, 0, 1], atol=1e-13)


def test_expand_power_cos_squared():
    # G_{1;2} = cos theta, cos^2 = 1/3 + (2/3) P_2
    sc = expand_power(1, 2, 2)
    np.testing.assert_allclose(sc.coeffs, [1 / 3, 0, 2 / 3], atol=1e-13)


def test_expand_power_legendre_linearization():
    # P_2^2 = (1/5) P_0 + (2/7) P_2 + (18/35) P_4
    sc = expand_power(2, 2, 2)
    np.testing.assert_allclose(sc.coeffs, [1 / 5, 0, 2 / 7, 0, 18 / 35], atol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("ell,p", [(3, 2), (5, 3), (8, 4), (2, 6)])
def test_expand_power_invariants(ell, p, d):
    sc = expand_power(ell, p, d)
    deg = p * ell
    assert sc.coeffs.size == deg + 1
    # evaluate both sides at t = 1
    assert sc.coeffs.sum() == pytest.approx(1.0, abs=1e-10)
    # opposite parity rows are identically zero
    parity = (np.arange(deg + 1) - deg) % 2 == 1
    assert np.all(sc.coeffs[parity] == 0.0)
    # b_0 equals the normalized full-range moment
    full = gegenbauer_moment(ell, p, d, "full").value
    assert sc.coeffs[0] == pytest.approx(MU[d].mu_dm1 / MU[d].mu_d * full, abs=1e-10)


def test_expand_power_degree_cap():
    with pytest.raises(DegreeCapError):
        expand_power(2049, 3, 2)


@pytest.mark.parametrize("ell,p", [(1024, 4), (2048, 2)])  # (2048, 2) sits at DEGREE_CAP
def test_expand_power_sum_at_high_degree(ell, p):
    # sum_k b_k = G(1)^p = 1 rests on every weight of the (p*ell + 2)-point rule
    assert abs(expand_power(ell, p, 2).coeffs.sum() - 1.0) < 1e-10


def test_expand_power_parseval_at_high_degree():
    # int G^8 = sum_k b_k^2 int G_k^2 for G^4 = sum_k b_k G_k, int G_k^2 = mu_d / (mu_{d-1} n_k)
    b = expand_power(1024, 4, 2).coeffs
    n_k = np.array([1.0] + [dim_harmonics(k, 2) for k in range(1, b.size)])
    parseval = float(np.sum(b * b * MU[2].mu_d / (MU[2].mu_dm1 * n_k)))
    assert parseval == pytest.approx(gegenbauer_moment(1024, 8, 2, "full").value, rel=1e-9)


def test_spectral_variance_cross_check():
    # q! mu_d^2 b_0^(q) reproduces the exact variance
    for d in (2, 3, 4, 5):
        for ell in (2, 7, 16, 32):
            for q in (2, 3, 4, 6):
                b0 = expand_power(ell, q, d).coeffs[0]
                spectral = math.factorial(q) * MU[d].mu_d ** 2 * b0
                exact = variance_h(ell, q, d)
                if exact == 0.0:
                    assert abs(spectral) < 1e-12
                else:
                    assert spectral == pytest.approx(exact, rel=1e-9)


# ------------------------------------------------------------------
# kernel contractions
# ------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_contraction_q2_closed_form(d):
    for ell in (1, 3, 16, 64):
        expect = MU[d].mu_d ** 4 / dim_harmonics(ell, d) ** 3
        assert kernel_contraction(ell, 2, 1, d) == pytest.approx(expect, rel=1e-10)


def test_contraction_symmetry_exact():
    for q in (3, 4, 5, 7):
        table = contraction_table(6, q, 2)
        for r in range(1, q):
            assert table.K_values[r - 1] == table.K_values[q - r - 1]  # bitwise


def test_contraction_homogeneity():
    # doubling every coefficient multiplies the norm by 2^4
    left = expand_power(4, 2, 2)
    right = expand_power(4, 3, 2)
    base = contraction_norm(left, right)
    import dataclasses
    scaled = dataclasses.replace(left, coeffs=2.0 * left.coeffs)
    assert contraction_norm(scaled, right) == pytest.approx(4.0 * base, rel=1e-14)
    scaled_r = dataclasses.replace(right, coeffs=2.0 * right.coeffs)
    assert contraction_norm(scaled, scaled_r) == pytest.approx(16.0 * base, rel=1e-14)


def test_contraction_positive():
    table = contraction_table(8, 5, 3)
    assert np.all(table.K_values >= 0.0)


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_contraction_against_mc_oracle(ell, q):
    # every order r of every (ell <= 4, q <= 4) table matches brute force
    for r in range(1, q):
        spectral = kernel_contraction(ell, q, r, 2)
        est, se = mc_kernel_contraction(ell, q, r, 2, n_samples=150_000, seed=2024 + r)
        assert abs(est - spectral) <= 3.0 * se


def test_contraction_decay_bounds_d2():
    # one-sided: K(3;r) * ell^5 bounded for d = 2 over a dyadic range
    for r in (1, 2):
        scaled = [kernel_contraction(ell, 3, r, 2) * ell ** 5 for ell in (8, 16, 32, 64, 128)]
        assert max(scaled) <= 2.0 * scaled[0] + 1e-12
    # every order of the q = 5 table obeys the ell^{-9/2} envelope
    for r in (1, 2):
        scaled = [kernel_contraction(ell, 5, r, 2) * ell ** 4.5 for ell in (8, 16, 32, 64)]
        assert max(scaled) <= scaled[0] + 1e-12


@pytest.mark.parametrize("d", [3, 4])
def test_contraction_decay_bounds_higher_d(d):
    # K(5;1) * ell^{2d + (d-1)/2} stays bounded (upper bounds, not slopes)
    exponent = 2 * d + (d - 1) / 2.0
    scaled = [kernel_contraction(ell, 5, 1, d) * float(ell) ** exponent
              for ell in (8, 16, 32, 64)]
    assert max(scaled) <= scaled[0] + 1e-12


# ------------------------------------------------------------------
# cross contractions
# ------------------------------------------------------------------

def test_cross_contraction_adjacent_orders_vanish():
    assert cross_contraction(6, 2, 3, 3) == 0.0
    assert cross_contraction(8, 3, 4, 2) == 0.0


def test_cross_contraction_formula():
    expect = variance_h(4, 2, 2) ** 2 / 4.0 * MU[2].mu_d ** 2 * (1.0 / 9.0)
    assert cross_contraction(4, 2, 4, 2) == pytest.approx(expect, rel=1e-10)


def test_cross_contraction_efficient_bound():
    # always O(Var^2 * ell^{-(d-1)}): the fitted constant stabilizes
    for d in (2, 3):
        ratios = []
        for ell in (16, 32, 64, 128):
            var = variance_h(ell, 2, d)
            ratios.append(cross_contraction(ell, 2, 4, d) / (var ** 2 * ell ** -(d - 1)))
        assert all(r > 0 for r in ratios)
        assert abs(ratios[-1] / ratios[-2] - 1.0) < 0.05


def test_cross_contraction_validation():
    with pytest.raises(ValueError):
        cross_contraction(4, 3, 3, 2)
    with pytest.raises(ValueError):
        cross_contraction(4, 1, 3, 2)


# ------------------------------------------------------------------
# bounds and rates
# ------------------------------------------------------------------

def test_berry_esseen_prefactors():
    b = berry_esseen_bound(8, 3, 2)
    assert b.bound_k == pytest.approx(b.bound_tv / 2.0, rel=1e-14)
    assert b.bound_w == pytest.approx(math.sqrt(2 / math.pi) * b.bound_k, rel=1e-14)
    assert b.fourth_moment_sum > 0.0
    assert b.variance == pytest.approx(variance_h(8, 3, 2), rel=1e-14)


def test_berry_esseen_zero_variance():
    with pytest.raises(ZeroVarianceError):
        berry_esseen_bound(5, 3, 2)  # odd-odd


def test_zero_variance_error_is_one_class():
    from sphclt import clt, moments
    assert ZeroVarianceError is clt.ZeroVarianceError is moments.ZeroVarianceError


def test_berry_esseen_rate_q3_d2():
    # bound decays like ell^{-1/2}: the scaled sequence stabilizes
    scaled = [berry_esseen_bound(ell, 3, 2).bound_k * math.sqrt(ell) for ell in (32, 64, 128, 256)]
    assert abs(scaled[-1] / scaled[-2] - 1.0) < 0.02


def test_rate_tables():
    assert rate_theoretical(100, 4, 2) == pytest.approx(1 / math.log(100))
    assert rate_theoretical(16, 2, 5) == pytest.approx(16.0 ** -2)
    assert rate_theoretical(81, 7, 2) == pytest.approx(81.0 ** -0.25)
    assert rate_theoretical(64, 3, 2) == pytest.approx(64.0 ** -0.5)
    assert rate_theoretical(64, 5, 2) == pytest.approx(math.log(64) * 64 ** -0.25)
    assert rate_theoretical(9, 3, 3) == pytest.approx(9.0 ** 0.5)  # no decay: excluded pair


def test_poly_bound_single_term_matches_hermite_bound():
    # oracle: S = (1/q^2) sum_r r^2 (r!)^2 C(q,r)^4 (2q-2r)! K(ell, q; r), the
    # form in the module docstring; poly_bound sums it via r C(q,r) = q C(q-1,r-1)
    for (ell, q) in ((8, 3), (6, 4), (64, 5)):
        K = contraction_table(ell, q, 2).K_values
        S = sum(r ** 2 * math.factorial(r) ** 2 * math.comb(q, r) ** 4
                * math.factorial(2 * q - 2 * r) * K[r - 1] for r in range(1, q)) / q ** 2
        single = poly_bound(ell, 2, {q: 2.5})
        direct = berry_esseen_bound(ell, q, 2)
        assert direct.fourth_moment_sum == pytest.approx(S, rel=1e-13)
        assert direct.bound_k == pytest.approx(math.sqrt(S) / variance_h(ell, q, 2), rel=1e-13)
        assert single.bound_k == pytest.approx(direct.bound_k, rel=1e-12)
        assert single.bound_tv == pytest.approx(direct.bound_tv, rel=1e-12)


def test_poly_rate_rules():
    # rank 2 dominates whenever beta_2 is present
    assert poly_rate(64, 3, {2: 1.0, 5: 3.0}) == pytest.approx(64.0 ** -1.0)
    assert poly_rate(64, 2, {5: 1.0}) == pytest.approx(math.log(64) * 64 ** -0.25)
    # otherwise the slowest component rate wins: here ell^{-1/4} from q = 7
    assert poly_rate(64, 2, {3: 1.0, 7: 2.0}) == pytest.approx(64.0 ** -0.25)
    with pytest.raises(ValueError):
        poly_rate(64, 2, {3: 0.0})
    with pytest.raises(ValueError):  # the rates start at ell = 2, also with beta_2
        poly_rate(1, 2, {2: 1.0})


def test_poly_bound_validation():
    with pytest.raises(ValueError):
        poly_bound(8, 2, {2: 0.0, 4: 0.0})
    with pytest.raises(ValueError):
        poly_bound(8, 2, {1: 1.0})
