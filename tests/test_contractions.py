"""Spectral expansions, contraction norms, bounds and rates.

The Monte Carlo evaluation of the 4-point cyclic integral doubles as the
independent oracle for the spectral collapse.  The expansions of G^p are
checked against the Legendre linearization of P_2^2, the exact Wigner 3j
squares of P_ell^2, and a projection by quadrature (`oracles.project_power`).
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sphclt.contractions import (
    berry_esseen_bound,
    contraction_norm,
    contraction_table,
    cross_contraction,
    poly_bound,
    rate_theoretical,
)
from sphclt.moments import MOMENT_DEGREE_CAP, _expand_power_cached, expand_power, variance_h
from sphclt.specfun import DegreeCapError, NumericalError, SphereDim, ZeroVarianceError, dim_harmonics

from oracles import fft_moment, mc_kernel_contraction, project_power

MU = {d: SphereDim(d) for d in (2, 3, 4, 5)}


# ------------------------------------------------------------------
# expand_power
# ------------------------------------------------------------------

def test_expand_power_identity():
    np.testing.assert_allclose(expand_power(3, 1, 2), [0, 0, 0, 1], atol=1e-13)


def test_expand_power_cos_squared():
    # G_{1;2} = cos theta, cos^2 = 1/3 + (2/3) P_2
    np.testing.assert_allclose(expand_power(1, 2, 2), [1 / 3, 0, 2 / 3], atol=1e-13)


def test_expand_power_legendre_linearization():
    # P_2^2 = (1/5) P_0 + (2/7) P_2 + (18/35) P_4
    np.testing.assert_allclose(expand_power(2, 2, 2), [1 / 5, 0, 2 / 7, 0, 18 / 35], atol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("ell,p", [(3, 2), (5, 3), (8, 4), (2, 6)])
def test_expand_power_invariants(ell, p, d):
    b = expand_power(ell, p, d)
    deg = p * ell
    assert b.size == deg + 1
    assert not b.flags.writeable  # shared through the cache
    # evaluate both sides at t = 1
    assert b.sum() == pytest.approx(1.0, abs=1e-10)
    # opposite parity rows are identically zero
    parity = (np.arange(deg + 1) - deg) % 2 == 1
    assert np.all(b[parity] == 0.0)
    # b_0 equals the normalized full-range moment
    full = fft_moment(ell, p, d, "full")
    assert b[0] == pytest.approx(MU[d].mu_dm1 / MU[d].mu_d * full, abs=1e-10)


def test_expand_power_degree_cap():
    with pytest.raises(DegreeCapError, match="DEGREE_CAP = 12288"):
        expand_power(4097, 3, 2)


def test_expand_power_square_is_capped_by_the_moment_cap():
    # G^2 is one O(ell) pass: its degree passes DEGREE_CAP, up to MOMENT_DEGREE_CAP
    b = expand_power(8192, 2, 2)
    assert b.size == 16385 and b.sum() == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(DegreeCapError, match="MOMENT_DEGREE_CAP"):
        expand_power(MOMENT_DEGREE_CAP // 2 + 1, 2, 2)


def _assert_exact_identities(ell, p, d, tol=1e-13):
    # sum_k b_k = G(1)^p = 1; every Rogers-Dougall term is positive; and
    # b_0^(p) = int G^p / int 1 = <G^{p-1}, G_ell> / <1, 1> = b_ell^(p-1) / n_ell
    b = expand_power(ell, p, d)
    assert abs(b.sum() - 1.0) < tol
    assert np.all(b >= 0.0)
    assert b[0] * dim_harmonics(ell, d) == pytest.approx(expand_power(ell, p - 1, d)[ell], rel=tol, abs=0)


@pytest.mark.parametrize("ell,p", [(1024, 4), (2048, 2)])
def test_expand_power_sum_at_high_degree(ell, p):
    _assert_exact_identities(ell, p, 2)


@pytest.mark.parametrize("d", [45, 171, 342])
@pytest.mark.parametrize("ell", [4, 64, 400])
@pytest.mark.parametrize("p", [2, 3])
def test_expand_power_at_large_dimension(ell, p, d):
    # a projection by quadrature loses the mass near the equator here: at
    # (400, 2, 342) its sum b - 1 is -5e6; a warning would fail the suite
    _assert_exact_identities(ell, p, d, tol=1e-12)


def _wigner_3j_square(ell, k):
    """(ell ell k; 0 0 0)^2 for even k, exactly:
    k!^2 (2 ell - k)! / (2 ell + k + 1)! * (g! / ((g - ell)!^2 (g - k)!))^2, g = ell + k/2."""
    f = math.factorial
    g = ell + k // 2
    return (Fraction(f(k) ** 2 * f(2 * ell - k), f(2 * ell + k + 1))
            * Fraction(f(g), f(g - ell) ** 2 * f(g - k)) ** 2)


@pytest.mark.parametrize("ell", [2, 7, 40, 150, 400])
def test_expand_power_wigner_3j_at_d2(ell):
    # P_ell^2 = sum_k (2k + 1) (ell ell k; 0 0 0)^2 P_k
    b = expand_power(ell, 2, 2)
    for k in range(0, 2 * ell + 1, 2):
        exact = float((2 * k + 1) * _wigner_3j_square(ell, k))
        assert abs(b[k] / exact - 1.0) <= 5e-14, k


def test_expand_power_memory_stays_linear():
    # the whole chain p = 1..6 at the cap holds a few 1-D arrays of length
    # p * ell (1.5 MB in all); a (j, s) table of the last product would take 84 MB
    _expand_power_cached.cache_clear()
    tracemalloc.start()
    try:
        expand_power(2048, 6, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_expand_power_high_power_recurses_one_level():
    # each power takes the one below from the cache; built bottom-up, the
    # chain never nests deeper than one call, at any p
    _expand_power_cached.cache_clear()
    assert expand_power(0, 2000, 3).tolist() == [1.0]


def _parseval(b, d):
    # int G^{2p} = sum_k b_k^2 int G_k^2 for G^p = sum_k b_k G_k, int G_k^2 = mu_d / (mu_{d-1} n_k)
    n_k = np.array([1.0] + [dim_harmonics(k, d) for k in range(1, b.size)])
    return float(np.sum(b * b * MU[d].mu_d / (MU[d].mu_dm1 * n_k)))


def test_expand_power_parseval_at_high_degree():
    full = fft_moment(1024, 8, 2, "full")
    for b in (expand_power(1024, 4, 2), project_power(1024, 4, 2)):
        assert _parseval(b, 2) == pytest.approx(full, rel=1e-9, abs=0)


# (2048, 6, 2) sits at DEGREE_CAP = 12288, which no command reaches there:
# contraction_table(2048, 6, 2) expands G^4 at most.  At (1024, 3, 4) and (1365, 3, 3)
# the half-range weights of the projection need sin^{d-1-sigma} theta kept
# out of the FFT; folded into it, the weights near t = 1 lose relative
# accuracy and (1024, 3, 4) gives sum b - 1 = 1e-4
@pytest.mark.parametrize("ell,p,d,tol", [(2048, 6, 2, 1e-8), (1024, 3, 4, 1e-9), (1365, 3, 3, 1e-9)])
def test_expand_power_sum_and_parseval(ell, p, d, tol):
    _assert_exact_identities(ell, p, d)
    full = fft_moment(ell, 2 * p, d, "full")
    for b in (expand_power(ell, p, d), project_power(ell, p, d)):
        assert abs(b.sum() - 1.0) < tol
        assert _parseval(b, d) == pytest.approx(full, rel=tol, abs=0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_expand_power_matches_gauss_jacobi_reference(d):
    # both expansions against a projection on the full-range (p*ell + 2)-point
    # Gauss-Jacobi rule
    from sphclt.quadrature import gauss_jacobi_rule
    from sphclt.specfun import GegenbauerCtx, orthonormal_jacobi
    ell, p = 1024, 3
    deg = p * ell
    t, w = gauss_jacobi_rule(deg + 2, d)
    power_w = np.append(GegenbauerCtx(ell, SphereDim(d)).evaluate(t) ** p * w, 0.0)
    ref = np.array([(pk @ power_w) * pk[-1]
                    for pk in orthonormal_jacobi(deg, d / 2.0 - 1.0, np.append(t, 1.0))])
    ref[(np.arange(deg + 1) - deg) % 2 == 1] = 0.0
    for b in (expand_power(ell, p, d), project_power(ell, p, d)):
        assert np.max(np.abs(b - ref)) < 1e-9 * np.max(np.abs(ref))


def test_spectral_variance_cross_check():
    # q! mu_d^2 b_0^(q) reproduces the exact variance
    for d in (2, 3, 4, 5):
        for ell in (2, 7, 16, 32):
            for q in (2, 3, 4, 6):
                b0 = expand_power(ell, q, d)[0]
                spectral = math.factorial(q) * MU[d].mu_d ** 2 * b0
                exact = variance_h(ell, q, d)
                if exact == 0.0:
                    assert abs(spectral) < 1e-12
                else:
                    assert spectral == pytest.approx(exact, rel=1e-9, abs=0)


# ------------------------------------------------------------------
# kernel contractions
# ------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_contraction_q2_closed_form(d):
    for ell in (1, 3, 16, 64):
        expect = MU[d].mu_d ** 4 / dim_harmonics(ell, d) ** 3
        assert contraction_table(ell, 2, d)[0] == pytest.approx(expect, rel=1e-10, abs=0)


# the old caps: contraction_table expanded G^{q-1}, so (q-1)*ell <= DEGREE_CAP from q = 4 on
OLD_CAP_ELL = {3: 6144, 4: 4096, 5: 3072, 6: 2457}


@pytest.mark.parametrize("d", [2, 3, 4, 30, 60])
@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_contraction_first_order_from_the_variance(q, d):
    # K(ell, q; 1) = Var h^2 / ((q!)^2 n_ell) against the spectral sum over
    # G^{q-1}; both raise where the norm underflows (large d, large ell)
    for ell in (2, 3, 7, 64, 255, OLD_CAP_ELL[q]):
        try:
            expect = contraction_norm(expand_power(ell, 1, d), expand_power(ell, q - 1, d), d)
        except NumericalError:
            with pytest.raises(NumericalError, match="below the least normal float"):
                contraction_table(ell, q, d)
            continue
        table = contraction_table(ell, q, d)
        if expect == 0.0:
            assert table[0] == table[-1] == 0.0  # the exact parity zeros
        else:
            assert table[0] == pytest.approx(expect, rel=1e-12, abs=0)
            assert table[-1] == table[0]


@pytest.mark.parametrize("q", [4, 5, 6, 7])
def test_contractions_never_expand_the_top_power(q):
    # every product a `contractions` row needs stops at G^{q-2}: the table,
    # the bound and the row b_ell^(q-1) behind its variance check.  The cache
    # holds the powers 1..max p of the one (ell, d), built bottom-up
    from sphclt.moments import dougall_row
    _expand_power_cached.cache_clear()
    contraction_table(64, q, 3)
    berry_esseen_bound(64, q, 3)
    dougall_row(64, q - 1, 3)
    assert _expand_power_cached.cache_info().currsize == q - 2


def test_contraction_symmetry_exact():
    for q in (3, 4, 5, 7):
        table = contraction_table(6, q, 2)
        assert table.shape == (q - 1,)
        for r in range(1, q):
            assert table[r - 1] == table[q - r - 1]  # bitwise


def test_contraction_homogeneity():
    # doubling every coefficient multiplies the norm by 2^4
    left = expand_power(4, 2, 2)
    right = expand_power(4, 3, 2)
    base = contraction_norm(left, right, 2)
    assert contraction_norm(2.0 * left, right, 2) == pytest.approx(4.0 * base, rel=1e-14, abs=0)
    assert contraction_norm(2.0 * left, 2.0 * right, 2) == pytest.approx(16.0 * base, rel=1e-14, abs=0)


def test_contraction_underflow_raises_but_parity_zero_passes():
    # at d = 171 (mu_d / n_k)^3 underflows although the b_k c_k are not small
    with pytest.raises(NumericalError, match="below the least normal float"):
        contraction_table(8, 3, 171)
    # at d = 342 the variance behind K(ell, q; 1) is itself 0, but not by parity
    assert variance_h(4, 3, 342) == 0.0
    with pytest.raises(NumericalError, match="below the least normal float"):
        contraction_table(4, 3, 342)
    # odd ell, odd q: every b_k c_k is exactly 0, and so is the norm
    assert contraction_norm(expand_power(5, 1, 2), expand_power(5, 2, 2), 2) == 0.0
    np.testing.assert_array_equal(contraction_table(5, 3, 2), [0.0, 0.0])


def test_contraction_positive():
    assert np.all(contraction_table(8, 5, 3) >= 0.0)


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_contraction_against_mc_oracle(ell, q):
    # every order r of every (ell <= 4, q <= 4) table matches brute force
    table = contraction_table(ell, q, 2)
    for r in range(1, q):
        spectral = table[r - 1]
        est, se = mc_kernel_contraction(ell, q, r, 2, n_samples=150_000, seed=2024 + r)
        assert abs(est - spectral) <= 3.0 * se


def test_contraction_decay_bounds_d2():
    # one-sided: K(3;r) * ell^5 bounded for d = 2 over a dyadic range
    for r in (1, 2):
        scaled = [contraction_table(ell, 3, 2)[r - 1] * ell ** 5 for ell in (8, 16, 32, 64, 128)]
        assert max(scaled) <= 2.0 * scaled[0] + 1e-12
    # every order of the q = 5 table obeys the ell^{-9/2} envelope
    for r in (1, 2):
        scaled = [contraction_table(ell, 5, 2)[r - 1] * ell ** 4.5 for ell in (8, 16, 32, 64)]
        assert max(scaled) <= scaled[0] + 1e-12


@pytest.mark.parametrize("d", [3, 4])
def test_contraction_decay_bounds_higher_d(d):
    # K(5;1) * ell^{2d + (d-1)/2} stays bounded (upper bounds, not slopes)
    exponent = 2 * d + (d - 1) / 2.0
    scaled = [contraction_table(ell, 5, d)[0] * float(ell) ** exponent
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
    assert cross_contraction(4, 2, 4, 2) == pytest.approx(expect, rel=1e-10, abs=0)


@pytest.mark.parametrize("d", [2, 3, 4, 30])
@pytest.mark.parametrize("q1, q2", [(2, 4), (2, 5), (3, 5), (2, 6), (3, 7), (4, 8)])
def test_cross_contraction_from_the_variance(q1, q2, d):
    # b_0^(p) = Var h_p / (p! mu_d^2) against b_0 of the expansion of G^p
    for ell in (3, 8, 64, 255):
        b0 = float(expand_power(ell, q2 - q1, d)[0])
        expect = variance_h(ell, q1, d) ** 2 / math.factorial(q1) ** 2 * SphereDim(d).mu_d ** 2 * b0
        value = cross_contraction(ell, q1, q2, d)
        if expect == 0.0:
            assert value == 0.0
        else:
            assert value == pytest.approx(expect, rel=1e-12, abs=0)


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
    assert b.bound_k == pytest.approx(b.bound_tv / 2.0, rel=1e-14, abs=0)
    assert b.bound_w == pytest.approx(math.sqrt(2 / math.pi) * b.bound_k, rel=1e-14, abs=0)
    assert b.bound_k > 0.0
    assert b.rate == rate_theoretical(8, 3, 2)


def test_berry_esseen_zero_variance():
    with pytest.raises(ZeroVarianceError):
        berry_esseen_bound(5, 3, 2)  # odd-odd


def test_zero_variance_error_is_one_class():
    from sphclt import clt, specfun
    assert ZeroVarianceError is clt.ZeroVarianceError is specfun.ZeroVarianceError


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
        K = contraction_table(ell, q, 2)
        S = sum(r ** 2 * math.factorial(r) ** 2 * math.comb(q, r) ** 4
                * math.factorial(2 * q - 2 * r) * K[r - 1] for r in range(1, q)) / q ** 2
        single = poly_bound(ell, 2, {q: 2.5})
        direct = berry_esseen_bound(ell, q, 2)
        assert (direct.bound_k * variance_h(ell, q, 2)) ** 2 == pytest.approx(S, rel=1e-13, abs=0)
        assert direct.bound_k == pytest.approx(math.sqrt(S) / variance_h(ell, q, 2), rel=1e-13, abs=0)
        assert single.bound_k == pytest.approx(direct.bound_k, rel=1e-12, abs=0)
        assert single.bound_tv == pytest.approx(direct.bound_tv, rel=1e-12, abs=0)


def test_poly_rate_rules():
    # rank 2 dominates whenever beta_2 is present
    assert poly_bound(64, 3, {2: 1.0, 5: 3.0}).rate == pytest.approx(64.0 ** -1.0)
    assert poly_bound(64, 2, {5: 1.0}).rate == pytest.approx(math.log(64) * 64 ** -0.25)
    # otherwise the slowest component rate wins: here ell^{-1/4} from q = 7
    assert poly_bound(64, 2, {3: 1.0, 7: 2.0}).rate == pytest.approx(64.0 ** -0.25)
    with pytest.raises(ValueError):
        poly_bound(64, 2, {3: 0.0})
    with pytest.raises(ValueError):  # the rates start at ell = 2, also with beta_2
        poly_bound(1, 2, {2: 1.0})


def test_poly_bound_validation():
    with pytest.raises(ValueError):
        poly_bound(8, 2, {2: 0.0, 4: 0.0})
    with pytest.raises(ValueError):
        poly_bound(8, 2, {1: 1.0})
    # a zero-variance chaos adds nothing, even where beta^2 overflows to inf (inf * 0 is NaN)
    with pytest.raises(ZeroVarianceError):
        poly_bound(5, 2, {3: 1e160})


@pytest.mark.parametrize("betas", [{2: 1e-200}, {2: 1e-160}, {2: 1e-200, 3: 1e-200}])
def test_poly_bound_raises_where_a_nonzero_variance_underflows(betas):
    # beta_2^2 Var h_2 is not 0, but its float is 0 or subnormal: not a
    # zero-variance functional, a numerical fault
    with pytest.raises(NumericalError, match=r"the variance at \(ell=8, d=2\) is below the least normal float"):
        poly_bound(8, 2, betas)


@pytest.mark.parametrize("ell, d, betas, kept", [
    (3, 2, {2: 1.0, 3: 1e10}, {2: 1.0}),
    (3, 2, {2: 1.0, 3: 1e160}, {2: 1.0}),
    (5, 3, {2: 0.5, 3: 2.0, 4: 1.0, 5: 7.0}, {2: 0.5, 4: 1.0}),
])
def test_poly_bound_drops_the_chaoses_of_zero_variance(ell, d, betas, kept):
    # at odd ell the odd chaoses are identically 0: they leave the tables and
    # the cross terms, not only the variance (the first case read 1.3e10)
    assert all(variance_h(ell, q, d) == 0.0 for q in betas.keys() - kept.keys())
    assert poly_bound(ell, d, betas) == poly_bound(ell, d, kept)
