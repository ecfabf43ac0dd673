"""Moment quadrature, exact variance identities and the limiting constants.

Frozen reference values for the Bessel constants come from independent
oracles: closed forms where they exist (c(3,3) = c(4,3) = pi/4 and
c(5,3) = 5 pi/32 via the trigonometric form of J_{1/2} and J_{3/2}), mpmath
quadosc for the remaining odd powers, and Richardson extrapolation of
ell^d * moment over dyadic ell for the even-power case (where quadosc's
alternating-tail assumption fails).
"""

import csv
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import mpmath
except ImportError:  # the oracle tests skip themselves
    mpmath = None

from sphclt.cli import main as cli_main
from sphclt.moments import (
    DEGREE_CAP,
    MOMENT_DEGREE_CAP,
    DegreeCapError,
    DivergentIntegralError,
    bessel_constant,
    dougall_coefficient,
    dougall_row,
    expand_power,
    gegenbauer_moment,
    log_divergence_check,
    variance_h,
)
from sphclt.specfun import SphereDim, dim_harmonics

from oracles import chebyshev_multiplicities, dougall_exact, fft_moment, half_moment_exact

MU = {d: SphereDim(d) for d in (2, 3, 4, 5)}

# (q, d) -> (value, abs tol, source)
FROZEN_CONSTANTS = {
    (3, 3): (math.pi / 4, 1e-13 * math.pi / 4, "closed form of int sin^3(x)/x"),
    (4, 3): (math.pi / 4, 1e-8, "closed form of int sin^4(x)/x^2"),
    (5, 3): (5 * math.pi / 32, 1e-9, "closed form of int sin^5(x)/x^3"),
    (3, 2): (0.367552596948, 1e-8, "mpmath quadosc"),
    (5, 2): (0.329933801060, 1e-8, "mpmath quadosc"),
    (3, 4): (2.205315581690, 1e-8, "mpmath quadosc"),
    (3, 5): (7.952156404400, 1e-7, "mpmath quadosc"),
    (6, 2): (0.336827963, 5e-7, "Richardson-extrapolated ell^2 * moment(ell,6,2)"),
}


# ------------------------------------------------------------------
# gegenbauer_moment
# ------------------------------------------------------------------

def test_moment_second_identity():
    # the FFT oracle against the closed form that gegenbauer_moment returns at q = 2
    expect = MU[3].mu_d / (MU[3].mu_dm1 * dim_harmonics(7, 3))
    assert fft_moment(7, 2, 3, "full") == pytest.approx(expect, rel=1e-12, abs=0)
    assert gegenbauer_moment(7, 2, 3, "full").value == pytest.approx(expect, rel=1e-14, abs=0)


def test_moment_odd_odd_vanishes():
    assert gegenbauer_moment(3, 3, 2, "full").value == pytest.approx(0.0, abs=1e-13)


def test_moment_half_range_example():
    # integral of cos^3 sin over [0, pi/2]
    assert gegenbauer_moment(1, 3, 2, "half").value == pytest.approx(0.25, rel=1e-12, abs=0)


def q2_moment(ell, d):
    """Full-range q = 2 moment from Var[h_2] = 2 mu_d^2 / n_{ell;d}."""
    return MU[d].mu_d / (MU[d].mu_dm1 * dim_harmonics(ell, d))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("ell", [1, 2, 5, 16, 33, 64, 1024, 4096])
def test_moment_q2_identity_sweep(d, ell):
    assert fft_moment(ell, 2, d, "full") == pytest.approx(q2_moment(ell, d), rel=1e-10, abs=0)


@given(ell=st.integers(1, 40), q=st.integers(1, 6), d=st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_moment_parity_property(ell, q, d):
    full = gegenbauer_moment(ell, q, d, "full").value
    half = gegenbauer_moment(ell, q, d, "half").value
    if (ell * q) % 2 == 0:
        assert full == pytest.approx(2.0 * half, abs=1e-12 * (1 + abs(full)))
    else:
        assert abs(full) < 1e-13


def _log_factorials(n):
    lf = [mpmath.mpf(0)]
    for k in range(1, n + 1):
        lf.append(lf[-1] + mpmath.log(k))
    return lf


def _log_3j_squared(lf, ell, L):
    """log (ell ell L; 0 0 0)^2 for even L, from the closed form
    L!^2 (2ell-L)! / (2ell+L+1)! * [g! / ((L/2)!^2 (ell-L/2)!)]^2, g = ell + L/2."""
    h = L // 2
    return (2 * lf[L] + lf[2 * ell - L] - lf[2 * ell + L + 1]
            + 2 * (lf[ell + h] - 2 * lf[h] - lf[ell - h]))


@lru_cache(maxsize=None)
def wigner_p4_half(ell):
    """int_0^1 P_ell^4 dt = sum_{L even} (2L+1) (ell ell L; 0 0 0)^4, 30 digits."""
    with mpmath.workdps(30):
        lf = _log_factorials(4 * ell + 1)
        total = sum((2 * L + 1) * mpmath.exp(2 * _log_3j_squared(lf, ell, L))
                    for L in range(0, 2 * ell + 1, 2))
        return float(total)


@lru_cache(maxsize=None)
def legendre_p3_half(ell):
    """int_0^1 P_ell^3 dt for odd ell, 30 digits: expand P_ell^2 in P_L
    (L even) by the Wigner-3j sums, then int_0^1 P_L P_ell dt =
    -P_L(0) ell P_{ell-1}(0) / (L(L+1) - ell(ell+1))."""
    with mpmath.workdps(30):
        lf = _log_factorials(4 * ell + 1)

        def p_at_0(n):  # P_n(0), n even
            return (-1) ** (n // 2) * mpmath.exp(lf[n] - 2 * lf[n // 2] - n * mpmath.log(2))
        slope = ell * p_at_0(ell - 1)
        total = sum((2 * L + 1) * mpmath.exp(_log_3j_squared(lf, ell, L))
                    * -p_at_0(L) * slope / (L * (L + 1) - ell * (ell + 1))
                    for L in range(0, 2 * ell + 1, 2))
        return float(total)


@lru_cache(maxsize=None)
def quad_half_moment(ell, q, d):
    """int_0^1 G_{ell;d}(t)^q (1-t^2)^{d/2-1} dt by 30-digit mpmath.quad, with
    G from its three-term recurrence in the same precision."""
    with mpmath.workdps(30):
        def g(t):
            prev, cur = mpmath.mpf(1), t
            for n in range(1, ell):
                prev, cur = cur, ((2 * n + d - 1) * t * cur - n * prev) / (n + d - 1)
            return cur
        # tanh-sinh on four pieces reaches 30 digits at ell <= 33 (more pieces agree)
        total = mpmath.quad(lambda t: g(t) ** q * (1 - t * t) ** (mpmath.mpf(d - 2) / 2),
                            mpmath.linspace(0, 1, 5))
        return float(total)


@pytest.mark.parametrize("ell", [256, 1024, 4096, 8192])
def test_moment_against_wigner_3j_oracle(ell):
    pytest.importorskip("mpmath")
    assert gegenbauer_moment(ell, 4, 2, "half").value == pytest.approx(
        wigner_p4_half(ell), rel=2e-11, abs=0)


ODD_HALF_CASES = [(17, 3, 2), (33, 3, 2), (17, 3, 3), (33, 3, 3)]


@pytest.mark.parametrize("ell, q, d", ODD_HALF_CASES)
def test_moment_odd_half_range_against_mpmath(ell, q, d):
    # odd q*ell: the half range is not half the full range.  approx is given
    # abs=0 here and below, or its default abs=1e-12 would hide a relative error
    pytest.importorskip("mpmath")
    assert gegenbauer_moment(ell, q, d, "half").value == pytest.approx(
        quad_half_moment(ell, q, d), rel=1e-12, abs=0)


@pytest.mark.parametrize("ell", [1025, 4097])
def test_moment_odd_cube_against_legendre_oracle(ell):
    pytest.importorskip("mpmath")
    assert gegenbauer_moment(ell, 3, 2, "half").value == pytest.approx(
        legendre_p3_half(ell), rel=1e-12, abs=0)


def test_moment_memoized_per_key(tmp_path, monkeypatch):
    # every moment reads the expansions: those behind the variance at even
    # q*ell, G^{q-1} and one G(0) table at odd q*ell.  Each is built once per
    # key and shared with the variance and the expansion-sum check.  Every
    # row of `moments` reads its half moment from gegenbauer_moment
    from sphclt import moments
    from sphclt.cli import main
    tables = []
    original = moments._ctx
    monkeypatch.setattr(moments, "_ctx", lambda ell, d: tables.append((ell, d)) or original(ell, d))
    gegenbauer_moment.cache_clear()
    moments._expand_power_cached.cache_clear()

    def run(q, ells):
        return main(["moments", "--d", "2", "--q", str(q), "--ell", ells, "--out-dir", str(tmp_path)])

    assert run(4, "16,32") == 0
    assert tables == []
    assert moments._expand_power_cached.cache_info().misses == 4  # G^1 and G^2 at each ell
    assert gegenbauer_moment.cache_info()[:2] == (0, 2)  # (hits, misses)
    assert run(4, "16,32") == 0
    assert moments._expand_power_cached.cache_info().misses == 4
    assert gegenbauer_moment.cache_info()[:2] == (2, 2)
    for hits in (2, 5):
        run(3, "15,16,17")  # exits 1 on the asymptotic ratio at ell = 17
        assert tables == [(30, 2), (34, 2)]  # degree (q-1)*ell at the odd ell
        assert moments._expand_power_cached.cache_info().misses == 8  # G^1, G^2 at 15 and 17; ell = 16 is reused
        assert gegenbauer_moment.cache_info()[:2] == (hits, 5)


def test_moment_validation():
    with pytest.raises(ValueError):
        gegenbauer_moment(0, 2, 2)
    with pytest.raises(ValueError):
        gegenbauer_moment(2, 2, 2, "most")


def test_moment_degree_cap():
    # the moment is capped by what it reads, and raises before any array is made
    from sphclt import moments
    cases = [
        (MOMENT_DEGREE_CAP // 2 + 1, 3, "half", "MOMENT_DEGREE_CAP"),  # G^2 at odd q*ell
        (MOMENT_DEGREE_CAP // 2 + 2, 3, "full", "MOMENT_DEGREE_CAP"),  # G^2 behind the variance
        (4098, 5, "half", "DEGREE_CAP = 12288"),  # G^3 behind the variance: 3 * 4098 > 12288
        (3073, 5, "half", "DEGREE_CAP = 12288"),  # G^4 at odd q*ell: 4 * 3073 > 12288
        (MOMENT_DEGREE_CAP + 3, 1, "half", "MOMENT_DEGREE_CAP"),  # the G(0) table alone
    ]
    moments._expand_power_cached.cache_clear()
    moments._ctx.cache_clear()
    for ell, q, rng, cap in cases:
        with pytest.raises(DegreeCapError, match=cap):
            gegenbauer_moment(ell, q, 2, rng)
    assert moments._expand_power_cached.cache_info().currsize == moments._ctx.cache_info().currsize == 0


@pytest.mark.parametrize("ell, q, d", [(101, 3, 60), (201, 3, 60), (101, 3, 30), (21, 5, 30), (31, 5, 60),
                                       (101, 3, 15)])
def test_moment_odd_half_range_against_exact_rationals(ell, q, d):
    # the FFT wrote 1.4e-50 for 4.6e-51 at (101, 3, 60) and -1.6e-51 for 4.2e-66 at (201, 3, 60)
    assert gegenbauer_moment(ell, q, d, "half").value == pytest.approx(float(half_moment_exact(ell, q, d)),
                                                                      rel=1e-12, abs=0)


# ------------------------------------------------------------------
# variance_h
# ------------------------------------------------------------------

def test_variance_closed_form():
    assert variance_h(2, 2, 2) == pytest.approx(32 * math.pi ** 2 / 5, rel=1e-14, abs=0)


def test_variance_degenerate_cases():
    assert variance_h(4, 1, 5) == 0.0
    assert variance_h(4, 0, 5) == 0.0
    assert variance_h(5, 3, 2) == 0.0  # odd-odd


def test_variance_matches_full_moment():
    for (ell, q, d) in ((6, 4, 2), (8, 3, 3), (10, 6, 4)):
        full = fft_moment(ell, q, d, "full")
        expect = math.factorial(q) * MU[d].mu_d * MU[d].mu_dm1 * full
        assert variance_h(ell, q, d) == pytest.approx(expect, rel=1e-11, abs=0)


@pytest.mark.parametrize("d", [30, 60])
@pytest.mark.parametrize("q, ell", [(3, 100), (3, 400), (4, 10), (4, 40)])
def test_variance_against_exact_dougall_sums(q, ell, d):
    # Var h = q! mu_d^2 sum_k b_k^(r) b_k^(q-r) / n_k; at q = 3 (r = 1) the sum
    # is b_ell^(2) / n_ell, at q = 4 (r = 2) it is sum_k (b_k^(2))^2 / n_k, with
    # b^(2) in exact rationals.  An FFT moment once behind variance_h gave a
    # negative variance at (400, 3, 60) and one 2.9 % low at (400, 3, 30)
    if q == 3:
        total = dougall_exact(ell, ell, ell // 2, d) / dim_harmonics(ell, d)
    else:
        total = sum(dougall_exact(ell, ell, s, d) ** 2 / (dim_harmonics(2 * ell - 2 * s, d) if s < ell else 1)
                    for s in range(ell + 1))
    expect = math.factorial(q) * SphereDim(d).mu_d ** 2 * float(total)
    assert variance_h(ell, q, d) == pytest.approx(expect, rel=1e-12, abs=0)


@pytest.mark.parametrize("ell, d", [(7, 3), (40, 30), (400, 60), (2048, 2)])
def test_dougall_coefficient_against_exact_and_expansion(ell, d):
    # the lgamma closed form that `sphclt contractions` checks Var h against
    # at q = 3; s = floor(ell/2) lands on b_ell^(2) at even ell, on b_{ell+1}^(2) at odd
    s = ell // 2
    value = dougall_coefficient(ell, ell, s, d)
    assert value == pytest.approx(expand_power(ell, 2, d)[2 * ell - 2 * s], rel=1e-10, abs=0)
    if ell <= 400:
        assert value == pytest.approx(float(dougall_exact(ell, ell, s, d)), rel=1e-11, abs=0)


@pytest.mark.parametrize("d", [2, 3, 4, 30, 60])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("ell", [1, 2, 7, 8, 255, 1024])
def test_dougall_row_matches_the_expansion(ell, p, d):
    # b_ell^(p) from one row over G^{p-1}, against the full expansion of G^p;
    # at odd ell and even p both are the exact parity zero
    expect = float(expand_power(ell, p, d)[ell])
    if p % 2 == 0 and ell % 2 == 1:
        assert expect == 0.0 and dougall_row(ell, p, d) == 0.0
    else:
        assert dougall_row(ell, p, d) == pytest.approx(expect, rel=1e-12, abs=0)


@pytest.mark.parametrize("ell, d", [(10, 3), (40, 30), (24, 60)])
def test_dougall_row_against_exact_rationals(ell, d):
    # b_ell^(3) = sum_j b_j^(2) c(j, ell, j/2) with b_{2 ell - 2s}^(2) = c(ell, ell, s)
    exact = sum(dougall_exact(ell, ell, s, d) * dougall_exact(2 * ell - 2 * s, ell, ell - s, d)
                for s in range(ell + 1))
    assert dougall_row(ell, 3, d) == pytest.approx(float(exact), rel=1e-12, abs=0)


@pytest.mark.parametrize("ell, d", [(1024, 2), (512, 4), (40, 30), (24, 60)])
def test_square_expansion_against_exact_rationals(ell, d):
    # b_{2 ell - 2s}^(2) = c(ell, ell, s) at the degrees the commands expand;
    # at ell = 1024 every eighth s keeps the exact rationals to about 0.4 s
    s = np.arange(0, ell + 1, max(ell // 128, 1))
    exact = np.array([float(dougall_exact(ell, ell, int(i), d)) for i in s])
    rel = np.abs(expand_power(ell, 2, d)[2 * ell - 2 * s] / exact - 1.0)
    assert rel.max() <= 5e-14


@pytest.mark.parametrize("ell, p", [(64, 2), (64, 3), (257, 3), (1024, 3), (6144, 2), (4096, 3), (3072, 4),
                                     (2457, 5), (2048, 6)])
def test_d3_expansions_against_exact_multiplicities_to_the_degree_cap(ell, p):
    # b_j^(p) = m_p(j) (j+1) / (ell+1)^p at d = 3, correctly rounded from the
    # integers; the error grows about linearly in p*ell (1.2e-17 p*ell at most,
    # at (64, 2); 1.1e-13 at (4096, 3)), and every parity zero is exactly 0
    m = chebyshev_multiplicities(ell, p)
    exact = np.array([int(c) * (j + 1) / (ell + 1) ** p for j, c in enumerate(m)])
    b = expand_power(ell, p, 3)
    assert p * ell <= DEGREE_CAP and b.shape == exact.shape
    zero = exact == 0.0
    assert np.array_equal(zero, np.arange(b.size) % 2 != (p * ell) % 2) and np.all(b[zero] == 0.0)
    assert np.max(np.abs(b[~zero] / exact[~zero] - 1.0)) <= 2e-17 * p * ell


@pytest.mark.skipif(mpmath is None, reason="needs mpmath")
@pytest.mark.parametrize("d", [2, 3, 8, 60])
def test_log_rising_ratio_against_mpmath_to_the_degree_cap(monkeypatch, d):
    # the three tables a Dougall product reads at d, to k = MOMENT_DEGREE_CAP;
    # the longdouble running sum is what holds 3e-14 there: a float64 sum of the
    # same terms drifts to 7e-13 .. 4e-11 and fails at every d
    from sphclt import moments
    monkeypatch.setattr(moments, "_LOG_RISING", {})  # 16 MiB a table: dropped after the test
    rng = np.random.default_rng(7)
    ks = sorted({0, 1, 2, 3, 5, 10, 100, MOMENT_DEGREE_CAP - 1} | {2 ** e for e in range(21)}
                | set(rng.integers(1, MOMENT_DEGREE_CAP, 50).tolist()))
    lam = (d - 1) / 2.0
    with mpmath.workdps(40):
        for x, y in ((lam, 1.0), (1.0, 2.0 * lam), (2.0 * lam, lam)):
            table = moments._log_rising_ratio(x, y, MOMENT_DEGREE_CAP)
            X, Y = mpmath.mpf(x), mpmath.mpf(y)
            for k in ks:
                hi = float(table[k])  # hi + lo is the longdouble entry exactly
                lo = float(table[k] - np.longdouble(hi))
                exact = mpmath.loggamma(X + k) - mpmath.loggamma(X) - mpmath.loggamma(Y + k) + mpmath.loggamma(Y)
                assert abs(float(mpmath.mpf(hi) + lo - exact)) <= 3e-14, (x, y, k)


@pytest.mark.parametrize("order", [(64, 65, 1024, 8192), (8192, 1024, 64), (1024, 1024, 64, 64, 8192, 0)])
def test_log_tables_extend_to_the_fresh_sum_bit_for_bit(monkeypatch, order):
    # one table per (x, y), extended from its last total: each slice is the
    # sequential extended-precision sum of a fresh computation's float64 terms,
    # whatever degrees were asked for before; (x, y) as at d = 2, 3 and 8.
    # The log(k + lam) tables grow at their end alike
    from sphclt import moments
    monkeypatch.setattr(moments, "_LOG_RISING", {})
    monkeypatch.setattr(moments, "_LOG_SHIFTED", {})
    pairs = [(0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 7.0), (7.0, 3.5)]
    for n in order:
        for lam in (0.5, 1.0, 3.5):
            assert np.array_equal(moments._log_shifted(lam, n), np.log(np.arange(n + 1.0) + lam)), (n, lam)
        for x, y in pairs:
            terms = np.log1p((x - y) / (y + np.arange(n, dtype=float)))
            fresh = np.concatenate(([0.0], np.cumsum(terms.astype(np.longdouble))))
            table = moments._log_rising_ratio(x, y, n)
            assert table.dtype == fresh.dtype and np.array_equal(table, fresh), (n, x, y)
            assert not table.flags.writeable
    assert {key: t.size for key, t in moments._LOG_RISING.items()} == dict.fromkeys(pairs, max(order) + 1)


def test_expansions_do_not_depend_on_the_tables_built_before(monkeypatch):
    from sphclt import moments
    monkeypatch.setattr(moments, "_LOG_RISING", {})
    monkeypatch.setattr(moments, "_LOG_SHIFTED", {})
    moments._expand_power_cached.cache_clear()
    fresh = expand_power(300, 3, 3).copy(), dougall_row(300, 4, 3)
    moments._expand_power_cached.cache_clear()
    expand_power(4000, 2, 3)  # extends the d = 3 tables past degree 900
    moments._expand_power_cached.cache_clear()
    assert np.array_equal(expand_power(300, 3, 3), fresh[0]) and dougall_row(300, 4, 3) == fresh[1]


# ------------------------------------------------------------------
# bessel_constant
# ------------------------------------------------------------------

def test_constant_closed_form_q2():
    for d in (2, 3, 4, 5):
        c = bessel_constant(2, d)
        expect = math.factorial(d - 1) * MU[d].mu_d / (4 * MU[d].mu_dm1)
        assert c.value == pytest.approx(expect, rel=1e-14, abs=0)
        assert c.convergence_mode == "closed-form"
    assert bessel_constant(2, 2).value == pytest.approx(0.5, rel=1e-14, abs=0)


@pytest.mark.parametrize("qd", sorted(FROZEN_CONSTANTS))
def test_constant_against_frozen_oracles(qd):
    q, d = qd
    value, tol, _source = FROZEN_CONSTANTS[qd]
    c = bessel_constant(q, d)
    assert c.value == pytest.approx(value, abs=tol)


def test_constant_modes():
    for d in (2, 3, 4, 27):
        c = bessel_constant(3, d)
        assert (c.convergence_mode, c.zeros_used) == ("closed-form", 0)
    assert bessel_constant(5, 2).convergence_mode == "absolute"
    assert bessel_constant(4, 3).convergence_mode == "absolute"


@pytest.mark.parametrize("d", [2, 6])
def test_constant_q3_closed_form_against_quadrature(d):
    # (2^nu Gamma(nu+1))^3 int_0^inf J_nu^3 psi^{1-nu}, nu = d/2 - 1, by
    # mpmath's oscillatory quadrature; conditionally convergent at d = 2
    pytest.importorskip("mpmath")
    with mpmath.workdps(15):
        nu = mpmath.mpf(d) / 2 - 1
        integral = mpmath.quadosc(lambda x: mpmath.besselj(nu, x) ** 3 * x ** (1 - nu), [0, mpmath.inf], omega=1)
        expect = float((2 ** nu * mpmath.gamma(nu + 1)) ** 3 * integral)
    assert bessel_constant(3, d).value == pytest.approx(expect, rel=1e-13, abs=0)


def test_constant_q3_float_range():
    from sphclt.specfun import NumericalError
    assert math.isfinite(bessel_constant(3, 176).value)
    with pytest.raises(NumericalError, match="overflows a float"):
        bessel_constant(3, 177)


def test_constant_large_q_is_finite():
    # near psi = 0 the integrand J^q psi^p is J_nu^q psi^{-q nu} psi^{d-1}; taken as
    # written, psi^{-q nu} overflows at q = 40, d = 12 and the sum turns to nan
    c = bessel_constant(40, 12)
    ell = 4096
    assert c.convergence_mode == "absolute" and math.isfinite(c.value)
    assert ell ** 12 * fft_moment(ell, 40, 12, "half") / c.value == pytest.approx(1.0, abs=0.02)


def test_constant_divergent_cases():
    # (2, 4) is the one log-divergent integer pair; q = 3 has a closed form,
    # and every other q >= 4 satisfies q(d-1) > 2d
    with pytest.raises(DivergentIntegralError):
        bessel_constant(4, 2)
    with pytest.raises(ValueError):
        bessel_constant(1, 2)


# ------------------------------------------------------------------
# asymptotic ratios & log divergence
# ------------------------------------------------------------------

def test_ratio_tends_to_one(tmp_path):
    # the ratio column ell^d * m_half / c(q, d) that `sphclt moments` writes
    assert cli_main(["moments", "--d", "2", "--q", "3", "--ell", "128,256,512",
                     "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "moments_d2_q3.csv", newline="") as fh:
        ratios = [float(row["ratio"]) for row in csv.DictReader(fh)]
    devs = [abs(r - 1.0) for r in ratios]
    assert len(devs) == 3 and devs == sorted(devs, reverse=True)
    assert ratios[-1] == pytest.approx(1.0, abs=0.01)


def test_log_slope_settles_on_576_far_out():
    # successive slopes of Var[h_{ell;4,2}] ell^2 against log ell fall toward
    # 24^2 = 576 from above; at ell ~ 2^16 the exact moments must resolve it
    ells = [2 ** k for k in range(8, 17)]
    y = np.array([variance_h(ell, 4, 2) * ell * ell for ell in ells])
    slopes = np.diff(y) / np.diff(np.log(ells))
    assert np.all(np.diff(slopes) < 0)
    assert slopes[-1] == pytest.approx(576.0, abs=1.0)


def test_log_divergence_validation():
    with pytest.raises(ValueError):
        log_divergence_check([256, 300, 512, 4096])  # not powers of two
    with pytest.raises(ValueError):
        log_divergence_check([256, 512, 1024])  # max too small


# ------------------------------------------------------------------
# quadrature rule
# ------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gauss_jacobi_orthogonality(d):
    # off-diagonal Gram entries of the normalized family vanish under the
    # exact-degree rule
    from sphclt.quadrature import gauss_jacobi_rule
    from sphclt.specfun import GegenbauerCtx
    deg = 24
    t, w = gauss_jacobi_rule(deg + 2, d)
    table = GegenbauerCtx(deg, SphereDim(d)).evaluate_all(t)
    gram = (table * w) @ table.T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 193, 385, 2049, 4097])
def test_gauss_jacobi_nodes_against_scipy(n, d):
    # Newton's nodes are exactly symmetric, hold 0 at odd n, and agree with
    # SciPy's to 2 ulp (of the node, or of 1/2 below 1/2); the weights carry
    # the whole mass of (1-t^2)^alpha
    from scipy.special import roots_jacobi
    from sphclt.quadrature import gauss_jacobi_rule
    alpha = d / 2.0 - 1.0
    t, w = gauss_jacobi_rule(n, d)
    ref, _ = roots_jacobi(n, alpha, alpha)
    assert np.all(np.abs(t - ref) <= 2 * np.spacing(np.maximum(np.abs(ref), 0.5)))
    assert np.array_equal(t, -t[::-1])
    if n % 2:
        assert t[n // 2] == 0.0
    mass = math.sqrt(math.pi) * math.gamma(alpha + 1.0) / math.gamma(alpha + 1.5)
    assert abs(np.sum(w) / mass - 1.0) < 1e-14


@pytest.mark.skipif(mpmath is None, reason="needs mpmath")
@pytest.mark.parametrize("n", [24, 48])
def test_panel_rule_matches_mpmath_gauss_legendre(n):
    # a panel takes gauss_jacobi_rule(n, 2), whose Christoffel weights keep
    # full relative accuracy (numpy's leggauss once behind it was off by
    # 1.3e-12 at n = 48); the reference nodes are 40-digit Newton zeros of P_n
    from sphclt.quadrature import panel_nodes
    x, w = panel_nodes(-1.0, 1.0, 1, n)
    with mpmath.workdps(40):
        for xi, wi in zip(x, w):
            t = mpmath.mpf(xi)
            for _ in range(3):
                dp = n * (t * mpmath.legendre(n, t) - mpmath.legendre(n - 1, t)) / (t * t - 1)
                t -= mpmath.legendre(n, t) / dp
            dp = n * (t * mpmath.legendre(n, t) - mpmath.legendre(n - 1, t)) / (t * t - 1)
            assert abs(xi - float(t)) <= 2e-16
            assert abs(wi / float(2 / ((1 - t * t) * dp * dp)) - 1.0) <= 1e-13


def _half_beta(k, d):
    """integral_0^1 t^{2k} (1-t^2)^{d/2-1} dt = B(k + 1/2, d/2) / 2, from exact
    rationals (SciPy's `beta` is off by 2e-12 relative at k = 4096)."""
    if d % 2 == 0:
        m = d // 2  # Gamma(m) / prod_{j<m} (k + 1/2 + j)
        ratio = Fraction(math.factorial(m - 1))
        for j in range(m):
            ratio /= Fraction(2 * k + 2 * j + 1, 2)
        return float(ratio) / 2.0
    m = (d - 1) // 2  # pi (2k)! (2m)! / (4^{k+m} k! m! (k+m)!)
    ratio = Fraction(math.factorial(2 * k) * math.factorial(2 * m),
                     4 ** (k + m) * math.factorial(k) * math.factorial(m) * math.factorial(k + m))
    return math.pi * float(ratio) / 2.0


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_half_range_rule_exact_against_beta(d):
    # every even monomial up to the rule's top degree, the edge included
    from oracles import half_range_rule
    degree = 8192
    t, w = half_range_rule(degree, d)
    for k in (0, 1, 17, degree // 2):
        assert np.sum(w * t ** (2 * k)) == pytest.approx(_half_beta(k, d), rel=1e-12, abs=0)
