"""Spectral contraction norms and the explicit Berry-Esseen machinery.

Everything rests on one linearization: expanding the power G_{ell;d}^p in the
orthogonal Gegenbauer family,

    G_{ell;d}(t)^p = sum_k b_k G_{k;d}(t),    k = 0 .. p*ell,

built one power at a time as G^p = G^{p-1} G_ell.  The product of two
Gegenbauer polynomials is a finite sum of them with positive coefficients in
closed form (Rogers-Dougall, DLMF 18.18.22), so every b_k is a sum of
positive terms, accurate to about 1e-14 relative, in O(p*ell) memory.
Convolving two Gegenbauer kernels over S^d reproduces a single one (each
pairing contributes a factor mu_d / n_{k;d} and a Kronecker delta), so the
4-point cyclic integral behind the order-r contraction collapses to the
spectral sum

    K(ell, q; r) = mu_d * sum_k (b_k^{(r)} b_k^{(q-r)})^2 (mu_d / n_{k;d})^3,

an O(q*ell) quantity instead of a 4d-dimensional integral.

The normal-approximation bounds rest on the fourth-moment sum S, with one
prefactor per probability metric: for the normalized h_{ell;q,d},

    S = (1/q^2) sum_{r=1}^{q-1} r^2 (r!)^2 C(q,r)^4 (2q-2r)! K(ell, q; r),
    d_TV <= 2 sqrt(S)/sigma^2,  d_K <= sqrt(S)/sigma^2,
    d_W <= sqrt(2/pi) sqrt(S)/sigma^2,

with sigma^2 the exact variance of h_{ell;q,d}.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .moments import variance_h
# gauss_jacobi_rule has no caller here; perfbench/spans.py wraps this binding
from .quadrature import gauss_jacobi_rule
from .specfun import (DegreeCapError, NumericalError, SphereDim, UsageError, ZeroVarianceError, dim_harmonics,
                      float_harmonics)

DEGREE_CAP = 12288
# poly_bound's integer factors, such as (r-1)!^2 C(q-1,r-1)^4 (2q-2r)!, overflow a float beyond this order
BOUND_MAX_ORDER = 80


def _log_rising_ratio(x: float, y: float, n: int) -> np.ndarray:
    """log((x)_k / (y)_k) for k = 0..n, summed in extended precision where
    numpy has it: the ratio of consecutive terms is 1 + (x - y)/(y + k)."""
    k = np.arange(n, dtype=np.longdouble)
    return np.concatenate(([0.0], np.cumsum(np.log1p((x - y) / (y + k)))))


@lru_cache(maxsize=512)
def _expand_power_cached(ell: int, p: int, d: int) -> np.ndarray:
    deg = p * ell
    coeffs = np.zeros(deg + 1)
    if p == 1:
        coeffs[ell] = 1.0
        coeffs.setflags(write=False)
        return coeffs
    prev = _expand_power_cached(ell, p - 1, d)
    # G_j G_ell = sum_s c(j, ell, s) G_{N-2s}, N = j + ell, s = 0..min(j, ell), with
    #   c = (N+lam-2s)/(N+lam-s) a_s a_{j-s} a_{ell-s} (2lam)_{N-s}/(lam)_{N-s} j! ell!/((2lam)_j (2lam)_ell),
    # a_k = (lam)_k / k!: Rogers-Dougall (DLMF 18.18.22) over G_k(1) = 1.  Every
    # term is positive, so each b_k is a sum without cancellation
    lam = (d - 1) / 2.0
    log_a = _log_rising_ratio(lam, 1.0, deg)
    log_f = _log_rising_ratio(1.0, 2.0 * lam, deg)
    log_lk = np.log(np.arange(deg + 1, dtype=np.longdouble) + lam)
    # the factors of c indexed by j - s: a_{j-s} (2lam)_{N-s} / ((lam)_{N-s} (N+lam-s))
    shift = (log_a[:deg - ell + 1] + _log_rising_ratio(2.0 * lam, lam, deg)[ell:] - log_lk[ell:]).astype(float)
    nz = np.flatnonzero(prev)
    scale = (np.log(prev[nz]) + log_f[nz] + log_f[ell]).astype(float)
    log_a, log_lk = log_a.astype(float), log_lk.astype(float)
    for j, c in zip(nz.tolist(), scale.tolist()):
        n, top = min(j, ell), j + ell
        # s = n - i for i = 0..n, which lands on G_{top-2n+2i}; the opposite
        # parity is never written and stays exactly 0
        terms = log_a[n::-1] + log_a[ell - n:ell + 1] + shift[j - n:j + 1] + log_lk[top - 2 * n:top + 1:2]
        coeffs[top - 2 * n:top + 1:2] += np.exp(terms + c)
    coeffs.setflags(write=False)
    return coeffs


def expand_power(ell: int, p: int, d: int) -> np.ndarray:
    """Coefficients b_0..b_{p*ell} of G_{ell;d}^p over G_{0..p*ell;d}, read-only
    (cached per (ell, p, d))."""
    if ell < 0 or p < 1 or d < 2:
        raise UsageError(f"need ell >= 0, p >= 1, d >= 2, got ({ell}, {p}, {d})")
    if p * ell > DEGREE_CAP:
        raise DegreeCapError(f"expansion degree {p * ell} exceeds cap {DEGREE_CAP}")
    for r in range(2, p):  # bottom-up, so that each power recurses one level deep
        _expand_power_cached(ell, r, d)
    return _expand_power_cached(ell, p, d)


def contraction_norm(b: np.ndarray, c: np.ndarray, d: int) -> float:
    """mu_d * sum_k (b_k c_k)^2 (mu_d / n_k)^3 for two expansions on S^d.

    This is the raw 4-point cyclic integral with r copies of G behind `b`
    and q-r copies behind `c` on alternating edges.  A sum that underflows
    the normal floats while some b_k c_k is nonzero raises: only the exact
    parity zeros give 0.
    """
    kmax = min(b.size, c.size) - 1
    bc = b[: kmax + 1] * c[: kmax + 1]
    mu_d = SphereDim(d).mu_d
    float_harmonics(max(kmax, 1), d)  # n_k grows with k: the largest must fit a float
    n_k = np.array([1.0] + [dim_harmonics(k, d) for k in range(1, kmax + 1)])
    total = float(mu_d * np.sum(bc ** 2 * (mu_d / n_k) ** 3))
    if total < sys.float_info.min and np.any(bc != 0.0):
        raise NumericalError(f"the contraction norm at degree {kmax} on S^{d} is below the least normal float")
    return total


def contraction_table(ell: int, q: int, d: int) -> np.ndarray:
    """Contraction norms K(ell, q; r) = ||g_q tensor_r g_q||^2 at index r-1,
    r = 1..q-1.  The norm is symmetric in r and q-r: each pair is computed
    once and mirrored, so the symmetry is exact."""
    half = [contraction_norm(expand_power(ell, r, d), expand_power(ell, q - r, d), d)
            for r in range(1, q // 2 + 1)]
    return np.array(half + half[: (q - 1) - len(half)][::-1])


def cross_contraction(ell: int, q1: int, q2: int, d: int) -> float:
    """Squared norm of the full contraction between chaos orders q1 < q2.

    Equals Var[h_{q1}]^2 / (q1!)^2 * mu_d^2 * b_0^{(q2-q1)}; the b_0 factor is
    the mean of G^{q2-q1} over the sphere, which vanishes identically when
    q2 - q1 = 1 (orthogonality of distinct eigenspaces).
    """
    if not 2 <= q1 < q2:
        raise UsageError(f"need 2 <= q1 < q2, got ({q1}, {q2})")
    if q2 - q1 == 1:
        return 0.0
    dim = SphereDim(d)
    var1 = variance_h(ell, q1, d)
    b0 = expand_power(ell, q2 - q1, d)[0]
    return var1 ** 2 / math.factorial(q1) ** 2 * dim.mu_d ** 2 * float(b0)


# ------------------------------------------------------------------
# explicit bounds and theoretical rates
# ------------------------------------------------------------------

@dataclass(frozen=True)
class BoundRecord:
    """Distance bounds for a normalized functional, and its theoretical rate."""

    bound_tv: float
    bound_k: float
    bound_w: float
    rate: float


def berry_esseen_bound(ell: int, q: int, d: int) -> BoundRecord:
    """Explicit normal-approximation bounds for h_{ell;q,d} / sigma: the
    single-chaos case of `poly_bound`."""
    if q < 2:
        raise UsageError(f"need q >= 2, got {q}")
    return poly_bound(ell, d, {q: 1.0})


def rate_theoretical(ell: int, q: int, d: int) -> float:
    """Tabulated convergence rate R(ell; q, d) of the quantitative CLT."""
    if q < 2 or d < 2 or ell < 2:
        raise UsageError(f"need ell >= 2, q >= 2, d >= 2, got ({ell}, {q}, {d})")
    if d == 2:
        if q in (2, 3):
            return ell ** -0.5
        if q == 4:
            return 1.0 / math.log(ell)
        if q in (5, 6):
            return math.log(ell) * ell ** -0.25
        return ell ** -0.25
    if q == 2:
        return ell ** (-(d - 1) / 2.0)
    if q == 3:
        return ell ** (-(d - 5) / 4.0)
    if q == 4:
        return ell ** (-(d - 3) / 4.0)
    return ell ** (-(d - 1) / 4.0)


def poly_bound(ell: int, d: int, betas: dict[int, float]) -> BoundRecord:
    """Explicit bounds for the Hermite polynomial sum_q beta_q h_{ell;q,d}.

    Variance decomposes over chaoses; the fourth-moment control splits into
    diagonal terms (own contractions) and cross terms, where the top-order
    cross contraction either cancels (adjacent orders) or is the
    cross_contraction value, and the rest recombine own contractions.
    """
    betas = {int(q): float(b) for q, b in betas.items() if b != 0.0}
    if not betas:
        raise UsageError("all polynomial coefficients are zero")
    if min(betas) < 2:
        raise UsageError("Hermite coefficients start at q = 2")
    if max(betas) > BOUND_MAX_ORDER:
        raise NumericalError(f"chaos order {max(betas)} exceeds {BOUND_MAX_ORDER}: the bound's factorials overflow")
    variance = sum(b * b * variance_h(ell, q, d) for q, b in betas.items())
    if variance == 0.0:
        raise ZeroVarianceError("polynomial has zero variance (odd-odd components only)")

    tables = {q: contraction_table(ell, q, d) for q in betas}

    def var_inner_same(q):
        # Var <Dh_q, -DL^{-1} h_q> bound
        return q * q * sum(
            math.factorial(r - 1) ** 2 * math.comb(q - 1, r - 1) ** 4
            * math.factorial(2 * q - 2 * r) * tables[q][r - 1]
            for r in range(1, q)
        )

    def var_inner_cross(q1, q2):
        # Var <Dh_q1, -DL^{-1} h_q2> bound for q1 < q2: top contraction + mixed terms
        top = (
            q1 * q1 * math.factorial(q1 - 1) ** 2 * math.comb(q2 - 1, q1 - 1) ** 2
            * math.factorial(q2 - q1) * cross_contraction(ell, q1, q2, d)
        )
        mixed = 0.5 * q1 * q1 * sum(
            math.factorial(r - 1) ** 2 * math.comb(q1 - 1, r - 1) ** 2
            * math.comb(q2 - 1, r - 1) ** 2 * math.factorial(q1 + q2 - 2 * r)
            * (tables[q1][r - 1] + tables[q2][r - 1])
            for r in range(1, q1)
        )
        return top + mixed

    qs = sorted(betas)
    root_sum = 0.0
    for q1 in qs:
        for q2 in qs:
            if q1 == q2:
                v = var_inner_same(q1)
            elif q1 < q2:
                v = var_inner_cross(q1, q2)
            else:
                v = var_inner_cross(q2, q1)
            root_sum += abs(betas[q1] * betas[q2]) * math.sqrt(v)
    root = root_sum / variance
    return BoundRecord(bound_tv=2.0 * root, bound_k=root, bound_w=math.sqrt(2.0 / math.pi) * root,
                       rate=poly_rate(ell, d, betas))


def poly_rate(ell: int, d: int, betas: dict[int, float]) -> float:
    """Theoretical rate for a polynomial: the rank-2 rate if beta_2 != 0,
    otherwise the slowest Hermite-component rate present."""
    betas = {int(q): float(b) for q, b in betas.items() if b != 0.0}
    if not betas:
        raise UsageError("all polynomial coefficients are zero")
    if betas.get(2, 0.0) != 0.0:
        return rate_theoretical(ell, 2, d)
    return max(rate_theoretical(ell, q, d) for q in betas)
