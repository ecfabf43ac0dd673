"""Spectral contraction norms and the explicit Berry-Esseen machinery.

Everything rests on the Rogers-Dougall expansions of `moments.expand_power`,

    G_{ell;d}(t)^p = sum_k b_k G_{k;d}(t),    k = 0 .. p*ell,

whose coefficients are sums of positive terms.  Convolving two Gegenbauer
kernels over S^d reproduces a single one (each pairing contributes a factor
mu_d / n_{k;d} and a Kronecker delta), so the 4-point cyclic integral behind
the order-r contraction collapses to the spectral sum

    K(ell, q; r) = mu_d * sum_k (b_k^{(r)} b_k^{(q-r)})^2 (mu_d / n_{k;d})^3,

an O(q*ell) quantity instead of a 4d-dimensional integral.  At r = 1 (and
its mirror r = q-1) the sum has the one term k = ell, and b_ell^{(q-1)} =
n_{ell;d} Var[h_{ell;q,d}] / (q! mu_d^2), so

    K(ell, q; 1) = Var[h_{ell;q,d}]^2 / ((q!)^2 n_{ell;d}),

and the top power G^{q-1} is never expanded.  Up to q = 4 only the O(ell)
pass for G^2 runs; from q = 5 on the O(p*ell^2) products stop at G^{q-2}, so
DEGREE_CAP binds at (q-2)*ell.  contraction_table(2048, 6, 2) takes about
0.09 s on 2 vCPUs from a cold cache.

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

import numpy as np

# _expand_power_cached has no caller here; perfbench/spans.py reads this binding's cache
from .moments import _expand_power_cached, expand_power, variance_h
# gauss_jacobi_rule has no caller here; perfbench/spans.py wraps this binding
from .quadrature import gauss_jacobi_rule
from .specfun import (NumericalError, SphereDim, UsageError, ZeroVarianceError, finite, float_factorial,
                      float_harmonics, harmonics_table)

# poly_bound's integer factors, such as (r-1)!^2 C(q-1,r-1)^4 (2q-2r)!, fit a float up to this order (at most
# 1.4e306, at q = 80, r = 27); the bound itself can still overflow, as at q = 80, ell = 2, d = 2
BOUND_MAX_ORDER = 80


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
    total = float(mu_d * np.sum(bc ** 2 * (mu_d / harmonics_table(kmax, d)) ** 3))
    if total < sys.float_info.min and np.any(bc != 0.0):
        raise NumericalError(f"the contraction norm at degree {kmax} on S^{d} is below the least normal float")
    return total


def contraction_table(ell: int, q: int, d: int) -> np.ndarray:
    """Contraction norms K(ell, q; r) = ||g_q tensor_r g_q||^2 at index r-1,
    r = 1..q-1.  The norm is symmetric in r and q-r: each pair is computed
    once and mirrored, so the symmetry is exact.

    K at r = 1 comes from the variance (module docstring), so G^{q-1} is
    never expanded.  It raises where it underflows, unless the variance is
    the exact parity zero of odd ell and odd q.
    """
    first = (variance_h(ell, q, d) / float_factorial(q)) ** 2 / float_harmonics(ell, d)
    if first < sys.float_info.min and (ell * q) % 2 == 0:
        raise NumericalError(f"the contraction norm at degree {ell} on S^{d} is below the least normal float")
    half = [first] + [contraction_norm(expand_power(ell, r, d), expand_power(ell, q - r, d), d)
                      for r in range(2, q // 2 + 1)]
    return np.array(half + half[: (q - 1) - len(half)][::-1])


def cross_contraction(ell: int, q1: int, q2: int, d: int) -> float:
    """Squared norm of the full contraction between chaos orders q1 < q2.

    Equals Var[h_{q1}]^2 / (q1!)^2 * mu_d^2 * b_0^{(p)}, p = q2 - q1.  The b_0
    factor is the mean of G^p over the sphere, Var[h_p] / (p! mu_d^2), so only
    degree ceil(p/2)*ell is expanded; it vanishes identically when p = 1
    (orthogonality of distinct eigenspaces).
    """
    if not 2 <= q1 < q2:
        raise UsageError(f"need 2 <= q1 < q2, got ({q1}, {q2})")
    p = q2 - q1
    if p == 1:
        return 0.0
    return variance_h(ell, q1, d) ** 2 / math.factorial(q1) ** 2 * variance_h(ell, p, d) / math.factorial(p)


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


def polynomial_variance(ell: int, d: int, betas: dict[int, float], label: str) -> tuple[dict[int, float], float]:
    """(the betas of the chaoses q >= 2 of nonzero variance, and the variance
    sum_q beta_q^2 Var[h_{ell;q,d}] of sum_q beta_q h_{ell;q,d}).

    A chaos of zero variance is identically 0, however large its beta: it
    leaves the variance (beta^2 may be inf, and inf * 0 is NaN).  A sum
    beyond the float range, or a sum of nonzero terms below the least normal
    float, raises NumericalError about `label` at (ell, d); a variance of
    no terms is 0, for the caller to reject."""
    variances = {q: v for q in betas if (v := variance_h(ell, q, d))}
    where = f"{label} at (ell={ell}, d={d})"
    variance = finite(sum(betas[q] * betas[q] * v for q, v in variances.items()), where)
    if variances and variance < sys.float_info.min:
        raise NumericalError(f"{where} is below the least normal float")
    return {q: betas[q] for q in variances}, variance


def poly_bound(ell: int, d: int, betas: dict[int, float]) -> BoundRecord:
    """Explicit bounds for the Hermite polynomial sum_q beta_q h_{ell;q,d}.

    Variance decomposes over chaoses; the fourth-moment control splits into
    diagonal terms (own contractions) and cross terms, where the top-order
    cross contraction either cancels (adjacent orders) or is the
    cross_contraction value, and the rest recombine own contractions.  A
    variance below the least normal float, or a bound beyond the float
    range, raises.  The rate is the rank-2 rate if beta_2 != 0, otherwise
    the slowest rate of the chaoses present.
    """
    betas = {int(q): float(b) for q, b in betas.items() if b != 0.0}
    if not betas:
        raise UsageError("all polynomial coefficients are zero")
    if min(betas) < 2:
        raise UsageError("Hermite coefficients start at q = 2")
    if max(betas) > BOUND_MAX_ORDER:
        raise NumericalError(f"chaos order {max(betas)} exceeds {BOUND_MAX_ORDER}: the bound's factorials overflow")
    # a chaos of zero variance also leaves the tables and the cross terms
    betas, variance = polynomial_variance(ell, d, betas, "the variance")
    if not betas:
        raise ZeroVarianceError("polynomial has zero variance (odd-odd components only)")

    tables = {q: contraction_table(ell, q, d).tolist() for q in betas}  # Python floats overflow without a warning

    def var_inner(q1, q2):
        # Var <Dh_q1, -DL^{-1} h_q2> bound for q1 <= q2: mixed terms, plus the top contraction when q1 < q2
        top = (
            q1 * q1 * math.factorial(q1 - 1) ** 2 * math.comb(q2 - 1, q1 - 1) ** 2
            * math.factorial(q2 - q1) * cross_contraction(ell, q1, q2, d)
        ) if q1 < q2 else 0.0
        mixed = 0.5 * q1 * q1 * sum(
            math.factorial(r - 1) ** 2 * math.comb(q1 - 1, r - 1) ** 2
            * math.comb(q2 - 1, r - 1) ** 2 * math.factorial(q1 + q2 - 2 * r)
            * (tables[q1][r - 1] + tables[q2][r - 1])
            for r in range(1, q1)
        )
        return top + mixed

    qs = sorted(betas)
    root_sum = sum(abs(betas[q1] * betas[q2]) * math.sqrt(var_inner(min(q1, q2), max(q1, q2)))
                   for q1 in qs for q2 in qs)
    root = finite(root_sum / variance, f"the bound at (ell={ell}, d={d})")
    rate = rate_theoretical(ell, 2, d) if 2 in betas else max(rate_theoretical(ell, q, d) for q in qs)
    return BoundRecord(bound_tv=2.0 * root, bound_k=root, bound_w=math.sqrt(2.0 / math.pi) * root, rate=rate)
