"""Spectral contraction norms and the explicit Berry-Esseen machinery.

Everything rests on one linearization: expanding the power G_{ell;d}^p in the
orthogonal Gegenbauer family,

    G_{ell;d}(t)^p = sum_k b_k G_{k;d}(t),    k = 0 .. p*ell,

computed one degree k at a time, in O(p*ell) memory, with a root-free
half-range rule (`quadrature.half_range_rule`) exact for G^p G_k.
Convolving two Gegenbauer kernels over S^d reproduces a single one (each
pairing contributes a factor mu_d / n_{k;d} and a Kronecker delta), so the
4-point cyclic integral behind the order-r contraction collapses to the
spectral sum

    K(ell, q; r) = mu_d * sum_k (b_k^{(r)} b_k^{(q-r)})^2 (mu_d / n_{k;d})^3,

an O(q*ell) quantity instead of a 4d-dimensional integral.  A brute-force
Monte Carlo evaluation of the same 4-point integral is kept alongside as an
independent check.

The normal-approximation bounds expose the raw fourth-moment sum and each
probability metric's prefactor separately: for the normalized h_{ell;q,d},

    S = (1/q^2) sum_{r=1}^{q-1} r^2 (r!)^2 C(q,r)^4 (2q-2r)! K(ell, q; r),
    d_TV <= 2 sqrt(S)/sigma^2,  d_K <= sqrt(S)/sigma^2,
    d_W <= sqrt(2/pi) sqrt(S)/sigma^2,

with sigma^2 the exact variance of h_{ell;q,d}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .moments import variance_h
# gauss_jacobi_rule has no caller here; perfbench/spans.py wraps this binding
from .quadrature import gauss_jacobi_rule, half_range_rule
from .specfun import (DegreeCapError, GegenbauerCtx, NumericalError, SphereDim, UsageError, ZeroVarianceError,
                      dim_harmonics, orthonormal_jacobi)

DEGREE_CAP = 12288
# poly_bound's integer factors, such as (r-1)!^2 C(q-1,r-1)^4 (2q-2r)!, overflow a float beyond this order
BOUND_MAX_ORDER = 80


@dataclass(frozen=True)
class SpectralCoeffs:
    """Coefficients of G_{ell;d}^p in the normalized Gegenbauer family."""

    ell: int
    p: int
    dim: SphereDim
    coeffs: np.ndarray = field(repr=False, compare=False)  # index k = 0 .. p*ell

    @property
    def degree(self) -> int:
        return self.p * self.ell


@lru_cache(maxsize=512)
def _expand_power_cached(ell: int, p: int, d: int) -> SpectralCoeffs:
    dim = SphereDim(d)
    deg = p * ell
    # G^p G_k is even for k = deg (mod 2), of degree <= 2 deg, so for those k
    # b_k = <G^p, G_k>_w / <G_k, G_k>_w = <G^p, p_k>_w p_k(1), with p_k
    # orthonormal for the weight, is twice the half-range sum; t = 1 rides
    # along at weight 0
    t, w = half_range_rule(2 * deg, d)
    power_w = np.append(2.0 * GegenbauerCtx(ell, dim).evaluate(t) ** p * w, 0.0)
    # the opposite parity vanishes, which the half-range sum does not show:
    # those k are skipped, though the recurrence still passes through them
    coeffs = np.zeros(deg + 1)
    for k, pk in enumerate(orthonormal_jacobi(deg, d / 2.0 - 1.0, np.append(t, 1.0))):
        if (deg - k) % 2 == 0:
            coeffs[k] = (pk @ power_w) * pk[-1]
    coeffs.setflags(write=False)
    return SpectralCoeffs(ell=ell, p=p, dim=dim, coeffs=coeffs)


def expand_power(ell: int, p: int, d: int) -> SpectralCoeffs:
    """Expansion of G_{ell;d}^p over G_{0..p*ell;d} (cached per (ell, p, d))."""
    if ell < 0 or p < 1 or d < 2:
        raise UsageError(f"need ell >= 0, p >= 1, d >= 2, got ({ell}, {p}, {d})")
    if p * ell > DEGREE_CAP:
        raise DegreeCapError(f"expansion degree {p * ell} exceeds cap {DEGREE_CAP}")
    return _expand_power_cached(ell, p, d)


def contraction_norm(left: SpectralCoeffs, right: SpectralCoeffs) -> float:
    """mu_d * sum_k (b_k c_k)^2 (mu_d / n_k)^3 for two expansions on one sphere.

    This is the raw 4-point cyclic integral with r copies of G from `left`
    and q-r copies from `right` on alternating edges.
    """
    if left.dim.d != right.dim.d:
        raise UsageError("expansions live on different spheres")
    dim = left.dim
    kmax = min(left.degree, right.degree)
    b = left.coeffs[: kmax + 1]
    c = right.coeffs[: kmax + 1]
    n_k = np.array([1.0] + [dim_harmonics(k, dim.d) for k in range(1, kmax + 1)])
    return float(dim.mu_d * np.sum((b * c) ** 2 * (dim.mu_d / n_k) ** 3))


def kernel_contraction(ell: int, q: int, r: int, d: int) -> float:
    """Contraction norm K(ell, q; r) = ||g_q tensor_r g_q||^2, r = 1..q-1."""
    if not 1 <= r <= q - 1:
        raise UsageError(f"need 1 <= r <= q-1, got r={r}, q={q}")
    r = min(r, q - r)  # the formula is symmetric; compute each pair once
    return contraction_norm(expand_power(ell, r, d), expand_power(ell, q - r, d))


@dataclass(frozen=True)
class ContractionTable:
    ell: int
    q: int
    dim: SphereDim
    K_values: np.ndarray = field(repr=False)  # index r-1 for r = 1 .. q-1


def contraction_table(ell: int, q: int, d: int) -> ContractionTable:
    """All K(ell, q; r) for r = 1..q-1, mirrored so symmetry is exact."""
    half = [kernel_contraction(ell, q, r, d) for r in range(1, q // 2 + 1)]
    vals = half + half[: (q - 1) - len(half)][::-1]
    return ContractionTable(ell, q, SphereDim(d), np.array(vals))


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
    b0 = expand_power(ell, q2 - q1, d).coeffs[0]
    return var1 ** 2 / math.factorial(q1) ** 2 * dim.mu_d ** 2 * float(b0)


# ------------------------------------------------------------------
# explicit bounds and theoretical rates
# ------------------------------------------------------------------

@dataclass(frozen=True)
class BoundRecord:
    """Distance bounds for a normalized functional, with the raw ingredients.

    fourth_moment_sum is the quantity under the square root before metric
    prefactors; variance is the exact normalization sigma^2.
    """

    ell: int
    d: int
    bound_tv: float
    bound_k: float
    bound_w: float
    fourth_moment_sum: float
    variance: float
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
            * math.factorial(2 * q - 2 * r) * tables[q].K_values[r - 1]
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
            * (tables[q1].K_values[r - 1] + tables[q2].K_values[r - 1])
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
    return BoundRecord(
        ell=ell, d=d,
        bound_tv=2.0 * root,
        bound_k=root,
        bound_w=math.sqrt(2.0 / math.pi) * root,
        fourth_moment_sum=root_sum ** 2,
        variance=variance,
        rate=poly_rate(ell, d, betas),
    )


def poly_rate(ell: int, d: int, betas: dict[int, float]) -> float:
    """Theoretical rate for a polynomial: the rank-2 rate if beta_2 != 0,
    otherwise the slowest Hermite-component rate present."""
    betas = {int(q): float(b) for q, b in betas.items() if b != 0.0}
    if not betas:
        raise UsageError("all polynomial coefficients are zero")
    if betas.get(2, 0.0) != 0.0:
        return rate_theoretical(ell, 2, d)
    return max(rate_theoretical(ell, q, d) for q in betas)


# ------------------------------------------------------------------
# Monte Carlo oracle for the 4-point integral
# ------------------------------------------------------------------

def mc_kernel_contraction(ell: int, q: int, r: int, d: int, n_samples: int, seed: int = 0):
    """Brute-force estimate of K(ell, q; r) from uniform 4-point samples,
    drawn in batches of 200 000.

    Samples x_1..x_4 uniformly on S^d (normalized Gaussians), averages the
    cyclic product G^r(x1.x2) G^{q-r}(x2.x3) G^r(x3.x4) G^{q-r}(x4.x1) and
    scales by mu_d^4.  Returns (estimate, standard_error).
    """
    if not 1 <= r <= q - 1:
        raise UsageError(f"need 1 <= r <= q-1, got r={r}, q={q}")
    dim = SphereDim(d)
    ctx = GegenbauerCtx(ell, dim)
    rng = np.random.Generator(np.random.Philox(key=seed))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(200_000, n_samples - done)
        x = rng.standard_normal((4, m, d + 1))
        x /= np.linalg.norm(x, axis=2, keepdims=True)
        prod = np.ones(m)
        for i, p in ((0, r), (1, q - r), (2, r), (3, q - r)):
            dots = np.einsum("ij,ij->i", x[i], x[(i + 1) % 4])
            prod *= ctx.evaluate(np.clip(dots, -1.0, 1.0)) ** p
        total += float(np.sum(prod))
        total_sq += float(np.sum(prod * prod))
        done += m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0) / n_samples
    scale = dim.mu_d ** 4
    return scale * mean, scale * math.sqrt(var)
