"""Special functions with the exact normalizations used throughout the package.

Conventions:
  - G(ell, d, t) is the Gegenbauer polynomial of degree ell attached to the
    d-sphere, i.e. the Jacobi polynomial P_ell^{(a,a)} with a = d/2 - 1,
    rescaled so that G(1) = 1.  For d = 2 this is the Legendre polynomial.
  - Hermite polynomials are the probabilists' family: H_0 = 1, H_1 = t,
    H_{q+1} = t H_q - q H_{q-1}.
  - mu(d) = 2 pi^{(d+1)/2} / Gamma((d+1)/2) is the hypersurface volume of the
    unit d-sphere (mu(2) = 4 pi, mu(1) = 2 pi).
  - Only Bessel orders nu = d/2 - 1 arise: integers for even d, half-integers
    for odd d.  Hankel's expansion serves large arguments for both (it
    terminates at half-integer orders); below its range integer orders take
    Bessel's integral and half-integer orders the power series.
  - The standard normal distribution function is 0.5 * erfc(-x / sqrt 2).

Everything here is pure and reentrant; context objects are immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# the largest float exceeds n! up to this n, and Gamma((d + 1) / 2) up to this d
FACTORIAL_MAX_ORDER = 170
SPHERE_MAX_DIM = 342


class SphcltError(Exception):
    """Base of every error sphclt raises on purpose; each subclass declares the
    exit code the command line returns for it.  Any other exception is a bug."""
    exit_code: int


class UsageError(SphcltError, ValueError):
    """An input outside its domain: a bad argument, flag or config value."""
    exit_code = 2


class ZeroVarianceError(UsageError):
    """Normalization impossible: the functional is almost surely zero."""


class NumericalError(SphcltError):
    """A valid input beyond what the numerics can compute: a degree, node or
    float-range limit, a divergent integral or a missed tolerance."""
    exit_code = 3


class DegreeCapError(NumericalError):
    """A requested polynomial degree exceeds its cap."""


class NodeBudgetError(NumericalError):
    """Requested grid exceeds the node budget."""


class DivergentIntegralError(NumericalError):
    """The requested Bessel constant does not exist (divergent integral)."""


class ToleranceNotMetError(NumericalError):
    """A computation missed its tolerance within its budget."""


def sphere_volume(d: int) -> float:
    """Hypersurface volume mu_d of the unit d-sphere embedded in R^{d+1}."""
    if d < 0:
        raise UsageError(f"sphere dimension must be >= 0, got {d}")
    if d > SPHERE_MAX_DIM:
        raise NumericalError(f"sphere dimension {d} exceeds {SPHERE_MAX_DIM}: Gamma((d+1)/2) overflows a float")
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def float_factorial(n: int) -> float:
    """n! as a float, which exists for n <= FACTORIAL_MAX_ORDER."""
    if n > FACTORIAL_MAX_ORDER:
        raise NumericalError(f"{n}! overflows a float (the limit is {FACTORIAL_MAX_ORDER}!)")
    return float(math.factorial(n))


def finite(value: float, what: str) -> float:
    """`value` if it is finite; otherwise NumericalError: `what` overflows a float."""
    if not math.isfinite(value):
        raise NumericalError(f"{what} overflows a float")
    return value


def normal_cdf(x):
    """Standard normal distribution function Phi(x), element-wise."""
    if np.isscalar(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))
    x = np.asarray(x, dtype=float)
    return np.fromiter((0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.ravel()),
                       float, x.size).reshape(x.shape)


@dataclass(frozen=True)
class SphereDim:
    """Ambient dimension d >= 2 with the derived surface measures."""

    d: int
    mu_d: float = field(init=False)
    mu_dm1: float = field(init=False)

    def __post_init__(self):
        if self.d < 2:
            raise UsageError(f"sphere dimension must be >= 2, got {self.d}")
        object.__setattr__(self, "mu_d", sphere_volume(self.d))
        object.__setattr__(self, "mu_dm1", sphere_volume(self.d - 1))


def dim_harmonics(ell: int, d: int) -> int:
    """Number of linearly independent degree-ell spherical harmonics on S^d.

    Exact integer value of (2*ell + d - 1)/ell * C(ell + d - 2, ell - 1);
    Python integers make the arithmetic exact for any (ell, d).
    """
    if ell < 1:
        raise UsageError(f"multipole must be >= 1, got {ell}")
    if d < 2:
        raise UsageError(f"sphere dimension must be >= 2, got {d}")
    return (2 * ell + d - 1) * math.comb(ell + d - 2, ell - 1) // ell


def float_harmonics(ell: int, d: int) -> float:
    """n_{ell;d} as a float, which exists while it is at most the largest float."""
    n = dim_harmonics(ell, d)
    if n > sys.float_info.max:  # an exact comparison of int and float
        raise NumericalError(f"n_{{{ell};{d}}}, the number of degree-{ell} harmonics on S^{d}, overflows a float")
    return float(n)


@lru_cache(maxsize=64)
def harmonics_table(kmax: int, d: int) -> np.ndarray:
    """n_{k;d} for k = 0..kmax (n_0 = 1) as read-only floats, each equal to
    float(dim_harmonics(k, d)).

    n_k = (2k + d - 1) C(k + d - 2, d - 2) / (d - 1) is built in exact integer
    steps, then rounded once: in int64 by C(k + j, j) = C(k + j - 1, j - 1) (k + j) / j,
    j = 1..d-2, while (d - 1) n_kmax fits, else in one pass over k in Python
    integers by C(k + d - 2, d - 2) = C(k + d - 3, d - 2) (k + d - 2) / k.
    """
    float_harmonics(max(kmax, 1), d)  # n_k grows with k: the largest must fit a float
    if (d - 1) * dim_harmonics(max(kmax, 1), d) < 2 ** 63:
        k = np.arange(kmax + 1, dtype=np.int64)
        c = np.ones_like(k)
        for j in range(1, d - 1):
            c = c * (k + j) // j
        n = ((2 * k + d - 1) * c // (d - 1)).astype(float)
    else:
        c = itertools.accumulate(range(1, kmax + 1), lambda c, k: c * (k + d - 2) // k, initial=1)
        n = np.array([float((2 * k + d - 1) * ck // (d - 1)) for k, ck in enumerate(c)])
    n.setflags(write=False)
    return n


@dataclass(frozen=True)
class GegenbauerCtx:
    """The normalized Gegenbauer family on S^d: G_n(t) = p_n(t) / p_n(1) for
    the `orthonormal_jacobi` polynomials p_n of the weight (1-t^2)^{d/2-1}.

    Both methods run that one recurrence at the points with t = 1 appended
    and divide by the appended value, so G_n(1) = 1 exactly.  Where p_ell(1),
    about sqrt(n_{ell;d}), leaves the float range, they raise NumericalError.
    """

    ell: int
    dim: SphereDim

    def __post_init__(self):
        if self.ell < 0:
            raise UsageError(f"multipole must be >= 0, got {self.ell}")

    def _rows(self, t):
        """Yield p_n at the points t and then at 1, n = 0..ell."""
        for n, p in enumerate(orthonormal_jacobi(self.ell, self.dim.d / 2.0 - 1.0, np.append(t, 1.0))):
            if not math.isfinite(p[-1]):  # p_n(1) is the largest value of row n
                raise NumericalError(f"the orthonormal Gegenbauer value p_{n}(1) on S^{self.dim.d} overflows a float")
            yield p

    def evaluate(self, t):
        """G_{ell;d} at one or many points of [-1, 1]; returns t's shape."""
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):  # _rows raises instead
            (p,) = deque(self._rows(t.ravel()), maxlen=1)
        return (p[:-1] / p[-1]).reshape(t.shape)

    def evaluate_all(self, t):
        """All degrees 0..ell at the points t; returns array (ell+1, len(t))."""
        with np.errstate(over="ignore"):  # _rows raises instead
            table = np.array(list(self._rows(np.atleast_1d(np.asarray(t, dtype=float)))))
        return table[:, :-1] / table[:, -1:]


_lgamma = np.vectorize(math.lgamma, otypes=[float])


def orthonormal_jacobi(n: int, alpha, t, scale=1.0, triangular=False):
    """Yield scale * p_k(t) for k = 0..n, where the p_k are orthonormal on
    [-1, 1] for the weight (1-t^2)^alpha (alpha >= 0, positive leading
    coefficients), by the recurrence
        t p_k = b_{k+1} p_{k+1} + b_k p_{k-1},  b_k^2 = k (k + 2 alpha) / (4 (k + alpha)^2 - 1).

    `alpha` and `scale` broadcast against `t`, so one pass can run several
    weights at once; only two degrees are held at a time.  When `triangular`,
    row m of the leading axis is advanced only to degree n - m, so degree k
    yields rows 0..n-k alone; every row's arithmetic is the same either way.
    """
    alpha = np.asarray(alpha, dtype=float)
    t = np.asarray(t, dtype=float)
    # p_0 = 1 / sqrt(integral of the weight), the integral being B(1/2, alpha + 1)
    log_mass = 0.5 * math.log(math.pi) + _lgamma(alpha + 1.0) - _lgamma(alpha + 1.5)
    cur = scale * np.exp(-0.5 * log_mass) * np.ones_like(t)
    prev = np.zeros_like(cur)
    ks = np.arange(1, n + 1).reshape(-1, *(1,) * alpha.ndim)
    bs = np.sqrt(ks * (ks + 2.0 * alpha) / (4.0 * (ks + alpha) ** 2 - 1.0))  # b_1..b_n, as each step would
    b_prev = np.zeros_like(alpha)
    yield cur
    for k in range(1, n + 1):
        b = bs[k - 1]
        if triangular:
            rows = n + 1 - k
            b, cur, prev, b_prev = b[:rows], cur[:rows], prev[:rows], b_prev[:rows]
        prev, cur = cur, (t * cur - b_prev * prev) / b
        b_prev = b
        yield cur


def hermite(q: int, t):
    """Probabilists' Hermite polynomial H_q(t) by the three-term recurrence."""
    if q < 0:
        raise UsageError(f"Hermite order must be >= 0, got {q}")
    t = np.asarray(t, dtype=float)
    prev = np.ones_like(t)
    if q == 0:
        return prev if prev.ndim else float(prev)
    cur = t.copy()
    for n in range(1, q):
        prev, cur = cur, t * cur - n * prev
    return cur if cur.ndim else float(cur)


# ------------------------------------------------------------------
# Bessel functions of the first kind, orders nu = d/2 - 1 only
# ------------------------------------------------------------------

# Hankel's expansion serves x >= HANKEL_X at integer orders, and half-integer
# orders down to max(SERIES_X, nu), where it is a finite sum
HANKEL_X = 25.0
SERIES_X = 4.0
# above this order the switch at x = nu loses digits at half-integer orders
BESSEL_MAX_ORDER = 12.0
# trapezoid points for Bessel's integral: the aliasing error is of the order
# of J_{96 - nu}(x), below 1e-30 for x < HANKEL_X and nu <= BESSEL_MAX_ORDER
INTEGRAL_POINTS = 96


def _bessel_hankel(nu: float, x: np.ndarray) -> np.ndarray:
    """J_nu(x) = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - (nu/2 + 1/4) pi,
    by Hankel's expansion (DLMF 10.17.3): P and Q collect the terms
    a_k(nu) / x^k, a_k = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k), of even
    and odd k with alternating signs.  The terms vanish beyond k = nu + 1/2 at
    half-integer orders; at integer orders up to 12 and x >= 25 they fall
    below 1e-17 by k = 27, well before the smallest term (k near 2x)."""
    mu = 4.0 * nu * nu
    inv8x = 0.125 / x
    term = np.ones_like(x)
    pq = [np.ones_like(x), np.zeros_like(x)]  # P, Q
    for k in range(1, int(2 * HANKEL_X) + 1):
        term = term * ((mu - (2 * k - 1) ** 2) / k) * inv8x
        if (k // 2) % 2:
            pq[k % 2] -= term
        else:
            pq[k % 2] += term
        if np.max(np.abs(term), initial=0.0) < 1e-17:
            break
    # w = x - j pi / 4 with j = 2 nu + 1, from cos x and sin x: an integer j
    # keeps cos(j pi / 4) and sin(j pi / 4) exact, and x - j pi / 4 would round
    j = round(2.0 * nu + 1.0) % 8
    r = math.sqrt(0.5)
    cos_c = (1.0, r, 0.0, -r, -1.0, -r, 0.0, r)[j]
    sin_c = (0.0, r, 1.0, r, 0.0, -r, -1.0, -r)[j]
    cos_x, sin_x = np.cos(x), np.sin(x)
    cos_w = cos_x * cos_c + sin_x * sin_c
    sin_w = sin_x * cos_c - cos_x * sin_c
    return np.sqrt(2.0 / (math.pi * x)) * (pq[0] * cos_w - pq[1] * sin_w)


def _bessel_integral(n: int, x: np.ndarray) -> np.ndarray:
    """J_n(x) = (1/2pi) int_0^{2pi} cos(n tau - x sin tau) dtau, integer n, by
    the trapezoid rule, which is spectrally accurate for this periodic integrand."""
    tau = 2.0 * math.pi / INTEGRAL_POINTS * np.arange(INTEGRAL_POINTS)
    return np.mean(np.cos(n * tau - x[:, None] * np.sin(tau)), axis=1)


def _bessel_series(nu: float, x: np.ndarray) -> np.ndarray:
    """J_nu(x) = sum_k (-1)^k (x/2)^{2k+nu} / (k! Gamma(k+nu+1)); for x below
    max(4, nu) the terms fall below 1e-17 of the first within 40."""
    h = -0.25 * x * x
    term = np.power(0.5 * x, nu) / math.gamma(nu + 1.0)
    out = term.copy()
    for k in range(1, 41):
        term = term * h / (k * (k + nu))
        out += term
    return out


def bessel_j(nu: float, x):
    """Bessel J_nu(x) for x >= 0 and nu integer or half-integer, nu <= 12.

    Large arguments take Hankel's expansion.  Below x = 25 an integer order
    takes Bessel's integral by a 96-point trapezoid rule; a half-integer
    order keeps the terminating expansion down to max(4, nu) and takes the
    power series below.  Against mpmath the absolute error is below 1e-14 on
    [0.01, 1e5], densely around the switches, at nu = 0, 1/2, ..., 7/2 and at
    the top orders 11.5 and 12 (tested).
    """
    if nu < 0 or nu > BESSEL_MAX_ORDER:
        raise UsageError(f"unsupported Bessel order {nu}: must be in [0, {BESSEL_MAX_ORDER:g}]")
    two_nu = 2 * nu
    if abs(two_nu - round(two_nu)) > 1e-9:
        raise UsageError(f"unsupported Bessel order {nu}: only integer/half-integer orders arise")
    nu = round(two_nu) / 2.0
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise UsageError("bessel_j requires x >= 0")
    integer = nu.is_integer()
    far = x >= (HANKEL_X if integer else max(SERIES_X, nu))
    out = np.empty_like(x)
    out[far] = _bessel_hankel(nu, x[far])
    near = x[~far]
    out[~far] = _bessel_integral(round(nu), near) if integer else _bessel_series(nu, near)
    return float(out[0]) if scalar else out


def bessel_j_zeros(nu: float, n: int) -> np.ndarray:
    """First n positive zeros of J_nu by Newton from McMahon's expansion."""
    if n < 1:
        return np.zeros(0)
    if nu == 0.5:
        return math.pi * np.arange(1, n + 1)
    k = np.arange(1, n + 1, dtype=float)
    beta = (k + nu / 2.0 - 0.25) * math.pi
    mu = 4.0 * nu * nu
    # McMahon's asymptotic expansion, then Newton with J_nu' = J_{nu-1} - (nu/x) J_nu
    z = beta - (mu - 1) / (8 * beta) - 4 * (mu - 1) * (7 * mu - 31) / (3 * (8 * beta) ** 3)
    for _ in range(4):
        f = bessel_j(nu, z)
        if nu == 0.0:
            df = -bessel_j(1.0, z)
        else:
            df = bessel_j(nu - 1.0, z) - (nu / z) * bessel_j(nu, z)
        step = f / df
        z = z - step
        if np.max(np.abs(step)) < 1e-14:
            break
    return z
