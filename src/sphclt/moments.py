"""Gegenbauer moment integrals, exact variance identities and the limiting
Bessel constants.

The central quantities are
    m(ell, q, d)   = integral of G_{ell;d}(cos theta)^q (sin theta)^{d-1}
                     over [0, pi] or [0, pi/2],
    Var[h_{ell;q,d}] = q! mu_d mu_{d-1} m_full(ell, q, d),
and the large-ell limits  ell^d * m_half -> c(q, d)  with
    c(q, d) = (2^{d/2-1} (d/2-1)!)^q * integral_0^inf J_{d/2-1}(psi)^q
              psi^{d-1-q(d/2-1)} dpsi.
The ratio ell^d * m_half / c(q, d) is formed by `sphclt moments` alone, for
q >= 3: at q = 2 the half-range moment decays like ell^{-(d-1)} instead.

Moment integrals are exact up to rounding: G^q sin^{d-1} theta is a
trigonometric polynomial of degree q*ell + d - 1, so one FFT of its samples
at 2 (q*ell + d) equispaced angles integrates it exactly.  q*ell is capped at
MOMENT_DEGREE_CAP.  The infinite Bessel integrals are summed zero-interval by
zero-interval: for odd q the panel sums alternate and are accelerated by
iterated averaging, for even q the non-oscillating part of the tail (the mean
of cos^q over a period) is integrated in closed form and the remainder
averaged.  Panel sums are accumulated in a fixed order, so
results are identical no matter how callers parallelize.

Convergence regimes for c(q, d): q = 2 has a closed form; q > 2d/(d-1) is
absolutely convergent; (d, q) = (3, 3) and (2, 3) are conditionally
convergent; (2, 4) is logarithmically divergent and rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft

from .quadrature import panel_nodes
# ZeroVarianceError has no caller here; it stays bound for code that imports it from this module
from .specfun import (BESSEL_MAX_ORDER, DegreeCapError, DivergentIntegralError, NumericalError, SphereDim,
                      ToleranceNotMetError, UsageError, ZeroVarianceError, bessel_j, bessel_j_zeros, dim_harmonics,
                      float_factorial)

# c(q, d) converges when successive zero budgets agree to BESSEL_TOL
BESSEL_TOL = 1e-9
BESSEL_MAX_ZEROS = 16384
# gegenbauer_moment needs about 380 bytes per unit of q*ell (400 MB at the cap)
MOMENT_DEGREE_CAP = 2 ** 20


@dataclass(frozen=True)
class MomentResult:
    value: float
    panels: int


@dataclass(frozen=True)
class BesselConstant:
    q: int
    d: int
    value: float
    convergence_mode: str  # "closed-form" | "absolute" | "conditional"
    zeros_used: int
    err_est: float = 0.0


@lru_cache(maxsize=256)
def _ctx(ell: int, d: int) -> np.ndarray:
    """Cosine coefficients c_0..c_ell of G_{ell;d}(cos theta), c >= 0, sum c = 1:
    e_k ~ a_k a_{ell-k}, a_k = (lam)_k / k!, lam = (d-1)/2, sits on frequency
    |ell - 2k| (Szego, Orthogonal Polynomials, eq. 4.9.19)."""
    lam = (d - 1) / 2.0
    j = np.arange(1.0, ell + 1.0)
    a = np.concatenate(([1.0], np.cumprod((lam + j - 1.0) / j)))
    e = a / a[-1] * a[::-1]  # a_ell is the largest a_k once lam > 1: no overflow
    return np.bincount(np.abs(ell - 2 * np.arange(ell + 1)), weights=e) / e.sum()


@lru_cache(maxsize=256)
def gegenbauer_moment(ell: int, q: int, d: int, rng: str = "full") -> MomentResult:
    """Moment integral of G_{ell;d}^q against (sin theta)^{d-1} d theta.

    `rng` selects the full range [0, b = pi] or the half range [0, b = pi/2].
    F = G^q sin^{d-1} is a trigonometric polynomial of degree D = q*ell + d - 1,
    so the FFT of its samples at theta_j = 2 pi j / M, M = 2 (D + 1), gives its
    Fourier coefficients f_k without aliasing, and
        integral_0^b F = Re[f_0 b + 2 sum_{k >= 1} f_k (e^{ikb} - 1) / (ik)].
    G is sampled by one inverse FFT of `_ctx`; `panels` holds M.  Results are
    memoized, so the table, variance and slope of one run share each moment.
    """
    if ell < 1 or q < 1 or d < 2:
        raise UsageError(f"need ell >= 1, q >= 1, d >= 2, got ({ell}, {q}, {d})")
    if rng not in ("full", "half"):
        raise UsageError(f"range must be 'full' or 'half', got {rng!r}")
    if q * ell > MOMENT_DEGREE_CAP:
        raise DegreeCapError(f"moment degree q*ell = {q * ell} exceeds cap {MOMENT_DEGREE_CAP}")
    quarter_turns = 2 if rng == "full" else 1
    b = quarter_turns * math.pi / 2.0
    m = 2 * (q * ell + d)
    spec = np.zeros(m // 2 + 1)
    spec[:ell + 1] = 0.5 * m * _ctx(ell, d)
    spec[0] *= 2.0
    g = irfft(spec, m)
    i, h = np.arange(m), m // 2
    sin = np.sin(math.pi / h * np.minimum(i % h, -i % h))  # angles in [0, pi/2]: relative accuracy
    w = np.where(i < h, sin, -sin) ** (d - 1)
    f = rfft(g ** q * w) / m
    k = np.arange(1, f.size)
    e_ikb = np.array([1.0, 1j, -1.0, -1j])[k * quarter_turns % 4]  # exact
    value = float((f[0] * b + 2.0 * np.sum(f[1:] * (e_ikb - 1.0) / (1j * k))).real)
    return MomentResult(value=value, panels=m)


def variance_h(ell: int, q: int, d: int) -> float:
    """Var[h_{ell;q,d}] = q! mu_d mu_{d-1} * full-range moment.

    q = 0 and q = 1 give 0 (constant and mean-zero linear term); odd ell with
    odd q gives exactly 0 by parity; q = 2 is served by the exact identity
    2 mu_d^2 / n_{ell;d}, never by quadrature.
    """
    if ell < 1 or q < 0 or d < 2:
        raise UsageError(f"need ell >= 1, q >= 0, d >= 2, got ({ell}, {q}, {d})")
    if q in (0, 1):
        return 0.0
    if (ell % 2 == 1) and (q % 2 == 1):
        return 0.0
    dim = SphereDim(d)
    if q == 2:
        return 2.0 * dim.mu_d ** 2 / dim_harmonics(ell, d)
    # symmetric integrand: full range equals twice the half range
    half = gegenbauer_moment(ell, q, d, "half")
    return float_factorial(q) * dim.mu_d * dim.mu_dm1 * 2.0 * half.value


# ------------------------------------------------------------------
# limiting constants c(q, d)
# ------------------------------------------------------------------

def _averaged_tail(seq: np.ndarray):
    """Limit of a sequence of partial sums by iterated pairwise averaging.

    Effective for alternating remainders (zero-interval sums of odd Bessel
    powers); harmless for already-smooth remainders.  Returns (value, spread
    of the last few sweep results).
    """
    v = seq[-min(seq.size, 256):].astype(float).copy()
    history = [v[-1]]
    while v.size > 3:
        v = 0.5 * (v[1:] + v[:-1])
        history.append(v[-1])
    tail = history[-6:]
    return float(history[-1]), float(np.ptp(tail))


def _bessel_integral_partial_sums(nu, q, p, n_zeros):
    """Partial sums of int_0^{z_k} J_nu^q psi^p dpsi over zero intervals."""
    zeros = bessel_j_zeros(nu, n_zeros)
    edges = np.concatenate(([0.0], zeros))
    x, w = panel_nodes(0.0, 1.0, 1, 24)  # 24-point reference rule on [0,1]
    lo = edges[:-1]
    width = np.diff(edges)
    psi = lo[:, None] + width[:, None] * x[None, :]
    wts = width[:, None] * w[None, :]
    vals = bessel_j(nu, psi.ravel()) ** q * psi.ravel() ** p
    per_interval = np.sum(vals.reshape(psi.shape) * wts, axis=1)
    return zeros, np.cumsum(per_interval)


def bessel_constant(q: int, d: int) -> BesselConstant:
    """Limiting constant c(q, d) of the half-range moment asymptotics, to
    BESSEL_TOL within BESSEL_MAX_ZEROS zero intervals.

    q = 2 uses the closed form (d-1)! mu_d / (4 mu_{d-1}).  Otherwise the
    infinite oscillatory integral is summed over zero intervals of J_{d/2-1}
    with averaging acceleration (odd q, including the conditionally
    convergent (3,3) and (2,3) cases) or an explicit closed-form tail for the
    non-oscillating component (even q).  (2, 4) is log-divergent and raises.
    """
    if q < 2 or d < 2:
        raise UsageError(f"need q >= 2 and d >= 2, got ({q}, {d})")
    dim = SphereDim(d)
    if q == 2:
        value = float_factorial(d - 1) * dim.mu_d / (4.0 * dim.mu_dm1)
        return BesselConstant(q, d, value, "closed-form", 0)

    conditional = (d, q) in ((3, 3), (2, 3))
    if not (q * (d - 1) > 2 * d or conditional):
        raise DivergentIntegralError(
            f"c(q={q}, d={d}) diverges: needs q > 2d/(d-1) or one of the conditional pairs"
        )

    nu = d / 2.0 - 1.0
    if nu > BESSEL_MAX_ORDER:  # checked before the prefactor, which overflows first
        raise NumericalError(f"c(q={q}, d={d}) needs the Bessel order {nu:g}, beyond {BESSEL_MAX_ORDER:g}")
    p = (d - 1) - q * nu
    prefactor = (2.0 ** nu * math.gamma(d / 2.0)) ** q
    mode = "conditional" if conditional else "absolute"

    n_zeros = 512
    prev = None
    while True:
        zeros, sums = _bessel_integral_partial_sums(nu, q, p, n_zeros)
        if q % 2 == 0:
            # add the exact tail of the non-oscillating component:
            # mean of cos^q over a period times the power envelope
            e = p - q / 2.0 + 1.0  # < 0 in every convergent even case
            dc = (2.0 / math.pi) ** (q / 2.0) * math.comb(q, q // 2) / 2.0 ** q
            sums = sums + dc * zeros ** e / (-e)
        value, spread = _averaged_tail(sums)
        if prev is not None and abs(value - prev) < BESSEL_TOL and spread < BESSEL_TOL:
            err = abs(value - prev) + spread
            return BesselConstant(q, d, prefactor * value, mode, n_zeros, prefactor * err)
        prev = value
        n_zeros *= 2
        if n_zeros > BESSEL_MAX_ZEROS:
            raise ToleranceNotMetError(f"c(q={q}, d={d}) = {prefactor * value:.12g} did not converge "
                                       f"to {BESSEL_TOL} within {BESSEL_MAX_ZEROS} zero intervals")


def fit_line(x, y) -> tuple[float, float, float]:
    """(slope, intercept, standard error of the slope) of the least-squares
    line through the points (x, y)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    sxx = float(np.sum((x - x.mean()) ** 2))
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    return slope, intercept, math.sqrt(float(np.sum(resid ** 2)) / max(x.size - 2, 1) / sxx)


@dataclass(frozen=True)
class SlopeRecord:
    slope: float
    stderr: float
    intercept: float
    ells: tuple
    scaled_variances: tuple


def log_divergence_check(ell_list) -> SlopeRecord:
    """Regression slope of Var[h_{ell;4,2}] * ell^2 against log ell.

    The d = 2, q = 4 variance grows like 24^2 log(ell) / ell^2, so the slope
    estimates 576.  ell_list must be increasing powers of two reaching 4096.
    """
    ells = [int(l) for l in ell_list]
    if any(l & (l - 1) for l in ells) or ells != sorted(ells) or len(set(ells)) != len(ells):
        raise UsageError("ell_list must be strictly increasing powers of two")
    if len(ells) < 3:
        raise UsageError("need at least three multipoles for a slope")
    if max(ells) < 4096:
        raise UsageError("need max(ell) >= 4096 to be in the asymptotic regime")
    y = np.array([variance_h(l, 4, 2) * l * l for l in ells])
    slope, intercept, stderr = fit_line(np.log(np.array(ells, dtype=float)), y)
    return SlopeRecord(slope, stderr, intercept, tuple(ells), tuple(float(v) for v in y))
