"""Gegenbauer moment integrals, the expansions of powers of G, exact variance
identities and the limiting Bessel constants.

The central quantities are
    m(ell, q, d)   = integral of G_{ell;d}(cos theta)^q (sin theta)^{d-1}
                     over [0, pi] or [0, pi/2],
    Var[h_{ell;q,d}] = q! mu_d mu_{d-1} m_full(ell, q, d),
and the large-ell limits  ell^d * m_half -> c(q, d)  with
    c(q, d) = (2^{d/2-1} (d/2-1)!)^q * integral_0^inf J_{d/2-1}(psi)^q
              psi^{d-1-q(d/2-1)} dpsi.
The ratio ell^d * m_half / c(q, d) is formed by `sphclt moments` alone, for
q >= 3: at q = 2 the half-range moment decays like ell^{-(d-1)} instead.

Powers of G are expanded in the orthogonal Gegenbauer family,
    G_{ell;d}(t)^p = sum_k b_k^{(p)} G_{k;d}(t),    k = 0 .. p*ell,
one power at a time as G^p = G^{p-1} G_ell.  The product of two Gegenbauer
polynomials is a finite sum of them with positive coefficients in closed form
(Rogers-Dougall, DLMF 18.18.22), so every b_k is a sum of positive terms,
accurate to about 1e-14 relative, in O(p*ell) memory.  G^2 takes one O(ell)
pass; each higher power costs O(ell) per nonzero coefficient of the one below.
The single coefficient b_ell^{(p)} is one row of the last product: O(ell)
terms over G^{p-1} (`dougall_row`).
The G_k are orthogonal, with integral mu_d / (mu_{d-1} n_{k;d}) of G_k^2, so
    Var[h_{ell;q,d}] = q! mu_d^2 sum_k b_k^{(r)} b_k^{(q-r)} / n_{k;d}
for any 1 <= r < q.  At r = floor(q/2) every term is positive and only degree
ceil(q/2)*ell is expanded: one O(ell) pass up to q = 4.

Every moment comes from these expansions: at even q*ell, G^q is even and
m_half = m_full / 2 = Var / (2 q! mu_d mu_{d-1}); at odd q*ell a
Sturm-Liouville identity turns m_half into one sum over the b_j of G^{q-1}
whose terms barely cancel.

The infinite Bessel integrals are summed zero-interval by zero-interval: for
odd q the panel sums alternate and are accelerated by iterated averaging, for
even q the non-oscillating part of the tail (the mean of cos^q over a period)
is integrated in closed form and the remainder averaged.  Panel sums are
accumulated in a fixed order, so results are identical no matter how callers
parallelize.

Convergence regimes for c(q, d): q = 2 and q = 3 have closed forms; every
other q > 2d/(d-1) is absolutely convergent; (2, 4) is logarithmically
divergent and rejected.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import panel_nodes
from .specfun import (BESSEL_MAX_ORDER, DegreeCapError, DivergentIntegralError, NumericalError, SphereDim,
                      ToleranceNotMetError, UsageError, bessel_j, bessel_j_zeros, finite, float_factorial,
                      float_harmonics, harmonics_table)

# c(q, d) converges when successive zero budgets agree to BESSEL_TOL
BESSEL_TOL = 1e-9
BESSEL_MAX_ZEROS = 16384
# caps the degree 2*ell of the O(ell) expansion of G^2, and the G(0) table of the
# odd half moment: tracemalloc peaks at 108 MiB for expand_power(2**19, 2, 2)
MOMENT_DEGREE_CAP = 2 ** 20
# from G^3 on, expand_power does O(p ell^2) work: p*ell is capped here
DEGREE_CAP = 12288


@dataclass(frozen=True)
class MomentResult:
    value: float
    panels: int


@dataclass(frozen=True)
class BesselConstant:
    q: int
    d: int
    value: float
    convergence_mode: str  # "closed-form" | "absolute"
    zeros_used: int
    err_est: float = 0.0


@lru_cache(maxsize=256)
def _ctx(ell: int, d: int) -> np.ndarray:
    """G_{k;d}(0) for k = 0..ell, read-only: 0 at odd k, and
    G_{k+2;d}(0) = -(k+1)/(k+d) G_{k;d}(0) from G_{0;d}(0) = 1."""
    if ell > MOMENT_DEGREE_CAP:
        raise DegreeCapError(f"degree {ell} of the G(0) table exceeds cap MOMENT_DEGREE_CAP = {MOMENT_DEGREE_CAP}")
    g = np.zeros(ell + 1)
    k = np.arange(0.0, ell - 1.0, 2.0)
    g[::2] = np.concatenate(([1.0], np.cumprod(-(k + 1.0) / (k + d))))
    g.setflags(write=False)
    return g


@lru_cache(maxsize=256)
def gegenbauer_moment(ell: int, q: int, d: int, rng: str = "full") -> MomentResult:
    """Memoized moment integral of G_{ell;d}^q against (sin theta)^{d-1} over
    [0, pi], or [0, pi/2] for `rng` = "half"; `panels` counts the terms summed.

    At even q*ell it is Var[h_{ell;q,d}] / (q! mu_d mu_{d-1}), halved for the
    half range.  At odd q*ell the full moment is 0, and with
    G^{q-1} = sum_{j even} b_j G_j, lam_k = k(k+d-1) and G_ell'(0) = ell G_{ell-1}(0),
        m_half = sum_j b_j int_0^1 G_j G_ell (1-t^2)^{d/2-1} dt
               = G_ell'(0) sum_j b_j G_j(0) / (lam_ell - lam_j)
    by the Sturm-Liouville identity.
    """
    if ell < 1 or q < 1 or d < 2:
        raise UsageError(f"need ell >= 1, q >= 1, d >= 2, got ({ell}, {q}, {d})")
    if rng not in ("full", "half"):
        raise UsageError(f"range must be 'full' or 'half', got {rng!r}")
    if q * ell % 2 == 0:
        dim = SphereDim(d)
        full = variance_h(ell, q, d) / (float_factorial(q) * dim.mu_d * dim.mu_dm1)
        return MomentResult(full if rng == "full" else full / 2.0, q // 2 * ell + 1 if q >= 3 else int(q == 2))
    if rng == "full":
        return MomentResult(0.0, 0)
    b = expand_power(ell, q - 1, d)[::2] if q > 1 else np.ones(1)
    g0 = _ctx(max(q - 1, 1) * ell, d)
    j = np.arange(0.0, 2.0 * b.size, 2.0)
    value = ell * g0[ell - 1] * np.sum(b * g0[:2 * b.size:2] / ((ell - j) * (ell + j + d - 1.0)))
    return MomentResult(float(value), b.size)


# (x, y) -> log((x)_k / (y)_k) and lam -> log(k + lam), for k = 0..n: the longest tables built so far
_LOG_RISING = {}
_LOG_SHIFTED = {}
_LOG_TABLES_LOCK = threading.Lock()


def _log_rising_ratio(x: float, y: float, n: int) -> np.ndarray:
    """log((x)_k / (y)_k) for k = 0..n: the ratio of consecutive terms is
    1 + (x - y)/(y + k), whose log is taken in float64 and summed in extended
    precision where numpy has it.  Against 40-digit mpmath, the largest
    absolute error at k <= MOMENT_DEGREE_CAP, over the (x, y) of d = 2, 3, 8
    and 60, is 2.0e-14 (at d = 60); a float64 running sum of the same terms
    drifts to 7e-13 .. 4e-11.

    A read-only view of one table per (x, y), kept for the process and
    extended from its last total, so each term is summed once and every
    prefix is the sequential sum, bit for bit, whatever degrees come first."""
    with _LOG_TABLES_LOCK:
        table = _LOG_RISING.get((x, y))
        if table is None or table.size <= n:
            last = np.zeros(1, dtype=np.longdouble) if table is None else table
            k = np.arange(last.size - 1, n, dtype=float)
            tail = np.cumsum(np.concatenate((last[-1:], np.log1p((x - y) / (y + k)))))
            table = _LOG_RISING[x, y] = np.concatenate((last[:-1], tail))
            table.setflags(write=False)
    return table[:n + 1]


def _log_shifted(lam: float, n: int) -> np.ndarray:
    """log(k + lam) for k = 0..n in float64: a read-only view of one table per
    lam, kept for the process and extended at its end (each entry depends on
    its k alone)."""
    with _LOG_TABLES_LOCK:
        table = _LOG_SHIFTED.get(lam)
        if table is None or table.size <= n:
            tail = np.log(np.arange(0 if table is None else table.size, n + 1, dtype=float) + lam)
            table = _LOG_SHIFTED[lam] = tail if table is None else np.concatenate((table, tail))
            table.setflags(write=False)
    return table[:n + 1]


def _dougall_log_terms(ell: int, deg: int, d: int):
    """The Rogers-Dougall coefficients of the products G_j G_ell with j + ell <= deg,

        G_j G_ell = sum_s c(j, ell, s) G_{N-2s},    N = j + ell,  s = 0..min(j, ell),
        c = (N+lam-2s)/(N+lam-s) a_s a_{j-s} a_{ell-s} (2lam)_{N-s}/(lam)_{N-s} f_j f_ell,

    with a_k = (lam)_k / k! and f_k = k! / (2lam)_k (DLMF 18.18.22 over G_k(1) = 1).
    Every term is positive, so a sum of them has no cancellation.

    Returns log f_k in extended precision and term(s, ell_s, j_s, k) =
    log(c / (f_j f_ell)) at s, ell - s, j - s and k = N - 2s, each given as
    an integer, a slice or an integer array.  Both read the process's log
    tables (`_log_rising_ratio`, `_log_shifted`), whose entries are within
    2.0e-14 absolute of exact up to d = 60, and a call takes no logarithm.
    """
    lam = (d - 1) / 2.0
    log_a = _log_rising_ratio(lam, 1.0, deg)
    log_f = _log_rising_ratio(1.0, 2.0 * lam, deg)
    log_lk = _log_shifted(lam, deg)
    # the factors of c indexed by j - s: a_{j-s} (2lam)_{N-s} / ((lam)_{N-s} (N+lam-s))
    shift = (log_a[:deg - ell + 1] + _log_rising_ratio(2.0 * lam, lam, deg)[ell:] - log_lk[ell:]).astype(float)
    log_a = log_a.astype(float)

    def term(s, ell_s, j_s, k):
        return log_a[s] + log_a[ell_s] + shift[j_s] + log_lk[k]
    return log_f, term


@lru_cache(maxsize=512)
def _expand_power_cached(ell: int, p: int, d: int) -> np.ndarray:
    deg = p * ell
    coeffs = np.zeros(deg + 1)
    if p == 1:
        coeffs[ell] = 1.0
        coeffs.setflags(write=False)
        return coeffs
    prev = _expand_power_cached(ell, p - 1, d)
    log_f, term = _dougall_log_terms(ell, deg, d)
    nz = np.flatnonzero(prev)
    scale = (np.log(prev[nz]) + log_f[nz] + log_f[ell]).astype(float)
    for j, c in zip(nz.tolist(), scale.tolist()):
        n, top = min(j, ell), j + ell
        # s = n - i for i = 0..n, which lands on G_{top-2n+2i}; the opposite
        # parity is never written and stays exactly 0
        terms = term(slice(n, None, -1), slice(ell - n, ell + 1), slice(j - n, j + 1), slice(top - 2 * n, top + 1, 2))
        coeffs[top - 2 * n:top + 1:2] += np.exp(terms + c)
    coeffs.setflags(write=False)
    return coeffs


def expand_power(ell: int, p: int, d: int) -> np.ndarray:
    """Coefficients b_0..b_{p*ell} of G_{ell;d}^p over G_{0..p*ell;d}, read-only
    (cached per (ell, p, d)).  The degree is capped by the cost of the
    expansion: MOMENT_DEGREE_CAP up to p = 2, DEGREE_CAP beyond."""
    if ell < 0 or p < 1 or d < 2:
        raise UsageError(f"need ell >= 0, p >= 1, d >= 2, got ({ell}, {p}, {d})")
    cap, name = (MOMENT_DEGREE_CAP, "MOMENT_DEGREE_CAP") if p <= 2 else (DEGREE_CAP, "DEGREE_CAP")
    if p * ell > cap:
        raise DegreeCapError(f"expansion degree p*ell = {p * ell} of G^{p} exceeds cap {name} = {cap}")
    for r in range(2, p):  # bottom-up, so that each power recurses one level deep
        _expand_power_cached(ell, r, d)
    return _expand_power_cached(ell, p, d)


def dougall_row(ell: int, p: int, d: int) -> float:
    """b_ell^{(p)}, the coefficient of G_ell in G_{ell;d}^p, as one row of the
    product G^{p-1} G_ell:

        b_ell^{(p)} = sum_j b_j^{(p-1)} c(j, ell, j/2),    j = 0, 2, .., min((p-1)*ell, 2*ell),

    O(ell) positive terms over the expansion of G^{p-1}; G^p is not expanded.
    It is exactly 0 where (p-1)*ell is odd: G^{p-1} then has odd degrees only."""
    if ell < 0 or p < 1 or d < 2:
        raise UsageError(f"need ell >= 0, p >= 1, d >= 2, got ({ell}, {p}, {d})")
    if p == 1:
        return 1.0
    b = expand_power(ell, p - 1, d)
    if (p - 1) * ell % 2:
        return 0.0
    s = np.arange(min(b.size - 1, 2 * ell) // 2 + 1)  # s = j/2
    log_f, term = _dougall_log_terms(ell, ell + 2 * s[-1], d)
    return float(np.sum(b[:2 * s.size:2] * np.exp(term(s, ell - s, s, ell) + log_f[:2 * s.size:2] + log_f[ell])))


def dougall_coefficient(j: int, ell: int, s: int, d: int) -> float:
    """c(j, ell, s) of `_dougall_log_terms`, the coefficient of G_{j+ell-2s}
    in G_j G_ell, as one product of `math.lgamma` terms: a scalar reference
    for the expansions, about 1e-11 relative at degree 2048."""
    lam = (d - 1) / 2.0

    def log_rising(x, k):
        return math.lgamma(x + k) - math.lgamma(x)

    def log_a(k):
        return log_rising(lam, k) - math.lgamma(k + 1.0)

    n = j + ell
    return math.exp(math.log((n + lam - 2 * s) / (n + lam - s)) + log_a(s) + log_a(j - s) + log_a(ell - s)
                    + log_rising(2.0 * lam, n - s) - log_rising(lam, n - s)
                    + math.lgamma(j + 1.0) + math.lgamma(ell + 1.0)
                    - log_rising(2.0 * lam, j) - log_rising(2.0 * lam, ell))


@lru_cache(maxsize=1024)
def variance_h(ell: int, q: int, d: int) -> float:
    """Memoized Var[h_{ell;q,d}] = q! mu_d^2 sum_k b_k^{(r)} b_k^{(q-r)} / n_{k;d}
    at r = floor(q/2), with n_0 = 1.

    q = 0 and q = 1 give 0 (constant and mean-zero linear term); odd ell with
    odd q gives exactly 0 by parity; q = 2 is served by the exact identity
    2 mu_d^2 / n_{ell;d}.  A variance beyond the float range raises.
    """
    if ell < 1 or q < 0 or d < 2:
        raise UsageError(f"need ell >= 1, q >= 0, d >= 2, got ({ell}, {q}, {d})")
    if q in (0, 1):
        return 0.0
    if (ell % 2 == 1) and (q % 2 == 1):
        return 0.0
    dim = SphereDim(d)
    if q == 2:
        return 2.0 * dim.mu_d ** 2 / float_harmonics(ell, d)
    r = q // 2
    c = expand_power(ell, q - r, d)  # the higher power first: its cap is checked before any work
    b = expand_power(ell, r, d)
    return finite(float_factorial(q) * dim.mu_d ** 2 * float(np.sum(b * c[:b.size] / harmonics_table(r * ell, d))),
                  f"Var h at (ell={ell}, q={q}, d={d})")


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
    t = psi.ravel()
    # J_nu(t) t^-nu tends to 1 / (2^nu Gamma(nu+1)) as t -> 0, where t^p alone overflows at large q
    vals = (bessel_j(nu, t) * t ** -nu) ** q * t ** (p + q * nu)
    per_interval = np.sum(vals.reshape(psi.shape) * wts, axis=1)
    return zeros, np.cumsum(per_interval)


def bessel_constant(q: int, d: int) -> BesselConstant:
    """Limiting constant c(q, d) of the half-range moment asymptotics, to
    BESSEL_TOL within BESSEL_MAX_ZEROS zero intervals.

    q = 2 uses the closed form (d-1)! mu_d / (4 mu_{d-1}).  q = 3 uses the
    three-Bessel integral with unit sides (DLMF §10.22(v), triangle
    area Delta = sqrt(3)/4), which with nu = d/2 - 1 gives
        c(3, d) = 2 * 3^{nu - 1/2} Gamma(nu + 1)^3 / (sqrt(pi) Gamma(nu + 1/2)).
    Otherwise the absolutely convergent oscillatory integral is summed over
    zero intervals of J_{d/2-1} with averaging acceleration (odd q) or an
    explicit closed-form tail for the non-oscillating component (even q).
    (2, 4) is log-divergent and raises.
    """
    if q < 2 or d < 2:
        raise UsageError(f"need q >= 2 and d >= 2, got ({q}, {d})")
    dim = SphereDim(d)
    nu = d / 2.0 - 1.0
    if q == 2:
        value = float_factorial(d - 1) * dim.mu_d / (4.0 * dim.mu_dm1)
        return BesselConstant(q, d, value, "closed-form", 0)
    if q == 3:
        g = math.gamma(nu + 1.0)
        value = 2.0 * 3.0 ** (nu - 0.5) * g * (g / math.gamma(nu + 0.5)) * g / math.sqrt(math.pi)
        return BesselConstant(q, d, finite(value, f"c(q=3, d={d})"), "closed-form", 0)

    if not q * (d - 1) > 2 * d:
        raise DivergentIntegralError(f"c(q={q}, d={d}) diverges: needs q > 2d/(d-1)")
    if nu > BESSEL_MAX_ORDER:
        raise NumericalError(f"c(q={q}, d={d}) needs the Bessel order {nu:g}, beyond {BESSEL_MAX_ORDER:g}")
    if q * (nu * math.log(2.0) + math.lgamma(d / 2.0)) > math.log(sys.float_info.max):
        raise NumericalError(f"c(q={q}, d={d}) needs (2^nu Gamma(d/2))^q, which overflows a float")
    p = (d - 1) - q * nu
    prefactor = (2.0 ** nu * math.gamma(d / 2.0)) ** q

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
            return BesselConstant(q, d, prefactor * value, "absolute", n_zeros, prefactor * err)
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


def log_divergence_check(ell_list) -> tuple[float, float, float]:
    """(slope, intercept, standard error of the slope) of the regression of
    Var[h_{ell;4,2}] * ell^2 against log ell.

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
    return fit_line(np.log(np.array(ells, dtype=float)), y)
