"""Empirical distribution distances and CLT sweeps across multipoles.

Distances to the standard normal:
  - Kolmogorov: sup over the sorted sample of |F_n - Phi|, evaluated at both
    one-sided limits of every jump;
  - Wasserstein-1: mean absolute quantile coupling against the normal
    quantiles at (i - 1/2)/n, taken from SciPy's `ndtri`.

A sweep simulates `replicas` fields per multipole, evaluates one functional
per replica, normalizes by the analytic variance and tabulates empirical
distances next to the theoretical rate and (for polynomial kinds) the
explicit fourth-moment bound.  Empirical total variation is not estimated:
nonparametric TV from samples is ill-posed, so d_TV appears only inside the
theoretical bound record.

The Kolmogorov statistic of n true normal samples hovers around 0.5/sqrt(n);
rows below three times that floor say nothing about convergence rates and
are excluded from the log-log fits.  Theoretical rates are upper bounds, so
rate comparisons are one-sided: decaying faster than predicted is a pass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .contractions import berry_esseen_bound, poly_bound, poly_rate
from .moments import variance_h
from .parallel import fixed_chunks, ordered_map
from .simulate import (
    ZeroVarianceError,
    _sample_batch,
    build_grid,
    excursion_variance,
    monomial_to_hermite,
)
from .specfun import SphereDim, hermite

# (d, q) pairs where the known fourth-cumulant bounds do not secure a CLT.
CLT_EXCLUDED_PAIRS = ((3, 3), (3, 4), (4, 3), (5, 3))


def kolmogorov_distance(samples) -> float:
    """sup_z |F_n(z) - Phi(z)| evaluated at both sides of every sample point."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    cdf = ndtr(x)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - cdf, cdf - (i - 1) / n)))


def wasserstein_distance(samples) -> float:
    """W_1 estimate: mean |X_(i) - Phi^{-1}((i - 1/2)/n)| over the sorted sample."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    q = ndtri((np.arange(1, n + 1) - 0.5) / n)
    return float(np.mean(np.abs(x - q)))


# ------------------------------------------------------------------
# sweeps
# ------------------------------------------------------------------

@dataclass(frozen=True)
class CltRow:
    ell: int
    replicas: int
    empirical_dK: float
    empirical_dW: float
    mc_stderr_scale: float       # 0.5 / sqrt(replicas)
    theoretical_rate: float
    explicit_bound: float | None  # d_K bound; None for non-polynomial kinds
    exact_quadrature: bool
    sample_mean: float
    sample_var: float
    predicted_mean: float
    predicted_var: float


@dataclass(frozen=True)
class CltReport:
    kind: str                    # "h" | "Z" | "S"
    d: int
    q: int | None
    betas: tuple | None
    z: float | None
    seed: int
    rows: tuple[CltRow, ...]
    warnings: tuple[str, ...] = ()


def _h_samples(grid, ell, q, seed, replicas, threads):
    w = grid.weights

    def chunk_values(bounds):
        lo, hi = bounds
        fields = _sample_batch(grid, ell, seed, range(lo, hi))
        return hermite(q, fields) @ w

    parts = ordered_map(chunk_values, fixed_chunks(replicas), threads)
    return np.concatenate(parts)


def _z_samples(grid, ell, beta, seed, replicas, threads):
    w = grid.weights
    orders = [j for j, bj in enumerate(beta) if bj != 0.0]

    def chunk_values(bounds):
        lo, hi = bounds
        fields = _sample_batch(grid, ell, seed, range(lo, hi))
        out = np.zeros(hi - lo)
        for j in orders:
            out += beta[j] * (hermite(j, fields) @ w)
        return out

    parts = ordered_map(chunk_values, fixed_chunks(replicas), threads)
    return np.concatenate(parts)


def _s_samples(grid, ell, z, seed, replicas, threads):
    w = grid.weights

    def chunk_values(bounds):
        lo, hi = bounds
        fields = _sample_batch(grid, ell, seed, range(lo, hi))
        return (fields <= z) @ w

    parts = ordered_map(chunk_values, fixed_chunks(replicas), threads)
    return np.concatenate(parts)


def clt_sweep(kind: str, d: int, ell_list, replicas: int, seed: int,
              q: int | None = None, betas=None, z: float | None = None,
              threads: int = 1, allow_odd: bool = False,
              excursion_degree_factor: int = 4, excursion_q_max: int = 8) -> CltReport:
    """Simulate the requested functional across ell_list and tabulate
    empirical Kolmogorov/Wasserstein distances against rates and bounds.

    kind "h" needs q, kind "Z" needs monomial coefficients `betas` (index =
    power), kind "S" needs the level z.  Multipoles must be even unless
    allow_odd is set.  Replica batches are fixed-size, so `threads` never
    changes any output value.
    """
    if kind not in ("h", "Z", "S"):
        raise ValueError(f"kind must be 'h', 'Z' or 'S', got {kind!r}")
    if replicas < 200:
        raise ValueError(f"need at least 200 replicas per row, got {replicas}")
    ells = [int(l) for l in ell_list]
    if sorted(ells) != ells or len(set(ells)) != len(ells):
        raise ValueError("ell_list must be strictly increasing")
    if not allow_odd and any(l % 2 for l in ells):
        raise ValueError("odd multipoles kill odd chaoses; pass allow_odd=True to sweep them anyway")

    warns: list[str] = []
    if kind == "h":
        if q is None:
            raise ValueError("kind 'h' requires q")
        if (d, q) in CLT_EXCLUDED_PAIRS:
            msg = (f"(d={d}, q={q}) is outside the proven CLT range; "
                   "the fourth-cumulant bounds do not guarantee convergence")
            warnings.warn(msg)
            warns.append(msg)
    if kind == "Z" and betas is None:
        raise ValueError("kind 'Z' requires monomial coefficients")
    if kind == "S" and z is None:
        raise ValueError("kind 'S' requires a level z")

    dim = SphereDim(d)
    beta = monomial_to_hermite(betas) if kind == "Z" else None
    rows = []
    for ell in ells:
        if kind == "h":
            degree = q * ell
        elif kind == "Z":
            degree = (len(beta) - 1) * ell
        else:
            degree = excursion_degree_factor * ell
        grid = build_grid(d, degree)
        # an empty batch fills the synthesis tables of the grid and its
        # sub-grids once, before worker threads race to build them
        _sample_batch(grid, ell, seed, ())

        if kind == "h":
            sigma2 = variance_h(ell, q, d)
            if sigma2 == 0.0:
                raise ZeroVarianceError(f"Var[h] = 0 at (ell={ell}, q={q}, d={d})")
            raw = _h_samples(grid, ell, q, seed, replicas, threads)
            normalized = raw / math.sqrt(sigma2)
            bound = berry_esseen_bound(ell, q, d)
            explicit = bound.bound_k
            rate = bound.rate
            pred_mean, pred_var = 0.0, sigma2
            exact = q * ell <= grid.exact_degree
        elif kind == "Z":
            var = sum(b * b * variance_h(ell, j, d) for j, b in enumerate(beta) if j >= 2)
            if var == 0.0:
                raise ZeroVarianceError("polynomial has zero variance")
            raw = _z_samples(grid, ell, beta, seed, replicas, threads)
            pred_mean = beta[0] * dim.mu_d
            normalized = (raw - pred_mean) / math.sqrt(var)
            hermite_betas = {j: b for j, b in enumerate(beta) if j >= 2 and b != 0.0}
            explicit = poly_bound(ell, d, hermite_betas).bound_k
            rate = poly_rate(ell, d, hermite_betas)
            pred_var = var
            exact = (len(beta) - 1) * ell <= grid.exact_degree
        else:
            var = excursion_variance(ell, d, z, q_max=excursion_q_max)
            raw = _s_samples(grid, ell, z, seed, replicas, threads)
            pred_mean = dim.mu_d * float(ndtr(z))
            normalized = (raw - pred_mean) / math.sqrt(var)
            explicit = None
            rate = ell ** -0.5
            pred_var = var
            exact = False

        rows.append(CltRow(
            ell=ell, replicas=replicas,
            empirical_dK=kolmogorov_distance(normalized),
            empirical_dW=wasserstein_distance(normalized),
            mc_stderr_scale=0.5 / math.sqrt(replicas),
            theoretical_rate=rate,
            explicit_bound=explicit,
            exact_quadrature=exact,
            sample_mean=float(np.mean(raw)),
            sample_var=float(np.var(raw, ddof=1)),
            predicted_mean=pred_mean,
            predicted_var=pred_var,
        ))

    return CltReport(kind=kind, d=d, q=q,
                     betas=tuple(betas) if betas is not None else None,
                     z=z, seed=seed, rows=tuple(rows), warnings=tuple(warns))


# ------------------------------------------------------------------
# rate diagnostics
# ------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    slope: float
    stderr: float
    intercept: float
    theory_slope: float
    decays_at_least_as_fast: bool
    n_used: int
    n_below_floor: int


def rate_fit(report: CltReport) -> RateFit:
    """Log-log slope of empirical d_K against ell, floor-filtered.

    Rows with d_K below 3 * (0.5/sqrt(replicas)) are Kolmogorov noise and are
    excluded.  The comparison flag is one-sided: measured slope no larger
    than the theoretical one (within two standard errors) passes, since the
    rates are upper bounds.
    """
    usable = [r for r in report.rows if r.empirical_dK >= 3.0 * r.mc_stderr_scale]
    n_below = len(report.rows) - len(usable)
    if len(usable) < 3:
        raise ValueError(f"need >= 3 rows above the MC floor, have {len(usable)}")
    lx = np.log([r.ell for r in usable])
    ly = np.log([r.empirical_dK for r in usable])
    lt = np.log([r.theoretical_rate for r in usable])
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    dof = max(len(usable) - 2, 1)
    stderr = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
    theory_slope = float(np.sum((lx - lx.mean()) * (lt - lt.mean())) / sxx)
    return RateFit(
        slope=slope, stderr=stderr, intercept=intercept, theory_slope=theory_slope,
        decays_at_least_as_fast=slope <= theory_slope + 2.0 * stderr,
        n_used=len(usable), n_below_floor=n_below,
    )
