"""The functional pipeline, empirical distribution distances and CLT sweeps.

One `Functional` spec defines each kind (Hermite functionals h_{ell;q},
finite Hermite polynomials, the excursion area) by its grid degree,
reduction, mean, chaos variance and bound.  One driver, `_samples`, draws
the raw values for `simulate`, `clt` and `excursion` alike: fixed chunks of
replicas go to the workers, and inside a chunk each replica is synthesized
and reduced alone, so a field is reduced while it is still in cache and no
(replicas, nodes) block is ever held.  The per-realization `functional_*`
helpers evaluate the same spec on one `FieldRealization`.

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

from .contractions import berry_esseen_bound, poly_bound
from .moments import ZeroVarianceError, variance_h
from .parallel import fixed_chunks, ordered_map
from .simulate import FieldRealization, SphereGrid, _sample_batch, build_grid, excursion_variance
# hermite has no caller here; perfbench/spans.py wraps this binding
from .specfun import SphereDim, hermite

# (d, q) pairs where the known fourth-cumulant bounds do not secure a CLT.
CLT_EXCLUDED_PAIRS = ((3, 3), (3, 4), (4, 3), (5, 3))
# the indicator of kind S is not a polynomial: its grids are exact to 4*ell
EXCURSION_DEGREE_FACTOR = 4
HERMITE_CONVERSION_CAP = 16


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
# functionals
# ------------------------------------------------------------------

def _pairings(q: int, k: int) -> int:
    """q! / (k! (q-2k)! 2^k): the number of ways to pair 2k of q points."""
    return math.factorial(q) // (math.factorial(k) * math.factorial(q - 2 * k) * 2 ** k)


def monomial_to_hermite(b_coeffs) -> np.ndarray:
    """Hermite coefficients beta with sum_q b_q t^q = sum_j beta_j H_j(t).

    Uses the exact integer triangular identity
        t^q = sum_k q! / (k! (q-2k)! 2^k) H_{q-2k}(t),
    valid here up to Q = 16 (exact in double precision far beyond that).
    """
    b = np.asarray(b_coeffs, dtype=float)
    Q = b.size - 1
    if Q > HERMITE_CONVERSION_CAP:
        raise ValueError(f"monomial degree {Q} exceeds conversion cap {HERMITE_CONVERSION_CAP}")
    beta = np.zeros_like(b)
    for q in range(Q + 1):
        if b[q] == 0.0:
            continue
        for k in range(q // 2 + 1):
            beta[q - 2 * k] += b[q] * _pairings(q, k)
    return beta


def hermite_to_monomial(q: int) -> tuple[float, ...]:
    """Monomial coefficients c of H_q(t) = sum_k c_k t^k, from the inverse identity
        H_q(t) = sum_k (-1)^k q! / (k! (q-2k)! 2^k) t^{q-2k};
    the integers are exact in double precision up to q = 28."""
    c = [0.0] * (q + 1)
    for k in range(q // 2 + 1):
        c[q - 2 * k] = float((-1) ** k * _pairings(q, k))
    return tuple(c)


def _hermite_betas(beta) -> dict[int, float]:
    """The chaos orders >= 2 of beta with their nonzero coefficients."""
    return {j: b for j, b in enumerate(beta) if j >= 2 and b != 0.0}


@dataclass(frozen=True)
class Functional:
    """One functional of a degree-ell field T on S^d, shared by `simulate` and `clt`.

    Kinds h and Z integrate a polynomial p(T) = sum_k c_k T^k (h_{ell;q}:
    p = H_q; kind Z: the user's monomial coefficients b), whose Hermite
    coefficients beta (e_q, or monomial_to_hermite(b)) give the variance and
    the bound; kind S measures {T <= z}.  Build one with `Functional.of`.
    """

    kind: str                            # "h" | "Z" | "S"
    label: str                           # sample label: "h3", "Z", "S(z=1)"
    beta: tuple[float, ...] | None = None  # Hermite coefficients (h, Z)
    monomial: tuple[float, ...] | None = None  # monomial coefficients c (h, Z)
    z: float | None = None               # level (S)
    q_max: int = 8                       # chaos truncation of the S variance

    @classmethod
    def of(cls, kind: str, q: int | None = None, betas=None, z: float | None = None,
           q_max: int = 8) -> Functional:
        if kind == "h":
            if q is None or q < 0:
                raise ValueError(f"kind h requires a Hermite order q >= 0, got {q}")
            return cls("h", f"h{q}", beta=(0.0,) * q + (1.0,), monomial=hermite_to_monomial(q))
        if kind == "Z":
            if betas is None or len(betas) == 0:
                raise ValueError("kind Z requires monomial coefficients betas (b0,b1,...)")
            return cls("Z", "Z", beta=tuple(float(b) for b in monomial_to_hermite(betas)),
                       monomial=tuple(float(b) for b in betas))
        if kind == "S":
            if z is None:
                raise ValueError("kind S requires a level z")
            return cls("S", f"S(z={z:g})", z=z, q_max=q_max)
        raise ValueError(f"kind must be 'h', 'Z' or 'S', got {kind!r}")

    def degree(self, ell: int) -> int:
        """Grid degree: exact for h and Z, EXCURSION_DEGREE_FACTOR * ell for S."""
        return EXCURSION_DEGREE_FACTOR * ell if self.beta is None else (len(self.beta) - 1) * ell

    def reduce(self, fields, weights):
        """Quadrature value of the functional over the last axis of `fields`.

        Kinds h and Z evaluate p(T) by Horner's rule in place, in one working
        buffer the size of `fields`, and skip the zero coefficients.
        """
        if self.monomial is None:
            return (fields <= self.z) @ weights
        *low, top = self.monomial
        if not low:
            return np.full(np.shape(fields), top) @ weights
        acc = np.multiply(fields, top)
        for c in low[:0:-1]:  # c_{Q-1}, ..., c_1
            if c != 0.0:
                acc += c
            acc *= fields
        if low[0] != 0.0:
            acc += low[0]
        return acc @ weights

    def mean(self, dim: SphereDim) -> float:
        """Expectation: mu_d times the chaos-0 coefficient."""
        return (self.beta[0] if self.beta is not None else float(ndtr(self.z))) * dim.mu_d

    def variance(self, ell: int, d: int) -> float:
        """Sum over chaoses q >= 2 of coefficient^2 * Var[h_{ell;q,d}]; 0 raises."""
        if self.beta is None:
            var = excursion_variance(ell, d, self.z, q_max=self.q_max)
        else:
            var = sum(b * b * variance_h(ell, j, d) for j, b in _hermite_betas(self.beta).items())
        if var <= 0.0:
            raise ZeroVarianceError(f"{self.label} has zero variance at (ell={ell}, d={d})")
        return var

    def bound(self, ell: int, d: int) -> tuple[float | None, float]:
        """(explicit d_K bound, or None for S, and the theoretical rate)."""
        if self.beta is None:
            return None, ell ** -0.5
        if self.kind == "h":
            rec = berry_esseen_bound(ell, len(self.beta) - 1, d)
        else:
            rec = poly_bound(ell, d, _hermite_betas(self.beta))
        return rec.bound_k, rec.rate

    def exact(self, ell: int, grid: SphereGrid) -> bool:
        """Whether the grid integrates the functional exactly (never for S)."""
        return self.beta is not None and self.degree(ell) <= grid.exact_degree


@dataclass(frozen=True)
class FunctionalSample:
    kind: str
    raw: float
    normalized: float | None
    exact_quadrature: bool


def _evaluate(f: Functional, realization: FieldRealization, variance: float | None) -> FunctionalSample:
    """f on one realization; centred and scaled by `variance` unless it is None."""
    grid = realization.grid
    raw = float(f.reduce(realization.values, grid.weights))
    normalized = None
    if variance is not None:
        if variance <= 0.0:
            raise ZeroVarianceError(f"cannot normalize {f.label} by variance {variance}")
        normalized = (raw - f.mean(grid.dim)) / math.sqrt(variance)
    return FunctionalSample(f.label, raw, normalized, f.exact(realization.ell, grid))


def functional_h(realization: FieldRealization, q: int, normalize: bool = True) -> FunctionalSample:
    """h_{ell;q,d} = integral of H_q(T_ell): quadrature sum of H_q at the nodes."""
    f = Functional.of("h", q=q)
    var = f.variance(realization.ell, realization.grid.dim.d) if normalize else None
    return _evaluate(f, realization, var)


def functional_Z(realization: FieldRealization, b_coeffs, normalize: bool = True) -> FunctionalSample:
    """Polynomial functional sum_q b_q * integral(T^q) via Hermite re-expansion."""
    f = Functional.of("Z", betas=b_coeffs)
    var = f.variance(realization.ell, realization.grid.dim.d) if normalize else None
    return _evaluate(f, realization, var)


def functional_excursion(realization: FieldRealization, z: float,
                         predicted_variance: float | None = None) -> FunctionalSample:
    """Empirical measure of {T <= z}, centred at mu_d Phi(z); no grid is exact for it."""
    return _evaluate(Functional.of("S", z=z), realization, predicted_variance)


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


def _samples(f: Functional, grid: SphereGrid, ell: int, seed: int, replicas: int,
             threads: int) -> np.ndarray:
    """Raw values of f for replicas 0..replicas-1: fixed chunks of replicas
    go to the workers, and each replica is synthesized and reduced alone."""
    # an empty batch fills the synthesis tables of the grid and its
    # sub-grids once, before worker threads race to build them
    _sample_batch(grid, ell, seed, ())

    def chunk_values(bounds):
        return np.concatenate([f.reduce(_sample_batch(grid, ell, seed, (rep,)), grid.weights)
                               for rep in range(*bounds)])

    return np.concatenate(ordered_map(chunk_values, fixed_chunks(replicas), threads))


def clt_sweep(kind: str, d: int, ell_list, replicas: int, seed: int,
              q: int | None = None, betas=None, z: float | None = None,
              threads: int = 1, allow_odd: bool = False, excursion_q_max: int = 8) -> CltReport:
    """Simulate the requested functional across ell_list and tabulate
    empirical Kolmogorov/Wasserstein distances against rates and bounds.

    kind "h" needs q, kind "Z" needs monomial coefficients `betas` (index =
    power), kind "S" needs the level z.  Multipoles must be even unless
    allow_odd is set.  Replica chunks are fixed-size and BLAS runs on one
    thread, so `threads` never changes any output value.
    """
    f = Functional.of(kind, q, betas, z, excursion_q_max)
    if replicas < 200:
        raise ValueError(f"need at least 200 replicas per row, got {replicas}")
    ells = [int(l) for l in ell_list]
    if sorted(ells) != ells or len(set(ells)) != len(ells):
        raise ValueError("ell_list must be strictly increasing")
    if not allow_odd and any(l % 2 for l in ells):
        raise ValueError("odd multipoles kill odd chaoses; pass allow_odd=True to sweep them anyway")

    warns: list[str] = []
    if kind == "h" and (d, q) in CLT_EXCLUDED_PAIRS:
        msg = (f"(d={d}, q={q}) is outside the proven CLT range; "
               "the fourth-cumulant bounds do not guarantee convergence")
        warnings.warn(msg)
        warns.append(msg)

    rows = []
    for ell in ells:
        grid = build_grid(d, f.degree(ell))
        var = f.variance(ell, d)
        mean = f.mean(grid.dim)
        raw = _samples(f, grid, ell, seed, replicas, threads)
        normalized = (raw - mean) / math.sqrt(var)
        explicit, rate = f.bound(ell, d)
        rows.append(CltRow(
            ell=ell, replicas=replicas,
            empirical_dK=kolmogorov_distance(normalized),
            empirical_dW=wasserstein_distance(normalized),
            mc_stderr_scale=0.5 / math.sqrt(replicas),
            theoretical_rate=rate,
            explicit_bound=explicit,
            exact_quadrature=f.exact(ell, grid),
            sample_mean=float(np.mean(raw)),
            sample_var=float(np.var(raw, ddof=1)),
            predicted_mean=mean,
            predicted_var=var,
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
