"""The functional pipeline, empirical distribution distances and CLT sweeps.

One `Functional` spec defines each kind (Hermite functionals h_{ell;q},
finite Hermite polynomials, the excursion area) by its grid degree,
reduction, mean, variance and bound.  One function, `_samples`, draws
the raw values for `simulate`, `clt` and `excursion` alike, on the rule
that `Functional.grid` picks: fixed chunks of replicas go to the workers,
and a chunk runs in blocks of replicas whose largest synthesis array holds
about BLOCK_VALUES values, which fit in the L2 cache.  Each block is
synthesized and reduced in buffers allocated once per worker, so its fields
are reduced while they are still in cache and no (replicas, nodes) array of
a whole chunk is ever held.  The block size depends only on the grid and
ell, and every replica is synthesized and reduced by the same BLAS calls as
it would be alone, so no value depends on the block or the worker count.  The
per-realization `functional_*` helpers evaluate the same spec on one
`FieldRealization`.

Distances to the standard normal:
  - Kolmogorov: sup over the sorted sample of |F_n - Phi|, evaluated at both
    one-sided limits of every jump;
  - Wasserstein-1: mean absolute quantile coupling against the normal
    quantiles at (i - 1/2)/n, from the stdlib's `NormalDist().inv_cdf`
    (Wichura's AS241).

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

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

# berry_esseen_bound has no caller here; perfbench/spans.py wraps this binding
from .contractions import berry_esseen_bound, poly_bound
from .moments import fit_line, variance_h
from .parallel import fixed_chunks, ordered_map
from .simulate import (
    FieldRealization,
    SphereGrid,
    _replica_values,
    _sample_batch,
    _synthesis_buffers,
    build_grid,
    excursion_variance,
    fold_grid,
)
# hermite has no caller here; perfbench/spans.py wraps this binding
from .specfun import (FACTORIAL_MAX_ORDER, NumericalError, SphereDim, UsageError, ZeroVarianceError, hermite,
                      normal_cdf)

# (d, q) pairs where the known fourth-cumulant bounds do not secure a CLT.
CLT_EXCLUDED_PAIRS = ((3, 3), (3, 4), (4, 3), (5, 3))
# the indicator of kind S is not a polynomial: its grids are exact to 4*ell
EXCURSION_DEGREE_FACTOR = 4
HERMITE_CONVERSION_CAP = 16
# values of the largest synthesis array per sampling block: 512 KB of doubles,
# inside a 2 MB L2 cache
BLOCK_VALUES = 2 ** 16


def kolmogorov_distance(samples) -> float:
    """sup_z |F_n(z) - Phi(z)| evaluated at both sides of every sample point."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 2:
        raise UsageError("need at least two samples")
    cdf = normal_cdf(x)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - cdf, cdf - (i - 1) / n)))


def wasserstein_distance(samples) -> float:
    """W_1 estimate: mean |X_(i) - Phi^{-1}((i - 1/2)/n)| over the sorted sample."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 2:
        raise UsageError("need at least two samples")
    return float(np.mean(np.abs(x - _normal_quantiles(n))))


@functools.lru_cache(maxsize=8)
def _normal_quantiles(n: int) -> np.ndarray:
    """Phi^{-1}((i - 1/2)/n) for i = 1..n, read-only: a sweep reuses one
    vector per replica count."""
    inv_cdf = NormalDist().inv_cdf
    q = np.array([inv_cdf((i - 0.5) / n) for i in range(1, n + 1)])
    q.flags.writeable = False
    return q


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
        raise UsageError(f"monomial degree {Q} exceeds conversion cap {HERMITE_CONVERSION_CAP}")
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

    @classmethod
    def of(cls, kind: str, q: int | None = None, betas=None, z: float | None = None) -> Functional:
        if kind == "h":
            if q is None or q < 0:
                raise UsageError(f"kind h requires a Hermite order q >= 0, got {q}")
            if q > FACTORIAL_MAX_ORDER:  # Var h_q and, from about 290, H_q's coefficients overflow
                raise NumericalError(f"{q}! overflows a float (the limit is {FACTORIAL_MAX_ORDER}!)")
            return cls("h", f"h{q}", beta=(0.0,) * q + (1.0,), monomial=hermite_to_monomial(q))
        if kind == "Z":
            if betas is None or len(betas) == 0:
                raise UsageError("kind Z requires monomial coefficients betas (b0,b1,...)")
            if not all(math.isfinite(float(b)) for b in betas):
                raise UsageError(f"betas must be finite, got {tuple(betas)}")
            return cls("Z", "Z", beta=tuple(float(b) for b in monomial_to_hermite(betas)),
                       monomial=tuple(float(b) for b in betas))
        if kind == "S":
            if z is None or not math.isfinite(z):
                raise UsageError(f"kind S requires a finite level z, got {z}")
            return cls("S", f"S(z={z:g})", z=z)
        raise UsageError(f"kind must be 'h', 'Z' or 'S', got {kind!r}")

    def degree(self, ell: int) -> int:
        """Grid degree, at least 1: exact for h and Z, EXCURSION_DEGREE_FACTOR * ell for S."""
        top = EXCURSION_DEGREE_FACTOR if self.beta is None else len(self.beta) - 1
        return max(1, top * ell)

    def grid(self, ell: int, d: int) -> SphereGrid:
        """The rule `simulate` and the sweeps integrate on: `build_grid` to
        `degree(ell)`, folded onto its northern half (`fold_grid`) for kinds
        h and Z at even ell, where p(T) is even under x -> -x and the fold
        is exact.  The indicator of kind S and odd ell keep the full grid."""
        grid = build_grid(d, self.degree(ell))
        return fold_grid(grid) if self.beta is not None and ell % 2 == 0 else grid

    def reduce(self, fields, weights, out=None):
        """Quadrature value of the functional over the last axis of `fields`.

        The integrand is evaluated in one working array of the shape of
        `fields`, `out` when given: kinds h and Z evaluate p(T) by Horner's
        rule in place and skip the zero coefficients.  Each row is summed as
        its own (1, N) @ (N,) product, so its value does not depend on the
        rows it is batched with.
        """
        acc = np.empty(np.shape(fields)) if out is None else out
        if self.monomial is None:
            np.less_equal(fields, self.z, out=acc)
        elif len(self.monomial) == 1:
            acc.fill(self.monomial[0])
        else:
            *low, top = self.monomial
            np.multiply(fields, top, out=acc)
            for c in low[:0:-1]:  # c_{Q-1}, ..., c_1
                if c != 0.0:
                    acc += c
                acc *= fields
            if low[0] != 0.0:
                acc += low[0]
        return (acc[..., None, :] @ weights)[..., 0]

    def mean(self, dim: SphereDim) -> float:
        """Expectation: mu_d times the chaos-0 coefficient."""
        return (self.beta[0] if self.beta is not None else normal_cdf(self.z)) * dim.mu_d

    def variance(self, ell: int, d: int) -> float:
        """Kinds h and Z: the sum over chaoses q >= 2 of beta_q^2 Var[h_{ell;q,d}];
        kind S: the exact `excursion_variance`.  0 raises."""
        if self.beta is None:
            var = excursion_variance(ell, d, self.z)
        else:
            var = sum(b * b * variance_h(ell, j, d) for j, b in _hermite_betas(self.beta).items())
        if not var > 0.0:
            raise ZeroVarianceError(f"{self.label} has zero variance at (ell={ell}, d={d})")
        return var

    def bound(self, ell: int, d: int) -> tuple[float | None, float]:
        """(explicit d_K bound, or None for S, and the theoretical rate)."""
        if self.beta is None:
            return None, ell ** -0.5
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
    z: float | None
    rows: tuple[CltRow, ...]
    warnings: tuple[str, ...] = ()
    grids: tuple[dict, ...] = ()  # per row: ell and the rule's `SphereGrid.summary`


def _samples(f: Functional, grid: SphereGrid, ell: int, seed: int, replicas: int,
             threads: int) -> np.ndarray:
    """Raw values of f for replicas 0..replicas-1.

    Fixed chunks of replicas go to the workers.  A chunk runs in blocks of
    max(1, BLOCK_VALUES // V) replicas, V the values of a replica's largest
    synthesis array (`_replica_values`, N or more), each block one
    `_sample_batch` and one `Functional.reduce` call.  Their buffers are
    allocated once per worker: a chunk takes a set left by a finished
    chunk, so the memory is not handed back to the system and faulted in
    again for every chunk."""
    # an empty batch fills the synthesis tables of the grid and its
    # sub-grids once, before worker threads race to build them
    _sample_batch(grid, ell, seed, ())
    block = max(1, BLOCK_VALUES // _replica_values(grid, ell))
    rows = min(block, replicas)
    spare = []  # buffer sets of finished chunks; list.pop and append are atomic

    def chunk_values(bounds):
        lo, hi = bounds
        try:
            work, acc = spare.pop()
        except IndexError:
            work, acc = _synthesis_buffers(grid, ell, rows), np.empty((rows, grid.n_nodes))
        values = np.empty(hi - lo)
        for start in range(lo, hi, block):
            stop = min(start + block, hi)
            fields = _sample_batch(grid, ell, seed, range(start, stop), work)
            values[start - lo:stop - lo] = f.reduce(fields, grid.weights, acc[:stop - start])
        spare.append((work, acc))
        return values

    return np.concatenate(ordered_map(chunk_values, fixed_chunks(replicas), threads))


def clt_sweep(kind: str, d: int, ell_list, replicas: int, seed: int,
              q: int | None = None, betas=None, z: float | None = None,
              threads: int = 1, allow_odd: bool = False) -> CltReport:
    """Simulate the requested functional across ell_list and tabulate
    empirical Kolmogorov/Wasserstein distances against rates and bounds.

    kind "h" needs q, kind "Z" needs monomial coefficients `betas` (index =
    power), kind "S" needs the level z.  Multipoles must be even unless
    allow_odd is set.  Replica chunks are fixed-size and BLAS runs on one
    thread, so `threads` never changes any output value.
    """
    f = Functional.of(kind, q, betas, z)
    if replicas < 200:
        raise UsageError(f"need at least 200 replicas per row, got {replicas}")
    ells = [int(l) for l in ell_list]
    if sorted(ells) != ells or len(set(ells)) != len(ells):
        raise UsageError("ell_list must be strictly increasing")
    if not allow_odd and any(l % 2 for l in ells):
        raise UsageError("odd multipoles kill odd chaoses; pass allow_odd=True to sweep them anyway")

    warns: list[str] = []  # the manifest records them; stderr carries only errors
    if kind == "h" and (d, q) in CLT_EXCLUDED_PAIRS:
        warns.append(f"(d={d}, q={q}) is outside the proven CLT range; "
                     "the fourth-cumulant bounds do not guarantee convergence")

    rows, grids = [], []
    for ell in ells:
        grid = f.grid(ell, d)
        grids.append({"ell": ell, **grid.summary()})
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

    return CltReport(kind=kind, d=d, q=q, z=z, rows=tuple(rows), warnings=tuple(warns), grids=tuple(grids))


# ------------------------------------------------------------------
# rate diagnostics
# ------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    slope: float
    stderr: float
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
        raise UsageError(f"need >= 3 rows above the MC floor, have {len(usable)}")
    lx = np.log([r.ell for r in usable])
    slope, _, stderr = fit_line(lx, np.log([r.empirical_dK for r in usable]))
    theory_slope = fit_line(lx, np.log([r.theoretical_rate for r in usable]))[0]
    return RateFit(
        slope=slope, stderr=stderr, theory_slope=theory_slope,
        decays_at_least_as_fast=slope <= theory_slope + 2.0 * stderr,
        n_used=len(usable), n_below_floor=n_below,
    )
