"""The functional pipeline, empirical distribution distances and CLT sweeps.

One `Functional` spec defines each kind (Hermite functionals h_{ell;q},
finite Hermite polynomials, the excursion area) by its grid degree,
reduction, mean, variance and bound.  One function, `_samples`, draws
the raw values for `simulate`, `clt` and `excursion` alike, on the rule
that `Functional.grid` picks (folded wherever p(T) is even under x -> -x, as
every h and Z row is): fixed chunks of replicas go to the workers, and a
chunk runs in blocks of replicas whose largest synthesis array holds about
BLOCK_VALUES values, which fit in the L2 cache.  It synthesizes in
SAMPLE_DTYPE, float32, and reduces in it unless the values could leave its
range (`Functional.reduction_dtype`): the distances of a few thousand
replicas need nowhere near 16 digits, and float32 halves the time of the
largest matmul.  Everything after the reduction (means, variances,
distances) runs in float64.  Each block is synthesized and reduced in
buffers allocated once per worker, so its fields are reduced while they are
still in cache and no (replicas, nodes) array of a whole chunk is ever held.
The block size depends only on the grid and ell, and every replica is
synthesized and reduced by the same BLAS calls as it would be alone, so no
value depends on the block or the worker count.  The per-realization
`functional_*` helpers evaluate the same spec on one `FieldRealization`.

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

The Kolmogorov statistic of n true normal samples has mean about
0.87/sqrt(n) (the Kolmogorov law's sqrt(pi/2) ln 2), and 1.5/sqrt(n) sits
near its 97.5 % quantile; rows below 1.5/sqrt(n) say nothing about
convergence rates and are excluded from the log-log fits.  Theoretical rates
are upper bounds, so rate comparisons are one-sided: decaying faster than
predicted is a pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

# berry_esseen_bound, variance_h and hermite have no caller here; perfbench/spans.py wraps these bindings
from .contractions import berry_esseen_bound, poly_bound, polynomial_variance
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
from .specfun import (NumericalError, SphereDim, UsageError, ZeroVarianceError, float_factorial, hermite,
                      normal_cdf)

# (d, q) pairs where the known fourth-cumulant bounds do not secure a CLT.
CLT_EXCLUDED_PAIRS = ((3, 3), (3, 4), (4, 3), (5, 3))
# the indicator of kind S is not a polynomial: its grids are exact to 4*ell
EXCURSION_DEGREE_FACTOR = 4
HERMITE_CONVERSION_CAP = 16
# precision of the synthesis in `_samples`, and of the reduction where it stays in range
SAMPLE_DTYPE = np.dtype(np.float32)
# values of the largest synthesis array per sampling block: 1 MB of SAMPLE_DTYPE,
# inside a 2 MB L2 cache.  Each numpy call releases the GIL once per block, so
# two workers overlap only where a block holds several replicas: 2^16 held one
# at (h, ell = 128) and (S, ell = 64), 2^18 holds 5 and 7.  2^20 took the peak
# RSS of the benchmark's Monte Carlo commands from 45 to 64 MB.
BLOCK_VALUES = 2 ** 18


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
        for k in range(q // 2 + 1):
            beta[q - 2 * k] += b[q] * _pairings(q, k)
    return beta


def _trimmed(coeffs) -> tuple[float, ...]:
    """`coeffs` as floats without trailing zeros; (0.0,) if all are 0."""
    return tuple(map(float, np.trim_zeros(np.asarray(coeffs, dtype=float), "b"))) or (0.0,)


def _hermite_betas(beta) -> dict[int, float]:
    """The chaos orders >= 2 of beta with their nonzero coefficients."""
    return {j: b for j, b in enumerate(beta) if j >= 2 and b != 0.0}


@dataclass(frozen=True)
class Functional:
    """One functional of a degree-ell field T on S^d, shared by `simulate` and `clt`.

    Kinds h and Z integrate p(T) = sum_k beta_k H_k(T) (h_{ell;q}: beta =
    e_q; kind Z: monomial_to_hermite of the user's monomial coefficients b),
    and beta gives the reduction, the variance and the bound; kind S
    measures {T <= z}.  Build one with `Functional.of`.
    """

    kind: str                            # "h" | "Z" | "S"
    label: str                           # sample label: "h3", "Z", "S(z=1)"
    beta: tuple[float, ...] | None = None  # Hermite coefficients (h, Z), `_trimmed`: beta[-1] leads
    z: float | None = None               # level (S)

    @classmethod
    def of(cls, kind: str, q: int | None = None, betas=None, z: float | None = None) -> Functional:
        if kind == "h":
            if q is None or q < 0:
                raise UsageError(f"kind h requires a Hermite order q >= 0, got {q}")
            float_factorial(q)  # raises where Var h_q overflows
            return cls("h", f"h{q}", beta=(0.0,) * q + (1.0,))
        if kind == "Z":
            if betas is None or len(betas) == 0:
                raise UsageError("kind Z requires monomial coefficients betas (b0,b1,...)")
            if not all(math.isfinite(float(b)) for b in betas):
                raise UsageError(f"betas must be finite, got {tuple(betas)}")
            return cls("Z", "Z", beta=tuple(monomial_to_hermite(_trimmed(betas)).tolist()))
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
        `degree(ell)`, folded onto its northern half (`fold_grid`) exactly
        where p(T) is even under x -> -x, as T(-x) = (-1)^ell T(x) makes it
        at even ell, and at odd ell where p has no odd chaos (every `at(ell)`
        result).  The indicator of kind S keeps the full grid."""
        grid = build_grid(d, self.degree(ell))
        return fold_grid(grid) if self.beta is not None and (ell % 2 == 0 or not any(self.beta[1::2])) else grid

    def at(self, ell: int) -> Functional:
        """The functional as each row of `simulate`, `clt` and `excursion`
        evaluates it on degree-ell fields.  At odd ell T(-x) = -T(x), so every
        odd H_k(T) integrates to 0: p keeps its even chaoses alone, and its
        grid is exact to their degree and folded.  The odd chaoses take their
        rounding noise with them, however large their coefficients (as
        `poly_bound` drops them from the bound)."""
        if self.beta is None or ell % 2 == 0:
            return self
        return replace(self, beta=_trimmed([0.0 if k % 2 else b for k, b in enumerate(self.beta)]))

    @functools.cached_property
    def _clenshaw(self) -> tuple[float, tuple, int | None, int, float]:
        """(scale, ops, slot of the sum, buffers, reach) of Clenshaw's rule on
        c = beta / scale, scale = beta[-1].  An op is (ufunc,
        arguments, out), an argument a float or a slot: 0 is T, 1.. the
        buffers.  Each b_k is an array part (a buffer, T or nothing) and a
        float, so a constant costs a pass only where T multiplies it, and
        T b_{k+1} - (k+1) T folds into T (b_{k+1} - (k+1)).  The last step
        writes into b_1's buffer and adds its constant there, so the float32
        sum over the nodes runs over an integrand of mean about 0 (beside
        He_20(0) = 6.5e8 it put h_20 1.6e-5 sigma off at (3, 6)); H_3 runs
        Horner's ops.  reach = sum_{k>=1} |c_k| a_k(8) by the same rule."""
        scale = self.beta[-1]
        T, ops, free, count = 0, [], [], 0
        prev = last = (None, 0.0, 0.0)  # b_{k+1} and b_{k+2}, with their reach sums
        for k in range(len(self.beta) - 1, -1, -1):
            (x1, c1, r1), (x2, c2, r2) = prev, last
            ck = self.beta[k] / scale if k else 0.0
            const, reach = ck - (k + 1) * c2, abs(ck) + 8.0 * r1 + (k + 1) * r2
            if x2 == T:
                x2, c1 = None, c1 - (k + 1)
            if x1 is None:  # b_{k+1} = c_Q = 1 or 0, and b_{k+2} = 0
                x = None if c1 == 0.0 else T
            else:
                x = x1 if k == 0 and x1 else free.pop() if free else (count := count + 1)
                if c1 != 0.0:
                    ops += [(np.add, (x1, c1), x), (np.multiply, (x, T), x)]
                else:
                    ops.append((np.square, (T,), x) if x1 == T else (np.multiply, (x1, T), x))
            if x2 is not None:  # b_{k+2}, read for the last time
                ops += [(np.multiply, (x2, float(k + 1)), x2)] if k else []
                ops.append((np.subtract, (x, x2), x))
                free.append(x2)
            prev, last = (x, const, reach), prev
        if const != 0.0:  # b_0 = c_1 T + const has const = 0, so x is a buffer
            ops.append((np.add, (x, const), x))
        return scale, tuple(ops), x, count, reach

    @property
    def buffers(self) -> int:
        """The working arrays of the shape of the fields that `reduce` writes."""
        return 1 if self.beta is None else self._clenshaw[3]

    def reduction_dtype(self) -> np.dtype:
        """SAMPLE_DTYPE, or float64 where one reach bound fails: a unit-variance
        field passes |T| = 8 with probability 1e-15 per node, |H_k| <= a_k(8)
        there, and mu_d < 34, so the rule stays in range while 34 * reach is
        below the largest SAMPLE_DTYPE: for h_q up to q = 37, and for kind S."""
        reach = 0.0 if self.beta is None else 34.0 * self._clenshaw[4]
        return SAMPLE_DTYPE if reach < float(np.finfo(SAMPLE_DTYPE).max) else np.dtype(np.float64)

    def reduce(self, fields, weights, work=None, total=None):
        """Quadrature value of the functional over the last axis of `fields`,
        evaluated in the dtype of `weights` in `work`, `buffers` arrays of
        the shape of `fields`, or in new ones; `fields` is left as it was.
        Kinds h and Z sum their chaoses >= 1 by Clenshaw's rule (Clenshaw,
        Math. Tables Aids Comput. 9:118, 1955) on beta / scale, scale the
        leading beta, so that b_{Q-1} = T costs no pass at any scale:
            b_k = beta_k + T b_{k+1} - (k+1) b_{k+2},  sum = T b_1 - b_2;
        scale it back and add beta_0 times `total`, the sum of the float64
        weights (by default, of `weights`), in float64.  Each row is summed as
        its own (1, N) @ (N,) product, independent of the rows beside it."""
        shape, dtype = np.shape(fields), weights.dtype
        slots = [fields, *([np.empty(shape, dtype) for _ in range(self.buffers)] if work is None else work)]
        if self.beta is None:
            np.less_equal(fields, self.z, out=slots[1])
            return (slots[1][..., None, :] @ weights)[..., 0]
        scale, ops, result, *_ = self._clenshaw
        offset = self.beta[0] * (float(np.sum(weights)) if total is None else total)
        if result is None:
            return np.full(shape[:-1], offset)
        for op, args, out in ops:
            op(*(a if isinstance(a, float) else slots[a] for a in args), out=slots[out], dtype=dtype)
        return np.multiply((slots[result][..., None, :] @ weights)[..., 0], scale, dtype=np.float64) + offset

    def mean(self, dim: SphereDim) -> float:
        """Expectation: mu_d times the chaos-0 coefficient."""
        return (self.beta[0] if self.beta is not None else normal_cdf(self.z)) * dim.mu_d

    def variance(self, ell: int, d: int) -> float:
        """Kinds h and Z: the sum over chaoses q >= 2 of beta_q^2 Var[h_{ell;q,d}];
        kind S: the exact `excursion_variance`.  0 raises ZeroVarianceError;
        a sum of nonzero terms below the least normal float, NumericalError."""
        if self.beta is None:
            var = excursion_variance(ell, d, self.z)
        else:
            var = polynomial_variance(ell, d, _hermite_betas(self.beta), f"the variance of {self.label}")[1]
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
    f = Functional.of("h", q=q).at(realization.ell)
    var = f.variance(realization.ell, realization.grid.dim.d) if normalize else None
    return _evaluate(f, realization, var)


def functional_Z(realization: FieldRealization, b_coeffs, normalize: bool = True) -> FunctionalSample:
    """Polynomial functional sum_q b_q * integral(T^q) via Hermite re-expansion."""
    f = Functional.of("Z", betas=b_coeffs).at(realization.ell)
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
    mc_stderr_scale: float       # 0.5 / sqrt(replicas); exact normal samples average d_K 0.87 / sqrt(replicas)
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


def _samples(f: Functional, grid: SphereGrid, ell: int, seed: int, replicas: int, threads: int) -> np.ndarray:
    """Raw values of f for replicas 0..replicas-1, synthesized in
    SAMPLE_DTYPE and reduced in `f.reduction_dtype()`, returned in float64.

    Fixed chunks of replicas go to the workers.  A chunk runs in blocks of
    max(1, BLOCK_VALUES // V) replicas, V the values of a replica's largest
    synthesis array (`_replica_values`, N or more), each block one
    `_sample_batch` and one `Functional.reduce` call.  Their buffers are
    allocated once per worker: a chunk takes a set left by a finished
    chunk, so the memory is not handed back to the system and faulted in
    again for every chunk.  A value beyond the float64 range raises
    NumericalError."""
    dtype = f.reduction_dtype()
    # an empty batch fills the synthesis tables of the grid and its
    # sub-grids once, before worker threads race to build them
    _sample_batch(grid, ell, seed, (), dtype=SAMPLE_DTYPE)
    block = max(1, BLOCK_VALUES // _replica_values(grid, ell))
    rows = min(block, replicas)
    weights, total = grid.weights.astype(dtype), float(np.sum(grid.weights))
    spare = []  # buffer sets of finished chunks; list.pop and append are atomic

    def chunk_values(bounds):
        lo, hi = bounds
        try:
            work, acc = spare.pop()
        except IndexError:
            work = _synthesis_buffers(grid, ell, rows, SAMPLE_DTYPE)
            acc = [np.empty((rows, grid.n_nodes), dtype) for _ in range(f.buffers)]
        values = np.empty(hi - lo)
        with np.errstate(over="ignore", invalid="ignore"):  # a value out of range raises below
            for start in range(lo, hi, block):
                stop = min(start + block, hi)
                fields = _sample_batch(grid, ell, seed, range(start, stop), work)
                values[start - lo:stop - lo] = f.reduce(fields, weights, [a[:stop - start] for a in acc], total)
        spare.append((work, acc))
        return values

    values = np.concatenate(ordered_map(chunk_values, fixed_chunks(replicas), threads))
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{f.label} at (ell={ell}, d={grid.dim.d}) leaves the float64 range")
    return values


def clt_sweep(kind: str, d: int, ell_list, replicas: int, seed: int,
              q: int | None = None, betas=None, z: float | None = None,
              threads: int = 1) -> CltReport:
    """Simulate the requested functional across ell_list and tabulate
    empirical Kolmogorov/Wasserstein distances against rates and bounds.

    kind "h" needs q, kind "Z" needs monomial coefficients `betas` (index =
    power), kind "S" needs the level z.  Odd multipoles need no opt-in: there
    T(-x) = -T(x) and the odd chaoses vanish, so a functional left with zero
    variance (h at odd q, Z whose chaoses of order >= 2 are all odd, S at
    z = 0) raises `ZeroVarianceError`; h and Z at ell = 1, which have no
    bound, raise `UsageError`.  Both come before the row draws a replica.
    Replica chunks are fixed-size and BLAS runs on one thread, so `threads`
    never changes any output value.
    """
    f = Functional.of(kind, q, betas, z)
    if replicas < 200:
        raise UsageError(f"need at least 200 replicas per row, got {replicas}")
    ells = [int(l) for l in ell_list]
    if sorted(ells) != ells or len(set(ells)) != len(ells):
        raise UsageError("ell_list must be strictly increasing")

    warns: list[str] = []  # the manifest records them; stderr carries only errors
    if kind == "h" and (d, q) in CLT_EXCLUDED_PAIRS:
        warns.append(f"(d={d}, q={q}) is outside the proven CLT range; "
                     "the fourth-cumulant bounds do not guarantee convergence")

    rows, grids = [], []
    for ell in ells:
        f_ell = f.at(ell)
        grid = f_ell.grid(ell, d)
        grids.append({"ell": ell, **grid.summary(), "reduction_dtype": f_ell.reduction_dtype().name})
        var = f_ell.variance(ell, d)
        explicit, rate = f_ell.bound(ell, d)  # raises at ell = 1 for h and Z: before any replica is drawn
        mean = f_ell.mean(grid.dim)
        raw = _samples(f_ell, grid, ell, seed, replicas, threads)
        normalized = (raw - mean) / math.sqrt(var)
        rows.append(CltRow(
            ell=ell, replicas=replicas,
            empirical_dK=kolmogorov_distance(normalized),
            empirical_dW=wasserstein_distance(normalized),
            mc_stderr_scale=0.5 / math.sqrt(replicas),
            theoretical_rate=rate,
            explicit_bound=explicit,
            exact_quadrature=f_ell.exact(ell, grid),
            sample_mean=float(np.mean(raw)),
            sample_var=float(np.var(raw, ddof=1)),
            predicted_mean=mean,
            predicted_var=var,
        ))

    return CltReport(kind=kind, d=d, q=q, z=z, rows=tuple(rows), warnings=tuple(warns), grids=tuple(grids))


# ------------------------------------------------------------------
# rate diagnostics
# ------------------------------------------------------------------

def rate_fit(report: CltReport) -> dict:
    """Log-log slope of empirical d_K against ell, floor-filtered: the
    manifest's `rate_fit` record, keyed slope, stderr, theory_slope,
    decays_at_least_as_fast, n_used and n_below_floor.

    Rows with d_K below 3 * mc_stderr_scale = 1.5/sqrt(replicas) are
    Kolmogorov noise and are excluded: the d_K of exact normal samples has
    mean 0.87/sqrt(replicas) and exceeds that threshold about 2 % of the
    time.  The comparison flag is one-sided: measured slope no larger
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
    return {"slope": slope, "stderr": stderr, "theory_slope": theory_slope,
            "decays_at_least_as_fast": slope <= theory_slope + 2.0 * stderr,
            "n_used": len(usable), "n_below_floor": n_below}
