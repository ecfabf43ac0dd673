"""Monte Carlo synthesis of Gaussian random eigenfunctions on S^d and the
nonlinear functionals built from them.

Grids are product quadrature rules: Gauss-Legendre in cos(theta) times a
uniform azimuth for d = 2, and Gauss-Jacobi colatitude rules stacked over a
recursive (d-1)-sphere grid for d >= 3.  A grid of exact degree D integrates
every polynomial of degree <= D on the sphere exactly, so Hermite functionals
of a degree-ell field are quadrature-exact whenever q*ell <= D.

Fields are unit variance with covariance G_{ell;d}(cos distance):
  - d = 2: synthesis from i.i.d. coefficients on an orthonormal real harmonic
    basis (associated Legendre recurrences, cost O(nodes * ell)),
  - d >= 3: dense covariance factorization at the grid nodes (eigenvalue
    clipping at -1e-10), practical for <= 8192 nodes and small ell.  Explicit
    harmonic bases for general d are not worth their complexity here; the
    deterministic moment asymptotics carry the large-ell story for d >= 3.

Every replica derives its generator from (master seed, replica index) through
a counter-based construction (Philox with the replica in the high counter
word), so samples are reproducible regardless of batching or worker count.
Multipole sweeps default to even ell; odd multipoles kill the odd-q chaoses.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, roots_legendre

from .moments import ZeroVarianceError, variance_h
from .quadrature import gauss_jacobi_rule, panel_nodes
from .specfun import GegenbauerCtx, SphereDim, hermite

NODE_BUDGET = 2_000_000
DENSE_NODE_CAP = 8192
DENSE_ELL_CAP = 16
HERMITE_CONVERSION_CAP = 16


class NodeBudgetError(ValueError):
    """Requested grid exceeds the node budget."""


class CovarianceFactorizationError(RuntimeError):
    """Covariance matrix is too indefinite to factor after clipping."""


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Quadrature grid on S^d: unit-vector nodes, positive weights summing to
    mu_d, and the largest polynomial degree integrated exactly.

    Grids compare by identity; derived synthesis tables and covariance
    factors are cached per grid object."""

    dim: SphereDim
    nodes: np.ndarray = field(repr=False, compare=False)    # (N, d+1)
    weights: np.ndarray = field(repr=False, compare=False)  # (N,)
    exact_degree: int
    # product structure, kept for the d = 2 synthesis/analysis fast path
    colat_t: np.ndarray | None = field(default=None, repr=False, compare=False)
    colat_w: np.ndarray | None = field(default=None, repr=False, compare=False)
    n_phi: int = 0

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, values: np.ndarray):
        """Quadrature sum over the grid (last axis of `values`)."""
        return values @ self.weights


def _orthogonality_check(dim, colat_t, colat_w, sub_weight, exact_degree):
    # integral of G_k(x . pole) must vanish for 1 <= k <= exact_degree
    ctx = GegenbauerCtx(exact_degree, dim)
    table = ctx.evaluate_all(colat_t)
    sums = sub_weight * (table[1:] @ colat_w)
    worst = float(np.max(np.abs(sums))) if sums.size else 0.0
    if worst > 1e-11 * dim.mu_d:
        raise RuntimeError(f"grid orthogonality check failed: max |int G_k| = {worst:.3e}")


def build_grid(d: int, target_degree: int, node_budget: int = NODE_BUDGET) -> SphereGrid:
    """Product quadrature grid on S^d exact at least to `target_degree`."""
    if target_degree < 1:
        raise ValueError(f"target degree must be >= 1, got {target_degree}")
    if d < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {d}")
    dim = SphereDim(d)
    n_t = target_degree // 2 + 1

    if d == 2:
        n_phi = target_degree + 1
        if n_t * n_phi > node_budget:
            raise NodeBudgetError(f"grid would need {n_t * n_phi} nodes (budget {node_budget})")
        t, w_t = roots_legendre(n_t)
        phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
        s = np.sqrt(1.0 - t * t)
        nodes = np.empty((n_t * n_phi, 3))
        nodes[:, 0] = np.repeat(s, n_phi) * np.tile(np.cos(phi), n_t)
        nodes[:, 1] = np.repeat(s, n_phi) * np.tile(np.sin(phi), n_t)
        nodes[:, 2] = np.repeat(t, n_phi)
        weights = np.repeat(w_t * (2.0 * math.pi / n_phi), n_phi)
        grid = SphereGrid(dim, nodes, weights, min(2 * n_t - 1, n_phi - 1),
                          colat_t=t, colat_w=w_t, n_phi=n_phi)
        _orthogonality_check(dim, t, w_t, 2.0 * math.pi, grid.exact_degree)
        return grid

    sub = build_grid(d - 1, target_degree, node_budget)
    if n_t * sub.n_nodes > node_budget:
        raise NodeBudgetError(f"grid would need {n_t * sub.n_nodes} nodes (budget {node_budget})")
    t, w_t = gauss_jacobi_rule(n_t, d)
    s = np.sqrt(1.0 - t * t)
    nodes = np.empty((n_t * sub.n_nodes, d + 1))
    nodes[:, 0] = np.repeat(t, sub.n_nodes)
    nodes[:, 1:] = np.repeat(s, sub.n_nodes)[:, None] * np.tile(sub.nodes, (n_t, 1))
    weights = np.repeat(w_t, sub.n_nodes) * np.tile(sub.weights, n_t)
    exact = min(2 * n_t - 1, sub.exact_degree)
    grid = SphereGrid(dim, nodes, weights, exact)
    _orthogonality_check(dim, t, w_t, float(np.sum(sub.weights)), exact)
    return grid


# ------------------------------------------------------------------
# field synthesis
# ------------------------------------------------------------------

@dataclass(frozen=True)
class FieldRealization:
    grid: SphereGrid
    values: np.ndarray = field(repr=False, compare=False)  # (N,)
    ell: int
    seed: int
    replica: int


def _replica_rng(seed: int, replica: int) -> np.random.Generator:
    # counter-based: replica occupies the high counter words, so streams for
    # different replicas can never overlap whatever their length
    return np.random.Generator(np.random.Philox(key=seed, counter=replica << 128))


def _assoc_legendre_table(ell: int, t: np.ndarray) -> np.ndarray:
    """Orthonormal theta-profiles lam[m, i] for the real harmonic basis.

    Y_{ell,0} = lam[0], Y^cos_{ell,m} = sqrt(2) lam[m] cos(m phi) and the sin
    partner, together orthonormal in L^2(S^2, dx).  Normalization is carried
    inside the recurrence; raw associated Legendre values would overflow long
    before ell = 256.
    """
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    n = t.size
    # diagonal terms lam_mm, then raise the degree to ell at fixed order
    pmm = np.full(n, math.sqrt(1.0 / (4.0 * math.pi)))
    out = np.empty((ell + 1, n))
    for m in range(ell + 1):
        if m > 0:
            pmm = pmm * s * math.sqrt((2 * m + 1) / (2.0 * m))
        if m == ell:
            out[m] = pmm
            continue
        prev, cur = pmm, math.sqrt(2 * m + 3) * t * pmm
        for deg in range(m + 2, ell + 1):
            a = math.sqrt((4.0 * deg * deg - 1.0) / (deg * deg - m * m))
            a_prev = math.sqrt((4.0 * (deg - 1) ** 2 - 1.0) / ((deg - 1) ** 2 - m * m))
            prev, cur = cur, a * (t * cur - prev / a_prev)
        out[m] = cur
    return out


_GRID_CACHES: "weakref.WeakKeyDictionary[SphereGrid, dict]" = weakref.WeakKeyDictionary()


def _grid_cache(grid: SphereGrid) -> dict:
    return _GRID_CACHES.setdefault(grid, {})


def _synthesis_tables(grid: SphereGrid, ell: int):
    cache = _grid_cache(grid)
    key = ("synthesis", ell)
    if key not in cache:
        lam = _assoc_legendre_table(ell, grid.colat_t)
        m = np.arange(ell + 1)
        phi = 2.0 * math.pi * np.arange(grid.n_phi) / grid.n_phi
        cos_m = np.cos(m[:, None] * phi[None, :])
        sin_m = np.sin(m[:, None] * phi[None, :])
        cache[key] = (lam, cos_m, sin_m)
    return cache[key]


def _draw_coefficients(ell: int, seed: int, replicas) -> np.ndarray:
    """(len(replicas), 2*ell+1) i.i.d. N(0, mu_2/n) coefficient draws."""
    scale = math.sqrt(4.0 * math.pi / (2 * ell + 1))
    out = np.empty((len(replicas), 2 * ell + 1))
    for row, rep in enumerate(replicas):
        out[row] = _replica_rng(seed, rep).standard_normal(2 * ell + 1)
    return scale * out


def _synthesize_batch(grid: SphereGrid, ell: int, coeffs: np.ndarray) -> np.ndarray:
    """Field values (R, N) from coefficient rows [a_0, a^c_1.., a^s_1..]."""
    lam, cos_m, sin_m = _synthesis_tables(grid, ell)
    R = coeffs.shape[0]
    a0 = coeffs[:, :1]
    ac = coeffs[:, 1:ell + 1] * math.sqrt(2.0)
    as_ = coeffs[:, ell + 1:] * math.sqrt(2.0)
    # theta-profiles per replica and order, then beat against the azimuth
    c_part = np.concatenate([a0, ac], axis=1)[:, :, None] * lam[None, :, :]   # (R, m, n_t)
    s_part = as_[:, :, None] * lam[None, 1:, :]
    vals = np.matmul(c_part.transpose(0, 2, 1), cos_m) \
        + np.matmul(s_part.transpose(0, 2, 1), sin_m[1:])                      # (R, n_t, n_phi)
    return vals.reshape(R, grid.n_nodes)


def _dense_factor(grid: SphereGrid, ell: int):
    cache = _grid_cache(grid)
    key = ("dense", ell)
    if key not in cache:
        ctx = GegenbauerCtx(ell, grid.dim)
        gram = np.clip(grid.nodes @ grid.nodes.T, -1.0, 1.0)
        cov = ctx.evaluate(gram.ravel()).reshape(gram.shape)
        eigval, eigvec = np.linalg.eigh(cov)
        residual = max(0.0, -float(eigval[0]))
        if residual > 1e-8:
            raise CovarianceFactorizationError(
                f"covariance not PSD after clipping: most negative eigenvalue {eigval[0]:.3e}"
            )
        cache[key] = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
    return cache[key]


def _sample_batch(grid: SphereGrid, ell: int, seed: int, replicas) -> np.ndarray:
    """Field values (len(replicas), N); the single entry point for sampling."""
    d = grid.dim.d
    if d == 2:
        return _synthesize_batch(grid, ell, _draw_coefficients(ell, seed, replicas))
    if grid.n_nodes > DENSE_NODE_CAP:
        raise NodeBudgetError(
            f"dense covariance path limited to {DENSE_NODE_CAP} nodes, grid has {grid.n_nodes}"
        )
    if ell > DENSE_ELL_CAP:
        raise ValueError(f"dense covariance path limited to ell <= {DENSE_ELL_CAP}")
    factor = _dense_factor(grid, ell)
    out = np.empty((len(replicas), grid.n_nodes))
    for row, rep in enumerate(replicas):
        out[row] = factor @ _replica_rng(seed, rep).standard_normal(grid.n_nodes)
    return out


def sample_field(d: int, ell: int, grid: SphereGrid, seed: int, replica: int = 0) -> FieldRealization:
    """One realization of the degree-ell Gaussian eigenfunction on the grid."""
    if grid.dim.d != d:
        raise ValueError(f"grid dimension {grid.dim.d} does not match d={d}")
    if ell < 1:
        raise ValueError(f"multipole must be >= 1, got {ell}")
    values = _sample_batch(grid, ell, seed, [replica])[0]
    return FieldRealization(grid=grid, values=values, ell=ell, seed=seed, replica=replica)


# ------------------------------------------------------------------
# functionals
# ------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionalSample:
    kind: str
    raw: float
    normalized: float | None
    exact_quadrature: bool


def functional_h(realization: FieldRealization, q: int, normalize: bool = True) -> FunctionalSample:
    """h_{ell;q,d} = integral of H_q(T_ell): quadrature sum of H_q at the nodes."""
    if q < 0:
        raise ValueError(f"Hermite order must be >= 0, got {q}")
    grid = realization.grid
    raw = float(grid.integrate(hermite(q, realization.values)))
    exact = q * realization.ell <= grid.exact_degree
    normalized = None
    if normalize:
        sigma2 = variance_h(realization.ell, q, grid.dim.d)
        if sigma2 == 0.0:
            raise ZeroVarianceError(f"Var[h] = 0 for (ell={realization.ell}, q={q}); cannot normalize")
        normalized = raw / math.sqrt(sigma2)
    return FunctionalSample(kind=f"h{q}", raw=raw, normalized=normalized, exact_quadrature=exact)


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
            coef = math.factorial(q) // (math.factorial(k) * math.factorial(q - 2 * k) * 2 ** k)
            beta[q - 2 * k] += b[q] * coef
    return beta


def functional_Z(realization: FieldRealization, b_coeffs, normalize: bool = True) -> FunctionalSample:
    """Polynomial functional sum_q b_q * integral(T^q) via Hermite re-expansion."""
    beta = monomial_to_hermite(b_coeffs)
    grid = realization.grid
    d = grid.dim.d
    raw = 0.0
    for j, bj in enumerate(beta):
        if bj != 0.0:
            raw += bj * float(grid.integrate(hermite(j, realization.values)))
    mean = beta[0] * grid.dim.mu_d
    exact = (beta.size - 1) * realization.ell <= grid.exact_degree
    normalized = None
    if normalize:
        var = sum(bj * bj * variance_h(realization.ell, j, d)
                  for j, bj in enumerate(beta) if j >= 2 and bj != 0.0)
        if var == 0.0:
            raise ZeroVarianceError("polynomial functional has zero variance")
        normalized = (raw - mean) / math.sqrt(var)
    return FunctionalSample(kind="Z", raw=raw, normalized=normalized, exact_quadrature=exact)


def functional_excursion(realization: FieldRealization, z: float,
                         predicted_variance: float | None = None) -> FunctionalSample:
    """Empirical measure of {T <= z}, centered at mu_d Phi(z).

    The indicator is not a polynomial, so no grid is exact for it; the sweep
    machinery estimates the discretization error by grid refinement instead.
    """
    grid = realization.grid
    raw = float(np.sum(grid.weights[realization.values <= z]))
    centered = raw - grid.dim.mu_d * float(ndtr(z))
    normalized = None
    if predicted_variance is not None:
        if predicted_variance <= 0.0:
            raise ZeroVarianceError("excursion variance prediction must be positive")
        normalized = centered / math.sqrt(predicted_variance)
    return FunctionalSample(kind=f"S(z={z:g})", raw=raw, normalized=normalized,
                            exact_quadrature=False)


# ------------------------------------------------------------------
# Hermite projections of square-integrable transforms
# ------------------------------------------------------------------

def hermite_projection(M, q: int, n_nodes: int = 201) -> float:
    """J_q(M) = E[M(Z) H_q(Z)] for standard normal Z.

    `M` is either ("indicator", z) for the transform 1{. <= z} (integrated by
    splitting at the jump) or a callable, handled by Gauss-Hermite quadrature
    with `n_nodes` points.
    """
    if q < 0:
        raise ValueError(f"Hermite order must be >= 0, got {q}")
    if isinstance(M, tuple) and len(M) == 2 and M[0] == "indicator":
        z = float(M[1])
        if q == 0:
            return float(ndtr(z))
        lo = min(z, 0.0) - 42.0  # phi is zero to double precision below
        n_panels = max(32, 4 * (q + 1), int(8 * (z - lo)))
        x, w = panel_nodes(lo, z, n_panels, 16)
        dens = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        return float(np.sum(w * dens * hermite(q, x)))
    if callable(M):
        if not 1 <= n_nodes <= 500:
            raise ValueError("n_nodes must be in [1, 500] (hermegauss loses stability beyond)")
        x, w = np.polynomial.hermite_e.hermegauss(n_nodes)
        vals = np.asarray([float(M(xi)) for xi in x])
        result = float(np.sum(w * vals * hermite(q, x)) / math.sqrt(2.0 * math.pi))
        if not math.isfinite(result):
            raise ValueError("Hermite projection diverged; is M square integrable?")
        return result
    raise TypeError("M must be ('indicator', z) or a callable")


def excursion_variance(ell: int, d: int, z: float, q_max: int = 8) -> float:
    """Chaos-expansion variance of the excursion measure, truncated at q_max:
    sum_{q=2}^{q_max} (J_q(M_z)/q!)^2 Var[h_{ell;q,d}]."""
    if q_max < 2:
        raise ValueError(f"need q_max >= 2, got {q_max}")
    total = 0.0
    for q in range(2, q_max + 1):
        jq = hermite_projection(("indicator", z), q)
        total += (jq / math.factorial(q)) ** 2 * variance_h(ell, q, d)
    return total


# ------------------------------------------------------------------
# harmonic analysis on the grid (d = 2 diagnostics)
# ------------------------------------------------------------------

def recover_harmonic_coeffs(realization: FieldRealization) -> np.ndarray:
    """Coefficients <T, Y_m> recovered by grid quadrature (d = 2 only).

    Returns the 2*ell+1 vector ordered like the synthesis draws; exact (up to
    rounding) when the grid degree covers 2*ell.
    """
    grid = realization.grid
    if grid.dim.d != 2:
        raise ValueError("coefficient recovery implemented for d = 2 only")
    ell = realization.ell
    lam, cos_m, sin_m = _synthesis_tables(grid, ell)
    vals = realization.values.reshape(grid.colat_t.size, grid.n_phi)
    w_phi = 2.0 * math.pi / grid.n_phi
    # azimuth projection per colatitude ring, then the theta quadrature
    ring_c = vals @ cos_m.T * w_phi   # (n_t, ell+1)
    ring_s = vals @ sin_m[1:].T * w_phi
    wlam = grid.colat_w[None, :] * lam
    out = np.empty(2 * ell + 1)
    out[0] = float(np.einsum("i,i->", wlam[0], ring_c[:, 0]))
    out[1:ell + 1] = np.einsum("mi,im->m", wlam[1:], ring_c[:, 1:]) * math.sqrt(2.0)
    out[ell + 1:] = np.einsum("mi,im->m", wlam[1:], ring_s) * math.sqrt(2.0)
    return out
