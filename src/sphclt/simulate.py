"""Monte Carlo synthesis of Gaussian random eigenfunctions on S^d, and the
Hermite projections and excursion variance that the functionals of `clt`
are normalized by.

Grids are product quadrature rules built up from the circle: S^1 carries a
uniform azimuth, and each S^k (k = 2..d) stacks a Gauss-Jacobi colatitude
rule for the weight (1-t^2)^{k/2-1} over the grid on S^{k-1}.  A grid of
exact degree D integrates every polynomial of degree <= D on the sphere
exactly, so Hermite functionals of a degree-ell field are quadrature-exact
whenever q*ell <= D.

Fields are unit variance with covariance G_{ell;d}(cos distance).  One
recursion synthesizes them for every d, because hyperspherical harmonics
separate in the colatitude (Dai & Xu 2013, section 1.5):
    T_ell(theta, xi) = sum_{m=0..ell} lam_{ell,m}(theta) U_m(xi),
    lam_{ell,m} = sqrt(mu_d n_{m;d-1} / (n_{ell;d} mu_{d-1}))
                  * sin^m(theta) p_{ell-m}(cos theta),
where the U_m are independent unit-variance degree-m fields on S^{d-1} and
p_k is orthonormal for the weight (1-t^2)^{m+d/2-1}.  Every level, S^2
included, is the same step: apply the profile table lam to the stack of U_m
on the sub-grid.  The circle is the base case, where U_m = a cos(m phi) +
b sin(m phi) comes from cached azimuth tables.  The recursion runs one level
at a time with every field of the level at once, one stacked matmul per
level, so a single replica costs O(d) array operations, not one per U_m.

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
from scipy.special import ndtr

from .moments import variance_h
# panel_nodes has no caller here; perfbench/spans.py wraps this binding
from .quadrature import gauss_jacobi_rule, panel_nodes
from .specfun import GegenbauerCtx, SphereDim, dim_harmonics, hermite, orthonormal_jacobi

NODE_BUDGET = 2_000_000


class NodeBudgetError(ValueError):
    """Requested grid exceeds the node budget."""


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Quadrature grid on S^d: unit-vector nodes, positive weights summing to
    mu_d, and the largest polynomial degree integrated exactly.

    Node (sin theta * xi, cos theta) pairs each colatitude node t = cos theta
    (outer index) with each node xi of `sub`, the grid on S^{d-1} (inner
    index).  At d = 2 `sub` is None: the sub-sphere is the circle of `n_phi`
    uniform azimuths.  Grids compare by identity; synthesis tables are cached
    per grid object."""

    dim: SphereDim
    nodes: np.ndarray = field(repr=False, compare=False)    # (N, d+1)
    weights: np.ndarray = field(repr=False, compare=False)  # (N,)
    exact_degree: int
    colat_t: np.ndarray = field(repr=False, compare=False)
    colat_w: np.ndarray = field(repr=False, compare=False)
    sub: SphereGrid | None = field(repr=False, compare=False)
    n_phi: int

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


def _azimuth(n_phi: int) -> np.ndarray:
    return 2.0 * math.pi * np.arange(n_phi) / n_phi


def build_grid(d: int, target_degree: int, node_budget: int = NODE_BUDGET) -> SphereGrid:
    """Product quadrature grid on S^d exact at least to `target_degree`."""
    if target_degree < 1:
        raise ValueError(f"target degree must be >= 1, got {target_degree}")
    if d < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {d}")
    n_phi = target_degree + 1
    n_t = target_degree // 2 + 1
    phi = _azimuth(n_phi)
    # the circle S^1, then one colatitude rule per level
    nodes = np.column_stack((np.cos(phi), np.sin(phi)))
    weights = np.full(n_phi, 2.0 * math.pi / n_phi)
    exact = n_phi - 1
    grid = None
    for k in range(2, d + 1):
        n_sub = weights.size
        if n_t * n_sub > node_budget:
            raise NodeBudgetError(f"grid would need {n_t * n_sub} nodes (budget {node_budget})")
        t, w_t = gauss_jacobi_rule(n_t, k)
        dim = SphereDim(k)
        exact = min(2 * n_t - 1, exact)
        _orthogonality_check(dim, t, w_t, float(np.sum(weights)), exact)
        s = np.sqrt(1.0 - t * t)
        nodes = np.column_stack((np.repeat(s, n_sub)[:, None] * np.tile(nodes, (n_t, 1)),
                                 np.repeat(t, n_sub)))
        weights = np.repeat(w_t, n_sub) * np.tile(weights, n_t)
        grid = SphereGrid(dim, nodes, weights, exact, t, w_t, grid, n_phi)
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


def _n_harmonics(m: int, k: int) -> int:
    """Dimension of the degree-m harmonics on S^k, for m >= 0 and k >= 1."""
    if m == 0:
        return 1
    return 2 if k == 1 else dim_harmonics(m, k)


def _profile_table(ell: int, dim: SphereDim, t: np.ndarray) -> np.ndarray:
    """lam[m, i] = lam_{ell,m}(theta_i), m = 0..ell, at the nodes t = cos theta."""
    d = dim.d
    m = np.arange(ell + 1)
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    # row m runs the recurrence for alpha = m + d/2 - 1 from sin^m * p_0, so
    # it never leaves the double range; it is read off at degree ell - m
    lam = np.empty((ell + 1, t.size))
    rows = orthonormal_jacobi(ell, m[:, None] + (d / 2.0 - 1.0), t, scale=s ** m[:, None])
    for k, p in enumerate(rows):
        lam[ell - k] = p[ell - k]
    n_sub = np.array([_n_harmonics(j, d - 1) for j in m], dtype=float)
    norm = np.sqrt(dim.mu_d * n_sub / (_n_harmonics(ell, d) * dim.mu_dm1))
    return norm[:, None] * lam


_TABLES: "weakref.WeakKeyDictionary[SphereGrid, dict]" = weakref.WeakKeyDictionary()


def _synthesis_tables(grid: SphereGrid, ell: int):
    """(lam, cos_m, sin_m): the profile table (ell+1, n_t) and, at d = 2, the
    azimuth tables cos(m phi), sin(m phi) (ell+1, n_phi), else None."""
    tables = _TABLES.setdefault(grid, {})
    if ell not in tables:
        lam = _profile_table(ell, grid.dim, grid.colat_t)
        if grid.sub is None:
            m_phi = np.arange(ell + 1)[:, None] * _azimuth(grid.n_phi)[None, :]
            tables[ell] = (lam, np.cos(m_phi), np.sin(m_phi))
        else:
            tables[ell] = (lam, None, None)
    return tables[ell]


_PLANS: "weakref.WeakKeyDictionary[SphereGrid, dict]" = weakref.WeakKeyDictionary()
# larger batches are synthesized in slices, so that the circle level of one
# slice holds at most this many values
LEAF_BUDGET = 1 << 22


def _leaf_draws(ell: int, d: int):
    """Draw indices (cos, sin), each of shape (ell+1,)*(d-1), of the circle
    harmonics under a degree-ell field on S^d.

    Leaf (m_{d-1}, ..., m_1), with ell >= m_{d-1} >= ... >= m_1, is the term
    a^c cos(m_1 phi) + a^s sin(m_1 phi) of U_{m_2} on S^2, itself a term of
    U_{m_3} on S^3 and so on.  The draw layout: a field of degree e on S^2
    takes [a_0, a^c_1..a^c_e, a^s_1..a^s_e]; on S^k, k >= 3, it takes e+1
    blocks, block m holding the draws of U_m on S^{k-1}.  Padding leaves and
    a^s_0 get n_{ell;d}, the index of a zero column appended to the draws.
    """
    idx = np.full((2,) + (ell + 1,) * (d - 1), dim_harmonics(ell, d))

    def fill(leaf, e, k, start):
        if k == 2:
            j = np.arange(e + 1)
            idx[(0,) + leaf + (slice(0, e + 1),)] = start + j
            idx[(1,) + leaf + (slice(1, e + 1),)] = start + e + j[1:]
            return
        for m in range(e + 1):
            fill(leaf + (m,), m, k - 1, start)
            start += _n_harmonics(m, k - 1)

    fill((), ell, d, 0)
    return idx[0], idx[1]


def _synthesis_plan(grid: SphereGrid, ell: int):
    """(cos_idx, sin_idx, cos_m, sin_m, lams) for degree-ell fields on `grid`:
    the leaf draw indices, the azimuth tables (ell+1, n_phi), and one profile
    stack per level from S^2 up.  Below the top, stack[e] = lam_{e}.T
    (n_t, ell+1), zero-padded beyond column e, serves the U of degree e; the
    top stack is lam_{ell}.T alone."""
    plans = _PLANS.setdefault(grid, {})
    if ell not in plans:
        chain = [grid]
        while chain[-1].sub is not None:
            chain.append(chain[-1].sub)
        lams = []
        for level in reversed(chain[1:]):
            stack = np.zeros((ell + 1, level.colat_t.size, ell + 1))
            for e in range(ell + 1):
                stack[e, :, :e + 1] = _synthesis_tables(level, e)[0].T
            lams.append(stack)
        lams.append(_synthesis_tables(grid, ell)[0].T[None])
        _, cos_m, sin_m = _synthesis_tables(chain[-1], ell)
        plans[ell] = (*_leaf_draws(ell, grid.dim.d), cos_m, sin_m, lams)
    return plans[ell]


def _synthesize_batch(grid: SphereGrid, ell: int, coeffs: np.ndarray) -> np.ndarray:
    """Field values (R, N) from rows of n_{ell;d} standard normal draws.

    The recursion T = sum_m lam_m U_m runs one level at a time, every field
    of a level at once: the circle harmonics of all leaves (see
    `_leaf_draws`) in one broadcast, then one stacked matmul per level, each
    U_m of degree e taking stack[e] of that level's profiles.  Zero padding
    keeps every level a dense array, (ell+1)^(d-1) * n_phi values per replica
    at the circle, which is at most N for grids exact to degree 2*ell.
    """
    cos_idx, sin_idx, cos_m, sin_m, lams = _synthesis_plan(grid, ell)
    R = coeffs.shape[0]
    step = max(1, LEAF_BUDGET // (cos_idx.size * cos_m.shape[1]))
    if R > step:
        return np.concatenate([_synthesize_batch(grid, ell, coeffs[lo:lo + step])
                               for lo in range(0, R, step)])
    draws = np.concatenate((coeffs, np.zeros((R, 1))), axis=1)
    fields = draws[:, cos_idx, None] * cos_m + draws[:, sin_idx, None] * sin_m
    for lam in lams:
        fields = np.matmul(lam, fields)
        *batch, n_t, n_sub = fields.shape
        fields = fields.reshape(*batch, n_t * n_sub)
    return fields.reshape(R, grid.n_nodes)


def _sample_batch(grid: SphereGrid, ell: int, seed: int, replicas) -> np.ndarray:
    """Field values (len(replicas), N); the single entry point for sampling.

    The sampling driver `clt._samples` passes one replica per call, so a
    field is reduced before the next is drawn."""
    n = dim_harmonics(ell, grid.dim.d)
    draws = np.empty((len(replicas), n))
    for row, rep in enumerate(replicas):
        draws[row] = _replica_rng(seed, rep).standard_normal(n)
    return _synthesize_batch(grid, ell, draws)


def sample_field(d: int, ell: int, grid: SphereGrid, seed: int, replica: int = 0) -> FieldRealization:
    """One realization of the degree-ell Gaussian eigenfunction on the grid."""
    if grid.dim.d != d:
        raise ValueError(f"grid dimension {grid.dim.d} does not match d={d}")
    if ell < 1:
        raise ValueError(f"multipole must be >= 1, got {ell}")
    values = _sample_batch(grid, ell, seed, [replica])[0]
    return FieldRealization(grid=grid, values=values, ell=ell, seed=seed, replica=replica)


# ------------------------------------------------------------------
# Hermite projections of square-integrable transforms
# ------------------------------------------------------------------

def hermite_projection(M, q: int, n_nodes: int = 201) -> float:
    """J_q(M) = E[M(Z) H_q(Z)] for standard normal Z.

    `M` is either ("indicator", z) for the transform 1{. <= z}, where
    J_0 = Phi(z) and, since (phi H_{q-1})' = -phi H_q, J_q = -phi(z) H_{q-1}(z)
    for q >= 1; or a callable, handled by Gauss-Hermite quadrature with
    `n_nodes` points.
    """
    if q < 0:
        raise ValueError(f"Hermite order must be >= 0, got {q}")
    if isinstance(M, tuple) and len(M) == 2 and M[0] == "indicator":
        z = float(M[1])
        if q == 0:
            return float(ndtr(z))
        # phi underflows to 0 beyond 42, where the clip keeps H_{q-1} finite
        x = min(max(z, -42.0), 42.0)
        return -math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * hermite(q - 1, x)
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
    rounding) when the grid degree covers 2*ell.  The synthesis basis functions
    lam_m cos(m phi), lam_m sin(m phi) are sqrt(mu_2 / n_{ell;2}) times
    orthonormal harmonics, so <T, basis> is divided by that factor.
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
    out = np.concatenate((np.einsum("mi,im->m", wlam, ring_c),
                          np.einsum("mi,im->m", wlam[1:], ring_s)))
    return out / math.sqrt(grid.dim.mu_d / (2 * ell + 1))
