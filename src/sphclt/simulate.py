"""Monte Carlo synthesis of Gaussian random eigenfunctions on S^d, and the
exact variance of the excursion area that kind S of `clt` is normalized by.

Grids are product quadrature rules built up from the circle: S^1 carries a
uniform azimuth, and each S^k (k = 2..d) stacks a Gauss-Jacobi colatitude
rule for the weight (1-t^2)^{k/2-1} over the grid on S^{k-1}.  A grid of
exact degree D integrates every polynomial of degree <= D on the sphere
exactly, so Hermite functionals of a degree-ell field are quadrature-exact
whenever q*ell <= D.

Integrands even under x -> -x integrate on half of that grid (`fold_grid`).
The south ring at -t, a copy of the sub-grid scaled by sin theta, holds the
same polynomial in the sub-sphere's coordinates as the north ring at t,
reflected by xi -> -xi; the sub-grid integrates both exactly, and exactly
alike, up to its exact degree.  So the colatitude nodes t > 0 with doubled
weights, and t = 0 with its own, integrate every even polynomial of degree
<= D exactly, and the sampler never synthesizes the south half.  As T(-x) =
(-1)^ell T(x), p(T) is even at even ell, and at odd ell if p has no odd chaos:
`clt.Functional.grid` folds exactly then, as for every h and Z row.  The
indicator of kind S is not a polynomial: it keeps the full grid.

Fields are unit variance with covariance G_{ell;d}(cos distance).  One
recursion synthesizes them for every d, because hyperspherical harmonics
separate in the colatitude (Dai & Xu 2013, section 1.5):
    T_ell(theta, xi) = sum_{m=0..ell} lam_{ell,m}(theta) U_m(xi),
    lam_{ell,m} = sqrt(mu_d n_{m;d-1} / (n_{ell;d} mu_{d-1}))
                  * sin^m(theta) p_{ell-m}(cos theta),
where the U_m are independent unit-variance degree-m fields on S^{d-1} and
p_k is orthonormal for the weight (1-t^2)^{m+d/2-1}.  Every level, S^2
included, is the same step: apply the profiles lam to the stack of U_m on
the sub-grid.  The circle is the base case, U_m = a cos(m phi) + b sin(m phi):
the row (a, b) times the table [cos m phi; sin m phi].  The recursion runs one
level at a time with every field of the level at once, one stacked matmul per
level, so a single replica costs O(d) array operations, not one per U_m.

One plan per (grid, ell, dtype) holds all the recursion reads; each level's
profile stack comes from one Jacobi pass, which gives lam_{e,m} for every
degree e at once.  The tables are built in float64 and a float32 plan is cast
from them, its entries below FLUSH_BELOW in magnitude flushed to 0 first: the
sin^m theta factors near the poles would be subnormal in float32, and a
subnormal operand slows every kernel that reads it.  A float32 synthesis
keeps the float64 draws below and casts them into its buffers, so a seed maps
to the same fields in either precision, up to float32 rounding.

Replicas draw from counter-based streams, one per chunk of CHUNK = 64
replicas (`parallel.fixed_chunks`): replica r's n_{ell;d} normals are row
r mod 64 of the stream of Philox(key=seed, counter=(r // 64) << 128), rows
drawn in order.  The chunk occupies the high counter words, so no two
streams overlap, and a replica's draws depend on (seed, r) alone, whatever
the batching or worker count.  A worker keeps one Philox with its buffers
and `_reseed`s it to a chunk's stream, which gives the stream of a new
Philox bit for bit without building one (and drawing a SeedSequence from OS
entropy, as a BitGenerator built without a seed does) per chunk; consecutive
replicas of a chunk then take one `standard_normal` call.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

# variance_h and hermite have no caller here; perfbench/spans.py wraps these bindings
from .moments import variance_h
from .parallel import CHUNK
from .quadrature import gauss_jacobi_rule, panel_nodes
from .specfun import (GegenbauerCtx, NodeBudgetError, SphereDim, ToleranceNotMetError, UsageError, dim_harmonics,
                      hermite, orthonormal_jacobi)

NODE_BUDGET = 2_000_000
# float32 synthesis tables hold no entry below this in magnitude: it is flushed to 0
FLUSH_BELOW = 1e-30


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Quadrature grid on S^d: positive weights summing to mu_d, and the
    largest polynomial degree integrated exactly.

    Node (sin theta * xi, cos theta) pairs each colatitude node t = cos theta
    (outer index) with each node xi of `sub`, the grid on S^{d-1} (inner
    index); the weights and the synthesized fields follow that order.  At
    d = 2 `sub` is None: the sub-sphere is the circle of `n_phi` uniform
    azimuths.  A `folded` grid keeps the colatitude nodes t >= 0 alone and
    is exact to `exact_degree` for integrands even under x -> -x only (see
    `fold_grid`).  Grids compare by identity; synthesis plans are cached per
    grid object."""

    dim: SphereDim
    weights: np.ndarray = field(repr=False, compare=False)  # (N,)
    exact_degree: int
    colat_t: np.ndarray = field(repr=False, compare=False)
    colat_w: np.ndarray = field(repr=False, compare=False)
    sub: SphereGrid | None = field(repr=False, compare=False)
    n_phi: int
    folded: bool = False

    @property
    def n_nodes(self) -> int:
        return self.weights.size

    def summary(self) -> dict:
        """The rule as a manifest records it."""
        return {"d": self.dim.d, "n_nodes": self.n_nodes, "exact_degree": self.exact_degree,
                "folded": self.folded, "weight_sum": float(self.weights.sum())}


def _orthogonality_check(dim, colat_t, colat_w, sub_weight, exact_degree):
    # integral of G_k(x . pole) must vanish for 1 <= k <= exact_degree
    ctx = GegenbauerCtx(exact_degree, dim)
    table = ctx.evaluate_all(colat_t)
    sums = sub_weight * (table[1:] @ colat_w)
    worst = float(np.max(np.abs(sums))) if sums.size else 0.0
    if worst > 1e-11 * dim.mu_d:
        raise ToleranceNotMetError(f"grid orthogonality check failed: max |int G_k| = {worst:.3e}")


def _azimuth(n_phi: int) -> np.ndarray:
    return 2.0 * math.pi * np.arange(n_phi) / n_phi


def build_grid(d: int, target_degree: int) -> SphereGrid:
    """Product quadrature grid on S^d exact at least to `target_degree`, of at
    most NODE_BUDGET nodes."""
    if target_degree < 1:
        raise UsageError(f"target degree must be >= 1, got {target_degree}")
    SphereDim(d)  # validates d
    n_phi = target_degree + 1
    n_t = target_degree // 2 + 1
    if n_phi * n_t ** (d - 1) > NODE_BUDGET:  # before any array is made
        raise NodeBudgetError(f"grid of {n_phi} x {n_t}^{d - 1} nodes exceeds the budget of {NODE_BUDGET}")
    # the circle S^1, then one colatitude rule per level
    weights = np.full(n_phi, 2.0 * math.pi / n_phi)
    exact = n_phi - 1
    grid = None
    for k in range(2, d + 1):
        n_sub = weights.size
        t, w_t = gauss_jacobi_rule(n_t, k)
        dim = SphereDim(k)
        exact = min(2 * n_t - 1, exact)
        _orthogonality_check(dim, t, w_t, float(np.sum(weights)), exact)
        weights = np.repeat(w_t, n_sub) * np.tile(weights, n_t)
        grid = SphereGrid(dim, weights, exact, t, w_t, grid, n_phi)
    return grid


def fold_grid(grid: SphereGrid) -> SphereGrid:
    """`grid` on its colatitude nodes t >= 0: the others' weights go to
    their mirror images, which `gauss_jacobi_rule` makes exact, so each
    t > 0 weighs double and t = 0, at an odd node count, once.  Exact to
    `grid.exact_degree` for integrands even under x -> -x (see the module
    docstring), and for no other."""
    north = grid.colat_t >= 0.0
    t = grid.colat_t[north]
    w_t = np.where(t > 0.0, 2.0, 1.0) * grid.colat_w[north]
    sub_w = grid.sub.weights if grid.sub is not None else np.full(grid.n_phi, 2.0 * math.pi / grid.n_phi)
    weights = np.repeat(w_t, sub_w.size) * np.tile(sub_w, t.size)
    return replace(grid, weights=weights, colat_t=t, colat_w=w_t, folded=True)


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


_WORD = (1 << 64) - 1


def _reseed(bit_generator: np.random.Philox, seed: int, chunk: int) -> None:
    """Put `bit_generator` in the state of a new Philox(key=seed,
    counter=chunk << 128): the 128-bit key and 256-bit counter as 64-bit
    words, least significant first, and an empty output buffer.  The chunk
    of CHUNK replicas occupies the high counter words, so streams for
    different chunks can never overlap whatever their length."""
    if not 0 <= seed < 1 << 128:
        raise UsageError(f"seed must satisfy 0 <= seed < 2**128, got {seed}")
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, chunk & _WORD, chunk >> 64], "key": [seed & _WORD, seed >> 64]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def _runs(replicas) -> list[list[int]]:
    """[chunk, first row, rows] of each run of consecutive replicas inside
    one chunk of CHUNK, in the order of `replicas`."""
    runs = []
    for rep in replicas:
        chunk, row = divmod(rep, CHUNK)
        if runs and runs[-1][0] == chunk and runs[-1][1] + runs[-1][2] == row:
            runs[-1][2] += 1
        else:
            runs.append([chunk, row, 1])
    return runs


def _n_harmonics(m: int, k: int) -> int:
    """Dimension of the degree-m harmonics on S^k, for m >= 0 and k >= 1."""
    if m == 0:
        return 1
    return 2 if k == 1 else dim_harmonics(m, k)


def _profile_stack(ell: int, dim: SphereDim, t: np.ndarray, lo: int) -> np.ndarray:
    """stack[e - lo, i, m] = lam_{e,m}(theta_i) for e = lo..ell and m <= e, zero
    for m > e, at the nodes t = cos theta; shape (ell+1-lo, t.size, ell+1)."""
    d = dim.d
    m = np.arange(ell + 1)
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    # row m runs the recurrence for alpha = m + d/2 - 1 from sin^m * p_0, so
    # it never leaves the double range; its degree k is lam_{m+k,m}, read only
    # up to e = ell, so step k runs rows m <= ell - k alone
    lam = np.zeros((ell + 1 - lo, ell + 1, t.size))
    rows = orthonormal_jacobi(ell, m[:, None] + (d / 2.0 - 1.0), t, s ** m[:, None], triangular=True)
    for k, p in enumerate(rows):
        rm = m[max(0, lo - k):ell + 1 - k]
        lam[rm + k - lo, rm] = p[rm]
    n_sub = np.array([_n_harmonics(j, d - 1) for j in m], dtype=float)
    n_e = np.array([_n_harmonics(e, d) for e in range(lo, ell + 1)], dtype=float)
    lam *= np.sqrt(dim.mu_d * n_sub / (n_e[:, None] * dim.mu_dm1))[:, :, None]
    # rows lam_{e,m} stay contiguous: the layout picks the BLAS kernel and so
    # the rounding of every field; matmul takes the transposed view
    return lam.transpose(0, 2, 1)


_PLANS: "weakref.WeakKeyDictionary[SphereGrid, dict]" = weakref.WeakKeyDictionary()


def _levels(grid: SphereGrid) -> list[SphereGrid]:
    """The grids of S^2, ..., S^d that `grid` stacks, S^2 first."""
    chain = [grid]
    while chain[-1].sub is not None:
        chain.append(chain[-1].sub)
    return chain[::-1]


def _replica_values(grid: SphereGrid, ell: int) -> int:
    """Values one replica holds in the largest array of its synthesis.

    The circle level holds (ell+1)^(d-1) * n_phi; each level's matmul
    trades one factor ell+1 for that level's colatitude node count, the top
    one ending at N.  For small grid degrees the circle far outgrows N, so
    NODE_BUDGET bounds this count too: NodeBudgetError, before any table or
    buffer is allocated."""
    size = largest = (ell + 1) ** (grid.dim.d - 1) * grid.n_phi
    for level in _levels(grid):
        size = size // (ell + 1) * level.colat_t.size
        largest = max(largest, size)
    if largest > NODE_BUDGET:
        raise NodeBudgetError(f"synthesizing a degree-{ell} field on S^{grid.dim.d} takes {largest} values "
                              f"per replica, over the budget of {NODE_BUDGET}")
    return largest


def _leaf_draws(ell: int, d: int) -> np.ndarray:
    """Draw indices of the circle harmonics under a degree-ell field on S^d,
    shape (ell+1,)*(d-1) + (2,): the pair (cos, sin) of each leaf.

    Leaf (m_{d-1}, ..., m_1), with ell >= m_{d-1} >= ... >= m_1, is the term
    a^c cos(m_1 phi) + a^s sin(m_1 phi) of U_{m_2} on S^2, itself a term of
    U_{m_3} on S^3 and so on.  The draw layout: a field of degree e on S^2
    takes [a_0, a^c_1..a^c_e, a^s_1..a^s_e]; on S^k, k >= 3, it takes e+1
    blocks, block m holding the draws of U_m on S^{k-1}.  Padding leaves and
    a^s_0 get n_{ell;d}, the index of a zero column appended to the draws.
    """
    idx = np.full((ell + 1,) * (d - 1) + (2,), dim_harmonics(ell, d))

    def fill(leaf, e, k, start):
        if k == 2:
            idx[leaf + (slice(0, e + 1), 0)] = start + np.arange(e + 1)
            idx[leaf + (slice(1, e + 1), 1)] = start + e + np.arange(1, e + 1)
            return
        for m in range(e + 1):
            fill(leaf + (m,), m, k - 1, start)
            start += _n_harmonics(m, k - 1)

    fill((), ell, d, 0)
    return idx


def _table(values: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """`values` in `dtype` and in their memory layout, which picks the BLAS
    kernel; cast to another dtype, entries below FLUSH_BELOW are 0."""
    if values.dtype == dtype:
        return values
    out = np.empty_like(values, dtype=dtype)
    np.copyto(out, np.where(np.abs(values) < FLUSH_BELOW, 0.0, values))
    return out


def _synthesis_plan(grid: SphereGrid, ell: int, dtype=np.float64):
    """(pairs, trig, lams) for degree-ell fields on `grid`: the leaf draw
    indices of `_leaf_draws`, the azimuth table trig[m] = [cos m phi; sin m phi]
    of shape (ell+1, 2, n_phi), and one profile stack per level from S^2 up,
    the tables in `dtype`.  Below the top, stack[e] (n_t, ell+1), zero-padded
    beyond column e, serves the U of degree e; the top stack holds lam_{ell}
    alone."""
    dtype = np.dtype(dtype)
    plans = _PLANS.setdefault(grid, {})
    if dtype not in plans.get(ell, {}):
        _replica_values(grid, ell)  # raises before any table is built
        lams = [_table(_profile_stack(ell, level.dim, level.colat_t, ell if level is grid else 0), dtype)
                for level in _levels(grid)]
        m_phi = np.arange(ell + 1)[:, None] * _azimuth(grid.n_phi)[None, :]
        trig = _table(np.stack((np.cos(m_phi), np.sin(m_phi)), axis=1), dtype)
        plans.setdefault(ell, {})[dtype] = (_leaf_draws(ell, grid.dim.d), trig, lams)
    return plans[ell][dtype]


def _synthesis_buffers(grid: SphereGrid, ell: int, rows: int, dtype=np.float64) -> tuple:
    """Working set of `_sample_batch` for up to `rows` replicas, in `dtype`:
    a generator on one Philox that `_reseed` moves to each chunk's stream,
    where it stands as [seed, chunk, next row] (empty before its first draw),
    the draws with their zero column, the leaves' draw pairs, the circle
    level and one matmul result per level, the last of which holds the fields."""
    pairs, _, lams = _synthesis_plan(grid, ell, dtype)
    draws = np.zeros((rows, dim_harmonics(ell, grid.dim.d) + 1), dtype)
    shape = (rows, *pairs.shape[:-1], grid.n_phi)
    # seeded, so that building it reads no OS entropy; `_reseed` sets its state before the first draw
    buffers = [np.random.Generator(np.random.Philox(0)), [], draws, np.empty((rows, *pairs.shape), dtype),
               np.empty(shape, dtype)]
    for lam in lams:
        *batch, _, n_sub = shape
        buffers.append(np.empty((*batch, lam.shape[-2], n_sub), dtype))
        shape = (*batch, lam.shape[-2] * n_sub)
    return tuple(buffers)


def _synthesize_batch(grid: SphereGrid, ell: int, coeffs: np.ndarray, work=None) -> np.ndarray:
    """Field values (R, N) from rows of n_{ell;d} standard normal draws.

    The recursion T = sum_m lam_m U_m runs one level at a time, every field
    of a level at once, by one stacked matmul: at the circle each leaf's draw
    pair (see `_leaf_draws`) times its harmonic's table, above it each U_m of
    degree e times stack[e] of the level's profiles.  Zero padding keeps every
    level dense, (ell+1)^(d-1) * n_phi values per replica at the circle, which
    `_replica_values` holds to the node budget.

    Every array is written into `work`, buffers of `_synthesis_buffers` for
    at least R rows (`coeffs` may be its own draw rows), or into new ones of
    the dtype of `coeffs`; the synthesis runs in the dtype of the buffers, and
    the result is a view of the last.  Each matmul makes one BLAS call per
    leaf or replica, so a replica's values do not depend on its batch.
    """
    R, n = coeffs.shape
    _, _, draws, gathered, circle, *levels = _synthesis_buffers(grid, ell, R, coeffs.dtype) if work is None else work
    pairs, trig, lams = _synthesis_plan(grid, ell, draws.dtype)
    draws[:R, :n] = coeffs
    gathered = np.take(draws[:R], pairs, axis=1, out=gathered[:R], mode="clip")[..., None, :]  # clip: out unbuffered
    fields = np.matmul(gathered, trig, out=circle[:R, ..., None, :])[..., 0, :]
    for lam, out in zip(lams, levels):
        fields = np.matmul(lam, fields, out=out[:R])
        *batch, n_t, n_sub = fields.shape
        fields = fields.reshape(*batch, n_t * n_sub)
    return fields.reshape(R, grid.n_nodes)


def _sample_batch(grid: SphereGrid, ell: int, seed: int, replicas, work=None, dtype=np.float64) -> np.ndarray:
    """Field values (len(replicas), N) in `dtype`, or in that of `work` when
    given; the single entry point for sampling.

    `clt._samples` passes one block of replicas per call and the same
    `work` set (see `_synthesis_buffers`) for every block of a worker, so a
    block is reduced before the next is drawn.  The replicas are cut into
    runs of consecutive replicas inside one chunk (`_runs`).  A run that
    continues the stream where the work set's generator stands takes one
    `standard_normal` call; any other is `_reseed` to its chunk, and the
    rows of the chunk before it are drawn and discarded first.  `_samples`
    asks for a chunk's blocks in order, so it reseeds once per chunk and
    discards nothing.  The float64 draws are cast into the work set's rows,
    so a replica draws the same normals in every dtype."""
    if work is None:  # the plan, and so the budget check, comes before any buffer
        work = _synthesis_buffers(grid, ell, len(replicas), dtype)
    gen, at, draws = work[:3]
    n = draws.shape[1] - 1
    out = 0
    for chunk, row, rows in _runs(replicas):
        if at != [seed, chunk, row]:
            _reseed(gen.bit_generator, seed, chunk)
            skipped = np.empty(n)  # one row at a time: a discard never outgrows a replica
            for _ in range(row):
                gen.standard_normal(out=skipped)
        draws[out:out + rows, :-1] = gen.standard_normal((rows, n))  # all but the zero column
        at[:] = seed, chunk, row + rows
        out += rows
    return _synthesize_batch(grid, ell, draws[:out, :-1], work)


def sample_field(d: int, ell: int, grid: SphereGrid, seed: int, replica: int = 0) -> FieldRealization:
    """One realization of the degree-ell Gaussian eigenfunction on the grid."""
    if grid.dim.d != d:
        raise UsageError(f"grid dimension {grid.dim.d} does not match d={d}")
    if ell < 1:
        raise UsageError(f"multipole must be >= 1, got {ell}")
    values = _sample_batch(grid, ell, seed, [replica])[0]
    return FieldRealization(grid=grid, values=values, ell=ell, seed=seed, replica=replica)


# ------------------------------------------------------------------
# the excursion variance
# ------------------------------------------------------------------

def excursion_variance(ell: int, d: int, z: float) -> float:
    """Variance of the measure of {T <= z}: the sum of its whole chaos series.

    By Plackett's identity d Phi_2 / d rho = phi_2 (Biometrika 41:351, 1954),
        Var S_z = mu_d mu_{d-1} integral_0^pi C_z(G_{ell;d}(cos theta)) sin^{d-1} theta dtheta,
        C_z(rho) = Phi_2(z, z; rho) - Phi(z)^2 = (1/2pi) integral_0^{arcsin rho} e^{-z^2/(1+sin u)} du
    (Sheppard's arcsin(rho) / (2 pi) at z = 0), taken less its linear term
    phi(z)^2 rho, whose integral against G is 0.  Folded onto [0, pi/2] by
    G(-t) = (-1)^ell G(t), theta takes ell // 2 + 2 Gauss-Legendre panels of 24 nodes.
    At even ell u takes one rule of 48 nodes.  At odd ell the two halves sum to
        C_z(rho) + C_z(-rho) = (1/2pi) integral_0^{arcsin rho} e^{-z^2/(1+sin u)} - e^{-z^2/(1-sin u)} du,
    whose second term turns on within about |z| of u = pi/2, which arcsin G
    reaches at theta = 0: the first theta panel is halved 20 times, and on
    its nodes the u rule has 21 panels of 16 nodes, halving toward arcsin G;
    every other theta node takes the rule of 48 nodes.

    Relative error: below 1e-10 at even ell, where the integrand is analytic
    (against rules of twice the panels and nodes; d <= 5, ell <= 256, |z| <= 4).
    At odd ell it is exactly 0 at z = 0 and, for 1e-3 <= |z| <= 4 (d = 2, 3,
    5; ell <= 33), within 3e-10 of scipy's adaptive quad, which is then the
    limit: rules of twice the panels and nodes agree to 3e-12 (down to
    |z| = 1e-4, ell <= 65).  From |z| = 39 it is 0 without arithmetic:
    Var S_z <= mu_d^2 Phi(-|z|) is below the least positive float there at
    every d, and z^2 overflows from |z| ~ 1e154.
    """
    if ell < 1:
        raise UsageError(f"multipole must be >= 1, got {ell}")
    dim = SphereDim(d)
    if abs(z) >= 39.0:
        return 0.0
    n = ell // 2 + 2
    edges = 0.5 * math.pi / n * 0.5 ** np.arange(20 if ell % 2 else 0, -1, -1)
    rules = [panel_nodes(lo, hi, 1, 24) for lo, hi in zip(np.append(0.0, edges[:-1]), edges)]
    rules.append(panel_nodes(edges[-1], 0.5 * math.pi, n - 1, 24))
    theta, w = (np.concatenate(part) for part in zip(*rules))
    a = np.arcsin(np.clip(GegenbauerCtx(ell, dim).evaluate(np.cos(theta)), -1.0, 1.0))
    zz = z * z
    if ell % 2:
        def odd_part(arc, x, v):  # 2 pi (C_z(rho) + C_z(-rho)) at arcsin rho = arc, on the u rule (x, v)
            u = np.multiply.outer(arc, x)
            # by |sin u| and expm1: no cancellation, and 0 at z = 0
            s = np.abs(np.sin(u))
            g = -np.sign(u) * np.exp(-zz / (1.0 + s)) * np.expm1(-2.0 * zz * s / np.cos(u) ** 2)
            return arc * (g @ v)

        ends = 1.0 - 0.5 ** np.arange(21)
        graded = tuple(np.concatenate(part) for part in zip(*(
            panel_nodes(lo, hi, 1, 16) for lo, hi in zip(ends, np.append(ends[1:], 1.0)))))
        near = theta < edges[-1]  # the halved first panel, where arcsin G nears pi/2
        c = np.empty_like(a)
        c[near] = odd_part(a[near], *graded)
        c[~near] = odd_part(a[~near], *panel_nodes(0.0, 1.0, 1, 48))
    else:
        x, v = panel_nodes(0.0, 1.0, 1, 48)
        u = np.multiply.outer(a, x)
        # e^{-z^2/(1+sin u)} - e^{-z^2} cos u by expm1 and sin^2: no cancellation or overflow
        e = -zz / (1.0 + np.sin(u))
        g = -np.sign(e + zz) * np.exp(np.maximum(e, -zz)) * np.expm1(-np.abs(e + zz))
        g += 2.0 * math.exp(-zz) * np.sin(0.5 * u) ** 2
        c = 2 * (a * (g @ v))
    return dim.mu_d * dim.mu_dm1 / (2.0 * math.pi) * float(w * np.sin(theta) ** (d - 1) @ c)
