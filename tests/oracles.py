"""Independent oracles that only the tests run.

- `mc_kernel_contraction`: a brute-force Monte Carlo evaluation of the
  4-point cyclic integral behind K(ell, q; r), an independent check of its
  spectral collapse in `sphclt.contractions`.
- `recover_harmonic_coeffs`: coefficient recovery by grid quadrature.  It is
  the synthesis plan's adjoint, so it works at every d.
- `grid_nodes`: the unit-vector nodes of a `SphereGrid`, rebuilt from its
  colatitude rules and azimuths in the order of its weights.
"""

import math

import numpy as np

from sphclt.simulate import _azimuth, _synthesis_plan
from sphclt.specfun import GegenbauerCtx, SphereDim, UsageError, dim_harmonics


def grid_nodes(grid) -> np.ndarray:
    """(N, d+1) unit vectors: (sin theta * xi, cos theta) for each colatitude
    node t = cos theta (outer index) and each node xi of the sub-grid (inner
    index), the circle of `n_phi` azimuths below S^2."""
    if grid.sub is None:
        phi = _azimuth(grid.n_phi)
        sub = np.column_stack((np.cos(phi), np.sin(phi)))
    else:
        sub = grid_nodes(grid.sub)
    t = grid.colat_t
    s = np.sqrt(1.0 - t * t)
    return np.column_stack((np.repeat(s, len(sub))[:, None] * np.tile(sub, (t.size, 1)),
                            np.repeat(t, len(sub))))


def mc_kernel_contraction(ell: int, q: int, r: int, d: int, n_samples: int, seed: int = 0):
    """Brute-force estimate of K(ell, q; r) from uniform 4-point samples,
    drawn in batches of 200 000.

    Samples x_1..x_4 uniformly on S^d (normalized Gaussians), averages the
    cyclic product G^r(x1.x2) G^{q-r}(x2.x3) G^r(x3.x4) G^{q-r}(x4.x1) and
    scales by mu_d^4.  Returns (estimate, standard_error).
    """
    if not 1 <= r <= q - 1:
        raise UsageError(f"need 1 <= r <= q-1, got r={r}, q={q}")
    dim = SphereDim(d)
    ctx = GegenbauerCtx(ell, dim)
    rng = np.random.Generator(np.random.Philox(key=seed))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(200_000, n_samples - done)
        x = rng.standard_normal((4, m, d + 1))
        x /= np.linalg.norm(x, axis=2, keepdims=True)
        prod = np.ones(m)
        for i, p in ((0, r), (1, q - r), (2, r), (3, q - r)):
            dots = np.einsum("ij,ij->i", x[i], x[(i + 1) % 4])
            prod *= ctx.evaluate(np.clip(dots, -1.0, 1.0)) ** p
        total += float(np.sum(prod))
        total_sq += float(np.sum(prod * prod))
        done += m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0) / n_samples
    scale = dim.mu_d ** 4
    return scale * mean, scale * math.sqrt(var)


def recover_harmonic_coeffs(realization) -> np.ndarray:
    """Coefficients <T, Y_j> of a `FieldRealization` recovered by grid quadrature.

    Returns the n_{ell;d} vector ordered like the synthesis draws, exact up
    to rounding; a grid whose exact degree is below 2*ell raises.  The
    synthesis basis functions are sqrt(mu_d / n_{ell;d}) times orthonormal
    harmonics, so <T, basis> is divided by that factor.  This is the adjoint of the plan:
    the weighted field goes down the transposed profile stacks to the circle,
    is projected on cos(m phi) and sin(m phi), and lands on the leaf draws.
    """
    grid, ell = realization.grid, realization.ell
    if grid.exact_degree < 2 * ell:
        raise UsageError(f"recovery at ell={ell} needs a grid exact to degree {2 * ell}, "
                         f"this one is exact to degree {grid.exact_degree}")
    cos_idx, sin_idx, cos_m, sin_m, lams = _synthesis_plan(grid, ell)
    fields = realization.values * grid.weights
    for lam in reversed(lams):
        fields = fields.reshape(*fields.shape[:-1], lam.shape[1], -1)
        fields = np.matmul(lam.transpose(0, 2, 1), fields)
    leaves = fields.reshape(cos_idx.shape + (grid.n_phi,))
    n = dim_harmonics(ell, grid.dim.d)
    out = np.zeros(n + 1)
    out[sin_idx] = np.einsum("...mp,mp->...m", leaves, sin_m)
    out[cos_idx] = np.einsum("...mp,mp->...m", leaves, cos_m)
    return out[:n] / math.sqrt(grid.dim.mu_d / n)
