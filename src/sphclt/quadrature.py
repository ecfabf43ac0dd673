"""Shared deterministic quadrature rules.

Two building blocks:
  - composite Gauss-Legendre panels on an interval (the Bessel-constant
    sums map one onto each zero interval; the excursion variance uses both),
  - exact-degree Gauss-Jacobi rules for the weight (1-t^2)^{d/2-1} that the
    surface measure of S^d induces on t = cos(theta); cached per (n, d).

Every rule comes from `gauss_jacobi_rule`; a panel takes its rule at d = 2,
where the weight is 1 and the rule is Gauss-Legendre.  The nodes are zeros
of the orthonormal polynomial, found by Newton's method on its recurrence,
and the weights are the Christoffel numbers from the same recurrence.  Panel
sums are accumulated in a fixed order so results do not depend on how
callers parallelize.
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache

import numpy as np

from .specfun import UsageError, orthonormal_jacobi


def panel_nodes(a: float, b: float, n_panels: int, nodes_per_panel: int = 10):
    """Composite Gauss-Legendre rule on [a, b] with equal-width panels.

    Returns (nodes, weights) flattened panel-by-panel; exactness is degree
    2*nodes_per_panel - 1 within each panel.  The rule on [-1, 1] is
    `gauss_jacobi_rule(nodes_per_panel, 2)`.
    """
    if n_panels < 1:
        raise UsageError("need at least one panel")
    x, w = gauss_jacobi_rule(nodes_per_panel, 2)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


# Newton steps from the initial guess; 2 to 7 are taken for d <= 6 and n <= 4097
NEWTON_MAX_STEPS = 12


def _jacobi_zeros(n: int, alpha: float) -> np.ndarray:
    """The n // 2 positive zeros of p_n, orthonormal for (1-t^2)^alpha, in
    decreasing order, by Newton's method on the recurrence from
    theta_k = (k - 1/4 + alpha/2) pi / (n + alpha + 1/2) (Hale & Townsend
    2013, SIAM J. Sci. Comput. 35:A652).

    The derivative comes from p_{n-1}:
        (1 - t^2) p_n' = -n t p_n + (2n + 2 alpha + 1) b_n p_{n-1},
    with b_n the recurrence coefficient of `orthonormal_jacobi`.  The loop
    ends one step after the first that moves no node by 4e-16; nodes that
    never get there fail the orthogonality check of the grids built on them."""
    k = np.arange(1, n // 2 + 1)
    t = np.cos((k - 0.25 + 0.5 * alpha) * math.pi / (n + alpha + 0.5))
    c = (2 * n + 2 * alpha + 1) * math.sqrt(n * (n + 2 * alpha) / (4 * (n + alpha) ** 2 - 1))
    converged = t.size == 0
    for _ in range(NEWTON_MAX_STEPS):
        p_prev, p = deque(orthonormal_jacobi(n, alpha, t), maxlen=2)
        step = p * ((1.0 - t) * (1.0 + t)) / (c * p_prev - n * t * p)
        t = t - step
        if converged:
            break
        converged = np.max(np.abs(step)) < 4e-16
    return t


@lru_cache(maxsize=32)
def gauss_jacobi_rule(n: int, d: int):
    """n-point rule for integral_{-1}^{1} f(t) (1-t^2)^{d/2-1} dt.

    Exact for polynomials up to degree 2n - 1.  This is the measure induced
    by (sin theta)^{d-1} d theta under t = cos theta.  The nodes are solved
    on t > 0 and mirrored, so they are exactly symmetric and an odd n has
    the node 0; they agree with the zeros of the Jacobi polynomial to 2 ulp
    of 1 (tested for 2 <= d <= 6 and n <= 4097).  The weights are the
    Christoffel numbers 1 / sum_{k<n} p_k(t)^2 of the orthonormal
    polynomials, which keep full relative accuracy at every n.  The cached
    arrays are read-only, since every caller shares them.
    """
    if n < 1:
        raise UsageError("need at least one node")
    if d < 2:
        raise UsageError(f"sphere dimension must be >= 2, got {d}")
    alpha = d / 2.0 - 1.0
    upper = _jacobi_zeros(n, alpha)[::-1]
    if n % 2:
        upper = np.concatenate(([0.0], upper))
    # p_k(-t)^2 = p_k(t)^2, so the weights too are computed on t >= 0 and mirrored
    w = 1.0 / sum(p * p for p in orthonormal_jacobi(n - 1, alpha, upper))
    nodes, weights = np.concatenate((-upper[::-1][:n // 2], upper)), np.concatenate((w[::-1][:n // 2], w))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
