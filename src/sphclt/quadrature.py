"""Shared deterministic quadrature rules.

Two building blocks:
  - composite Gauss-Legendre panels on an interval (the reference rule
    that the Bessel-constant sums map onto each zero interval),
  - exact-degree Gauss-Jacobi rules for the weight (1-t^2)^{d/2-1} that the
    surface measure of S^d induces on t = cos(theta); cached per (n, d).

Nodes come from scipy.special; the Gauss-Jacobi weights are recomputed from
the orthonormal recurrence, because SciPy's lose relative accuracy as n grows.
Panel sums are accumulated in a fixed order so results do not depend on how
callers parallelize.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .specfun import orthonormal_jacobi


@lru_cache(maxsize=64)
def _gl_reference(n: int):
    x, w = roots_legendre(n)
    return x, w


def panel_nodes(a: float, b: float, n_panels: int, nodes_per_panel: int = 10):
    """Composite Gauss-Legendre rule on [a, b] with equal-width panels.

    Returns (nodes, weights) flattened panel-by-panel; exactness is degree
    2*nodes_per_panel - 1 within each panel.
    """
    if n_panels < 1:
        raise ValueError("need at least one panel")
    x, w = _gl_reference(nodes_per_panel)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


@lru_cache(maxsize=32)
def gauss_jacobi_rule(n: int, d: int):
    """n-point rule for integral_{-1}^{1} f(t) (1-t^2)^{d/2-1} dt.

    Exact for polynomials up to degree 2n - 1.  This is the measure induced
    by (sin theta)^{d-1} d theta under t = cos theta.  The nodes are SciPy's;
    the weights are the Christoffel numbers 1 / sum_{k<n} p_k(t)^2 of the
    orthonormal polynomials, which keep full relative accuracy at every n
    (SciPy's own weights are off by 1.3e-8 at n = 2049).
    """
    if n < 1:
        raise ValueError("need at least one node")
    if d < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {d}")
    alpha = d / 2.0 - 1.0
    t, _ = roots_jacobi(n, alpha, alpha)
    # SciPy's nodes are exactly symmetric and p_k(-t)^2 = p_k(t)^2, so the sum
    # runs on the nodes t >= 0 and is mirrored
    upper = 1.0 / sum(p * p for p in orthonormal_jacobi(n - 1, alpha, t[n // 2:]))
    return t, np.concatenate((upper[::-1][:n // 2], upper))
