"""Shared deterministic quadrature rules.

Three building blocks:
  - composite Gauss-Legendre panels on an interval (the reference rule
    that the Bessel-constant sums map onto each zero interval),
  - exact-degree Gauss-Jacobi rules for the weight (1-t^2)^{d/2-1} that the
    surface measure of S^d induces on t = cos(theta); cached per (n, d),
  - a root-free half-range rule for the same weight on [0, 1], exact for
    even polynomials, whose weights come from closed-form moments by one FFT.

Gauss-Legendre nodes come from numpy, Gauss-Jacobi nodes from scipy.special;
the Gauss-Jacobi weights are recomputed from the orthonormal recurrence,
because SciPy's lose relative accuracy as n grows.  Panel sums are
accumulated in a fixed order so results do not depend on how callers
parallelize.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from .specfun import orthonormal_jacobi


@lru_cache(maxsize=64)
def _gl_reference(n: int):
    return leggauss(n)


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


def half_range_rule(degree: int, d: int):
    """Rule for integral_0^1 f(t) (1-t^2)^{d/2-1} dt, exact for even
    polynomials f of degree <= `degree`; it needs no roots.

    Under t = cos theta the integral is that of g(theta) sin^sigma theta over
    (0, pi/2), sigma = (d-1) mod 2, with g = f(cos) sin^{d-1-sigma} a cosine
    polynomial in 2 theta of degree J = degree/2 + (d-1-sigma)/2.  The
    n = J + 1 midpoints theta_i = (i + 1/2) pi / (2n) interpolate g exactly
    (Fejer's first rule in 2 theta), so the weights are
        w_i = sin^{d-1-sigma} theta_i * v_i,
        v_i = (1/n) [m_0 + 2 sum_{j=1}^{n-1} m_j cos(2 j theta_i)],
    one DCT-III of the moments m_j = integral_0^{pi/2} cos(2 j psi) sin^sigma psi
    dpsi (Waldvogel 2006, BIT 46:195).  Keeping the even power of the sine
    outside the DCT keeps each weight relatively accurate near t = 1, where
    the weight function vanishes.  Returns (t, w), t decreasing in (0, 1).
    """
    if degree < 0:
        raise ValueError(f"need degree >= 0, got {degree}")
    if d < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {d}")
    sigma = (d - 1) % 2
    n = degree // 2 + (d - 1 - sigma) // 2 + 1
    # m_0 = pi/2 or 1, then m_{j+1} / m_j = -(sigma/2 - j) / (sigma/2 + j + 1)
    j = np.arange(n - 1.0)
    m = np.cumprod(np.concatenate(([1.0 if sigma else 0.5 * math.pi],
                                   (j - 0.5 * sigma) / (0.5 * sigma + j + 1.0))))
    m[0] *= 0.5
    # the DCT-III as the real part of one zero-padded FFT of length 2n
    v = 2.0 / n * np.fft.fft(m * np.exp(-0.5j * math.pi / n * np.arange(n)), 2 * n)[:n].real
    theta = (np.arange(n) + 0.5) * (0.5 * math.pi / n)
    return np.cos(theta), np.sin(theta) ** (d - 1 - sigma) * v
