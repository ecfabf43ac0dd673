"""Independent oracles that only the tests run.

- `mc_kernel_contraction`: a brute-force Monte Carlo evaluation of the
  4-point cyclic integral behind K(ell, q; r), an independent check of its
  spectral collapse in `sphclt.contractions`.
- `recover_harmonic_coeffs`: coefficient recovery by grid quadrature.  It is
  the synthesis plan's adjoint, so it works at every d.
- `grid_nodes`: the unit-vector nodes of a `SphereGrid`, rebuilt from its
  colatitude rules and azimuths in the order of its weights.
- `half_range_rule` and `project_power`: the Gegenbauer expansion of G^p by
  quadrature, one degree k at a time on a root-free half-range rule, an
  independent check of the Rogers-Dougall recursion in
  `sphclt.moments.expand_power`.
- `dougall_exact`: one Rogers-Dougall coefficient in exact rationals, the
  reference for the variance sums at large d.
- `chebyshev_multiplicities`: the integer form of G_ell^p at d = 3, the
  exact reference of `sphclt.moments.expand_power` there at every p.
- `fft_moment`: the moment integral of G^q by one FFT of its samples, an
  independent check of `sphclt.moments.gegenbauer_moment`, accurate in
  absolute terms (about 1e-16 times the size of G) at any ell.
- `half_moment_exact`: the half-range moment at odd q*ell in exact
  rationals, the reference at large d, where the FFT is not.
- `float64_samples`: raw values of a functional synthesized and reduced in
  float64, the reference of the float32 synthesis and reduction of
  `sphclt.clt._samples`.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.fft import fft, irfft, rfft

from sphclt.clt import BLOCK_VALUES
from sphclt.parallel import single_threaded_blas
from sphclt.simulate import _azimuth, _replica_values, _sample_batch, _synthesis_plan
from sphclt.specfun import GegenbauerCtx, SphereDim, UsageError, dim_harmonics, orthonormal_jacobi


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


def float64_samples(f, grid, ell: int, seed: int, replicas: int) -> np.ndarray:
    """Raw values of the functional `f` for replicas 0..replicas-1 on `grid`:
    the same draws as `_samples` synthesized in float64 and reduced by
    `f.reduce` in float64, on one BLAS thread, in blocks of the size
    `_samples` takes.  The reference of its float32 synthesis and reduction:
    the two differ by float32 rounding alone."""
    block = max(1, BLOCK_VALUES // _replica_values(grid, ell))
    with single_threaded_blas():
        return np.concatenate([
            f.reduce(_sample_batch(grid, ell, seed, range(lo, min(lo + block, replicas)), dtype=np.float64),
                     grid.weights)
            for lo in range(0, replicas, block)])


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
    pairs, trig, lams = _synthesis_plan(grid, ell)
    fields = realization.values * grid.weights
    for lam in reversed(lams):
        fields = fields.reshape(*fields.shape[:-1], lam.shape[1], -1)
        fields = np.matmul(lam.transpose(0, 2, 1), fields)
    leaves = fields.reshape(pairs.shape[:-1] + (grid.n_phi,))
    n = dim_harmonics(ell, grid.dim.d)
    out = np.zeros(n + 1)
    out[pairs] = np.einsum("...mp,mkp->...mk", leaves, trig)
    return out[:n] / math.sqrt(grid.dim.mu_d / n)


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
        raise UsageError(f"need degree >= 0, got {degree}")
    if d < 2:
        raise UsageError(f"sphere dimension must be >= 2, got {d}")
    sigma = (d - 1) % 2
    n = degree // 2 + (d - 1 - sigma) // 2 + 1
    # m_0 = pi/2 or 1, then m_{j+1} / m_j = -(sigma/2 - j) / (sigma/2 + j + 1)
    j = np.arange(n - 1.0)
    m = np.cumprod(np.concatenate(([1.0 if sigma else 0.5 * math.pi],
                                   (j - 0.5 * sigma) / (0.5 * sigma + j + 1.0))))
    m[0] *= 0.5
    # the DCT-III as the real part of one zero-padded FFT of length 2n
    v = 2.0 / n * fft(m * np.exp(-0.5j * math.pi / n * np.arange(n)), 2 * n)[:n].real
    theta = (np.arange(n) + 0.5) * (0.5 * math.pi / n)
    return np.cos(theta), np.sin(theta) ** (d - 1 - sigma) * v


def project_power(ell: int, p: int, d: int) -> np.ndarray:
    """Coefficients b_0..b_{p*ell} of G_{ell;d}^p over G_{0..p*ell;d}, by
    projecting onto each degree k on `half_range_rule`.

    G^p G_k is even for k = p*ell (mod 2), of degree <= 2 p*ell, so for those k
    b_k = <G^p, G_k>_w / <G_k, G_k>_w = <G^p, p_k>_w p_k(1), with p_k
    orthonormal for the weight, is twice the half-range sum; t = 1 rides
    along at weight 0.  The opposite parity vanishes, which the half-range
    sum does not show: those k are left at 0.
    """
    deg = p * ell
    t, w = half_range_rule(2 * deg, d)
    power_w = np.append(2.0 * GegenbauerCtx(ell, SphereDim(d)).evaluate(t) ** p * w, 0.0)
    coeffs = np.zeros(deg + 1)
    for k, pk in enumerate(orthonormal_jacobi(deg, d / 2.0 - 1.0, np.append(t, 1.0))):
        if (deg - k) % 2 == 0:
            coeffs[k] = (pk @ power_w) * pk[-1]
    return coeffs


def _rising(x: Fraction, k: int) -> Fraction:
    """The rising factorial (x)_k = x (x+1) ... (x+k-1), exactly: with x = a/b,
    the integer product (a)(a+b)...(a+(k-1)b) over b^k."""
    a, b = x.numerator, x.denominator
    return Fraction(math.prod(range(a, a + k * b, b)), b ** k)


def dougall_exact(j: int, ell: int, s: int, d: int) -> Fraction:
    """c(j, ell, s), the coefficient of G_{j+ell-2s;d} in G_{j;d} G_{ell;d},
    in exact rationals: with lam = (d-1)/2, N = j + ell and a_k = (lam)_k / k!,
        c = (N+lam-2s)/(N+lam-s) a_s a_{j-s} a_{ell-s} (2lam)_{N-s}/(lam)_{N-s}
            * j! ell! / ((2lam)_j (2lam)_ell)
    (Rogers-Dougall, DLMF 18.18.22, over G_k(1) = 1)."""
    lam = Fraction(d - 1, 2)
    n = j + ell

    def a(k):
        return _rising(lam, k) / math.factorial(k)

    return ((n + lam - 2 * s) / (n + lam - s) * a(s) * a(j - s) * a(ell - s)
            * _rising(2 * lam, n - s) / _rising(lam, n - s)
            * math.factorial(j) * math.factorial(ell) / (_rising(2 * lam, j) * _rising(2 * lam, ell)))


def chebyshev_multiplicities(ell: int, p: int) -> np.ndarray:
    """m_p(0..p*ell), Python ints, with U_ell^p = sum_j m_p(j) U_j.

    At d = 3, G_ell = U_ell / (ell+1), U the Chebyshev polynomials of the
    second kind, so b_j^(p) = m_p(j) (j+1) / (ell+1)^p exactly.  The SU(2)
    Clebsch-Gordan rule U_i U_ell = sum_{k <= min(i, ell)} U_{i+ell-2k} gives
        m_p(j) = sum of m_{p-1}(i) over i = |j-ell|, |j-ell|+2, .., j+ell,
    one box convolution per power, each a difference of step-2 prefix sums."""
    m = np.zeros(ell + 1, dtype=object)
    m[ell] = 1
    for _ in range(p - 1):
        j = np.arange(m.size + ell)
        # prefix[i + 2] = m(i) + m(i-2) + ..., m taken as 0 beyond its degree
        prefix = np.zeros(m.size + 3 * ell + 2, dtype=object)
        prefix[2:m.size + 2] = m
        prefix[2::2], prefix[3::2] = np.cumsum(prefix[2::2]), np.cumsum(prefix[3::2])
        m = prefix[j + ell + 2] - prefix[np.abs(j - ell)]
    return m


def _cosine_coeffs(ell: int, d: int) -> np.ndarray:
    """Cosine coefficients c_0..c_ell of G_{ell;d}(cos theta), c >= 0, sum c = 1:
    e_k ~ a_k a_{ell-k}, a_k = (lam)_k / k!, lam = (d-1)/2, sits on frequency
    |ell - 2k| (Szego, Orthogonal Polynomials, eq. 4.9.19)."""
    lam = (d - 1) / 2.0
    j = np.arange(1.0, ell + 1.0)
    a = np.concatenate(([1.0], np.cumprod((lam + j - 1.0) / j)))
    e = a / a[-1] * a[::-1]  # a_ell is the largest a_k once lam > 1: no overflow
    return np.bincount(np.abs(ell - 2 * np.arange(ell + 1)), weights=e) / e.sum()


@lru_cache(maxsize=256)
def fft_moment(ell: int, q: int, d: int, rng: str = "full") -> float:
    """Integral of G_{ell;d}(cos theta)^q (sin theta)^{d-1} over [0, b], with
    b = pi for `rng` = "full" and pi/2 for "half".

    F = G^q sin^{d-1} is a trigonometric polynomial of degree D = q*ell + d - 1,
    so the FFT of its samples at theta_j = 2 pi j / M, M = 2 (D + 1), gives its
    Fourier coefficients f_k without aliasing, and
        integral_0^b F = Re[f_0 b + 2 sum_{k >= 1} f_k (e^{ikb} - 1) / (ik)].
    G is sampled by one inverse FFT of its cosine coefficients.  The error is
    absolute: where G is tiny over most of the weight (large d) the relative
    error grows without bound.
    """
    quarter_turns = 2 if rng == "full" else 1
    b = quarter_turns * math.pi / 2.0
    m = 2 * (q * ell + d)
    spec = np.zeros(m // 2 + 1)
    spec[:ell + 1] = 0.5 * m * _cosine_coeffs(ell, d)
    spec[0] *= 2.0
    g = irfft(spec, m)
    i, h = np.arange(m), m // 2
    sin = np.sin(math.pi / h * np.minimum(i % h, -i % h))  # angles in [0, pi/2]: relative accuracy
    w = np.where(i < h, sin, -sin) ** (d - 1)
    f = rfft(g ** q * w) / m
    k = np.arange(1, f.size)
    e_ikb = np.array([1.0, 1j, -1.0, -1j])[k * quarter_turns % 4]  # exact
    return float((f[0] * b + 2.0 * np.sum(f[1:] * (e_ikb - 1.0) / (1j * k))).real)


def half_moment_exact(ell: int, q: int, d: int) -> Fraction:
    """integral_0^1 G_{ell;d}(t)^q (1-t^2)^{d/2-1} dt at odd q*ell, in exact
    rationals.

    G_ell = C_ell^lam / C_ell^lam(1), lam = (d-1)/2, in the power basis
        C_ell^lam(t) = sum_i (-1)^i (lam)_{ell-i} / (i! (ell-2i)!) (2t)^{ell-2i},
    C_ell^lam(1) = (2lam)_ell / ell!.  G^q is odd, and each odd power t^{2a-1}
    integrates to B(a, d/2) / 2 = (a-1)! / (2 (d/2)_a), a rational at any d.
    The coefficients are put over one denominator, so the power is taken in
    integers.
    """
    if ell < 1 or q < 1 or d < 2 or q * ell % 2 == 0:
        raise UsageError(f"need odd q*ell, ell >= 1, d >= 2, got ({ell}, {q}, {d})")
    lam, half_d = Fraction(d - 1, 2), Fraction(d, 2)
    # coefficients of t^{ell-2i}, i = 0..(ell-1)/2, highest power first
    coeffs = [(-1) ** i * _rising(lam, ell - i) * 2 ** (ell - 2 * i)
              / (math.factorial(i) * math.factorial(ell - 2 * i)) for i in range(ell // 2 + 1)]
    den = math.lcm(*(c.denominator for c in coeffs))
    poly = np.array([int(c * den) for c in coeffs], dtype=object)  # in t^2, times t^ell
    power = np.ones(1, dtype=object)
    for _ in range(q):
        power = np.convolve(power, poly)
    # power[i] multiplies t^{q*ell - 2i} = t^{2a-1}, a = (q*ell + 1)/2 - i
    top = (q * ell + 1) // 2
    total = sum(c * Fraction(math.factorial(top - i - 1)) / (2 * _rising(half_d, top - i)) for i, c in enumerate(power))
    norm = _rising(2 * lam, ell) / math.factorial(ell)
    return total / (den * norm) ** q
