"""Numerics for Gaussian random eigenfunctions on the unit d-sphere:
variance asymptotics of Hermite functionals, spectral contraction norms with
explicit Berry-Esseen bounds, and Monte Carlo verification of the
quantitative central limit theorems (including excursion areas)."""

import os

# sphclt spreads work over its own thread pool (`parallel.ordered_map`) and
# never wants OpenBLAS's: its idle workers spin and burn CPU.  The count is
# read when numpy loads, so this must run before any module imports numpy;
# a value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .specfun import (
    GegenbauerCtx,
    SphereDim,
    bessel_j,
    bessel_j_zeros,
    dim_harmonics,
    hermite,
    sphere_volume,
)
from .moments import (
    BesselConstant,
    DivergentIntegralError,
    MomentResult,
    SlopeRecord,
    ToleranceNotMetError,
    bessel_constant,
    gegenbauer_moment,
    log_divergence_check,
    variance_h,
)
from .contractions import (
    BoundRecord,
    ContractionTable,
    SpectralCoeffs,
    berry_esseen_bound,
    contraction_norm,
    contraction_table,
    cross_contraction,
    expand_power,
    kernel_contraction,
    poly_bound,
    poly_rate,
    rate_theoretical,
)
from .simulate import (
    FieldRealization,
    SphereGrid,
    build_grid,
    excursion_variance,
    sample_field,
)
from .clt import (
    CLT_EXCLUDED_PAIRS,
    CltReport,
    CltRow,
    Functional,
    FunctionalSample,
    RateFit,
    clt_sweep,
    functional_excursion,
    functional_h,
    functional_Z,
    kolmogorov_distance,
    monomial_to_hermite,
    rate_fit,
    wasserstein_distance,
)
