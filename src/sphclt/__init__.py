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

# the computations behind the commands' columns and checks, and the errors
# they raise; everything else is reached through its module
from .specfun import NumericalError, SphcltError, UsageError
from .moments import bessel_constant, gegenbauer_moment, log_divergence_check, variance_h
from .contractions import berry_esseen_bound, contraction_table, poly_bound, rate_theoretical
from .simulate import build_grid, excursion_variance
from .clt import clt_sweep, kolmogorov_distance, rate_fit, wasserstein_distance
