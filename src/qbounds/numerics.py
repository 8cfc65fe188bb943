"""Low-level numerical kernels.

Composite Simpson quadrature, a LAPACK LDL^T factorization (pttrf/pttrs)
of symmetric positive definite tridiagonal systems, and log-domain binomial
probabilities. Everything here works on plain arrays; grid-aware wrappers
live where the grid types do.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.special import gammaln, xlogy

from .errors import DomainError, InvalidGrid, SingularSystem

__all__ = [
    "simpson_weights",
    "composite_simpson",
    "solve_tridiagonal",
    "log_binomial_pmf_vector",
]


def simpson_weights(m: int, h: float) -> np.ndarray:
    """Composite Simpson weights (h/3)(1, 4, 2, ..., 2, 4, 1) for m samples.

    Requires an odd sample count (an even number of panels). The weighted
    sum is exact for cubics on each panel pair.
    """
    if m < 3 or m % 2 == 0:
        raise InvalidGrid(f"Simpson rule needs an odd sample count >= 3, got {m}")
    w = np.full(m, 2.0)
    w[1::2] = 4.0
    w[[0, -1]] = 1.0
    w *= h / 3.0
    return w


def composite_simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule over uniformly spaced samples (last axis)."""
    y = np.asarray(values, dtype=float)
    return y @ simpson_weights(y.shape[-1], h)


def solve_tridiagonal(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric positive definite tridiagonal system A u = rhs.

    diag is the main diagonal (length m), off the sub- and superdiagonal
    (length m-1). LAPACK dpttrf factors A = L D L^T without pivoting and
    dpttrs solves; a matrix that is not positive definite raises
    SingularSystem instead of returning an unbounded solution.
    """
    d, e, info = dpttrf(diag, off)
    if info != 0:
        raise SingularSystem(f"matrix is not positive definite at row {info - 1}")
    u, _ = dpttrs(d, e, rhs)
    return u


def log_binomial_pmf_vector(n: int, p1: np.ndarray) -> np.ndarray:
    """Full binomial likelihood table over a vector of success probabilities.

    Returns shape (n+1, len(p1)); row k is C(n,k) p1^k (1-p1)^(n-k), summed
    in log space (log-gamma coefficients keep n ~ 10^3 finite) and
    exponentiated in place. xlogy(0, 0) = 0 makes the degenerate p1 in
    {0, 1} exact, and an impossible outcome's log is -inf, so its
    probability is exactly 0.
    """
    p1 = np.asarray(p1, dtype=float)
    if p1.min() < 0.0 or p1.max() > 1.0:
        raise DomainError("p1 samples must lie in [0, 1]")
    k = np.arange(n + 1)[:, None]
    out = xlogy(k, p1)
    out += xlogy(n - k, 1.0 - p1)
    out += gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    return np.exp(out, out=out)
