"""Low-level numerical kernels.

Composite Simpson quadrature, a LAPACK LU factorization (gttrf/gttrs) of
tridiagonal systems with a check on its pivots, and log-domain binomial
probabilities. Everything here works on plain arrays; grid-aware wrappers
live where the grid types do.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.special import gammaln, xlogy

from .errors import DomainError, InvalidGrid, SingularSystem

__all__ = [
    "composite_simpson",
    "solve_tridiagonal",
    "binomial_pmf",
    "log_binomial_pmf_vector",
]


def composite_simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule over uniformly spaced samples.

    Requires an odd number of samples (an even number of panels). Exact for
    cubics on each panel pair.
    """
    y = np.asarray(values, dtype=float)
    m = y.shape[-1]
    if m < 3 or m % 2 == 0:
        raise InvalidGrid(f"Simpson rule needs an odd sample count >= 3, got {m}")
    acc = y[..., 0] + y[..., -1] + 4.0 * y[..., 1:-1:2].sum(axis=-1) \
        + 2.0 * y[..., 2:-2:2].sum(axis=-1)
    return acc * (h / 3.0)


# Pivot magnitude below this fraction of the row scale aborts the solve.
_PIVOT_TOL = 1e-14


def solve_tridiagonal(
    sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve the tridiagonal system A u = rhs with LAPACK gttrf/gttrs.

    sub is the subdiagonal (length m-1), diag the main diagonal (length m),
    sup the superdiagonal (length m-1). The LU factorization uses partial
    pivoting; a diagonal entry of U at most _PIVOT_TOL of its row scale
    raises SingularSystem instead of returning an unbounded solution.
    """
    dl, d, du, du2, ipiv, _ = dgttrf(sub, diag, sup)
    row_scale = np.abs(np.asarray(diag, dtype=float))
    row_scale[:-1] += np.abs(sup)
    row_scale[1:] += np.abs(sub)
    vanishing = np.flatnonzero(np.abs(d) <= _PIVOT_TOL * np.maximum(row_scale, 1.0))
    if vanishing.size:
        raise SingularSystem(f"vanishing pivot in row {vanishing[0]}")
    u, _ = dgttrs(dl, d, du, du2, ipiv, rhs)
    return u


def binomial_pmf(n: int, k: int, p1: float) -> float:
    """C(n,k) * p1^k * (1-p1)^(n-k), accumulated in log space.

    Log-gamma accumulation of the binomial coefficient keeps n ~ 10^3
    regimes finite. Degenerate p1 in {0, 1} yields exact 0/1 values.
    """
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    if not 0.0 <= p1 <= 1.0:
        raise DomainError(f"p1 must lie in [0, 1], got {p1}")
    log_coeff = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    # xlogy(0, 0) = 0 handles the deterministic-outcome corners exactly.
    log_p = xlogy(k, p1) + xlogy(n - k, 1.0 - p1)
    if np.isneginf(log_p):
        return 0.0
    return float(np.exp(log_coeff + log_p))


def log_binomial_pmf_vector(n: int, p1: np.ndarray) -> np.ndarray:
    """Full binomial likelihood table over a vector of success probabilities.

    Returns shape (n+1, len(p1)); row k is C(n,k) p1^k (1-p1)^(n-k) evaluated
    elementwise, with the same log-space arithmetic as binomial_pmf.
    """
    p1 = np.asarray(p1, dtype=float)
    if p1.min() < 0.0 or p1.max() > 1.0:
        raise DomainError("p1 samples must lie in [0, 1]")
    k = np.arange(n + 1)[:, None]
    log_coeff = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    log_p = xlogy(k, p1[None, :]) + xlogy(n - k, 1.0 - p1[None, :])
    out = np.exp(log_coeff + log_p)
    out[np.isneginf(log_p)] = 0.0
    return out
