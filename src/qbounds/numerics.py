"""Low-level numerical kernels.

Composite Simpson quadrature, a LAPACK LDL^T factorization (pttrf/pttrs)
of symmetric positive definite tridiagonal systems, and log-domain binomial
probabilities. Everything here works on plain arrays; grid-aware wrappers
live where the grid types do.
"""
from __future__ import annotations

import functools

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.special import gammaln, xlogy

from .errors import DomainError, InvalidGrid, SingularSystem

__all__ = [
    "simpson_weights",
    "composite_simpson",
    "solve_tridiagonal",
    "log_binomial_pmf_vector",
    "binomial_band",
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


# A cell whose log-probability is below this rounds to 0.0: exp underflows
# below log(2^-1075) = -745.13, and the margin covers the rounding of the
# O(n log n) terms in both the kernel and the bound for n up to ~1e12.
_LOG_UNDERFLOW = -745.2


@functools.lru_cache(maxsize=1)
def _log_binomial_coefficients(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n, kept for the blocks of one table."""
    k = np.arange(n + 1, dtype=float)
    out = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    out.flags.writeable = False
    return out


def log_binomial_pmf_vector(
    n: int, p1: np.ndarray, k_lo: int = 0, k_hi: int | None = None
) -> np.ndarray:
    """Rows k_lo..k_hi (default 0..n) of the binomial likelihood table.

    Returns shape (k_hi - k_lo + 1, len(p1)); cell (k, x) is
    C(n,k) p1^k (1-p1)^(n-k), computed as one exponential of
    k log(q/(1-q)) + n log1p(-q) + log C(n,k) with q = min(p1, 1 - p1) and
    k mirrored to n - k where p1 > 1/2 (1 - p1 is exact there, so the pair
    (k, p) and (n - k, 1 - p) runs the same arithmetic). A q = 0 column has
    exact 0/1 cells.
    """
    p1 = np.asarray(p1, dtype=float)
    if p1.min() < 0.0 or p1.max() > 1.0:
        raise DomainError("p1 samples must lie in [0, 1]")
    k = np.arange(k_lo, n + 1 if k_hi is None else k_hi + 1)
    log_c = _log_binomial_coefficients(n)
    mirror = p1 > 0.5
    q = np.where(mirror, 1.0 - p1, p1)
    with np.errstate(divide="ignore"):
        log_odds = np.log(q / (1.0 - q))
    # q = 0: a finite stand-in for log 0 keeps 0 * log_odds = 0 at k = 0
    np.maximum(log_odds, -np.finfo(float).max, out=log_odds)
    log_q0 = n * np.log1p(-q)
    out = np.empty((k.size, p1.size))
    # contiguous column runs that share one row vector kk = k or n - k
    edges = [0, *(np.flatnonzero(np.diff(mirror)) + 1), p1.size]
    with np.errstate(over="ignore"):
        for a, b in zip(edges[:-1], edges[1:]):
            kk = n - k if mirror[a] else k
            block = out[:, a:b]
            np.multiply.outer(kk, log_odds[a:b], out=block)
            block += log_q0[a:b]
            block += log_c[kk][:, None]
    return np.exp(out, out=out)


def binomial_band(n: int, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the first and last k whose probability may be nonzero.

    Outside [lo, hi] the method-of-types bound pmf(k) <= exp(-n KL(k/n||p1))
    puts every cell below exp(_LOG_UNDERFLOW), so log_binomial_pmf_vector
    returns exactly 0.0 there. The bound rises monotonically from k = 0 and
    from k = n towards n p1; where it is above the floor at an end, that end
    is kept, and elsewhere an integer bisection finds the edge.
    """
    p1 = np.asarray(p1, dtype=float)

    def edge(mean, rest, at_zero):
        # smallest k with k >= mean or log bound(k) > _LOG_UNDERFLOW, given
        # the bound at k = 0
        k = np.zeros(p1.shape, dtype=int)
        # Only columns whose end cell underflows bisect. At small n that is
        # almost none of them; without the filter every column would take
        # log2(n) vectorized steps (noon n = 1..30 on 4001 nodes: 9 ms of
        # binomial_band per sweep would become 60-70 ms).
        cols = np.flatnonzero(at_zero <= _LOG_UNDERFLOW)
        mean, rest = mean[cols], rest[cols]
        bad, good = np.full(cols.size, -1), np.full(cols.size, n)
        while np.any(good - bad > 1):
            mid = (bad + good) // 2
            j = mid.astype(float)
            ok = (j >= mean) | (xlogy(j, mean) - xlogy(j, j) + xlogy(n - j, rest)
                                - xlogy(n - j, n - j) > _LOG_UNDERFLOW)
            good = np.where(ok, mid, good)
            bad = np.where(ok, bad, mid)
        k[cols] = good
        return k

    mean, rest = n * p1, n * (1.0 - p1)
    with np.errstate(divide="ignore", invalid="ignore"):  # n = 0: 0 * -inf is nan,
        at_k0, at_kn = n * np.log1p(-p1), n * np.log(p1)  # and no column bisects
    return edge(mean, rest, at_k0), n - edge(rest, mean, at_kn)
