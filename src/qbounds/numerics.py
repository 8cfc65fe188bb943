"""Low-level numerical kernels.

Composite Simpson quadrature, a LAPACK LDL^T factorization (pttrf/pttrs)
of symmetric positive definite tridiagonal systems, and log-domain binomial
probabilities. Everything here works on plain arrays; grid-aware wrappers
live where the grid types do.

dpttrf/dpttrs come from scipy's compiled ``_flapack`` extension, loaded by file
without importing ``scipy.linalg``, which would more than double the start-up
of every CLI run; scipy is still required, since the extension ships with it.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os

import numpy as np

from .errors import DomainError, SingularSystem

__all__ = [
    "simpson_weights",
    "composite_simpson",
    "solve_tridiagonal",
    "log_binomial_pmf_vector",
    "binomial_band",
]


def _load_lapack():
    """dpttrf, dpttrs from scipy's _flapack file, else from scipy.linalg.lapack."""
    linalg_dir = os.path.join(os.path.dirname(importlib.util.find_spec("scipy").origin), "linalg")
    spec = importlib.machinery.PathFinder.find_spec("_flapack", [linalg_dir])
    if spec is None:  # scipy laid out otherwise: the same routines, slower to import
        from scipy.linalg.lapack import dpttrf, dpttrs
        return dpttrf, dpttrs
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dpttrf, module.dpttrs


dpttrf, dpttrs = _load_lapack()


def simpson_weights(m: int, h: float) -> np.ndarray:
    """Composite Simpson weights (h/3)(1, 4, 2, ..., 2, 4, 1) for m samples.

    Requires an odd sample count (an even number of panels). The weighted
    sum is exact for cubics on each panel pair.
    """
    if m < 3 or m % 2 == 0:
        raise DomainError(f"Simpson rule needs an odd sample count >= 3, got {m}")
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


# A cell whose log-probability is below log(2^-1022) = -708.40 reads 0.0, so
# every cell is 0.0 or a normal double: a subnormal result costs exp about
# 100x a normal one, and a BLAS product that reads one about 60x.
_LOG_FLOOR = math.log(np.finfo(float).tiny)
# binomial_band's edge sits this far below the floor: the margin covers the
# rounding of the O(n log n) terms in both the kernel and the bound for n up
# to ~1e12, so every cell outside the band is below the floor.
_LOG_BAND_EDGE = _LOG_FLOOR - 0.07


@functools.lru_cache(maxsize=1)
def _log_binomial_coefficients(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n, kept for the blocks of one table."""
    log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)  # log k!
    out = log_fact[n] - log_fact - log_fact[::-1]
    out.flags.writeable = False
    return out


def _check_probabilities(p1: np.ndarray) -> None:
    """Raise DomainError unless every sample lies in [0, 1]; nan fails too."""
    if not (p1.min() >= 0.0 and p1.max() <= 1.0):
        raise DomainError("p1 samples must lie in [0, 1]")


def log_binomial_pmf_vector(
    n: int, p1: np.ndarray, k_lo: int = 0, k_hi: int | None = None
) -> np.ndarray:
    """Rows k_lo..k_hi (default 0..n) of the binomial likelihood table.

    Returns shape (k_hi - k_lo + 1, len(p1)); cell (k, x) is
    C(n,k) p1^k (1-p1)^(n-k), computed as one exponential of
    k log(q/(1-q)) + n log1p(-q) + log C(n,k) with q = min(p1, 1 - p1) and
    k mirrored to n - k where p1 > 1/2 (1 - p1 is exact there, so the pair
    (k, p) and (n - k, 1 - p) runs the same arithmetic). A q = 0 column has
    exact 0/1 cells. A cell whose log is below _LOG_FLOOR reads exactly 0.0,
    so every cell is 0.0 or a normal double.
    """
    p1 = np.asarray(p1, dtype=float)
    _check_probabilities(p1)
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
            # a float row spares the outer product an int-to-float cast per cell
            np.multiply.outer(kk.astype(float), log_odds[a:b], out=block)
            block += log_q0[a:b]
            block += log_c[kk][:, None]
    # Each column's log-pmf is concave in k, so its smallest cell is in the
    # first or last row; -inf there (q = 0) already gives exact zeros. Only
    # where either row holds a finite cell below the floor do cells need
    # flushing: to -inf, whose exp is an exact 0.0 at a few times the cost of
    # a normal result and far below that of a subnormal one.
    ends = out[[0, -1]] if len(out) else out
    if np.any((ends < _LOG_FLOOR) & (ends > -np.inf)):
        np.copyto(out, -np.inf, where=out < _LOG_FLOOR)
    return np.exp(out, out=out)


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x log y, and 0 where x == 0 (scipy.special.xlogy for y >= 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


def binomial_band(n: int, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the first and last k whose probability may be nonzero.

    Outside [lo, hi] the method-of-types bound pmf(k) <= exp(-n KL(k/n||p1))
    puts every cell below exp(_LOG_BAND_EDGE), under _LOG_FLOOR, so
    log_binomial_pmf_vector returns exactly 0.0 there. The bound rises
    monotonically from k = 0 and from k = n towards n p1; where it is above
    the edge at an end, that end is kept, and elsewhere an integer bisection
    finds the edge.
    """
    p1 = np.asarray(p1, dtype=float)

    def edge(mean, rest, at_zero):
        # smallest k with k >= mean or log bound(k) > _LOG_BAND_EDGE, given
        # the bound at k = 0
        k = np.zeros(p1.shape, dtype=int)
        # Only columns whose end cell is below the edge bisect. At small n
        # that is almost none of them; without the filter every column would
        # take log2(n) vectorized steps (noon n = 1..30 on 4001 nodes: 9 ms
        # of binomial_band per sweep would become 60-70 ms).
        cols = np.flatnonzero(at_zero <= _LOG_BAND_EDGE)
        mean, rest = mean[cols], rest[cols]
        bad, good = np.full(cols.size, -1), np.full(cols.size, n)
        while np.any(good - bad > 1):
            mid = (bad + good) // 2
            j = mid.astype(float)
            ok = (j >= mean) | (_xlogy(j, mean) - _xlogy(j, j) + _xlogy(n - j, rest)
                                - _xlogy(n - j, n - j) > _LOG_BAND_EDGE)
            good = np.where(ok, mid, good)
            bad = np.where(ok, bad, mid)
        k[cols] = good
        return k

    mean, rest = n * p1, n * (1.0 - p1)
    with np.errstate(divide="ignore", invalid="ignore"):  # n = 0: 0 * -inf is nan,
        at_k0, at_kn = n * np.log1p(-p1), n * np.log(p1)  # and no column bisects
    return edge(mean, rest, at_k0), n - edge(rest, mean, at_kn)
