"""Low-level numerical kernels.

Composite Simpson quadrature, a LAPACK LDL^T factorization (pttrf/pttrs)
of symmetric positive definite tridiagonal systems, and the binomial
likelihood table, whole or in blocks over its exact band, from one log-cell
formula, all on plain arrays. Every 1-D sum over nodes is _dot's pairwise
sum, which calls no BLAS, so no digit depends on the BLAS thread count.

The band keeps, per column, the rows whose log-cell is at or above
_LOG_BAND_EDGE, so every cell outside it reads 0.0. A walk given its weights
also skips, for n > _CUT_FROM span, the cells below E0(k) - span, E0(k) being
outcome k's largest log-cell: they carry at most 2^-60 of every outcome's
weighted sums and of every column's mass (_cut_edge).

A log-cell starts as one BLAS product of the row factors (k, n - k, 1) and
the column factors (log_odds or 0, 0 or log_odds, log_q0). Of its three terms
one is an exact zero, so any grouping BLAS picks adds log_q0 to one rounded
kk log_odds, as _band does; log C(n, kk) is added after, not regrouped.

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
    "likelihood_blocks",
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


def _dot(a: np.ndarray, b: np.ndarray):
    """sum(a * b) over the last axis: numpy's pairwise sum, with no BLAS."""
    return np.sum(a * b, axis=-1)


def composite_simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule over uniformly spaced samples (last axis)."""
    y = np.asarray(values, dtype=float)
    return _dot(y, simpson_weights(y.shape[-1], h))


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
# _band keeps the rows whose log-cell is at or above this edge. The
# margin covers that one log-cell's rounding: about 2e-4 at n = 1e12, q = 1/2,
# against a drop of about 7.5e-5 a row there, so the concave cells can wiggle.
_LOG_BAND_EDGE = _LOG_FLOOR - 0.07


@functools.lru_cache(maxsize=1)
def _log_binomial_coefficients(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n, kept for the band and the blocks of one walk."""
    log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)  # log k!
    out = log_fact[n] - log_fact - log_fact[::-1]
    out.flags.writeable = False
    return out


def _check_probabilities(p1: np.ndarray) -> None:
    """Raise DomainError unless every sample lies in [0, 1]; nan fails too."""
    if p1.size and not (p1.min() >= 0.0 and p1.max() <= 1.0):
        raise DomainError("p1 samples must lie in [0, 1]")


def _repetition_count(n) -> int:
    """n as an int; DomainError unless it is an integer >= 0 (2.0 counts as 2)."""
    if not (n >= 0 and n % 1 == 0):
        raise DomainError(f"repetition count must be an integer >= 0, got {n!r}")
    return int(n)


def _column_terms(n, p1) -> tuple:
    """Check n and p1; the int n, then per column (q, mirror, log_odds, log_q0),
    whose log-cell at row k is kk log_odds + log_q0 + log C(n, kk), in that order:
    q = min(p1, 1 - p1), log_odds = log(q/(1-q)), log_q0 = n log1p(-q), and
    kk = n - k where mirror (p1 > 1/2; 1 - p1 is exact there, so the pair
    (k, p) and (n - k, 1 - p) runs the same arithmetic), else kk = k."""
    n = _repetition_count(n)
    p1 = np.asarray(p1, dtype=float)
    _check_probabilities(p1)
    mirror = p1 > 0.5
    q = np.where(mirror, 1.0 - p1, p1)
    with np.errstate(divide="ignore"):
        log_odds = np.log(q / (1.0 - q))
    # q = 0: a finite stand-in for log 0 keeps 0 * log_odds = 0 at kk = 0
    np.maximum(log_odds, -np.finfo(float).max, out=log_odds)
    return n, q, mirror, log_odds, n * np.log1p(-q)


def _log_pmf_rows(n, rows, mirror, log_odds, log_q0, buffer) -> np.ndarray:
    """log_binomial_pmf_vector's rows (a slice) from _column_terms, as a view of buffer."""
    k = np.arange(rows.start, rows.stop)
    out = buffer[:k.size * mirror.size].reshape(k.size, mirror.size)
    by_row = np.empty((3, k.size))  # the row factors (k, n - k, 1), as columns of by_row.T
    by_row[0], by_row[1], by_row[2] = k, n - k, 1.0
    factors = np.array([np.where(mirror, 0.0, log_odds), np.where(mirror, log_odds, 0.0), log_q0])
    # contiguous column runs that share one row vector kk = k or n - k
    edges = [0, *(np.flatnonzero(np.diff(mirror)) + 1), mirror.size] if mirror.size else []
    with np.errstate(over="ignore"):
        np.matmul(by_row.T, factors, out=out)
        for a, b in zip(edges[:-1], edges[1:]):
            out[:, a:b] += _log_binomial_coefficients(n)[n - k if mirror[a] else k][:, None]
    # Each column's log-pmf is concave in k, so its smallest cell is in the
    # first or last row (-inf there, q = 0, gives exact zeros). Only where
    # those hold a finite cell below the floor are cells flushed, to -inf:
    # exp gives an exact 0.0 for it, far cheaper than a subnormal result.
    ends = out[[0, -1]]
    if np.any((ends < _LOG_FLOOR) & (ends > -np.inf)):
        np.copyto(out, -np.inf, where=out < _LOG_FLOOR)
    return np.exp(out, out=out)


def log_binomial_pmf_vector(n: int, p1: np.ndarray) -> np.ndarray:
    """The (n + 1) x len(p1) binomial likelihood table, cell (k, x) being
    C(n,k) p1^k (1-p1)^(n-k): the exponential of the log-cell of _column_terms
    (exact 0/1 cells where q = 0), kk log_odds + log_q0 from one BLAS product
    whose third term is an exact zero (see above), then + log C(n, kk). A cell
    whose log is below _LOG_FLOOR reads exactly 0.0, so every cell is 0.0 or
    a normal double.
    """
    n, _, *columns = _column_terms(n, p1)
    return _log_pmf_rows(n, slice(0, n + 1), *columns, np.empty((n + 1) * columns[0].size))


# Likelihood cells per block at the widest band: the per-block overhead
# against keeping a block (512 KiB) in cache; 2^17 was no faster on large_n or
# sweep. Blocks of one column, not 16, made noon n = 1e6 4x slower.
_BLOCK_CELLS = 1 << 16
_BLOCK_MIN_WIDTH = 16


def likelihood_blocks(n: int, p1: np.ndarray, weights=None):
    """Yield (cols, rows, block), two slices and log_binomial_pmf_vector(n, p1)
    [rows, cols] to the bit. With no weights every cell outside the blocks is
    exactly 0.0. Given the (m, j) weights a walk multiplies its blocks by, the
    cells outside carry at most 2^-60 of each outcome's sum of |weights| x
    cells, per weight column, and of each column's sum over outcomes (see
    _cut_edge).

    Columns go in chunks of max(_BLOCK_MIN_WIDTH, _BLOCK_CELLS // L), L the
    widest _band's length (the last chunk may be narrower); a block's rows
    are the union of its columns' bands. Where bands drift apart across a
    chunk (coarse grids, narrow cut bands), the width halves until no block
    holds over 2 _BLOCK_CELLS cells or it reaches _BLOCK_MIN_WIDTH.
    _column_terms runs once, and every block is written into one buffer,
    valid until the next is yielded.
    """
    n, q, *columns = _column_terms(n, p1)  # columns: mirror, log_odds, log_q0
    if not q.size:
        return
    lo, hi = _band(n, q, *columns, _cut_edge(n, p1, weights, *columns))
    width = max(_BLOCK_MIN_WIDTH, _BLOCK_CELLS // int((hi - lo).max() + 1))
    while True:
        starts = np.arange(0, q.size, width)
        lows, highs = np.minimum.reduceat(lo, starts), np.maximum.reduceat(hi, starts)
        cells = int(((highs - lows + 1) * np.diff(starts, append=q.size)).max())
        if width == _BLOCK_MIN_WIDTH or cells <= 2 * _BLOCK_CELLS:
            break
        width = max(_BLOCK_MIN_WIDTH, width // 2)
    buffer = np.empty(cells)
    for start, first, last in zip(starts.tolist(), lows.tolist(), highs.tolist()):
        cols, rows = slice(start, min(start + width, q.size)), slice(first, last + 1)
        yield cols, rows, _log_pmf_rows(n, rows, *(c[cols] for c in columns), buffer)


# A skipped cell lies below its outcome's largest cell by the span, at least
# 60 ln 2 nats plus the margin of _LOG_BAND_EDGE for the log-cells' rounding.
_CUT_NATS = 60.0 * math.log(2.0) + (_LOG_FLOOR - _LOG_BAND_EDGE)
# The cut shortens the widest band, about sqrt(2 n span) rows, once n > 2 span;
# its bisections over every column pay from about twice that: mmse_mse on
# 4001 nodes, where the span is 57, broke even at n = 170-300.
_CUT_FROM = 4.0


def _cut_edge(n, p1, weights, mirror, log_odds, log_q0):
    """Per outcome k, the least log-cell a walk with these weights keeps,
    max(_LOG_BAND_EDGE, E0(k) - span), or None (_band's own edge) with no
    finite weights or where the cut would not pay, n <= _CUT_FROM span.

    E0(k), outcome k's largest log-cell, is at one of the two samples that
    bracket k/n: the log-cell is strictly concave in p1. A skipped cell is
    below e^(E0(k) - span); the span is _CUT_NATS plus the larger of
      (a) over the outcomes the cut reaches and the columns u of |weights|,
          the largest E0(k) + log sum(u) - log max_c u_c cell(k, c), the max
          taken over E0's column and its grid neighbours, so bounded below;
      (b) log sum_k e^E0(k).
    So the skipped cells carry at most 2^-60 of every outcome's u-weighted
    sum (a) and of every column's mass (b), for any prior and grid; the span
    grows, to inf where no candidate cell has weight. E0(k) - log C(n, k),
    a max of functions linear in k, is convex, so a column keeps one run.
    """
    if weights is None or n <= _CUT_FROM * _CUT_NATS or not np.isfinite(weights).all():
        return None
    p1, u = np.asarray(p1, dtype=float), np.abs(weights)
    # log 0 = -inf at a zero weight; a sum past the double range makes the span inf
    with np.errstate(divide="ignore", over="ignore"):
        u = u[:, u.sum(axis=0) > 0.0]  # a column of zeros asks nothing
        log_u, log_total = np.log(u), np.log(u.sum(axis=0))
    # An outcome whose peak is in column c has (a) at most own[c], from that
    # cell alone. Its grid neighbours can lower that only where they weigh
    # more, and are tried where one weighs over 4x more (a zero weight, an
    # end of x = 0): elsewhere own[c] is at most log 4 loose.
    own = (log_total - log_u).max(axis=1, initial=-np.inf)
    side = np.pad(log_u, ((1, 1), (0, 0)), constant_values=-np.inf) - math.log(4.0)
    lift = np.any((side[:-2] > log_u) | (side[2:] > log_u), axis=1)

    def log_cells(k, cols):
        return _log_cells(n, np.where(mirror[cols], n - k, k), log_odds[cols], log_q0[cols])

    order = np.argsort(p1)
    # per row k, the number of samples below k/n, so the two that bracket it
    below = np.bincount(np.floor(p1[order] * n).astype(int) + 1, minlength=n + 2).cumsum()
    peak, slack, seen, rows = np.empty(n + 1), -np.inf, np.zeros(p1.size, bool), 1 << 14
    for start in range(0, n + 1, rows):  # rows at a time: temporaries of about 1 MB
        k = np.arange(start, min(start + rows, n + 1))
        pair = order[np.clip([below[k] - 1, below[k]], 0, p1.size - 1)]
        cells = log_cells(k, pair)
        peak[k], top = cells.max(axis=0), np.where(cells[1] > cells[0], pair[1], pair[0])
        reach = peak[k] >= _LOG_BAND_EDGE + _CUT_NATS
        k, top = k[reach], top[reach]
        seen[top] = True
        k, top = k[lift[top]], top[lift[top]]
        near = np.clip(top + np.array([[-1], [0], [1]]), 0, p1.size - 1)
        cells = log_cells(k, near)
        best = np.max(np.where(cells >= _LOG_FLOOR, cells, -np.inf)[..., None]
                      + log_u[near], axis=0)
        slack = np.maximum(slack, (peak[k, None] + log_total - best).max(initial=-np.inf))
    slack = np.maximum(slack, own[seen & ~lift].max(initial=-np.inf))  # (a)
    span = _CUT_NATS + np.maximum(slack, peak.max() + np.log(np.exp(peak - peak.max()).sum()))  # (b)
    if n <= _CUT_FROM * span:
        return None
    return np.maximum(_LOG_BAND_EDGE, peak - span)


def _log_cells(n, kk, log_odds, log_q0):
    """The log-cells at rows kk (kk = n - k in mirrored columns) of columns with
    these terms of _column_terms, summed in the kernel's order."""
    with np.errstate(over="ignore"):  # q = 0: kk * -max overflows to -inf
        return kk * log_odds + log_q0 + _log_binomial_coefficients(n)[kk]


def _band(n, q, mirror, log_odds, log_q0, edge=None) -> tuple[np.ndarray, np.ndarray]:
    """Per column of _column_terms, the first and last k whose log-cell is at
    or above the edge: _LOG_BAND_EDGE, or edge[k] when _cut_edge gives one.

    The log-cell is the kernel's own, summed in its order, so every cell
    outside the band reads 0.0 or is one _cut_edge may skip. Less the edge,
    it is concave in kk and peaks far above 0 at the mode floor((n + 1) q),
    from which an integer bisection per side finds the edge: there the cell
    is within n KL(k/n || q) <= 4 nats of E0(k), and _CUT_NATS is over 41.
    Mirrored columns map back by k = n - kk. Reads the cached log C(n, k)
    table: O(n) memory, like the walk that uses it.
    """
    def kept(kk, cols):
        cells = _log_cells(n, kk, log_odds[cols], log_q0[cols])
        if edge is None:
            return cells >= _LOG_BAND_EDGE
        return cells >= edge[np.where(mirror[cols], n - kk, kk)]

    # Only columns whose end cell is below the edge bisect: at small n almost
    # none do, and bisecting them all would cost 3x (noon n = 30, 4001 nodes).
    # Nor does q = 0 (p1 exactly 0 or 1), whose one cell, kk = 0, is exactly 1.
    sure = q == 0.0
    cols_lo = np.flatnonzero(~kept(0, slice(None)) & ~sure)
    cols_hi = np.flatnonzero(~kept(n, slice(None)) & ~sure)
    cols = np.concatenate([cols_lo, cols_hi])
    # good is kept and bad is not; each side closes in on its edge
    side = np.repeat([0, 1], [cols_lo.size, cols_hi.size])
    good, bad = np.floor((n + 1) * q[cols]).astype(int), n * side
    while np.any((good - bad > 1) | (bad - good > 1)):
        mid = (good + bad) // 2
        ok = kept(mid, cols)
        good, bad = np.where(ok, mid, good), np.where(ok, bad, mid)
    # a mirrored column's edge in kk is its edge in k on the other side
    band = np.array([[0], [n]]).repeat(q.size, axis=1)
    band[np.where(mirror[cols], 1 - side, side), cols] = np.where(mirror[cols], n - good, good)
    band[:, sure] = np.where(mirror[sure], n, 0)
    return band[0], band[1]
