"""Bayesian MMSE estimator over binomial measurement models.

A binary measurement with per-parameter success probability p1(x), repeated
n times, is summarized by the count k of 1-outcomes (a sufficient statistic,
so the outcome space is n+1 values instead of 2^n sequences). The posterior
mean per k is the MMSE estimate; Bayes risk, the estimator bias curve, and
the variance/bias decomposition are all computed by Simpson quadrature on
the shared grid. No Monte Carlo anywhere, so every quantity is deterministic
and testable to tight tolerances.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GridFunction, ParameterGrid, PriorDensity
from .errors import DomainError, GridMismatch
from .numerics import (
    binomial_band,
    composite_simpson,
    log_binomial_pmf_vector,
    simpson_weights,
)

__all__ = [
    "BinaryMeasurementModel",
    "MmseReport",
    "likelihood_table",
    "mmse_estimates",
    "mmse_mse",
    "mse_via_decomposition",
]


@dataclass(frozen=True, eq=False)
class BinaryMeasurementModel:
    """Single-shot probability of outcome 1 as a function of the parameter."""

    p1: GridFunction

    def __post_init__(self) -> None:
        v = self.p1.values
        if v.min() < 0.0 or v.max() > 1.0:
            raise DomainError("p1 samples must lie in [0, 1]")

    @property
    def grid(self) -> ParameterGrid:
        return self.p1.grid


@dataclass(frozen=True, eq=False)
class MmseReport:
    """MMSE estimator summary for one repetition count."""

    estimates: np.ndarray          # posterior mean per outcome count k
    mse: float                     # Bayes risk of the posterior-mean estimator
    bias_curve: GridFunction       # E[x_hat | x] - x
    zero_evidence: np.ndarray      # mask: outcome k impossible under the model


def likelihood_table(m: BinaryMeasurementModel, n: int) -> np.ndarray:
    """Dense binomial likelihood p(k|x) on the grid; shape (n+1, grid.m)."""
    if n < 0:
        raise DomainError(f"repetition count must be >= 0, got {n}")
    return log_binomial_pmf_vector(n, m.p1.values)


# Likelihood cells per block (512 KiB, so the kernel's passes over a block
# stay in cache); a column whose band alone is longer gets its own block.
_BLOCK_CELLS = 1 << 16


def _likelihood_blocks(m: BinaryMeasurementModel, n: int):
    """Yield (columns, k_lo, block) covering every nonzero likelihood cell.

    Columns are walked in contiguous chunks; each block holds rows
    k_lo..k_lo + len(block) - 1 of those columns, the union of their
    binomial_band rows, with at most _BLOCK_CELLS cells unless a single
    column's band is longer. Every cell outside the blocks is exactly 0.0 in
    likelihood_table.
    """
    if n < 0:
        raise DomainError(f"repetition count must be >= 0, got {n}")
    p1 = m.p1.values
    lo, hi = binomial_band(n, p1)
    start = 0
    while start < p1.size:
        # every column has a row, so no more than _BLOCK_CELLS columns fit
        stop = min(p1.size, start + _BLOCK_CELLS)
        rows = (np.maximum.accumulate(hi[start:stop])
                - np.minimum.accumulate(lo[start:stop]) + 1)
        cells = rows * np.arange(1, rows.size + 1)
        stop = start + max(1, int(np.searchsorted(cells, _BLOCK_CELLS, side="right")))
        cols = slice(start, stop)
        k_lo, k_hi = int(lo[cols].min()), int(hi[cols].max())
        yield cols, k_lo, log_binomial_pmf_vector(n, p1[cols], k_lo, k_hi)
        start = stop


def _check_shared_grid(m: BinaryMeasurementModel, prior: PriorDensity) -> None:
    if m.grid != prior.grid:
        raise GridMismatch("measurement model and prior must share one grid")


def _posterior_means(evidence, first_moment, prior_mean):
    """(posterior mean per outcome count, zero-evidence mask); an outcome
    with zero evidence gets the prior mean."""
    zero = evidence <= 0.0
    return np.where(zero, prior_mean, first_moment / np.where(zero, 1.0, evidence)), zero


def _banded_posterior_means(m: BinaryMeasurementModel, prior: PriorDensity, n: int,
                            keep: list | None = None):
    """(posterior means, zero-evidence mask) summed over likelihood blocks.

    Evidence and first moment are Simpson sums over x, taken block by block
    as products with the prior-weighted Simpson weights. The O(n) sums are
    allocated before any block; the blocks are appended to ``keep`` if given.
    """
    _check_shared_grid(m, prior)
    x = m.grid.nodes()
    wp = simpson_weights(m.grid.m, m.grid.h) * prior.samples.values
    weights = np.column_stack([wp, wp * x])
    moments = np.zeros((n + 1, 2))                      # evidence, first moment
    for cols, k_lo, block in _likelihood_blocks(m, n):
        moments[k_lo:k_lo + len(block)] += block @ weights[cols]
        if keep is not None:
            keep.append((cols, k_lo, block))
    return _posterior_means(moments[:, 0], moments[:, 1], wp @ x)


def mmse_estimates(
    m: BinaryMeasurementModel, prior: PriorDensity, n: int
) -> np.ndarray:
    """Posterior mean x_hat(k) for k = 0..n.

    Zero-evidence outcomes (impossible under the model) are reported as the
    prior mean; they carry zero probability weight in any risk sum.
    """
    return _banded_posterior_means(m, prior, n)[0]


def mmse_mse(m: BinaryMeasurementModel, prior: PriorDensity, n: int) -> MmseReport:
    """Bayes risk and bias curve of the posterior-mean estimator of x.

    mse = \\int p(x) sum_k (x_hat(k) - x)^2 p(k|x) dx, and
    bias_curve(x) = sum_k x_hat(k) p(k|x) - x. The estimator targets the
    parameter itself (f(x) = x). Only the banded likelihood blocks are
    formed, and kept for the second sweep: memory is O(n + kept cells),
    never the (n+1) x m table.
    """
    blocks = []
    estimates, zero = _banded_posterior_means(m, prior, n, keep=blocks)
    x, p = m.grid.nodes(), prior.samples.values
    risk = np.empty(m.grid.m)
    conditional_mean = np.empty(m.grid.m)               # E[x_hat | x]
    for cols, k_lo, block in blocks:
        est = estimates[k_lo:k_lo + len(block)]
        sq = np.subtract.outer(est, x[cols])
        sq *= sq
        risk[cols] = np.einsum("km,km->m", block, sq)
        conditional_mean[cols] = est @ block
    mse = float(composite_simpson(p * risk, m.grid.h))
    bias_curve = GridFunction(m.grid, conditional_mean - x)
    return MmseReport(estimates, mse, bias_curve, zero)


def mse_via_decomposition(
    m: BinaryMeasurementModel, prior: PriorDensity, n: int
) -> float:
    """Bayes risk via the variance-plus-squared-bias decomposition.

    \\int p(x) [ Var(x_hat | x) + bias(x)^2 ] dx over the dense likelihood
    table; independent route used to cross-check mmse_mse.
    """
    _check_shared_grid(m, prior)
    x, p = m.grid.nodes(), prior.samples.values
    wp = simpson_weights(m.grid.m, m.grid.h) * p
    like = likelihood_table(m, n)                       # (n+1, m)
    estimates, _ = _posterior_means(like @ wp, like @ (wp * x), wp @ x)
    conditional_mean = estimates @ like
    dev = (estimates[:, None] - conditional_mean[None, :]) ** 2
    var = np.einsum("km,km->m", like, dev)
    bias = conditional_mean - x
    return float(composite_simpson(p * (var + bias**2), m.grid.h))
