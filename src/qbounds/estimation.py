"""Bayesian MMSE estimator over binomial measurement models.

A binary measurement with per-parameter success probability p1(x), repeated
n times, is summarized by the count k of 1-outcomes (a sufficient statistic,
so the outcome space is n+1 values instead of 2^n sequences). The posterior
mean per k is the MMSE estimate. ``mmse_mse`` is the one MMSE entry point:
one pass over the banded likelihood blocks returns the estimates, their
Bayes risk and the zero-evidence mask, holding one block at a time.
``estimator_bias`` walks the blocks again for the bias curve of given
estimates. ``mse_via_decomposition`` recomputes the risk as variance plus
squared bias over the dense table, as an independent check. Every integral
is Simpson quadrature on the shared grid. No Monte Carlo anywhere, so every quantity is
deterministic and testable to tight tolerances.
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
    "estimator_bias",
    "likelihood_table",
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
    zero_evidence: np.ndarray      # mask: outcome k impossible under the model


def likelihood_table(m: BinaryMeasurementModel, n: int) -> np.ndarray:
    """Dense binomial likelihood p(k|x) on the grid; shape (n+1, grid.m)."""
    if n < 0:
        raise DomainError(f"repetition count must be >= 0, got {n}")
    return log_binomial_pmf_vector(n, m.p1.values)


# Likelihood cells per block, counted at the widest column band; a column
# whose band alone is longer gets its own block. Each block is dropped once
# used, so the budget sets no memory floor: it trades the per-block overhead
# against keeping the kernel's and the moments' passes over a block (512 KiB
# here) in cache. 2^17 measured no faster on large_n or sweep.
_BLOCK_CELLS = 1 << 16


def _likelihood_blocks(m: BinaryMeasurementModel, n: int):
    """Yield (columns, k_lo, block) covering every nonzero likelihood cell.

    Columns are walked in chunks of one width, max(1, _BLOCK_CELLS // rows)
    with rows the length of the widest binomial_band (the last chunk may be
    narrower); each block holds rows k_lo..k_lo + len(block) - 1 of its
    columns, the union of their bands. Every cell outside the blocks is
    exactly 0.0 in likelihood_table.
    """
    p1 = m.p1.values
    lo, hi = binomial_band(n, p1)
    width = max(1, _BLOCK_CELLS // int((hi - lo).max() + 1))
    for start in range(0, p1.size, width):
        cols = slice(start, min(start + width, p1.size))
        k_lo, k_hi = int(lo[cols].min()), int(hi[cols].max())
        yield cols, k_lo, log_binomial_pmf_vector(n, p1[cols], k_lo, k_hi)


def _check_shared_grid(m: BinaryMeasurementModel, prior: PriorDensity) -> None:
    if m.grid != prior.grid:
        raise GridMismatch("measurement model and prior must share one grid")


def _posterior_means(evidence, first_moment, prior_mean):
    """(posterior mean per outcome count, zero-evidence mask); an outcome
    with zero evidence gets the prior mean."""
    zero = evidence <= 0.0
    return np.where(zero, prior_mean, first_moment / np.where(zero, 1.0, evidence)), zero


# Rounding costs s2 - s1^2/w about eps * s2 in each row. While a block's
# spreads keep at least this share of its s2, the block's total spread is
# good to about eps / _CANCELLATION relative, and the risk is a sum of such
# totals. Below it (posteriors narrow against their distance from the
# block's middle node, as on coarse grids) every row that falls below the
# share is summed again about its own mean.
_CANCELLATION = 2.0**-6


def _block_spread(block, x, wp, w):
    """Per row of one likelihood block over nodes x: (mean, spread) of x.

    The row's weights are block * wp, with total w. One product gives the
    moments s1, s2 of dx = x - c about the block's middle node c; the mean
    is c + s1/w and the spread sum (x - mean)^2 block wp is s2 - s1^2/w,
    except where that cancels (see _CANCELLATION).
    """
    c = x[x.size // 2]
    dx = x - c
    s1, s2 = (block @ np.column_stack([wp * dx, wp * dx * dx])).T
    d = s1 / np.where(w > 0.0, w, 1.0)
    spread = s2 - s1 * d
    if spread.sum() < _CANCELLATION * s2.sum():
        redo = np.flatnonzero(spread < _CANCELLATION * s2)
        dev = dx - d[redo, None]
        spread[redo] = (block[redo] * dev * dev) @ wp
    return c + d, spread


def mmse_mse(m: BinaryMeasurementModel, prior: PriorDensity, n: int) -> MmseReport:
    """Bayes risk of the posterior-mean estimator of x, in one pass.

    mse = \\int p(x) sum_k (x_hat(k) - x)^2 p(k|x) dx, summed as the
    posterior spread of each outcome, sum_k sum_x wp(x) p(k|x) (x - x_hat_k)^2
    with wp the Simpson weights times the prior density. The estimator
    targets the parameter itself (f(x) = x). Each banded likelihood block
    adds to every outcome's evidence, first moment and spread, and is
    dropped: memory is O(n) outcome arrays plus one block, never the
    (n+1) x m table. The spreads are merged block by block with the
    pairwise update of Chan, Golub & LeVeque (1979), so no outcome's spread
    is taken about a far-off point. Outcomes with zero evidence (impossible
    under the model) get the prior mean as their estimate and carry no
    weight in the risk.
    """
    if n < 0:
        raise DomainError(f"repetition count must be >= 0, got {n}")
    _check_shared_grid(m, prior)
    x, p = m.grid.nodes(), prior.samples.values
    wp = simpson_weights(m.grid.m, m.grid.h) * p
    weights = np.column_stack([wp, wp * x])
    # the O(n) outcome sums come first, so a hopeless n fails before any block
    evidence, first_moment, spread = np.zeros((3, n + 1))
    for cols, k_lo, block in _likelihood_blocks(m, n):
        rows = slice(k_lo, k_lo + len(block))
        part = block @ weights[cols]
        w, w_run = part[:, 0], evidence[rows]
        mean, own = _block_spread(block, x[cols], wp[cols], w)
        # merge (w, mean, own) into the running (w_run, first moment / w_run,
        # spread); a row seen for the first time (w_run = 0) takes the block's
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = mean - first_moment[rows] / w_run
            cross = delta * delta * (w_run * w / (w_run + w))
        spread[rows] += own + np.where(w_run > 0.0, cross, 0.0)
        evidence[rows] += w
        first_moment[rows] += part[:, 1]
    estimates, zero = _posterior_means(evidence, first_moment, wp @ x)
    return MmseReport(estimates, float(spread.sum()), zero)


def estimator_bias(m: BinaryMeasurementModel, estimates: np.ndarray) -> GridFunction:
    """Bias curve E[x_hat | x] - x of the estimates x_hat(k), k = 0..n.

    A second walk over the banded likelihood blocks of n = len(estimates) - 1
    repetitions; every cell outside them is 0.
    """
    n = len(estimates) - 1
    if n < 0:
        raise DomainError("need an estimate for each outcome count k = 0..n")
    x = m.grid.nodes()
    conditional_mean = np.empty(m.grid.m)
    for cols, k_lo, block in _likelihood_blocks(m, n):
        conditional_mean[cols] = estimates[k_lo:k_lo + len(block)] @ block
    return GridFunction(m.grid, conditional_mean - x)


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
