"""Correctness oracles for the CSV each invocation prints, and the edge probe.

Every check compares against a route the CLI does not take: the closed-form
OBB (acceptance criterion 1), the variance-plus-bias MMSE decomposition
(criterion 6), log-space posterior means, and the tower identity
E[E[x_hat | x]] = E[x]. Each returns the number of points that failed.
"""
from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from scipy.special import gammaln, logsumexp, xlogy

from qbounds import cli
from qbounds.bounds import obb_closed_form, obb_variational, optimal_bias_closed_form
from qbounds.errors import QboundsError
from qbounds.estimation import mse_via_decomposition
from qbounds.models import (
    DephasingParams,
    FieldParams,
    InterferometerParams,
    NoonParams,
    dephasing_model,
    field_model,
    interferometer_problem,
    interferometer_qfi,
    noon_model,
)
from qbounds.numerics import composite_simpson

from workloads import PRIOR, Invocation, Point

OBB_REL_TOL = 1e-6     # criterion 1: variational vs closed-form OBB
MMSE_ABS_TOL = 1e-10   # criterion 6: MMSE vs its decomposition
# Posterior means are compared only where the evidence is safely above
# double-precision underflow, which the CLI's linear-space sums cannot see.
_LOG_EVIDENCE_FLOOR = math.log(1e-280)


def build(example: str, point: Point, grid: int):
    """(problem, measurement model or None) for one point, via the library."""
    prior, p, n = PRIOR[example], point.params, point.n
    if example == "noon":
        return noon_model(NoonParams(int(p["N"])), prior, grid, n)
    if example == "dephasing":
        return dephasing_model(DephasingParams.from_eta(p["eta"]), prior, grid, n)
    if example == "interferometer":
        params = InterferometerParams(p["n_a"], p["n_b"])
        return interferometer_problem(params, prior, grid, n), None
    return field_model(FieldParams(p["B"]), prior, grid, n)


def constant_qfi(example: str, params: dict) -> float | None:
    """Single-shot QFI of the constant-J examples; None for the field."""
    if example == "noon":
        return params["N"] ** 2
    if example == "dephasing":
        return params["eta"] ** 2
    if example == "interferometer":
        return interferometer_qfi(InterferometerParams(params["n_a"], params["n_b"]))
    return None


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check(inv: Invocation, csv_text: str) -> int:
    """Failed points of one invocation's CSV (all of them if it is malformed)."""
    try:
        header, rows = parse_csv(csv_text)
        return {"bounds": _check_bounds, "bias": _check_bias,
                "mmse": _check_mmse}[inv.command](inv, header, rows)
    except (IndexError, ValueError, KeyError):
        return len(inv.points)


def _check_bounds(inv: Invocation, header, rows) -> int:
    if header != ["axis", "qcrb", "obb", "mmse", "obb_residual"] \
            or len(rows) != len(inv.points):
        return len(inv.points)
    a = PRIOR[inv.example][1]
    failed = 0
    for point, row in zip(inv.points, rows):
        obb = float(row[2])
        ok = True
        j = constant_qfi(inv.example, point.params)
        if j is not None:
            closed = obb_closed_form(point.n * j, a).value
            ok = abs(obb - closed) <= OBB_REL_TOL * closed
        problem, model = build(inv.example, point, inv.grid)
        if model is None:
            ok = ok and row[3] == ""
        else:
            oracle = mse_via_decomposition(model, problem.prior, point.n)
            ok = ok and abs(float(row[3]) - oracle) <= MMSE_ABS_TOL
        failed += not ok
    return failed


def _check_bias(inv: Invocation, header, rows) -> int:
    """Optimal bias against its closed form; MMSE bias by the tower identity."""
    (point,) = inv.points
    if header != ["x", "bias_opt", "bias_mmse"] or len(rows) != inv.grid:
        return 1
    problem, _ = build(inv.example, point, inv.grid)
    values = np.array(rows, dtype=float)
    p, h = problem.prior.samples.values, problem.grid.h
    ok = abs(composite_simpson(p * values[:, 2], h)) <= MMSE_ABS_TOL
    j = constant_qfi(inv.example, point.params)
    if j is not None:
        closed = optimal_bias_closed_form(point.n * j, PRIOR[inv.example][1],
                                          problem.grid).values
        scale = np.max(np.abs(closed))
        ok = ok and np.max(np.abs(values[:, 1] - closed)) <= OBB_REL_TOL * scale
    return int(not ok)


def _check_mmse(inv: Invocation, header, rows) -> int:
    """Posterior means against a log-space evaluation of Bayes' rule."""
    (point,) = inv.points
    n = point.n
    if header != ["k", "estimate", "zero_evidence"] or len(rows) != n + 1:
        return 1
    problem, model = build(inv.example, point, inv.grid)
    x = problem.grid.nodes()
    p1 = model.p1.values
    k = np.arange(n + 1)[:, None]
    log_like = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                + xlogy(k, p1) + xlogy(n - k, 1.0 - p1))
    weights = np.full(problem.grid.m, 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    log_joint = log_like + np.log(weights * problem.prior.samples.values
                                  * problem.grid.h / 3.0)
    log_evidence = logsumexp(log_joint, axis=1)
    means = np.exp(log_joint - log_evidence[:, None]) @ x
    estimate = np.array([float(r[1]) for r in rows])
    zero = np.array([int(r[2]) for r in rows]) == 1
    live = log_evidence > _LOG_EVIDENCE_FLOOR
    ok = not np.any(zero & live) and np.all(
        np.abs(estimate[live] - means[live]) <= MMSE_ABS_TOL)
    return int(not ok)


# The edge cases ROADMAP lists as live defects: the field model at tiny B
# raises SingularSystem where the OBB should tend to the prior variance, and
# the NOON OBB at n = 1e6 drifts from its closed form with no warning (bounds
# only: a dense MMSE table at that n would need about 32 GB).
_EDGE_ARGV = (
    ("bounds", "--example", "field", "--n", "1", "--param", "B=1e-3"),
    ("bounds", "--example", "field", "--n", "1", "--param", "B=1e-4"),
)
_EDGE_NOON_N = 10**6


def edge_defects() -> int:
    """Number of known edge cases that still fail."""
    defects = 0
    sink = io.StringIO()
    for argv in _EDGE_ARGV:
        with redirect_stdout(sink), redirect_stderr(sink):
            defects += cli.main(list(argv)) != 0
    point = Point(_EDGE_NOON_N, {"N": 10.0})
    try:
        problem, _ = build("noon", point, 4001)
        value = obb_variational(problem).value
    except QboundsError:
        return defects + 1
    closed = obb_closed_form(_EDGE_NOON_N * 100.0, PRIOR["noon"][1]).value
    return defects + (abs(value - closed) > OBB_REL_TOL * closed)
