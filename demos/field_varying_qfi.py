"""Qubit in an XZ-plane magnetic field: parameter-dependent information.

Here the QFI depends on the direction x being estimated, J(x) = 2 - sin^2 x
at B = pi/2, so no closed-form bound exists and the optimal bias comes from
the finite-difference boundary-value solver. The printed diagnostics show
the solver residual that backs each bound value.
"""
import math

from qbounds import (
    FieldParams,
    bayesian_qcrb,
    field_model,
    mmse_mse,
    obb_variational,
)

GRID_M = 4001
SUPPORT = (0.0, math.pi / 2.0)

print(f"{'n':>3} {'qcrb':>12} {'obb':>12} {'mmse':>12} {'ode_residual':>13}")
for n in (1, 2, 3, 5, 10, 20, 30):
    problem, model = field_model(FieldParams(math.pi / 2.0), SUPPORT, GRID_M, n)
    qcrb = bayesian_qcrb(problem).value
    rep = obb_variational(problem)
    mse = mmse_mse(model, problem.prior, n).mse
    print(
        f"{n:>3} {qcrb:12.6g} {rep.value:12.6g} {mse:12.6g} "
        f"{rep.residual:13.3e}"
    )

problem, _ = field_model(FieldParams(math.pi / 2.0), SUPPORT, GRID_M, 1)
j = problem.qfi.values  # n * J(x) at n = 1
print(f"\nJ(x) ranges over [{j.min():.3f}, {j.max():.3f}] on the support")
