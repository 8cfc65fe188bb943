"""The public names: every ``__all__`` entry exists, and the package exports a fixed set.

``import qbounds`` star-imports bounds, core, errors, estimation and models,
so a stale ``__all__`` entry in one of them fails at ``import qbounds``. The
benchmark's span recorder (``bench/spans.py``) wraps each name in a
module's ``__all__``, so a stale entry in numerics, which the package
imports only in part, would surface there, as a crash.
"""
import importlib
import inspect

import pytest

import qbounds
from qbounds import errors

MODULES = ("cli", "models", "core", "bounds", "numerics", "estimation", "errors")
# The whole public surface of ``import qbounds``: a name dropped from the
# library must leave this set, and a name added must join it.
PUBLIC = {
    "BoundReport", "bayesian_qcrb", "bias_ode_residual", "bound_functional",
    "obb_closed_form", "obb_variational", "optimal_bias_closed_form",
    "solve_optimal_bias",
    "DEFAULT_GRID_M", "EstimationProblem", "GridFunction", "ParameterGrid",
    "PriorDensity", "make_uniform_prior",
    "ConfigError", "DomainError", "InvariantViolation", "QboundsError",
    "SingularSystem",
    "BinaryMeasurementModel", "MmseReport", "estimator_bias", "mmse_mse",
    "mse_via_decomposition",
    "DephasingParams", "FieldParams", "InterferometerParams", "NoonParams",
    "dephasing_model", "field_model", "interferometer_problem",
    "interferometer_qfi", "noon_model",
    "composite_simpson", "solve_tridiagonal",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"qbounds.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_exposes_exactly_the_public_names():
    names = {n for n, v in vars(qbounds).items()
             if not n.startswith("_") and not inspect.ismodule(v)}
    assert names == PUBLIC


def test_every_error_class_is_exported():
    classes = {n for n, v in vars(errors).items() if isinstance(v, type)}
    assert classes == {"QboundsError", "DomainError", "SingularSystem",
                       "ConfigError", "InvariantViolation"}
    assert set(errors.__all__) == classes <= PUBLIC
