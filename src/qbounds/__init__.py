"""qbounds: valid MSE lower bounds for quantum parameter estimation.

Computes the Bayesian quantum Cramer-Rao bound and the optimal biased bound
(closed form and variational), and simulates the Bayesian MMSE estimator for
binomial measurement models, on a shared deterministic grid.
"""

from .bounds import (
    BoundReport,
    bayesian_qcrb,
    bias_ode_residual,
    bound_functional,
    obb_closed_form,
    obb_variational,
    optimal_bias_closed_form,
    solve_optimal_bias,
)
from .core import (
    DEFAULT_GRID_M,
    EstimationProblem,
    GridFunction,
    ParameterGrid,
    PriorDensity,
    QfiProfile,
    TargetFunction,
    make_uniform_prior,
)
from .errors import (
    ConfigError,
    DomainError,
    GridMismatch,
    InvalidGrid,
    InvalidSupport,
    InvariantViolation,
    NonPositiveQfi,
    QboundsError,
    SingularSystem,
    UnnormalizedPrior,
    UnsupportedExample,
)
from .estimation import (
    BinaryMeasurementModel,
    MmseReport,
    estimator_bias,
    mmse_mse,
    mse_via_decomposition,
)
from .models import (
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
from .numerics import (
    composite_simpson,
    solve_tridiagonal,
)

__version__ = "0.1.0"
