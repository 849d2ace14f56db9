"""Post-quantum (p,q)-calculus primitives and Baskakov-Beta operators.

The package is organized bottom-up:

* :mod:`pqbaskakov.core`       - (p,q)-numbers, factorials, binomials, the
  integer-argument Gamma and Beta functions, the deformed power basis, and
  the (p,q)-difference quotient.
* :mod:`pqbaskakov.functions`  - target-function descriptions.
* :mod:`pqbaskakov.quadrature` - Jackson integration on [0, a] and [0, inf).
* :mod:`pqbaskakov.baskakov`   - the Baskakov basis and both operators,
  with closed, semi-analytic and quadrature evaluation routes.
* :mod:`pqbaskakov.analysis`   - moduli of continuity, rate bounds, and
  weighted convergence experiments.
* :mod:`pqbaskakov.cli`        - the ``pqbaskakov`` command line front end.

All computational functions are pure: values are immutable after
construction and safe to evaluate concurrently.
"""

from .core import (
    DEFAULT_POLICY,
    DomainError,
    PQPair,
    RegimeError,
    TruncationPolicy,
    log_pq_beta,
    log_pq_binomial,
    log_pq_factorial,
    log_pq_number,
    pq_beta,
    pq_binomial,
    pq_derivative,
    pq_factorial,
    pq_gamma,
    pq_number,
    pq_power_basis,
    pq_power_basis_log,
)
from .functions import NAMED_FUNCTIONS, FunctionSpec
from .quadrature import (
    QuadratureResult,
    beta_kernel,
    improper_integral,
    jackson_integral,
    verify_integration_by_parts,
)
from .baskakov import (
    OperatorResult,
    baskakov_apply,
    baskakov_basis,
    baskakov_beta_apply,
    baskakov_beta_monomial_exact,
    baskakov_moment_closed,
    baskakov_node,
    central_moment,
    moments_closed,
    verify_baskakov_recurrence,
)
from .analysis import (
    BoundTerms,
    ConvergenceRow,
    EvalGrid,
    ParameterSchedule,
    convergence_run,
    interval_rate_bound,
    modulus_of_continuity,
    pointwise_bound_terms,
    second_modulus,
    weighted_sup_error,
)
from .cli import ConfigurationError, ExperimentConfig, run_experiment, validate_config

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "DomainError",
    "RegimeError",
    "PQPair",
    "TruncationPolicy",
    "DEFAULT_POLICY",
    "pq_number",
    "log_pq_number",
    "pq_factorial",
    "log_pq_factorial",
    "pq_binomial",
    "log_pq_binomial",
    "pq_gamma",
    "pq_power_basis",
    "pq_power_basis_log",
    "pq_beta",
    "log_pq_beta",
    "pq_derivative",
    # functions
    "FunctionSpec",
    "NAMED_FUNCTIONS",
    # quadrature
    "QuadratureResult",
    "jackson_integral",
    "improper_integral",
    "verify_integration_by_parts",
    "beta_kernel",
    # operators
    "OperatorResult",
    "baskakov_basis",
    "baskakov_node",
    "baskakov_apply",
    "baskakov_moment_closed",
    "verify_baskakov_recurrence",
    "baskakov_beta_apply",
    "baskakov_beta_monomial_exact",
    "moments_closed",
    "central_moment",
    # analysis
    "EvalGrid",
    "ParameterSchedule",
    "modulus_of_continuity",
    "second_modulus",
    "BoundTerms",
    "pointwise_bound_terms",
    "interval_rate_bound",
    "weighted_sup_error",
    "ConvergenceRow",
    "convergence_run",
    # cli
    "ConfigurationError",
    "ExperimentConfig",
    "validate_config",
    "run_experiment",
]
