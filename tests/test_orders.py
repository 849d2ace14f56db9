"""Every public entry that takes an order refuses a NaN or infinite one
with DomainError (a float order is converted with int(), which raises
ValueError for NaN and OverflowError for infinity)."""

import math

import numpy as np
import pytest

from pqbaskakov import (
    DomainError,
    EvalGrid,
    FunctionSpec,
    ParameterSchedule,
    PQPair,
    baskakov_apply,
    baskakov_basis,
    baskakov_beta_apply,
    baskakov_beta_monomial_exact,
    baskakov_moment_closed,
    baskakov_node,
    beta_kernel,
    central_moment,
    convergence_run,
    interval_rate_bound,
    log_pq_beta,
    log_pq_binomial,
    log_pq_factorial,
    log_pq_number,
    moments_closed,
    pointwise_bound_terms,
    pq_beta,
    pq_binomial,
    pq_factorial,
    pq_gamma,
    pq_number,
    pq_power_basis,
    pq_power_basis_log,
    verify_baskakov_recurrence,
    weighted_sup_error,
)

PAIR = PQPair(0.9, 0.8)
E2 = FunctionSpec.named("e2")
GRID = EvalGrid(0.0, 5.0, 11)

# entry name -> a call with the order n in one of its order arguments
ENTRIES = {
    "pq_number": lambda n: pq_number(PAIR, n),
    "log_pq_number": lambda n: log_pq_number(PAIR, n),
    "pq_factorial": lambda n: pq_factorial(PAIR, n),
    "log_pq_factorial": lambda n: log_pq_factorial(PAIR, n),
    "pq_binomial-n": lambda n: pq_binomial(PAIR, n, 1),
    "pq_binomial-r": lambda n: pq_binomial(PAIR, 5, n),
    "log_pq_binomial": lambda n: log_pq_binomial(PAIR, n, 1),
    "pq_gamma": lambda n: pq_gamma(PAIR, n),
    "pq_power_basis": lambda n: pq_power_basis(PAIR, 1.0, n),
    "pq_power_basis_log": lambda n: pq_power_basis_log(PAIR, 1.0, n),
    "pq_beta-m": lambda n: pq_beta(PAIR, n, 2),
    "pq_beta-n": lambda n: pq_beta(PAIR, 2, n),
    "log_pq_beta": lambda n: log_pq_beta(PAIR, 2, n),
    "beta_kernel": lambda n: beta_kernel(PAIR, 2, n)(1.0),
    "baskakov_basis-n": lambda n: baskakov_basis(PAIR, n, 1, 1.0),
    "baskakov_basis-k": lambda n: baskakov_basis(PAIR, 5, n, 1.0),
    "baskakov_node-n": lambda n: baskakov_node(PQPair(1.0, 1.0), n, 1),
    "baskakov_node-k": lambda n: baskakov_node(PAIR, 5, n),
    "baskakov_apply": lambda n: baskakov_apply(PAIR, E2, n, 1.0),
    "baskakov_moment_closed": lambda n: baskakov_moment_closed(PAIR, 0, n, 1.0),
    "verify_baskakov_recurrence": lambda n: verify_baskakov_recurrence(PAIR, n, 0, 1.0),
    "baskakov_beta_apply": lambda n: baskakov_beta_apply(PAIR, E2, n, 1.0),
    "baskakov_beta_monomial_exact": lambda n: baskakov_beta_monomial_exact(PAIR, 1, n, 1.0),
    "moments_closed": lambda n: moments_closed(PAIR, 0, n, np.array([1.0])),
    "central_moment": lambda n: central_moment(PAIR, 1, n, 1.0),
    "pair_at": lambda n: ParameterSchedule.fixed(PAIR).pair_at(n),
    "pointwise_bound_terms": lambda n: pointwise_bound_terms(PAIR, n, 1.0, E2, GRID),
    "interval_rate_bound": lambda n: interval_rate_bound(PAIR, n, E2, 2.0, GRID),
    "weighted_sup_error": lambda n: weighted_sup_error(PAIR, n, E2, GRID),
}


@pytest.mark.parametrize("n", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_a_nan_or_infinite_order_is_a_domain_error(entry, n):
    with pytest.raises(DomainError):
        ENTRIES[entry](n)


@pytest.mark.parametrize("n", [math.nan, math.inf, 10.5], ids=["nan", "inf", "fraction"])
def test_a_convergence_row_at_an_order_that_is_not_whole_is_marked(n):
    rows = convergence_run(ParameterSchedule.fixed(PAIR), E2, [n, 10], GRID)
    assert not rows[0].ok and math.isnan(rows[0].sup_error)
    assert rows[0].n is n
    assert rows[1].ok and rows[1].n == 10
