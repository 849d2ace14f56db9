"""The (p,q)-Baskakov basis and the Baskakov and Baskakov-Beta operators.

Basis:
    b_{n,k}(x) = [n+k-1 choose k] p^{k + n(n-1)/2} q^{k(k-1)/2}
                 x^k / (1 (+) x)^{n+k}

Plain operator (point samples at the rational nodes):
    B_n(f, x) = sum_k b_{n,k}(x) f( p^{n-1} [k] / (q^{k-1} [n]) )

Beta-weighted operator (sample integrals instead of point samples):
    D_n(f, x) = sum_k b_{n,k}(x) / B(k+1, n)
                * int_0^inf t^k / (1 (+) pt)^{n+k+1} f(q^2 p^{n+k} t) dt

Both operators are sum_k b_{n,k}(x) s_k with x-independent samples s_k.  One
kernel, ``_apply``, grows the basis row, sums it against the samples and
decides truncation and trust; each route only supplies its own samples, and
the routes stay independent of one another in those samples:
  * ``baskakov_apply`` - f at the nodes (plain operator B_n),
  * ``baskakov_beta_monomial_exact`` and the analytic route of
    ``baskakov_beta_apply`` - closed-form Beta ratios (polynomials),
  * ``baskakov_beta_apply(method="quadrature")`` - bilateral ladder
    quadrature of the inner integrals, each row normalized by the ladder
    value of its own weight integral, so that D_n(1, x) = 1 identically.
The closed moment expressions (``moments_closed``) share none of this.

The basis is a probability distribution over k (partition of unity), so
truncation is driven by accumulated mass plus the size of the sample-weighted
terms at the edge of the row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import (
    DEFAULT_POLICY,
    DomainError,
    PQPair,
    TruncationPolicy,
    _log_fact_table,
    pq_number,
)
from .functions import FunctionSpec, as_callable
from .quadrature import batched_weight_ratios

__all__ = [
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
]

_EDGE_FRACTION = 1e-18  # a row is complete when its edge term is this small


@dataclass(frozen=True)
class OperatorResult:
    """Operator evaluation at one point plus truncation diagnostics."""

    value: float
    k_terms_used: int
    basis_tail_mass: float
    inner_integrals_converged: bool
    trusted: bool


def _require_basis_regime(pair: PQPair) -> None:
    # q < p <= 1 or the classical corner; the degenerate p = q < 1 line is
    # excluded because the basis normalization identity needs q < p or q = p = 1
    if not (pair.is_strict or pair.is_classical):
        raise DomainError(
            "the Baskakov basis needs 0 < q < p <= 1 or p = q = 1, "
            f"got p = q = {pair.p}"
        )


def _log_basis_row(pair: PQPair, n: int, x: float, k_count: int) -> np.ndarray:
    """log b_{n,k}(x) for k = 0..k_count-1; requires x > 0."""
    p, q = pair.p, pair.q
    lp, lq = math.log(p), math.log(q)
    lfact = np.asarray(_log_fact_table(pair, n + k_count - 1))
    k = np.arange(k_count, dtype=float)
    ki = np.arange(k_count)
    log_binom = lfact[ki + n - 1] - lfact[n - 1] - lfact[ki]
    # prefix of log (1 (+) x)^j over j = 0..n+k_count-1
    j = np.arange(n + k_count, dtype=float)
    if p == q:
        factors = j * lp + math.log1p(x)
    else:
        factors = j * lp + np.log1p((pair.ratio**j) * x)
    prefix = np.concatenate([[0.0], np.cumsum(factors)])
    return (
        log_binom
        + (k + n * (n - 1) / 2) * lp
        + (k * (k - 1) / 2) * lq
        + k * math.log(x)
        - prefix[ki + n]
    )


def baskakov_basis(pair: PQPair, n: int, k: int, x: float) -> float:
    """One basis weight b_{n,k}(x), computed through the log-domain row."""
    _require_basis_regime(pair)
    if n < 1 or k < 0:
        raise DomainError(f"basis needs n >= 1 and k >= 0, got n={n}, k={k}")
    if x < 0.0:
        raise DomainError(f"basis is defined for x >= 0, got x={x}")
    if x == 0.0:
        return 1.0 if k == 0 else 0.0
    row = _log_basis_row(pair, n, x, k + 1)
    return float(np.exp(row[k]))


def baskakov_node(pair: PQPair, n: int, k: int) -> float:
    """The sample node p^{n-1} [k] / (q^{k-1} [n]), in overflow-safe form."""
    return float(_nodes(pair, n, np.float64(k)))


def _nodes(pair: PQPair, n: int, k: np.ndarray) -> np.ndarray:
    p, q = pair.p, pair.q
    if p == q:
        return k / n
    # [k]/q^{k-1} = q ((p/q)^k - 1) / (p - q), exactly 0 at k = 0
    return p ** (n - 1) * q * (np.power(p / q, k) - 1.0) / ((p - q) * pq_number(pair, n))


def _apply(
    pair: PQPair,
    n: int,
    x: float,
    policy: TruncationPolicy,
    samples: Callable[[int], tuple[np.ndarray, bool]],
) -> OperatorResult:
    """sum_k b_{n,k}(x) s_k, where samples(k_count) -> (s, inner_ok) gives the
    x-independent samples for k = 0..k_count-1.

    The row doubles until its sample-weighted edge term is negligible (or the
    term budget is spent); the result is trusted when the inner samples are,
    the basis tail is below rel_tol and every term is finite.
    """
    if x == 0.0:
        row = np.zeros(1)  # b_{n,0}(0) = 1, every other weight vanishes
        s, inner_ok = samples(1)
    else:
        k_count = 64
        while True:
            row = _log_basis_row(pair, n, x, k_count)
            s, inner_ok = samples(k_count)
            with np.errstate(divide="ignore", invalid="ignore"):
                ls = np.log(np.abs(s))
            metric = row + np.where(np.isfinite(ls), ls, 0.0)
            if metric[-1] < metric.max() + math.log(_EDGE_FRACTION) or k_count >= policy.max_terms:
                break
            k_count = min(2 * k_count, policy.max_terms)
    b = np.exp(row)
    terms = np.where(b > 0.0, b * s, 0.0)
    tail = max(0.0, 1.0 - float(b.sum()))
    significant = np.nonzero(np.abs(terms) > policy.abs_tol)[0]
    k_used = int(significant[-1]) + 1 if significant.size else 1
    trusted = inner_ok and tail <= policy.rel_tol and bool(np.all(np.isfinite(terms)))
    return OperatorResult(float(terms.sum()), k_used, tail, inner_ok, trusted)


def baskakov_apply(
    pair: PQPair,
    f: Union[FunctionSpec, Callable],
    n: int,
    x: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> OperatorResult:
    """B_n(f, x) by direct summation of basis weights against node samples."""
    _require_basis_regime(pair)
    if n < 1:
        raise DomainError(f"operator order must satisfy n >= 1, got {n}")
    if x < 0.0:
        raise DomainError(f"operator domain is x >= 0, got x={x}")
    func = as_callable(f)

    def samples(k_count: int) -> tuple[np.ndarray, bool]:
        return np.asarray(func(_nodes(pair, n, np.arange(k_count, dtype=float))), dtype=float), True

    return _apply(pair, n, x, policy, samples)


def baskakov_moment_closed(pair: PQPair, m: int, n: int, x: float) -> float:
    """Closed moments of the plain operator: 1, x, ([n+1]x^2 + p^{n-1} q x)/(q [n])."""
    if m not in (0, 1, 2):
        raise DomainError(f"closed Baskakov moments exist for m in {{0,1,2}}, got {m}")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if m == 0:
        return 1.0
    if m == 1:
        return x
    p, q = pair.p, pair.q
    return (pq_number(pair, n + 1) * x * x + p ** (n - 1) * q * x) / (q * pq_number(pair, n))


def verify_baskakov_recurrence(
    pair: PQPair,
    n: int,
    m: int,
    x: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Residual of the moment recurrence

        [n] T_{m+1}(qx) - q p^{n-1} x (1 + px) D[T_m](x) - [n] q x T_m(qx),

    with T_m evaluated by series summation and D by the difference quotient.
    """
    if m not in (0, 1):
        raise DomainError(f"recurrence check supports m in {{0,1}}, got {m}")
    if not x > 0.0:
        raise DomainError(f"recurrence check needs x > 0, got {x}")
    pair.require_strict("the moment recurrence check")
    p, q = pair.p, pair.q
    e_m = FunctionSpec.named(f"e{m}")
    e_m1 = FunctionSpec.named(f"e{m + 1}")

    def t_m(at: float) -> float:
        return baskakov_apply(pair, e_m, n, at, policy).value

    t_next = baskakov_apply(pair, e_m1, n, q * x, policy).value
    derivative = (t_m(p * x) - t_m(q * x)) / ((p - q) * x)
    nn = pq_number(pair, n)
    lhs = nn * t_next
    rhs = q * p ** (n - 1) * x * (1.0 + p * x) * derivative + nn * q * x * t_m(q * x)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Beta-weighted operator.
# ---------------------------------------------------------------------------


def _log_beta_ratio_factors(pair: PQPair, n: int, m: int, k_count: int) -> np.ndarray:
    """log of q^{2m} p^{m(n+k)} B(k+m+1, n-m) / B(k+1, n) for k = 0..k_count-1.

    This is the exact inner-integral factor for the monomial t^m: the shared
    Gamma(n+k+1) cancels, leaving factorial differences and prefactors.
    """
    if n <= m:
        raise DomainError(f"monomial order m={m} needs operator order n > m, got n={n}")
    p, q = pair.p, pair.q
    lp, lq = math.log(p), math.log(q)
    lfact = np.asarray(_log_fact_table(pair, n + k_count + m))
    k = np.arange(k_count, dtype=float)
    ki = np.arange(k_count)
    delta_log_beta = (
        lq * (-m * (2.0 * k + m + 1.0) / 2.0)
        + lp * (-m * (2.0 * k + m + 3.0) / 2.0)
        + (lfact[ki + m] - lfact[ki])
        + (lfact[n - m - 1] - lfact[n - 1])
    )
    return 2.0 * m * lq + m * (n + k) * lp + delta_log_beta


def baskakov_beta_monomial_exact(
    pair: PQPair,
    m: int,
    n: int,
    x: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """D_n(t^m, x) through closed-form Beta values (semi-analytic route).

    Independent of both the ladder quadrature and the closed moment
    expressions: the only shared machinery is the basis row and ``_apply``.
    """
    pair.require_strict("the Beta-weighted operator")
    if m < 0:
        raise DomainError(f"monomial order must be >= 0, got {m}")
    if n <= m:
        raise DomainError(f"needs n > m, got n={n}, m={m}")
    if x < 0.0:
        raise DomainError(f"operator domain is x >= 0, got x={x}")

    def samples(k_count: int) -> tuple[np.ndarray, bool]:
        return np.exp(_log_beta_ratio_factors(pair, n, m, k_count)), True

    return _apply(pair, n, x, policy, samples).value


def _growth_degree(f: Union[FunctionSpec, Callable]) -> int:
    if isinstance(f, FunctionSpec):
        deg = f.degree
        return deg if deg is not None else 2
    return 2


def baskakov_beta_apply(
    pair: PQPair,
    f: Union[FunctionSpec, Callable],
    n: int,
    x: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
    method: str = "auto",
) -> OperatorResult:
    """D_n(f, x), the Beta-weighted operator.

    method:
      * "auto"       - polynomials (including the named monomials) expand the
                       inner integral analytically into Beta values; anything
                       else falls back to ladder quadrature.
      * "analytic"   - force the Beta-value expansion (polynomials only).
      * "quadrature" - force bilateral ladder quadrature of the inner
                       integrals, each row normalized by its own ladder
                       weight integral.
    """
    pair.require_strict("the Beta-weighted operator")
    if n < 1:
        raise DomainError(f"operator order must satisfy n >= 1, got {n}")
    if x < 0.0:
        raise DomainError(f"operator domain is x >= 0, got x={x}")
    if method not in ("auto", "analytic", "quadrature"):
        raise DomainError(f"unknown method {method!r}")

    coeffs = f.as_polynomial() if isinstance(f, FunctionSpec) else None
    if method == "analytic" and coeffs is None:
        raise DomainError("analytic evaluation needs a polynomial FunctionSpec")
    use_analytic = method == "analytic" or (method == "auto" and coeffs is not None)

    if use_analytic:
        return _beta_apply_analytic(pair, coeffs, n, x, policy)
    return _beta_apply_quadrature(pair, f, n, x, policy)


def _beta_apply_analytic(
    pair: PQPair,
    coeffs: tuple[float, ...],
    n: int,
    x: float,
    policy: TruncationPolicy,
) -> OperatorResult:
    degree = max((d for d, c in enumerate(coeffs) if c != 0.0), default=0)
    if n <= degree:
        raise DomainError(
            f"operator order n={n} must exceed the polynomial degree {degree}"
        )
    active = [(d, c) for d, c in enumerate(coeffs) if c != 0.0]

    def samples(k_count: int) -> tuple[np.ndarray, bool]:
        vals = np.zeros(k_count)
        for d, c in active:
            vals += c * np.exp(_log_beta_ratio_factors(pair, n, d, k_count))
        return vals, True

    return _apply(pair, n, x, policy, samples)


def _beta_apply_quadrature(
    pair: PQPair,
    f: Union[FunctionSpec, Callable],
    n: int,
    x: float,
    policy: TruncationPolicy,
) -> OperatorResult:
    degree = _growth_degree(f)
    if n <= degree:
        raise DomainError(
            f"quadrature route needs n > {degree} (growth degree of f), got n={n}"
        )

    def samples(k_count: int) -> tuple[np.ndarray, bool]:
        return batched_weight_ratios(pair, n, k_count, f, policy, degree)

    return _apply(pair, n, x, policy, samples)


# ---------------------------------------------------------------------------
# Closed moments and central moments.
# ---------------------------------------------------------------------------


def moments_closed(pair: PQPair, m: int, n: int, x: float) -> float:
    """Closed first and second moments of the Beta-weighted operator.

    m = 0 needs n >= 1, m = 1 needs n > 1, m = 2 needs n > 2.  The second
    moment keeps the printed three-term structure, including the p^n / q
    coefficient, rather than any algebraic rearrangement.
    """
    if m not in (0, 1, 2):
        raise DomainError(f"closed moments exist for m in {{0,1,2}}, got {m}")
    if m == 0:
        if n < 1:
            raise DomainError(f"need n >= 1, got {n}")
        return 1.0
    p, q = pair.p, pair.q
    if m == 1:
        if n <= 1:
            raise DomainError(f"first moment needs n > 1, got {n}")
        return (pq_number(pair, n) * x + p ** (n - 2) * q) / pq_number(pair, n - 1)
    if n <= 2:
        raise DomainError(f"second moment needs n > 2, got {n}")
    nn = pq_number(pair, n)
    n1 = pq_number(pair, n - 1)
    n2 = pq_number(pair, n - 2)
    term_x2 = x * x * nn * (nn + p**n / q) / (q * n1 * n2)
    term_x = (
        x * nn * (p ** (n - 3) * q**2 + 2.0 * p ** (n - 2) * q + p ** (n - 1)) / (q * n1 * n2)
    )
    term_c = p ** (2 * n - 5) * q * pq_number(pair, 2) / (n1 * n2)
    return term_x2 + term_x + term_c


def central_moment(pair: PQPair, order: int, n: int, x: float) -> float:
    """Central moments D_n((t-x)^order, x) for order in {1, 2}, n > 2."""
    if order not in (1, 2):
        raise DomainError(f"central moments exist for order in {{1,2}}, got {order}")
    if n <= 2:
        raise DomainError(f"central moments need n > 2, got {n}")
    p, q = pair.p, pair.q
    nn = pq_number(pair, n)
    n1 = pq_number(pair, n - 1)
    n2 = pq_number(pair, n - 2)
    if order == 1:
        return (x * (nn - n1) + p ** (n - 2) * q) / n1
    term_x2 = (
        x * x * (nn * (nn + p**n / q) + q * n1 * n2 - 2.0 * q * nn * n2) / (q * n1 * n2)
    )
    term_x = (
        x
        * (
            nn * (p ** (n - 3) * q**2 + 2.0 * p ** (n - 2) * q + p ** (n - 1))
            - 2.0 * p ** (n - 2) * q**2 * n2
        )
        / (q * n1 * n2)
    )
    term_c = pq_number(pair, 2) * p ** (2 * n - 5) * q / (n1 * n2)
    return term_x2 + term_x + term_c
