"""Two-parameter (p,q) calculus primitives.

Everything here is an exact-regime scalar building block: the deformed
integers [n]_{p,q}, their factorials and binomials, the integer-argument
Gamma and second-kind Beta functions, the deformed power basis
(1 (+) x)^n = prod_{j<n} (p^j + q^j x), and the (p,q)-difference quotient.

Conventions:
    [n] = p^{n-1} + p^{n-2} q + ... + q^{n-1}
        = (p^n - q^n) / (p - q)      for p != q
        = n p^{n-1}                  for p == q (removable limit)
        = p^{n-1} <n>,  <n> = (1 - r^n) / (1 - r),  r = q/p  (<n> = n at r = 1)

    The normalised number <n> lies in [1, 1/(1 - r)) for n >= 1, so the
    closed forms written in it (here and in ``baskakov``) never underflow,
    where the powers p^n of [n] do at a fixed p < 1, and take it from libm.

    Gamma(n+1) = [n]!,  at integer arguments only.

    B(m, n) = q^{1 - m(m-1)/2} p^{-m(m+1)/2} Gamma(m) Gamma(n) / Gamma(m+n)

All values are positive in the admissible regime 0 < q <= p <= 1, so the
log-domain helpers used to dodge under/overflow never need sign tracking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable

import numpy as np

__all__ = [
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
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RegimeError(ValueError):
    """The parameter pair violates the admissible 0 < q <= p <= 1 regime."""


@dataclass(frozen=True)
class PQPair:
    """The parameter pair (p, q) with 0 < q <= p <= 1.

    Construction accepts the closed regime, including the degenerate line
    p == q (where [n] is defined by its limit) and the classical corner
    p == q == 1.  Operations that genuinely need q < p (Jackson ladders,
    the Beta-weighted operators) call :meth:`require_strict`.
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        p, q = float(self.p), float(self.q)
        if not (math.isfinite(p) and math.isfinite(q)):
            raise RegimeError(f"non-finite parameters p={self.p!r}, q={self.q!r}")
        if q <= 0.0:
            raise RegimeError(f"q must be positive, got q={q}")
        if p > 1.0:
            raise RegimeError(f"p must satisfy p <= 1, got p={p}")
        if q > p:
            raise RegimeError(f"regime requires 0 < q <= p <= 1, got q={q} > p={p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def is_classical(self) -> bool:
        return self.p == 1.0 and self.q == 1.0

    @property
    def is_strict(self) -> bool:
        return self.q < self.p

    @property
    def ratio(self) -> float:
        """q / p, the decay ratio of every ladder built on this pair."""
        return self.q / self.p

    def require_strict(self, context: str = "this operation") -> None:
        if not self.is_strict:
            raise RegimeError(
                f"{context} requires the strict regime 0 < q < p <= 1, "
                f"got p = q = {self.p}"
            )


def _check_nonneg_int(n: int, what: str) -> int:
    try:
        whole = int(n)
    except (OverflowError, ValueError):  # an infinite or NaN n
        whole = None
    if whole is None or n != whole or n < 0:
        raise DomainError(f"{what} must be a non-negative integer, got {n!r}")
    return whole


@dataclass(frozen=True)
class TruncationPolicy:
    """Tolerances and caps for truncating the infinite series in this package.

    A scalar Jackson ladder direction is stopped once the current term
    magnitude falls below max(abs_tol, rel_tol * |partial sum|) for three
    consecutive terms, or after max_terms terms; the discarded mass is then
    estimated by geometric extrapolation.  In the operators, max_terms caps
    the outer basis row over k and rel_tol bounds its tail mass; the ladder
    bands of the quadrature route have a fixed node cap and ignore the policy.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_terms: int = 10000

    def __post_init__(self) -> None:
        for name, tol in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not 0.0 < tol < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {tol}")
        max_terms = _check_nonneg_int(self.max_terms, "max_terms")
        if max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {max_terms}")
        object.__setattr__(self, "max_terms", max_terms)

    def threshold(self, partial: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(partial))


DEFAULT_POLICY = TruncationPolicy()


def _log_ratio(p: float, q: float) -> float:
    """log r with r = q/p, as log1p(r - 1), so that nothing cancels near
    r = 1; and as log q - log p where r - 1 rounds to -1 (r below about
    1e-16), whose log1p would be a math domain error."""
    t = (q - p) / p
    return math.log1p(t) if t > -1.0 else math.log(q) - math.log(p)


def _normalised_number(p: float, q: float, j):
    """<j> = [j] / p^{j-1} = (1 - r^j) / (1 - r) with r = q/p, and j itself at
    r = 1 (the package's one p == q case of the closed forms).  r^j - 1 is
    expm1(j log r) (``_log_ratio``), so nothing cancels near r = 1, and <j>
    lies in [1, 1/(1 - r)) for j >= 1 when r < 1, so it never underflows.
    A whole j gives a float and a list of them a list, from libm, so the
    closed forms do not depend on numpy's SIMD dispatch; an integer-valued
    array takes numpy's expm1 elementwise, at any r > 0: the plain operator's
    nodes need <k> at 1/r, where r^j may overflow to inf (its caller decides
    under which ``np.errstate``)."""
    if p == q:
        return j
    rate, ratio = _log_ratio(p, q), (q - p) / p
    if isinstance(j, np.ndarray):
        return np.expm1(j * rate) / ratio
    if isinstance(j, list):
        return [math.expm1(i * rate) / ratio for i in j]
    return math.expm1(j * rate) / ratio


def pq_number(pair: PQPair, n: int) -> float:
    """[n]_{p,q} = p^{n-1} <n> (``_normalised_number``), which is the limit
    n p^{n-1} on the degenerate line p == q."""
    n = _check_nonneg_int(n, "n")
    return pair.p ** (n - 1) * _normalised_number(pair.p, pair.q, n)


def log_pq_number(pair: PQPair, n: int) -> float:
    """log [n]_{p,q}, stable for large n where p^n underflows."""
    n = _check_nonneg_int(n, "n")
    if n == 0:
        raise DomainError("log of [0] = 0 is undefined")
    return float(_log_pq_terms(pair, range(n, n + 1))[0])


def _log_pq_terms(pair: PQPair, js: range) -> np.ndarray:
    """log [j]_{p,q} for each j >= 1 of js.  The logs and powers are taken in
    math, one j at a time (numpy's vectorized log1p rounds some of them
    differently), and only the exact-order sums and products run in numpy:
    each term is (j - 1) log p + log j at p = q, and otherwise
    (j - 1) log p + log1p(-r^j) - log(1 - r), with r = q/p < 1, since
    [j] = p^{j-1} (1 - r^j) / (1 - r)."""
    p, q = pair.p, pair.q
    lp = math.log(p)
    scaled = (np.arange(js.start, js.stop) - 1) * lp
    if p == q:
        return scaled + np.fromiter(map(math.log, js), float, len(js))
    r = q / p
    powers = np.fromiter(map(math.pow, repeat(r), js), float, len(js))
    log1p = np.fromiter(map(math.log1p, (-powers).tolist()), float, len(js))
    return scaled + log1p - math.log1p(-r)


def _log_fact_table(pair: PQPair, n: int) -> np.ndarray:
    """log [j]! for j = 0..n, a new array.  cumsum adds left to right, so a
    shorter table is bitwise the start of a longer one."""
    return np.cumsum(np.concatenate([[0.0], _log_pq_terms(pair, range(1, n + 1))]))


def log_pq_factorial(pair: PQPair, n: int) -> float:
    """log [n]! = sum_{j<=n} log [j]."""
    n = _check_nonneg_int(n, "n")
    return float(_log_fact_table(pair, n)[n])


def pq_factorial(pair: PQPair, n: int) -> float:
    """[n]! = prod_{r=1..n} [r], with [0]! = 1; inf where it overflows a double.

    [r] rises and then falls with r when p < 1, so the running product can
    overflow and shrink back (to a finite value or to 0); it is then
    exp(log [n]!), 0.0 below the smallest double and inf above the largest.
    A finite value of that fallback carries the rounding error of the summed
    log: its relative error is at most about n 2^-53 max_{j<=n} |log [j]!|
    (1.1e-8 at (0.999, 0.99), n = 9,365, where it is 6e-12).
    """
    n = _check_nonneg_int(n, "n")
    product = 1.0
    for j in range(1, n + 1):
        product *= pq_number(pair, j)
        if not math.isfinite(product):  # no later [j], finite and >= 0, undoes it
            break
    if math.isfinite(product):
        return product
    try:
        return math.exp(log_pq_factorial(pair, n))
    except OverflowError:
        return math.inf


def pq_binomial(pair: PQPair, n: int, r: int) -> float:
    """[n]! / ([n-r]! [r]!), for whole 0 <= r <= n."""
    return math.exp(log_pq_binomial(pair, n, r))


def log_pq_binomial(pair: PQPair, n: int, r: int) -> float:
    """log [n]! - log [n-r]! - log [r]!, for whole 0 <= r <= n: the exact
    sum of log [j] over n-s < j <= n minus that over 0 < j <= s, with
    s = min(r, n - r), so that only 2 s rounded logs enter."""
    n = _check_nonneg_int(n, "n")
    r = _check_nonneg_int(r, "r")
    if r > n:
        raise DomainError(f"binomial requires 0 <= r <= n, got n={n}, r={r}")
    s = min(r, n - r)
    return _log_ratio_of_products(pair, range(n - s + 1, n + 1), range(1, s + 1))


def _log_ratio_of_products(pair: PQPair, upper: range, lower: range) -> float:
    """log of prod_{j in upper} [j] / prod_{j in lower} [j], summed exactly
    (``math.fsum``) from the rounded log [j]."""
    terms = _log_pq_terms(pair, upper)
    return math.fsum(chain(terms.tolist(), (-_log_pq_terms(pair, lower)).tolist()))


def pq_gamma(pair: PQPair, n_plus_1: int) -> float:
    """Gamma(n+1) = [n]!, defined at integer arguments >= 1 only."""
    whole = _check_nonneg_int(n_plus_1, "Gamma argument")
    if whole < 1:
        raise DomainError(f"Gamma is defined at integer arguments >= 1, got {n_plus_1!r}")
    return pq_factorial(pair, whole - 1)


def pq_power_basis(pair: PQPair, x: float, n: int) -> float:
    """(1 (+) x)^n = prod_{j=0}^{n-1} (p^j + q^j x); returns 1 for n = 0."""
    n = _check_nonneg_int(n, "n")
    p, q = pair.p, pair.q
    out = 1.0
    pj = 1.0
    qj = 1.0
    for _ in range(n):
        out *= pj + qj * x
        pj *= p
        qj *= q
    return out


def pq_power_basis_log(pair: PQPair, x: float, n: int) -> float:
    """log (1 (+) x)^n for x >= 0, stable when individual powers underflow.

    Each factor is p^j (1 + (q/p)^j x), so its log is j log p + log1p(...),
    which stays finite even when p^j itself is subnormal.
    """
    n = _check_nonneg_int(n, "n")
    if x < 0.0:
        raise DomainError(f"log-domain power basis requires x >= 0, got {x}")
    p, q = pair.p, pair.q
    lp = math.log(p)
    r = q / p
    out = 0.0
    rj = 1.0
    for j in range(n):
        out += j * lp + math.log1p(rj * x)
        rj *= r
    return out


def _check_beta_args(m: int, n: int) -> tuple[int, int]:
    m, n = _check_nonneg_int(m, "Beta argument m"), _check_nonneg_int(n, "Beta argument n")
    if m < 1 or n < 1:
        raise DomainError(f"Beta requires integer arguments m, n >= 1, got {m!r}, {n!r}")
    return m, n


def log_pq_beta(pair: PQPair, m: int, n: int) -> float:
    """log B(m,n) with the split prefactor exponents.

    The prefactor is q^{1 - m(m-1)/2} p^{-m(m+1)/2}; it collapses to 1 at
    p = q = 1, where B reduces to the classical Beta at integer arguments.
    [m-1]! [n-1]! / [m+n-1]! is the exact sum of 2 min(m, n) - 1 rounded
    log [j], as in ``log_pq_binomial``.
    """
    m, n = _check_beta_args(m, n)
    lp, lq = math.log(pair.p), math.log(pair.q)
    s, t = min(m, n), max(m, n)
    log_gammas = _log_ratio_of_products(pair, range(1, s), range(t, m + n))
    return (1 - m * (m - 1) / 2) * lq - (m * (m + 1) / 2) * lp + log_gammas


def pq_beta(pair: PQPair, m: int, n: int) -> float:
    """Second-kind Beta function B(m,n); not symmetric in (m, n) for q < p."""
    return math.exp(log_pq_beta(pair, m, n))


def pq_derivative(pair: PQPair, f: Callable[[float], float], x: float) -> float:
    """The (p,q)-difference quotient (f(px) - f(qx)) / ((p - q) x).

    Undefined at x = 0 and on the degenerate line p = q; both are rejected.
    """
    if x == 0.0:
        raise DomainError("the (p,q)-difference quotient is undefined at x = 0")
    pair.require_strict("the (p,q)-difference quotient")
    p, q = pair.p, pair.q
    return (f(p * x) - f(q * x)) / ((p - q) * x)
