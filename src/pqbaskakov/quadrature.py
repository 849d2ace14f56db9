"""Jackson-type (p,q) integration on [0, a] and on [0, inf).

The finite integral is the generalized Jackson series

    int_0^a f = (p - q) a sum_{i >= 0} (q^i / p^{i+1}) f(a q^i / p^{i+1}),

valid for 0 < q < p <= 1.  The improper integral extends the same ladder
bilaterally (i ranges over all integers; nodes sweep (0, inf) geometrically):

    int_0^inf f = (p - q) sum_{i in Z} (q^i / p^{i+1}) f(q^i / p^{i+1}).

Both sum each ladder direction with one helper, ``_ladder_sum``: a direction
stops once the term magnitude stays below max(abs_tol, rel_tol |partial|) for
three consecutive terms, and the discarded tail is bounded by geometric
extrapolation of the last term.  A non-finite term ends the direction, and
the result is then flagged as not converged.

``batched_weight_ratios`` is the vectorized work-horse behind the
Beta-weighted operators: it evaluates, for a whole range of k at once, the
normalized ladder averages

    ratio_k = int t^k f(c_k t) / (1 (+) pt)^{N_k}  /  int t^k / (1 (+) pt)^{N_k}

in row-shifted log space, so the (astronomically large) raw integrals never
materialize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .core import (
    DEFAULT_POLICY,
    DomainError,
    PQPair,
    TruncationPolicy,
    pq_derivative,
    pq_power_basis_log,
)
from .functions import FunctionSpec, as_callable

__all__ = [
    "QuadratureResult",
    "jackson_integral",
    "improper_integral",
    "verify_integration_by_parts",
    "beta_kernel",
]

# Beyond this ladder weight (the node size at scale 1) a non-decaying
# integrand has clearly diverged.
_NODE_CAP = 1e200
_CONSECUTIVE_SMALL = 3


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    terms_used: int
    tail_estimate: float
    converged: bool
    nodes_outside_interval: int = 0

    def check(self, policy: TruncationPolicy) -> bool:
        """converged <=> tail below tolerance and the term budget not exhausted."""
        return (
            self.tail_estimate <= max(policy.abs_tol, policy.rel_tol * abs(self.value))
            and self.terms_used < policy.max_terms
        )


def _geometric_tail(last: float, prev: float) -> float:
    """Bound the discarded mass from the last two term magnitudes."""
    if last == 0.0:
        return 0.0
    if prev == 0.0:
        return abs(last)
    ratio = min(abs(last) / abs(prev), 0.99)
    return abs(last) * ratio / (1.0 - ratio)


def _ladder_sum(
    pair: PQPair,
    func: Callable[[float], float],
    policy: TruncationPolicy,
    scale: float,
    weight: float,
    step: float,
    total: float,
) -> tuple[float, int, float, bool, int]:
    """One direction of a Jackson ladder: adds the terms
    (p - q) scale w f(scale w) for w = weight, weight step, ... onto total.

    The direction stops once terms have stayed small for a while AND the
    geometric tail extrapolation itself clears the tolerance.  A non-finite
    term, a weight beyond _NODE_CAP or an exhausted term budget ends it
    unstopped.  Returns (total, terms used, tail, stopped, nodes above scale).
    """
    p, q = pair.p, pair.q
    small_run = used = outside = 0
    term = prev = 0.0
    for _ in range(policy.max_terms):
        if weight > _NODE_CAP or not math.isfinite(weight):
            break
        node = scale * weight
        outside += node > scale
        prev = term
        term = (p - q) * scale * weight * float(func(node))
        if not math.isfinite(term):
            break
        total += term
        used += 1
        if abs(term) <= policy.threshold(total):
            small_run += 1
            if (
                small_run >= _CONSECUTIVE_SMALL
                and _geometric_tail(term, prev) <= 0.45 * policy.threshold(total)
            ):
                return total, used, _geometric_tail(term, prev), True, outside
        else:
            small_run = 0
        weight *= step
    return total, used, _geometric_tail(term, prev), False, outside


def jackson_integral(
    pair: PQPair,
    f: Union[FunctionSpec, Callable[[float], float]],
    a: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> QuadratureResult:
    """Generalized Jackson integral of f over [0, a], a > 0."""
    pair.require_strict("the Jackson integral")
    if not a > 0.0:
        raise DomainError(f"integration endpoint must be positive, got a={a}")
    p, q = pair.p, pair.q
    total, used, tail, stopped, outside = _ladder_sum(
        pair, as_callable(f), policy, a, 1.0 / p, q / p, 0.0
    )
    result = QuadratureResult(total, used, tail, False, outside)
    return replace(result, converged=stopped and result.check(policy))


def improper_integral(
    pair: PQPair,
    f: Union[FunctionSpec, Callable[[float], float]],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> QuadratureResult:
    """Bilateral ladder integral of f over [0, inf).

    Non-convergence within the term budget yields a flagged result rather
    than an exception; a visibly diverging backward ladder (nodes beyond
    1e200 with non-shrinking terms) is flagged the same way.
    """
    pair.require_strict("the improper (p,q)-integral")
    func = as_callable(f)
    p, q = pair.p, pair.q
    ratio = q / p
    total, terms_used, tail, stopped = 0.0, 0, 0.0, True
    # forward from the node 1/p towards 0, backward from 1/q towards inf
    for weight, step in ((1.0 / p, ratio), ((1.0 / p) / ratio, 1.0 / ratio)):
        total, used, part_tail, part_stopped, _ = _ladder_sum(
            pair, func, policy, 1.0, weight, step, total
        )
        terms_used += used
        tail += part_tail
        stopped = stopped and part_stopped
    result = QuadratureResult(total, terms_used, tail, False)
    return replace(result, converged=stopped and result.check(policy))


def beta_kernel(pair: PQPair, m: int, n: int) -> Callable[[float], float]:
    """The Beta integrand t -> t^{m-1} / (1 (+) pt)^{m+n}, evaluated stably.

    Assembled in log space so that huge ladder nodes cannot overflow the
    numerator before the (larger) denominator tames it.
    """
    if m < 1 or n < 1:
        raise DomainError(f"Beta integrand requires m, n >= 1, got m={m}, n={n}")
    p = pair.p

    def kernel(t: float) -> float:
        if t <= 0.0:
            raise DomainError("Beta integrand is defined on t > 0")
        logt = math.log(t)
        lv = (m - 1) * logt - pq_power_basis_log(pair, p * t, m + n)
        return math.exp(lv) if lv > -745.0 else 0.0

    return kernel


def verify_integration_by_parts(
    pair: PQPair,
    f: Union[FunctionSpec, Callable[[float], float]],
    g: Union[FunctionSpec, Callable[[float], float]],
    a: float,
    b: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Residual of the (p,q)-integration-by-parts identity on [a, b].

    Both sides are evaluated independently by Jackson quadrature:

        int_a^b f(px) D g(x) - [ f(b) g(b) - f(a) g(a) - int_a^b g(qx) D f(x) ]

    with int_a^b := int_0^b - int_0^a and D the (p,q)-difference quotient.
    """
    if not (0.0 <= a < b):
        raise DomainError(f"need 0 <= a < b, got a={a}, b={b}")
    pair.require_strict("integration by parts")
    p, q = pair.p, pair.q
    F = as_callable(f)
    G = as_callable(g)

    def left_integrand(x: float) -> float:
        return float(F(p * x)) * pq_derivative(pair, G, x)

    def right_integrand(x: float) -> float:
        return float(G(q * x)) * pq_derivative(pair, F, x)

    def range_integral(h: Callable[[float], float]) -> float:
        upper = jackson_integral(pair, h, b, policy).value
        lower = jackson_integral(pair, h, a, policy).value if a > 0.0 else 0.0
        return upper - lower

    lhs = range_integral(left_integrand)
    boundary = float(F(b)) * float(G(b)) - (float(F(a)) * float(G(a)) if a > 0.0 else float(F(0.0)) * float(G(0.0)))
    rhs = boundary - range_integral(right_integrand)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Vectorized ladder machinery for the Beta-weighted operators.
# ---------------------------------------------------------------------------


def _log1p_pow(log_r: float, s: np.ndarray) -> np.ndarray:
    """log(1 + r^s) for integer exponents s of either sign, r = exp(log_r) < 1."""
    out = np.empty(s.shape, dtype=float)
    pos = s >= 0
    out[pos] = np.log1p(np.exp(s[pos] * log_r))
    neg = ~pos
    # 1 + r^s = r^s (1 + r^{-s}) keeps the argument of log1p in [0, 1]
    out[neg] = s[neg] * log_r + np.log1p(np.exp(-s[neg] * log_r))
    return out


@dataclass
class _LadderWindow:
    """Shared per-(pair, window) data: nodes and power-basis prefix sums."""

    pair: PQPair
    i_lo: int
    i_hi: int
    max_power: int

    def __post_init__(self) -> None:
        p, q = self.pair.p, self.pair.q
        log_r = math.log(q / p)
        idx = np.arange(self.i_lo, self.i_hi + 1)
        self.log_t = idx * log_r - math.log(p)
        s = np.arange(self.i_lo, self.i_hi + self.max_power)
        lam = _log1p_pow(log_r, s)
        self.prefix = np.concatenate([[0.0], np.cumsum(lam)])  # prefix[j] = sum of first j lams
        self.log_p = math.log(p)

    def log_power_basis(self, power: Union[int, np.ndarray]) -> np.ndarray:
        """log (1 (+) p t_i)^power over the whole window, O(1) per node; a
        column of powers gives one row per power."""
        start = np.arange(self.i_hi - self.i_lo + 1)  # offsets into prefix
        seg = self.prefix[start + power] - self.prefix[start]
        return (power * (power - 1) / 2) * self.log_p + seg


def batched_weight_ratios(
    pair: PQPair,
    n: int,
    k_count: int,
    f: Optional[Union[FunctionSpec, Callable]],
    policy: TruncationPolicy = DEFAULT_POLICY,
    f_growth_degree: int = 2,
) -> tuple[np.ndarray, bool]:
    """Normalized ladder averages for the Beta-weighted operator rows.

    For every k in 0..k_count-1, with N = n + k + 1 and c_k = q^2 p^{n+k}:

        ratio_k = sum_i w_{k,i} f(c_k t_i) / sum_i w_{k,i},
        w_{k,i} = t_i^{k+1} / (1 (+) p t_i)^N

    computed with the per-row maximum shifted out of the exponent, so rows
    whose raw integrals overflow a double are still exact ratios.  Returns
    (ratios, all_rows_converged), a row counting as converged when its
    relative edge mass is below 1e-12.  With f None the ratios are all 1 and
    only the convergence flag matters.  A window of more than
    2 policy.max_terms + 1 nodes is never built: growth stops at the last
    window that fitted, and when even the first does not fit the ratios are
    NaN and not converged.

    The backward ladder converges only while n exceeds the integrand's
    polynomial growth degree; callers enforce n > f_growth_degree.
    """
    pair.require_strict("the Beta-weighted ladder")
    if k_count < 1:
        raise DomainError("k_count must be >= 1")
    p, q = pair.p, pair.q
    log_r = math.log(q / p)
    span = 41.5  # ~ -ln(1e-18)
    i_hi = int(math.ceil(span / -log_r)) + 8
    decay = max(n - f_growth_degree, 1)
    i_lo = -(int(math.ceil(span / (decay * -log_r))) + 8)
    func = as_callable(f) if f is not None else None

    ks = np.arange(k_count)[:, None]
    w = fw = None
    for _attempt in range(5):
        if i_hi - i_lo > 2 * policy.max_terms:
            # the window needed exceeds the term budget: never allocate it;
            # keep the last window that fitted, whose edges decide convergence
            if w is None:
                return np.full(k_count, np.nan), False
            break
        window = _LadderWindow(pair, i_lo, i_hi, n + k_count + 1)
        log_w = (ks + 1) * window.log_t[None, :]
        log_w -= window.log_power_basis(n + ks + 1)
        row_max = log_w.max(axis=1, keepdims=True)
        w = np.exp(log_w - row_max)
        if func is not None:
            t = np.exp(window.log_t)
            c = q * q * np.power(p, n + np.arange(k_count, dtype=float))
            fv = np.asarray(func(c[:, None] * t[None, :]), dtype=float)
            fw = w * fv
        else:
            fw = w
        # the window is adequate when both edges are negligible in every row,
        # for the weights and for the f-weighted terms alike
        scale = np.maximum(np.abs(fw).max(axis=1), 1e-300)
        edge = max(
            float(w[:, 0].max()),
            float(w[:, -1].max()),
            float((np.abs(fw[:, 0]) / scale).max()),
            float((np.abs(fw[:, -1]) / scale).max()),
        )
        if edge < 1e-15:
            break
        i_lo = int(i_lo * 1.6) - 8
        i_hi = int(i_hi * 1.6) + 8

    weight_sums = w.sum(axis=1)
    tails = (w[:, 0] + w[:, -1] + np.abs(fw[:, 0]) + np.abs(fw[:, -1])) / weight_sums
    converged = bool(np.all(tails < 1e-12))

    if func is None:
        return np.ones(k_count), converged
    return fw.sum(axis=1) / weight_sums, converged
