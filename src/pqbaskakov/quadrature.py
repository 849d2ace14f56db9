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
materialize.  Each row k is summed over its own band of ladder nodes: the
log weight is concave in the node index, rising by up to n |log(q/p)| per
node on the large-t side and falling by up to (k+1) |log(q/p)| on the
small-t side, so the peak and bounds for both band edges follow in closed
form, O(1) per row.  All bands are evaluated as one flat (row, node) gather
on a shared prefix table, and f is evaluated on the band nodes only.  A row
whose edges are not negligible regrows; no band, and no shared window, is
ever wider than the fixed cap _LADDER_NODES = 20,001 nodes, which no
truncation policy moves.
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
    if not (m >= 1 and n >= 1):
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

# A band keeps the nodes whose weight is within exp(-_SPAN) ~ 1e-18 of its
# row's peak.  _SLOPES are the fractions of the asymptotic per-node decay at
# which _band_extents anchors its bounds: geometric towards 0, where a wide
# row bends slowly away from its peak, and towards 1, where the decay
# settles.  (A plain list: a numpy call at import would cost every process.)
_SPAN = 41.5
_SLOPES = np.array(
    [2.0 ** (e / 3) for e in range(-36, -2)] + [1.0 - 0.35 * (0.01 / 0.35) ** (j / 6) for j in range(7)]
)[:, None]
# At most this many band nodes (or one band) share a window, which bounds the
# temporaries of one flat gather to a few tens of MiB; no band, and no
# window's span, is wider than _LADDER_NODES.
_RUN_NODES = 1 << 18
_LADDER_NODES = 20_001


def _neg_triangle(x: np.ndarray) -> np.ndarray:
    """sum_{x <= s < 0} |s|, so sum_{i <= s < i+P} min(s, 0) is
    _neg_triangle(i + P) - _neg_triangle(i), exactly, in integers."""
    m = np.maximum(-x, 0)
    return m * (m + 1) // 2


@dataclass
class _LadderWindow:
    """Nodes t_i = r^i / p (r = q/p) for i_lo <= i <= i_hi, with the prefix
    table that gives log (1 (+) p t_i)^power for any power <= max_power."""

    pair: PQPair
    i_lo: int
    i_hi: int
    max_power: int

    def __post_init__(self) -> None:
        p, q = self.pair.p, self.pair.q
        self.log_r = math.log(q / p)
        self.log_p = math.log(p)
        self.log_t = np.arange(self.i_lo, self.i_hi + 1) * self.log_r - self.log_p
        # log(1 + r^s) = min(s, 0) log r + log1p(r^|s|): the linear part is
        # summed in closed form, and only the bounded part is accumulated
        s = np.arange(self.i_lo, self.i_hi + self.max_power)
        bounded = np.log1p(np.exp(np.abs(s) * self.log_r))
        self.prefix = np.concatenate([[0.0], np.cumsum(bounded)])

    def _split(self, power: Union[int, np.ndarray], i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log (1 (+) p t_i)^power less its constant power (power-1)/2 log p,
        as (integer multiple of log r, bounded part)."""
        start = i - self.i_lo
        return (
            _neg_triangle(i + power) - _neg_triangle(i),
            self.prefix[start + power] - self.prefix[start],
        )

    def log_power_basis(
        self, power: Union[int, np.ndarray], nodes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """log (1 (+) p t_i)^power at the node indices i (default: the whole
        window), O(1) per node; a column of powers gives one row per power."""
        linear, bounded = self._split(power, np.arange(self.i_lo, self.i_hi + 1) if nodes is None else nodes)
        return (power * (power - 1) / 2) * self.log_p + self.log_r * linear + bounded

    def log_weight_drop(
        self, k: np.ndarray, power: np.ndarray, nodes: np.ndarray, peaks: np.ndarray
    ) -> np.ndarray:
        """log w_i - log w_peak for w_i = t_i^(k+1) / (1 (+) p t_i)^power.
        The terms constant in i cancel exactly, and the multiples of log r
        are combined in integers first, so no large magnitude is rounded."""
        linear, bounded = self._split(power, nodes)
        peak_linear, peak_bounded = self._split(power, peaks)
        steps = (k + 1) * (nodes - peaks) - (linear - peak_linear)
        return self.log_r * steps - (bounded - peak_bounded)


def _band_extents(
    neg_log_r: float, n: int, ks: np.ndarray, degree: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peak node of each row k and the node counts to its left and right
    beyond which log w_{k,i} (with the weight t^degree of f on the large-t
    side) lies _SPAN below the peak.  O(1) per row; the counts are floats and
    may be inf when the f-weighted terms do not decay.

    With L = -log r, the step dh(u) = log w_{u+1} - log w_u falls from nL to
    -(k+1)L as u grows, since log w is concave.  In x = r^u the level
    dh(u) = c solves in closed form,

        x = (e^{c + (k+1)L} - 1) / (1 - e^{c - nL}),

    and past the node where dh reaches a fraction s of its limit, each node
    drops by at least s times that limit.  Each fraction of _SLOPES gives a
    bound; the band takes the tightest one."""
    L, a = neg_log_r, ks + 1.0

    def level(c: np.ndarray) -> np.ndarray:
        # log x = log(1 - e^{c - nL}) - log(e^y - 1), y = c + (k+1)L > 0
        y = c + a * L
        return (np.log(-np.expm1(c - n * L)) - y - np.log(-np.expm1(-y))) / L

    peak = np.ceil(level(np.zeros_like(a)))
    # anchors: the first node right of the peak from which every step falls
    # by at least s (k+1) L, and the last node left of it up to which every
    # step rises by at least s n L (less the growth of f)
    right_anchor = np.ceil(level(-_SLOPES * a * L))
    left_anchor = np.floor(level(_SLOPES * n * L)) + 1.0
    extents = []
    for to_anchor, rate in (
        (right_anchor - peak, _SLOPES * a * L),
        (peak - left_anchor, np.maximum(_SLOPES * n - degree, 0.0) * L),
    ):
        to_anchor = np.maximum.accumulate(np.maximum(to_anchor, 0.0), axis=0)
        # past anchor j each step drops by at least rate_j
        prev_rate = np.concatenate([np.zeros_like(rate[:1]), rate[:-1]])
        dropped = np.cumsum(np.diff(to_anchor, axis=0, prepend=0.0) * prev_rate, axis=0)
        with np.errstate(divide="ignore"):
            rest = np.ceil(np.maximum(_SPAN - dropped, 0.0) / rate)
        extents.append((to_anchor + rest).min(axis=0) + 1.0)
    right, left = extents
    return peak.astype(np.int64), left, right


def batched_weight_ratios(
    pair: PQPair,
    n: int,
    k_count: int,
    f: Union[FunctionSpec, Callable],
    f_growth_degree: int = 2,
    k_start: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized ladder averages for the Beta-weighted operator rows.

    For k = k_start..k_count-1, with N = n + k + 1 and c_k = q^2 p^{n+k}:

        ratio_k = sum_i w_{k,i} f(c_k t_i) / sum_i w_{k,i},
        w_{k,i} = t_i^{k+1} / (1 (+) p t_i)^N

    Each row is summed over its own band of nodes around its peak, sized by
    ``_band_extents`` so that the weights (and the f-weighted terms, for f
    growing like t^f_growth_degree) at its edges are ~1e-18 of the peak.
    The bands are evaluated together as one flat (row, node) gather, with
    each row's maximum shifted out of the exponent, so rows whose raw
    integrals overflow a double are still exact ratios; f is evaluated on
    the band nodes only.  Bands and windows are sized for the rows
    k_start.. alone, so a longer vector grows by appending; a row then
    differs from its one-shot value by a few ulps of window rounding.

    A row passes when both edges are below 1e-15 of its peak, for the
    weights and for the f-weighted terms, and its relative edge mass
    (w + |f w| at both edges, over sum w) is below 1e-12.  Failing rows,
    and only they, regrow by 1.6x on each side, up to four times.  No band
    of more than _LADDER_NODES = 20,001 nodes is built: when a requested
    row's first band does not fit, nothing is built and the ratios are NaN
    and not converged; a row whose regrowth does not fit keeps its last
    band, whose edges decide.  Rows whose bands together span more than
    that, or hold more than _RUN_NODES nodes, are split over several
    windows.  Returns (ratios, converged) per row, a row counting as
    converged when its edge mass is below 1e-12.

    The backward ladder converges only while n exceeds the integrand's
    polynomial growth degree; callers enforce n > f_growth_degree.
    """
    pair.require_strict("the Beta-weighted ladder")
    if not 0 <= k_start < k_count:
        raise DomainError(f"need 0 <= k_start < k_count, got {k_start} and {k_count}")
    func = as_callable(f)
    ks = np.arange(k_start, k_count)
    peak, left, right = _band_extents(-math.log(pair.q / pair.p), n, ks, f_growth_degree)
    if not np.all(left + right + 1.0 <= _LADDER_NODES):
        # never allocate a band over the node cap; without every row the
        # segment cannot converge, so none of it is built
        return np.full(ks.size, np.nan), np.zeros(ks.size, dtype=bool)
    weight_sums, f_sums, tails, edges = (np.empty(ks.size) for _ in range(4))

    rows = np.arange(ks.size)
    for _attempt in range(5):
        lo = peak[rows] - left[rows].astype(np.int64)
        hi = peak[rows] + right[rows].astype(np.int64)
        for run in _window_runs(lo, hi):
            sums = _band_sums(pair, n, ks[rows[run]], peak[rows[run]], lo[run], hi[run], func)
            weight_sums[rows[run]], f_sums[rows[run]], tails[rows[run]], edges[rows[run]] = sums
        rows = rows[(edges[rows] >= 1e-15) | (tails[rows] >= 1e-12)]
        left[rows] = np.floor(left[rows] * 1.6) + 8
        right[rows] = np.floor(right[rows] * 1.6) + 8
        # a row whose regrowth does not fit keeps its last band
        rows = rows[left[rows] + right[rows] + 1.0 <= _LADDER_NODES]
        if rows.size == 0:
            break

    return f_sums / weight_sums, tails < 1e-12


def _window_runs(lo: np.ndarray, hi: np.ndarray) -> list[slice]:
    """Split consecutive bands [lo, hi] (each at most _LADDER_NODES nodes) into
    runs whose union spans at most _LADDER_NODES nodes and whose bands hold at
    most _RUN_NODES nodes (or are one band), one ladder window per run."""
    runs, start = [], 0
    while start < lo.size:
        spans = np.maximum.accumulate(hi[start:]) - np.minimum.accumulate(lo[start:]) + 1
        nodes = np.cumsum(hi[start:] - lo[start:] + 1)
        stop = start + max(1, int(np.count_nonzero((spans <= _LADDER_NODES) & (nodes <= _RUN_NODES))))
        runs.append(slice(start, stop))
        start = stop
    return runs


def _band_sums(
    pair: PQPair,
    n: int,
    rows: np.ndarray,
    peaks: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    func: Callable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For each row k of rows, over its band lo..hi (around its peak node) of
    one shared window: (sum w, sum f w, edge mass over sum w, largest edge
    relative to the peak), w normalized to a peak of 1."""
    p, q = pair.p, pair.q
    window = _LadderWindow(pair, int(lo.min()), int(hi.max()), n + int(rows[-1]) + 1)
    width = hi - lo + 1
    first = np.cumsum(width) - width
    last = first + width - 1
    member = np.repeat(np.arange(rows.size), width)
    nodes = np.arange(width.sum()) + np.repeat(lo - first, width)
    ks = rows[member]
    log_w = window.log_weight_drop(ks, n + ks + 1, nodes, np.repeat(peaks, width))
    log_w -= np.repeat(np.maximum.reduceat(log_w, first), width)
    w = np.exp(log_w)
    # a row peaking beyond the float range overflows in f; its edge mass is
    # then NaN and the row does not converge
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.exp(window.log_t)
        c = q * q * np.power(p, n + rows.astype(float))
        fw = w * np.asarray(func(c[member] * t[nodes - window.i_lo]), dtype=float)
        weight_sums = np.add.reduceat(w, first)
        abs_fw = np.abs(fw)
        tails = (w[first] + w[last] + abs_fw[first] + abs_fw[last]) / weight_sums
        scale = np.maximum(np.maximum.reduceat(abs_fw, first), 1e-300)
        edges = np.maximum.reduce([w[first], w[last], abs_fw[first] / scale, abs_fw[last] / scale])
        return weight_sums, np.add.reduceat(fw, first), tails, edges
