"""Jackson-type (p,q) integration on [0, a] and on [0, inf).

The finite integral is the generalized Jackson series

    int_0^a f = (p - q) a sum_{i >= 0} (q^i / p^{i+1}) f(a q^i / p^{i+1}),

valid for 0 < q < p <= 1.  The improper integral extends the same ladder
bilaterally (i ranges over all integers; nodes sweep (0, inf) geometrically):

    int_0^inf f = (p - q) sum_{i in Z} (q^i / p^{i+1}) f(q^i / p^{i+1}).

Both sum each ladder direction with one helper, ``_ladder_sum``: a direction
stops once the term magnitude stays below max(abs_tol, rel_tol |partial|) for
three consecutive terms and the geometric extrapolation of the discarded
tail is within 0.45 of that tolerance.  A finite integral has converged when
its direction stopped; an improper one when both directions stopped and
their summed tail is within max(abs_tol, rel_tol |value|).  A non-finite
term, or a term budget of max_terms spent in one direction, ends that
direction unstopped, and the result is then flagged as not converged.

``batched_weight_ratios`` is the vectorized work-horse behind the
Beta-weighted operators: it evaluates, for a whole range of k at once, the
normalized ladder averages

    ratio_k = int t^k f(c_k t) / (1 (+) pt)^{N_k}  /  int t^k / (1 (+) pt)^{N_k}

in row-shifted log space, so the (astronomically large) raw integrals never
materialize.  Each row k is summed over its own band of ladder nodes: the
log weight is concave in the node index, rising by up to n |log(q/p)| per
node on the large-t side and falling by up to (k+1) |log(q/p)| on the
small-t side, so the peak and bounds for both band edges follow in closed
form, O(1) per row.  All bands of a window are evaluated as one flat
(row, node) gather on two tables the window keeps over its index range, the
integer multiples of log r and the prefix sums of the bounded parts; the
terms at each row's peak are computed once per row and repeated over its
band, and f is evaluated on the band nodes only.  Each band is summed
once, and its end terms are left for the cells to judge; no band, and no
shared window, is ever wider than the fixed cap _LADDER_NODES = 20,001
nodes, which no truncation policy moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .core import (
    DEFAULT_POLICY,
    DomainError,
    PQPair,
    TruncationPolicy,
    _check_beta_args,
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
) -> tuple[float, int, float, bool]:
    """One direction of a Jackson ladder: adds the terms
    (p - q) scale w f(scale w) for w = weight, weight step, ... onto total.

    The direction stops once terms have stayed small for a while AND the
    geometric tail extrapolation itself clears the tolerance.  A non-finite
    term, a weight beyond _NODE_CAP or an exhausted term budget ends it
    unstopped.  Returns (total, terms used, tail, stopped).
    """
    p, q = pair.p, pair.q
    small_run = used = 0
    term = prev = 0.0
    for _ in range(policy.max_terms):
        if weight > _NODE_CAP or not math.isfinite(weight):
            break
        prev = term
        term = (p - q) * scale * weight * float(func(scale * weight))
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
                return total, used, _geometric_tail(term, prev), True
        else:
            small_run = 0
        weight *= step
    return total, used, _geometric_tail(term, prev), False


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
    total, used, tail, stopped = _ladder_sum(pair, as_callable(f), policy, a, 1.0 / p, q / p, 0.0)
    return QuadratureResult(total, used, tail, stopped)


def improper_integral(
    pair: PQPair,
    f: Union[FunctionSpec, Callable[[float], float]],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> QuadratureResult:
    """Bilateral ladder integral of f over [0, inf).

    Each direction has its own budget of policy.max_terms terms.
    Non-convergence within it yields a flagged result rather than an
    exception; a visibly diverging backward ladder (nodes beyond
    1e200 with non-shrinking terms) is flagged the same way.
    """
    pair.require_strict("the improper (p,q)-integral")
    func = as_callable(f)
    p, q = pair.p, pair.q
    ratio = q / p
    total, terms_used, tail, stopped = 0.0, 0, 0.0, True
    # forward from the node 1/p towards 0, backward from 1/q towards inf
    for weight, step in ((1.0 / p, ratio), ((1.0 / p) / ratio, 1.0 / ratio)):
        total, used, part_tail, part_stopped = _ladder_sum(
            pair, func, policy, 1.0, weight, step, total
        )
        terms_used += used
        tail += part_tail
        stopped = stopped and part_stopped
    return QuadratureResult(total, terms_used, tail, stopped and tail <= policy.threshold(total))


def beta_kernel(pair: PQPair, m: int, n: int) -> Callable[[float], float]:
    """The Beta integrand t -> t^{m-1} / (1 (+) pt)^{m+n}, evaluated stably.

    Assembled in log space so that huge ladder nodes cannot overflow the
    numerator before the (larger) denominator tames it.
    """
    m, n = _check_beta_args(m, n)
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
    boundary = float(F(b)) * float(G(b)) - float(F(a)) * float(G(a))
    rhs = boundary - range_integral(right_integrand)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Vectorized ladder machinery for the Beta-weighted operators.
# ---------------------------------------------------------------------------

# A band keeps the nodes whose weight is within exp(-_SPAN) ~ 1e-18 of its
# row's peak.  _SLOPES are the fractions of the asymptotic per-node decay at
# which _band_extents anchors its bounds: geometric towards 0, where a wide
# row bends slowly away from its peak, and towards 1, where the decay
# settles.
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
    """Nodes t_i = r^i / p (r = q/p) for i_lo <= i <= i_hi, with the two
    tables that give log (1 (+) p t_i)^power for any power <= max_power.
    Entry j of both belongs to the index s = i_lo + j, for j up to
    i_hi - i_lo + max_power: triangle[j] = _neg_triangle(s), in integers,
    and prefix[j] - prefix[i] sums the bounded parts log1p(r^|s'|) over
    i_lo + i <= s' < i_lo + j.  prefix[j] itself sums them outwards from
    s = 0, over 0 <= s' < s or (negated) s <= s' < 0: it depends on s alone."""

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
        # summed in closed form, and only the bounded part is accumulated:
        # c[j] = sum_{0 < s' <= j} log1p(r^s'), and log1p(r^0) = log 2
        s = np.arange(self.i_lo, self.i_hi + self.max_power + 1)
        bounded = np.log1p(np.exp(np.arange(1, np.abs(s).max() + 1) * self.log_r))
        c = np.concatenate([[0.0], np.cumsum(bounded)])
        self.prefix = np.where(s > 0, math.log(2.0) + c[np.maximum(s - 1, 0)], -c[np.abs(s)])
        self.triangle = _neg_triangle(s)

    def _split(self, power: Union[int, np.ndarray], i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log (1 (+) p t_i)^power less its constant power (power-1)/2 log p,
        as (integer multiple of log r, bounded part): two gathers from each
        table, at i and i + power."""
        start = i - self.i_lo
        end = start + power
        return self.triangle[end] - self.triangle[start], self.prefix[end] - self.prefix[start]

    def log_power_basis(
        self, power: Union[int, np.ndarray], nodes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """log (1 (+) p t_i)^power at the node indices i (default: the whole
        window), O(1) per node; a column of powers gives one row per power."""
        linear, bounded = self._split(power, np.arange(self.i_lo, self.i_hi + 1) if nodes is None else nodes)
        return (power * (power - 1) / 2) * self.log_p + self.log_r * linear + bounded

    def log_weight_drop(
        self, k: np.ndarray, power: np.ndarray, peaks: np.ndarray, nodes: np.ndarray, width: np.ndarray
    ) -> np.ndarray:
        """log w_i - log w_peak for w_i = t_i^(k+1) / (1 (+) p t_i)^power, for
        rows (k, power, peak) whose bands of width nodes lie end to end in
        nodes.  The terms constant in i cancel exactly, and the multiples of
        log r are combined in integers first, so no large magnitude is
        rounded; the peak terms are evaluated once per row."""
        peak_linear, peak_bounded = self._split(power, peaks)
        linear, bounded = self._split(np.repeat(power, width), nodes)
        # (k+1)(i - peak) - (linear - peak_linear), regrouped in exact integers
        steps = np.repeat(k + 1, width) * nodes - linear - np.repeat((k + 1) * peaks - peak_linear, width)
        return self.log_r * steps - (bounded - np.repeat(peak_bounded, width))


def _tail_extent(anchors: np.ndarray, rates: np.ndarray, reserve) -> np.ndarray:
    """The least index from which a sequence h lies reserve below its top
    (its largest value), by one bound per level (axis 0 of each argument).

    Level j states that every step from index anchors_j on falls by at
    least rates_j >= 0, and the rates rise with j.  Raising the anchors to
    their running maximum keeps each statement true.  Between anchors_i and
    anchors_{i+1} each step falls by rates_i, so h(anchors_j) lies
    banked_j = sum_{i<j} (anchors_{i+1} - anchors_i) rates_i below the top,
    and each later step by rates_j more: h(u) lies reserve_j below the top
    for every u >= anchors_j + ceil(max(reserve_j - banked_j, 0) / rates_j).
    A level of rate 0 (so banked_j = 0 < reserve_j) gives inf."""
    anchors = np.maximum.accumulate(anchors, axis=0)
    prior = np.concatenate([np.zeros_like(rates[:1]), rates[:-1]])
    banked = np.cumsum(np.diff(anchors, axis=0, prepend=0.0) * prior, axis=0)
    with np.errstate(divide="ignore"):
        return (anchors + np.ceil(np.maximum(reserve - banked, 0.0) / rates)).min(axis=0)


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
    drops by at least s times that limit.  Each fraction of _SLOPES gives an
    anchor and a rate of ``_tail_extent``, which takes the tightest bound."""
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
    right = _tail_extent(np.maximum(right_anchor - peak, 0.0), _SLOPES * a * L, _SPAN) + 1.0
    left_rate = np.maximum(_SLOPES * n - degree, 0.0) * L
    left = _tail_extent(np.maximum(peak - left_anchor, 0.0), left_rate, _SPAN) + 1.0
    return peak.astype(np.int64), left, right


def batched_weight_ratios(
    pair: PQPair,
    n: int,
    k_count: int,
    f: Union[FunctionSpec, Callable],
    f_growth_degree: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized ladder averages for the Beta-weighted operator rows.

    For k = 0..k_count-1, with N = n + k + 1 and c_k = q^2 p^{n+k}:

        ratio_k = sum_i w_{k,i} f(c_k t_i) / sum_i w_{k,i},
        w_{k,i} = t_i^{k+1} / (1 (+) p t_i)^N

    Each row is summed over its own band of nodes around its peak, sized by
    ``_band_extents`` so that the weights (and the f-weighted terms, for f
    growing like t^f_growth_degree) at its edges are ~1e-18 of the peak.
    The bands are evaluated together as one flat (row, node) gather, with
    each row's maximum shifted out of the exponent, so rows whose raw
    integrals overflow a double are still exact ratios; f is evaluated on
    the band nodes only.  A row is a function of its own band alone, so a
    shorter vector is bitwise the start of a longer one.

    Each row's edge is the largest of |f w| and |ratio| w at its band's two
    ends over sum w, in f's units, so those of c f are c times those of f.
    A cell weighs the edges as it weighs its samples (``baskakov._sum_rows``),
    so a row whose f w peaks at its small-t end (a decaying f, far out)
    counts for what it weighs there.  At the large-t end f is bounded only
    by the growth the band is sized for: where |f w| there is over 1e-15 of
    its peak, f outruns the band and the edge is inf, so an f growing faster
    than t^f_growth_degree is flagged, not rescued.  A band of more than
    _LADDER_NODES = 20,001 nodes is not built: its ratio and edge are NaN.
    Rows whose bands together span more than that, or hold more than
    _RUN_NODES nodes, are split over several windows.  Returns (ratios,
    edges) per row.

    The backward ladder converges only while n exceeds the integrand's
    polynomial growth degree; callers enforce n > f_growth_degree.
    """
    pair.require_strict("the Beta-weighted ladder")
    if k_count < 1:
        raise DomainError(f"need k_count >= 1 rows, got {k_count}")
    func = as_callable(f)
    ks = np.arange(k_count)
    peak, left, right = _band_extents(-math.log(pair.q / pair.p), n, ks, f_growth_degree)
    # a row whose band is over the node cap is never built: it stays NaN
    weight_sums, f_sums, edges = (np.full(ks.size, np.nan) for _ in range(3))
    rows = np.flatnonzero(left + right + 1.0 <= _LADDER_NODES)
    lo = peak[rows] - left[rows].astype(np.int64)
    hi = peak[rows] + right[rows].astype(np.int64)
    for run in _window_runs(lo, hi):
        sums = _band_sums(pair, n, ks[rows[run]], peak[rows[run]], lo[run], hi[run], func)
        weight_sums[rows[run]], f_sums[rows[run]], edges[rows[run]] = sums
    return f_sums / weight_sums, edges / weight_sums


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each row k of rows, over its band lo..hi (around its peak node) of
    one shared window: (sum w, sum f w, largest end term), w normalized to a
    peak of 1 and the end terms |f w| and |sum f w / sum w| w; inf where
    |f w| at the large-t end is over 1e-15 of its peak."""
    p, q = pair.p, pair.q
    window = _LadderWindow(pair, int(lo.min()), int(hi.max()), n + int(rows[-1]) + 1)
    width = hi - lo + 1
    first = np.cumsum(width) - width
    last = first + width - 1
    nodes = np.arange(width.sum()) + np.repeat(lo - first, width)
    log_w = window.log_weight_drop(rows, n + rows + 1, peaks, nodes, width)
    log_w -= np.repeat(np.maximum.reduceat(log_w, first), width)
    w = np.exp(log_w)
    # a row peaking beyond the float range overflows in f; its largest end
    # term is then inf or NaN, and no cell that reads it is trusted
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.exp(window.log_t)
        c = q * q * np.power(p, n + rows.astype(float))
        fw = w * np.asarray(func(np.repeat(c, width) * t[nodes - window.i_lo]), dtype=float)
        abs_fw = np.abs(fw)
        weight_sums, f_sums = np.add.reduceat(w, first), np.add.reduceat(fw, first)
        mean = np.abs(f_sums / weight_sums)
        ends = np.maximum.reduce([abs_fw[first], abs_fw[last], mean * w[first], mean * w[last]])
        # the first node is the band's large-t end, sized for f's growth
        outrun = abs_fw[first] > 1e-15 * np.maximum.reduceat(abs_fw, first)
        return weight_sums, f_sums, np.where(outrun, np.inf, ends)
