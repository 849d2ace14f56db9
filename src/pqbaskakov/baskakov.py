"""The (p,q)-Baskakov basis and the Baskakov and Baskakov-Beta operators.

Basis:
    b_{n,k}(x) = [n+k-1 choose k] p^{k + n(n-1)/2} q^{k(k-1)/2}
                 x^k / (1 (+) x)^{n+k}

Plain operator (point samples at the rational nodes):
    B_n(f, x) = sum_k b_{n,k}(x) f( p^{n-1} [k] / (q^{k-1} [n]) )

Beta-weighted operator (sample integrals instead of point samples):
    D_n(f, x) = sum_k b_{n,k}(x) / B(k+1, n)
                * int_0^inf t^k / (1 (+) pt)^{n+k+1} f(q^2 p^{n+k} t) dt

Both operators are sum_k b_{n,k}(x) s_k with x-independent samples s_k, so
every entry checks its arguments, resolves its route once and calls the one
kernel, ``_apply``, with f and that route; the kernel grows the basis row
and the route's sample vector (``_samples``), sums them and decides
truncation and trust.
The routes differ only in their samples, and share none of them:
  * "nodes" (``baskakov_apply``, the plain B_n) - f at the nodes,
  * "analytic" (``baskakov_beta_apply`` of a polynomial ``FunctionSpec`` by
    default, and ``baskakov_beta_monomial_exact``) - closed-form Beta ratios,
  * "quadrature" (``baskakov_beta_apply`` of anything else, or on request) -
    bilateral ladder quadrature of the inner integrals, each row normalized
    by the ladder value of its own weight integral, so that D_n(1, x) = 1.
The closed moment expressions (``moments_closed``) share none of this.
The closed forms - the nodes, ``baskakov_moment_closed``, ``moments_closed``
and ``central_moment`` - are written in the normalised numbers
<j> = [j] / p^{j-1} of ``core``, with no power p^n left, so at a fixed
p < 1 they hold at every order n instead of sinking below the smallest
double from n of a few thousand on.
Every entry refuses a point outside 0 <= x < inf (``_check_point``);
``baskakov_basis`` and ``baskakov_beta_monomial_exact`` take one point, the
closed moments an array of any shape.

Both operator entries take x as one point or as a 1-D array of points, and
the kernel works on the whole array at once: a matrix of basis rows, one per
point, grows by doubling (64, 128, ... terms, up to max_terms), and each row
stops at the first length at which its own edge test passes and is summed at
that length, so every cell is bitwise the value of that point evaluated
alone (one point is a 1-point grid to the kernel).  The edge test of a
doubling reads the new segment only, against a running maximum per row.
A longer row appends only its new terms: the prefix sum of log (1 (+) x)^j
goes on from the last value of the previous segment, and the x-independent
terms are built for the new k only, so the grown row is bitwise the
one-shot row.  The points
are taken in blocks of at most _ROW_ENTRIES = 2^18 row entries (2 MiB of
float64 per matrix; a few such matrices are alive at once), so a long grid
costs memory independent of its length.

The kernel grows one sample vector per call the same way, by the samples
of the new k only, so each s_k of a call is computed once, and x = 0 reads
s_0 of the first segment.  The analytic route builds the Beta factors of
all the polynomial's degrees of a segment in one matrix.  The basis
binomials and the Beta factors read the call's log-factorial table log [j]!,
grown alike.  Both live for one call, so no cell depends on earlier calls.

The one cache of operator work is one level up.  An experiment run, and
``convergence_run`` / ``weighted_sup_error``, ask ``baskakov_beta_apply``
for the cells of whole grid rows, one (n, x) at a time.  Inside a cell
table (``_cell_table``: a context variable holding a grid and its evaluated
rows, keyed by (pair, f, n, policy, method)) the first call for a grid
point of a row evaluates the whole row, as one grid call of
``baskakov_beta_apply``, and every other call is an index lookup, so every
cell still passes through ``baskakov_beta_apply``.  The table keeps the key
objects and the row of its last lookup, so the cells of one row, asked for
one after another, hash their key once.  ``run_experiment``
opens one for every run, and the analysis layer one per grid row, which
reuses the run's table when the grids are equal.  Only ``FunctionSpec``
targets at a float x are looked up; a point off the grid, a row that raises
and any call outside a table are computed afresh, and a table is dropped
when its block ends, so it needs no size bound and cannot go stale.

The basis is a probability distribution over k (partition of unity), so
truncation is driven by accumulated mass plus the size of the sample-weighted
terms at the edge of the row.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .core import (
    DEFAULT_POLICY,
    DomainError,
    PQPair,
    TruncationPolicy,
    _LOG_FACT_0,
    _check_nonneg_int,
    _log_fact_table,
    _normalised_number,
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
_ROW_ENTRIES = 1 << 18  # most basis-row entries a block of grid points holds (2 MiB)


class OperatorResult(NamedTuple):
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


def _log_basis_row(
    pair: PQPair,
    n: int,
    x: np.ndarray,
    k_count: int,
    k_start: int = 0,
    carry: Union[np.ndarray, float] = 0.0,
    *, lfact: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """log b_{n,k}(x) for k = k_start..k_count-1 at each point of the 1-D
    array x (every x > 0), as a (len(x), k_count - k_start) matrix, and per
    point the prefix sum of log (1 (+) x)^j over j < n + k_count; lfact is
    the pair's log-factorial table, to j = n + k_count - 2 at least.

    A longer row continues from k_start = k_count with that prefix sum as its
    carry; the segments concatenate to the one-shot row bit for bit, since the
    prefix sum goes on in the same order and the x-independent terms are
    elementwise in k or j.  The logs of x itself are taken in
    math, one point at a time: numpy's vectorized log and log1p round some
    points differently, and the rows stay bitwise those of math.
    """
    p, q = pair.p, pair.q
    lp, lq = math.log(p), math.log(q)
    ki = np.arange(k_start, k_count)
    k = ki.astype(float)
    log_binom = lfact[ki + n - 1] - lfact[n - 1] - lfact[ki]
    base = log_binom + (k + n * (n - 1) / 2) * lp + (k * (k - 1) / 2) * lq
    points = x.tolist()
    # the first segment also sums the n leading factors, which depend on x
    j_lo = n + k_start if k_start else 0
    j = np.arange(j_lo, n + k_count, dtype=float)
    if p == q:
        factors = j * lp + np.array([[math.log1p(v)] for v in points])
    else:
        factors = j * lp + np.log1p(pair.ratio**j * x[:, None])
    prefix = np.empty((x.size, factors.shape[1] + 1))
    prefix[:, 0] = carry
    prefix[:, 1:] = factors
    np.cumsum(prefix, axis=1, out=prefix)
    log_x = np.array([[math.log(v)] for v in points])
    row = base + k * log_x - prefix[:, n + k_start - j_lo : -1]
    return row, prefix[:, -1].copy()


def _check_order(n: int) -> int:
    """The operator order n as an int: a whole n >= 1."""
    n = _check_nonneg_int(n, "operator order n")
    if n < 1:
        raise DomainError(f"operator order must satisfy n >= 1, got {n}")
    return n


def _check_point(
    n: int, x: Union[float, np.ndarray], ndim: Optional[int]
) -> tuple[int, np.ndarray]:
    """The order n as an int and the points x as a float array of x's shape.
    Every entry takes a whole n >= 1 and points 0 <= x < inf (a NaN or
    infinite x would lose its NaN basis row): one point (ndim 0), one or a
    1-D array of them (ndim 1), or an array of any shape (ndim None)."""
    n = _check_order(n)
    xs = np.asarray(x, dtype=float)
    if ndim is not None and xs.ndim > ndim:
        points = ("one point", "one point or a 1-D array of points")[ndim]
        raise DomainError(f"x must be {points}, got shape {xs.shape}")
    inside = (0.0 <= xs) & (xs < math.inf)
    if not inside.all():
        raise DomainError(f"operator domain is 0 <= x < inf, got x={xs[~inside][0]}")
    return n, xs


def baskakov_basis(pair: PQPair, n: int, k: int, x: float) -> float:
    """One basis weight b_{n,k}(x), computed through the log-domain row."""
    _require_basis_regime(pair)
    n, xs = _check_point(n, x, 0)
    k = _check_nonneg_int(k, "basis index k")
    if x == 0.0:
        return 1.0 if k == 0 else 0.0
    row, _ = _log_basis_row(pair, n, xs.reshape(1), k + 1, lfact=_log_fact_table(pair, n + k))
    return float(np.exp(row[0, k]))


def baskakov_node(pair: PQPair, n: int, k: int) -> float:
    """The sample node p^{n-1} [k] / (q^{k-1} [n]) = <k>_{1/r} / <n>_r, r = q/p."""
    n = _check_order(n)
    k = _check_nonneg_int(k, "basis index k")
    return float(_nodes(pair, n, np.float64(k)))


def _nodes(pair: PQPair, n: int, k: np.ndarray) -> np.ndarray:
    # p^{k-1} <k>_r / q^{k-1} = <k>_{1/r}, exactly 0 at k = 0
    return _normalised_number(pair.q, pair.p, k) / _normalised_number(pair.p, pair.q, n)


def _samples(
    pair: PQPair, n: int, f: Union[FunctionSpec, Callable], route: str, k_start: int, k_count: int,
    *, lfact: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The samples s_k of a route for k = k_start..k_count-1, with a trust
    flag per k: f at the nodes ("nodes"), sum_d c_d q^{2d} p^{d(n+k)}
    B(k+d+1, n-d) / B(k+1, n) over the nonzero coefficients c_d of the
    polynomial f ("analytic"), or the ladder ratios ("quadrature")."""
    if route == "quadrature":
        return batched_weight_ratios(pair, n, k_count, f, _growth_degree(f), k_start)
    if route == "analytic":
        s = np.zeros(k_count - k_start)
        terms = [(d, c) for d, c in enumerate(f.as_polynomial()) if c != 0.0]
        if terms:
            degrees, coefficients = zip(*terms)
            log_factors = _log_beta_ratio_factors(pair, n, degrees, k_count, k_start, lfact=lfact)
            for c, factor in zip(coefficients, np.exp(log_factors)):
                s += c * factor
    else:
        nodes = _nodes(pair, n, np.arange(k_start, k_count, dtype=float))
        values = np.asarray(as_callable(f)(nodes), dtype=float)
        try:
            # one value for all nodes is a constant f, as the ladder route takes it
            s = np.broadcast_to(values, nodes.shape)
        except ValueError:
            raise DomainError(
                f"f gave values of shape {values.shape} at {nodes.size} nodes"
            ) from None
    return s, np.ones(k_count - k_start, dtype=bool)


def _apply(
    pair: PQPair,
    n: int,
    f: Union[FunctionSpec, Callable],
    route: str,
    xs: np.ndarray,
    policy: TruncationPolicy,
) -> list[OperatorResult]:
    """sum_k b_{n,k}(x) s_k at each point of the 1-D array xs, with the
    x-independent samples s_k of the route.

    The rows of all points double together (64, 128, ... up to max_terms);
    each row stops at the first length at which its sample-weighted edge
    term is negligible (or the term budget is spent) and is summed at that
    length, so a point's result does not depend on the other points.  Points
    are taken in blocks of at most _ROW_ENTRIES row entries.  The one sample
    vector of the call grows with the longest row, by the new k only, and so
    does its log-factorial table.  ``_sum_rows`` alone decides trust.
    """
    # extreme inputs overflow to inf or NaN on the way (a sample, a node, a
    # term); their cells end untrusted, so numpy need not warn about them
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        results: list = [None] * xs.size
        s, ok, lfact = np.empty(0), np.empty(0, dtype=bool), _LOG_FACT_0
        zero = np.flatnonzero(xs == 0.0)
        if zero.size:
            # b_{n,0}(0) = 1, every other weight vanishes
            k_count = min(64, policy.max_terms)
            lfact = _log_fact_table(pair, n + k_count - 1, lfact)
            s, ok = _samples(pair, n, f, route, 0, k_count, lfact=lfact)
            result = _sum_rows(np.zeros((1, 1)), s[:1], bool(ok[0]), policy)[0]
            for i in zero.tolist():
                results[i] = result
        positive = np.flatnonzero(xs)
        # per row: its point's index, its log weights so far, the prefix sum
        # they end on, and the largest edge metric over them
        pending = [(positive, np.empty((positive.size, 0)), np.zeros(positive.size),
                    np.full(positive.size, -math.inf))]
        while pending:
            idx, rows, carry, peak = pending.pop()
            while idx.size:
                built = rows.shape[1]
                k_count = min(2 * built if built else 64, policy.max_terms)
                # the first segment also holds the n leading factors of each row
                fit = max(1, _ROW_ENTRIES // (k_count + (0 if built else n)))
                if idx.size > fit:
                    pending.append((idx[fit:], rows[fit:], carry[fit:], peak[fit:]))
                    idx, rows, carry, peak = idx[:fit], rows[:fit], carry[:fit], peak[:fit]
                lfact = _log_fact_table(pair, n + k_count - 1, lfact)
                segment, carry = _log_basis_row(pair, n, xs[idx], k_count, built, carry, lfact=lfact)
                rows = np.concatenate([rows, segment], axis=1) if built else segment
                if s.size < k_count:
                    new_s, new_ok = _samples(pair, n, f, route, s.size, k_count, lfact=lfact)
                    s, ok = np.concatenate([s, new_s]), np.concatenate([ok, new_ok])
                # the edge metric b_{n,k} |s_k| in logs (a zero or non-finite
                # sample counts as 1), taken over the new segment only: the
                # running max over the segments is the max over the whole row
                ls = np.log(np.abs(s[built:k_count]))
                metric = segment + np.where(np.isfinite(ls), ls, 0.0)
                peak = np.maximum(peak, metric.max(axis=1))
                done = metric[:, -1] < peak + math.log(_EDGE_FRACTION)
                if k_count >= policy.max_terms:
                    done[:] = True
                inner_ok = bool(ok[:k_count].all())
                summed = _sum_rows(rows[done], s[:k_count], inner_ok, policy)
                for i, result in zip(idx[done].tolist(), summed):
                    results[i] = result
                idx, rows, carry, peak = idx[~done], rows[~done], carry[~done], peak[~done]
        return results


def _sum_rows(
    rows: np.ndarray, s: np.ndarray, inner_ok: bool, policy: TruncationPolicy
) -> list[OperatorResult]:
    """One result per row of log weights, summed against the samples s.  The
    one trust rule: a value is trusted when its samples are (inner_ok), its
    basis tail is at most rel_tol and the value itself is finite."""
    b = np.exp(rows)
    terms = np.where(b > 0.0, b * s, 0.0)
    tail = 1.0 - b.sum(axis=1)
    tail = np.where(tail > 0.0, tail, 0.0)  # max(0, 1 - sum b), and 0 for a NaN sum
    significant = np.abs(terms) > policy.abs_tol
    last = terms.shape[1] - np.argmax(significant[:, ::-1], axis=1)
    k_used = np.where(significant.any(axis=1), last, 1)
    return [
        OperatorResult(v, k, t, inner_ok, inner_ok and t <= policy.rel_tol and math.isfinite(v))
        for v, k, t in zip(terms.sum(axis=1).tolist(), k_used.tolist(), tail.tolist())
    ]


def baskakov_apply(
    pair: PQPair,
    f: Union[FunctionSpec, Callable],
    n: int,
    x: Union[float, np.ndarray],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> Union[OperatorResult, list[OperatorResult]]:
    """B_n(f, x) by direct summation of basis weights against node samples.

    x is one point, with one result, or a 1-D array of points, with a list
    of results in their order; each is bitwise the result of its point alone.
    """
    _require_basis_regime(pair)
    n, xs = _check_point(n, x, 1)
    as_callable(f)  # refuses an f that is neither a FunctionSpec nor callable, on any grid
    results = _apply(pair, n, f, "nodes", xs.reshape(-1), policy)
    return results if np.ndim(x) else results[0]


def baskakov_moment_closed(
    pair: PQPair, m: int, n: int, x: float | np.ndarray
) -> float | np.ndarray:
    """Closed moments of the plain operator: 1, x, ([n+1]x^2 + p^{n-1} q x)/(q [n])
    = (p <n+1> x^2 + q x)/(q <n>), at a float x or elementwise over a new array
    of x's shape (as ``moments_closed``)."""
    if m not in (0, 1, 2):
        raise DomainError(f"closed Baskakov moments exist for m in {{0,1,2}}, got {m}")
    n, xs = _check_point(n, x, None)
    if m < 2:
        moment = np.ones(xs.shape) if m == 0 else xs.copy()
        return moment if xs.ndim else float(moment)
    p, q = pair.p, pair.q
    upper, lower = _normalised_number(p, q, np.array([n + 1, n])).tolist()
    return (p * upper * x * x + q * x) / (q * lower)


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
    n, _ = _check_point(n, x, 0)
    if not x > 0.0:
        raise DomainError(f"recurrence check needs x > 0, got {x}")
    pair.require_strict("the moment recurrence check")
    p, q = pair.p, pair.q
    e_m = FunctionSpec.named(f"e{m}")
    t_px, t_qx = (r.value for r in baskakov_apply(pair, e_m, n, np.array([p * x, q * x]), policy))
    t_next = baskakov_apply(pair, FunctionSpec.named(f"e{m + 1}"), n, q * x, policy).value
    derivative = (t_px - t_qx) / ((p - q) * x)  # the (p,q)-difference quotient
    nn = pq_number(pair, n)
    lhs = nn * t_next
    rhs = q * p ** (n - 1) * x * (1.0 + p * x) * derivative + nn * q * x * t_qx
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Beta-weighted operator.
# ---------------------------------------------------------------------------


def _log_beta_ratio_factors(
    pair: PQPair, n: int, degrees: tuple[int, ...], k_count: int, k_start: int = 0,
    *, lfact: np.ndarray
) -> np.ndarray:
    """log of q^{2m} p^{m(n+k)} B(k+m+1, n-m) / B(k+1, n) for each degree m
    of the non-empty tuple degrees (one row each, in their order) and
    k = k_start..k_count-1 (one column each).

    This is the exact inner-integral factor for the monomial t^m: the shared
    Gamma(n+k+1) cancels, leaving factorial differences and prefactors.  Each
    entry is the same elementwise formula in (m, k), so a row is bitwise the
    row of its degree alone.  The entries to the analytic route have checked
    n > m, so lfact to j = n + k_count - 2 holds every index read.
    """
    p, q = pair.p, pair.q
    lp, lq = math.log(p), math.log(q)
    m = np.array(degrees)[:, None]
    ki = np.arange(k_start, k_count)
    k = ki.astype(float)
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

    The analytic route of ``baskakov_beta_apply`` for the monomial t^m, so
    independent of both the ladder quadrature and the closed moment
    expressions.
    """
    m = _check_nonneg_int(m, "monomial order m")
    # the degree rule first, so that no m beyond the order builds m + 1 coefficients
    _check_degree(_check_point(n, x, 0)[0], m)
    e_m = FunctionSpec.polynomial((0.0,) * m + (1.0,))
    return baskakov_beta_apply(pair, e_m, n, x, policy, "analytic").value


def _growth_degree(f: Union[FunctionSpec, Callable]) -> int:
    degree = f.degree if isinstance(f, FunctionSpec) else None
    return 2 if degree is None else degree


def _check_degree(n: int, degree: int) -> None:
    # a polynomial's growth degree is its degree, so this is every route's rule
    if n <= degree:
        raise DomainError(f"operator order n={n} must exceed the growth degree {degree} of f")


class _RunCells(NamedTuple):
    """The evaluated grid rows of one cell table."""

    xs: np.ndarray  # the table's grid
    index: dict[float, int]  # grid point -> its position in xs
    rows: dict[tuple, list[OperatorResult]]  # (pair, f, n, policy, method) -> results over xs
    last: list  # [pair, f, n, policy, method, results] of the last lookup


# The open cell table; None outside every ``_cell_table`` block.
_RUN_CELLS: ContextVar[Optional[_RunCells]] = ContextVar("pqbaskakov_run_cells", default=None)


@contextmanager
def _cell_table(grid: np.ndarray) -> Iterator[None]:
    """Within the block, a ``baskakov_beta_apply`` call with a
    ``FunctionSpec`` target at a point of grid is answered from the whole
    grid row of its (pair, f, n, policy, method), which the first such call
    evaluates in one kernel pass (every grid point lies in [0, inf), as
    those of an ``EvalGrid`` do).  A row whose evaluation raises is not
    kept.  An open table on an equal grid serves the block; otherwise the
    block has its own table, dropped on exit."""
    xs = np.asarray(grid, dtype=float)
    cells = _RUN_CELLS.get()
    if cells is not None and np.array_equal(cells.xs, xs):
        yield
        return
    token = _RUN_CELLS.set(_RunCells(xs, dict(zip(xs.tolist(), range(xs.size))), {}, [None] * 6))
    try:
        yield
    finally:
        _RUN_CELLS.reset(token)


def baskakov_beta_apply(
    pair: PQPair,
    f: Union[FunctionSpec, Callable],
    n: int,
    x: Union[float, np.ndarray],
    policy: TruncationPolicy = DEFAULT_POLICY,
    method: str = "auto",
) -> Union[OperatorResult, list[OperatorResult]]:
    """D_n(f, x), the Beta-weighted operator.

    x is one point, with one result, or a 1-D array of points, with a list
    of results in their order; each is bitwise the result of its point alone.

    method:
      * "auto"       - polynomials (including the named monomials) expand the
                       inner integral analytically into Beta values; anything
                       else falls back to ladder quadrature.
      * "analytic"   - force the Beta-value expansion (polynomials only).
      * "quadrature" - force bilateral ladder quadrature of the inner
                       integrals, each row normalized by its own ladder
                       weight integral.

    Inside ``_cell_table``, a call with a ``FunctionSpec`` target at a grid
    point is looked up in its grid row, evaluated once for all points.
    """
    cells = _RUN_CELLS.get()
    if cells is not None and isinstance(x, float) and isinstance(f, FunctionSpec):
        i = cells.index.get(x)
        if i is not None:
            last = cells.last
            # identical key objects are an equal key, found without a hash
            if not (last[0] is pair and last[1] is f and last[2] is n
                    and last[3] is policy and last[4] is method):
                key = (pair, f, n, policy, method)
                row = cells.rows.get(key)
                if row is None:
                    row = cells.rows[key] = baskakov_beta_apply(pair, f, n, cells.xs, policy, method)
                last[:] = *key, row
            return last[5][i]
    pair.require_strict("the Beta-weighted operator")
    n, xs = _check_point(n, x, 1)
    as_callable(f)  # refuses an f that is neither a FunctionSpec nor callable, on any grid
    if method not in ("auto", "analytic", "quadrature"):
        raise DomainError(f"unknown method {method!r}")
    polynomial = isinstance(f, FunctionSpec) and f.as_polynomial() is not None
    if method == "analytic" and not polynomial:
        raise DomainError("analytic evaluation needs a polynomial FunctionSpec")
    _check_degree(n, _growth_degree(f))
    route = "quadrature" if method == "quadrature" or not polynomial else "analytic"
    results = _apply(pair, n, f, route, xs.reshape(-1), policy)
    return results if np.ndim(x) else results[0]


# ---------------------------------------------------------------------------
# Closed moments and central moments.
# ---------------------------------------------------------------------------


def _moment_numerators(pair: PQPair, n: int) -> tuple[tuple[tuple, float], ...]:
    """The closed columns M1, M2, mu1 and mu2 of D_n (n > 1) as quadratics in
    x over their denominators, in that order: (coefficients, highest power of
    x first; denominator) each.  The printed forms M1 = ([n] x + p^{n-2} q) /
    [n-1] and M2 = ([n]([n] + p^n/q) x^2 + [n] p^{n-3} (p+q)^2 x + p^{2n-5}
    q^2 [2]) / (q [n-1][n-2]) are written in the normalised numbers
    <j> = [j] / p^{j-1} (``_normalised_number``), and p^{n-2} and p^{2n-5}
    are divided out of M1 and M2, so nothing underflows at a fixed p < 1:

        M1 = (p <n> x + q) / <n-1>,
        M2 = (p^3 <n>(<n> + p/q) x^2 + p (p+q)^2 <n> x + q^2 (p+q)) / (q <n-1><n-2>).

    mu1 = M1 - x and mu2 = M2 - 2x M1 + x^2 are formed on these numerators,
    one coefficient of x at a time, so the large x^2 terms cancel in the
    coefficients, not in the values.  Two of those coefficients are written
    without cancelling terms, with r = q/p and <j+1> = 1 + r <j>: mu1's x
    coefficient p <n> - <n-1> as p r^{n-1} - (1 - p) <n-1> (q^{n-1} at p = 1,
    out of terms of about n), and mu2's x^2 coefficient, about 2n + 2 out of
    terms of about n^2, as g^2/p + q <n-2> + p^4 <n>/q with
    g = p^2 <n> - q <n-2> = (p^2 - q) <n-2> + p r^{n-2} (p + q)."""
    p, q = pair.p, pair.q
    nn, n1, n2 = _normalised_number(p, q, np.arange(n, n - 3, -1)).tolist()
    # r^{n-2} through log1p(r - 1), as <j> takes it: (q/p) ** (n - 2) would
    # carry n - 2 times the rounding of q/p; and p r^{n-1} = q r^{n-2}
    r_power = math.exp((n - 2) * math.log1p((q - p) / p))
    b2 = p**3 * nn * (nn + p / q)
    b1 = p * (p + q) ** 2 * nn
    b0 = q * q * (p + q)
    qn2 = q * n2
    d = qn2 * n1
    g = (p * p - q) * n2 + p * r_power * (p + q)
    return (
        ((p * nn, q), n1),
        ((b2, b1, b0), d),
        ((q * r_power - (1.0 - p) * n1, q), n1),
        ((g * g / p + qn2 + p**4 * nn / q, b1 - 2.0 * q * qn2, b0), d),
    )


def _moment_columns(
    pair: PQPair, n: int, x: float | np.ndarray, columns: tuple[int, ...] = (0, 1, 2, 3)
) -> list:
    """The closed columns of D_n at x (a float, or an array of any shape) from
    one ``_moment_numerators`` pass, by index: 0 M1, 1 M2, 2 mu1, 3 mu2, each
    numerator by Horner's rule and divided once.  n is a whole order; M1
    needs n > 1 and the other columns n > 2."""
    if n <= (1 if columns == (0,) else 2):
        raise DomainError(f"M1 needs n > 1, and M2, mu1 and mu2 need n > 2; got n = {n}")
    numerators = _moment_numerators(pair, n)
    values = []
    for coefficients, denominator in (numerators[c] for c in columns):
        value = coefficients[0]
        for c in coefficients[1:]:
            value = value * x + c
        values.append(value / denominator)
    return values


def moments_closed(pair: PQPair, m: int, n: int, x: float | np.ndarray) -> float | np.ndarray:
    """Closed first and second moments of the Beta-weighted operator
    (``_moment_numerators``): m = 0 needs n >= 1, m = 1 needs n > 1, m = 2
    needs n > 2.  x may be a float or an array (a whole grid), and the result
    has its shape; each element is bitwise the value at that float x.  A
    point outside 0 <= x < inf raises ``DomainError``.
    """
    if m not in (0, 1, 2):
        raise DomainError(f"closed moments exist for m in {{0,1,2}}, got {m}")
    n, _ = _check_point(n, x, None)
    if m == 0:
        return 1.0 if np.ndim(x) == 0 else np.ones(np.shape(x))
    return _moment_columns(pair, n, x, (m - 1,))[0]


def central_moment(pair: PQPair, order: int, n: int, x: float | np.ndarray) -> float | np.ndarray:
    """Central moments D_n((t-x)^order, x) for order in {1, 2}, n > 2, at a
    float x or elementwise over an array of them (as ``moments_closed``),
    from the numerators of ``_moment_numerators``."""
    if order not in (1, 2):
        raise DomainError(f"central moments exist for order in {{1,2}}, got {order}")
    n, _ = _check_point(n, x, None)
    return _moment_columns(pair, n, x, (order + 1,))[0]
