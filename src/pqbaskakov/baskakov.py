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
kernel, ``_apply``, with a fresh ``_Samples`` source of that route; the
kernel grows the basis row, sums it against the samples and decides
truncation and trust.
The routes differ only in their samples, and share none of them:
  * "nodes" (``baskakov_apply``, the plain B_n) - f at the nodes,
  * "analytic" (``baskakov_beta_apply`` of a polynomial ``FunctionSpec`` by
    default, and ``baskakov_beta_monomial_exact``) - closed-form Beta ratios,
  * "quadrature" (``baskakov_beta_apply`` of anything else, or on request) -
    bilateral ladder quadrature of the inner integrals, each row normalized
    by the ladder value of its own weight integral, so that D_n(1, x) = 1.
The closed moment expressions (``moments_closed``) share none of this.

Both operator entries take x as one point or as a 1-D array of points, and
the kernel works on the whole array at once: a matrix of basis rows, one per
point, grows by doubling (64, 128, ... terms, up to max_terms), and each row
stops at the first length at which its own edge test passes and is summed at
that length, so every cell is bitwise the value of that point evaluated
alone (one point is a 1-point grid to the kernel).  A longer row appends
only its new terms: the prefix sum of log (1 (+) x)^j goes on from the last
value of the previous segment, and the x-independent terms are built for
the new k only, so the grown row is bitwise the one-shot row.  The points
are taken in blocks of at most _ROW_ENTRIES = 2^18 row entries (2 MiB of
float64 per matrix; a few such matrices are alive at once), so a long grid
costs memory independent of its length.

The samples grow the same way: a ``_Samples`` source appends only the new
k, so each s_k of a kernel call is computed once, and x = 0 reads row 0 of
the first segment.  A source lives for one kernel call, so no cell depends
on the calls made before it.

The one cache of operator work is one level up.  An experiment run, and
``convergence_run`` / ``weighted_sup_error``, ask ``baskakov_beta_apply``
for the cells of whole grid rows, one (n, x) at a time.  Inside a cell
table (``_cell_table``: a context variable holding a grid and its evaluated
rows, keyed by (pair, f, n, policy, method)) the first call for a grid
point of a row evaluates the whole row, as one grid call of
``baskakov_beta_apply``, and every other call is an index lookup, so every
cell still passes through ``baskakov_beta_apply``.  ``run_experiment``
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
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .core import (
    DEFAULT_POLICY,
    DomainError,
    PQPair,
    TruncationPolicy,
    _check_nonneg_int,
    _log_fact_table,
    pq_derivative,
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


def _log_basis_row(
    pair: PQPair,
    n: int,
    x: np.ndarray,
    k_count: int,
    k_start: int = 0,
    carry: Union[np.ndarray, float] = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """log b_{n,k}(x) for k = k_start..k_count-1 at each point of the 1-D
    array x (every x > 0), as a (len(x), k_count - k_start) matrix, and per
    point the prefix sum of log (1 (+) x)^j over j < n + k_count.

    A longer row continues from k_start = k_count with that prefix sum as its
    carry; the segments concatenate to the one-shot row bit for bit, since the
    prefix sum goes on in the same order and the x-independent terms are
    elementwise in k or j.  The logs of x itself are taken in
    math, one point at a time: numpy's vectorized log and log1p round some
    points differently, and the rows stay bitwise those of math.
    """
    p, q = pair.p, pair.q
    lp, lq = math.log(p), math.log(q)
    lfact = _log_fact_table(pair, n + k_count - 1)
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


def _check_point(n: int, x: Union[float, np.ndarray]) -> tuple[int, np.ndarray]:
    """The order n as an int and the points x as a 1-D float array: every
    operator entry takes a whole n >= 1 and points 0 <= x < inf, one or a
    1-D array of them (a NaN or infinite x would lose its NaN basis row)."""
    n = _check_order(n)
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise DomainError(f"operator points are one x or a 1-D array, got shape {xs.shape}")
    xs = xs.reshape(-1)
    inside = (0.0 <= xs) & (xs < math.inf)
    if not inside.all():
        raise DomainError(f"operator domain is 0 <= x < inf, got x={xs[~inside][0]}")
    return n, xs


def baskakov_basis(pair: PQPair, n: int, k: int, x: float) -> float:
    """One basis weight b_{n,k}(x), computed through the log-domain row."""
    _require_basis_regime(pair)
    n, xs = _check_point(n, x)
    k = _check_nonneg_int(k, "basis index k")
    if x == 0.0:
        return 1.0 if k == 0 else 0.0
    row, _ = _log_basis_row(pair, n, xs, k + 1)
    return float(np.exp(row[0, k]))


def baskakov_node(pair: PQPair, n: int, k: int) -> float:
    """The sample node p^{n-1} [k] / (q^{k-1} [n]), in overflow-safe form."""
    n = _check_order(n)
    k = _check_nonneg_int(k, "basis index k")
    return float(_nodes(pair, n, np.float64(k)))


def _nodes(pair: PQPair, n: int, k: np.ndarray) -> np.ndarray:
    p, q = pair.p, pair.q
    if p == q:
        return k / n
    # [k]/q^{k-1} = q ((p/q)^k - 1) / (p - q), exactly 0 at k = 0; (p/q)^k - 1 is
    # expm1(k log1p((p - q)/q)), which does not cancel near p = q
    growth = np.expm1(k * math.log1p((p - q) / q))
    return p ** (n - 1) * q * growth / ((p - q) * pq_number(pair, n))


class _Samples:
    """The samples s_k of one (pair, n, f) row, with a trust flag per k, as
    one vector that grows by build(k_start, k_count) of the new rows only."""

    def __init__(self, build: Callable[[int, int], tuple[np.ndarray, np.ndarray]]) -> None:
        self._build = build
        self._s, self._ok = np.empty(0), np.empty(0, dtype=bool)

    def upto(self, k_count: int) -> tuple[np.ndarray, np.ndarray]:
        """(s, ok) for k = 0..k_count-1."""
        if self._s.size < k_count:
            new_s, new_ok = self._build(self._s.size, k_count)
            self._s = np.concatenate([self._s, new_s])
            self._ok = np.concatenate([self._ok, new_ok])
        return self._s[:k_count], self._ok[:k_count]


def _apply(
    pair: PQPair,
    n: int,
    xs: np.ndarray,
    policy: TruncationPolicy,
    samples: _Samples,
) -> list[OperatorResult]:
    """sum_k b_{n,k}(x) s_k at each point of the 1-D array xs, with the
    x-independent samples s_k read from samples.

    The rows of all points double together (64, 128, ... up to max_terms);
    each row stops at the first length at which its sample-weighted edge
    term is negligible (or the term budget is spent) and is summed at that
    length, so a point's result does not depend on the other points.  Points
    are taken in blocks of at most _ROW_ENTRIES row entries.  Whether a
    result is trusted is decided by ``_sum_rows`` alone.
    """
    results: list = [None] * xs.size
    zero = np.flatnonzero(xs == 0.0)
    if zero.size:
        # b_{n,0}(0) = 1, every other weight vanishes
        s, ok = samples.upto(min(64, policy.max_terms))
        result = _sum_rows(np.zeros((1, 1)), s[:1], bool(ok[0]), policy)[0]
        for i in zero.tolist():
            results[i] = result
    positive = np.flatnonzero(xs)
    pending = [(positive, np.empty((positive.size, 0)), np.zeros(positive.size))]
    while pending:
        idx, rows, carry = pending.pop()
        while idx.size:
            built = rows.shape[1]
            k_count = min(2 * built if built else 64, policy.max_terms)
            # the first segment also holds the n leading factors of each row
            fit = max(1, _ROW_ENTRIES // (k_count + (0 if built else n)))
            if idx.size > fit:
                pending.append((idx[fit:], rows[fit:], carry[fit:]))
                idx, rows, carry = idx[:fit], rows[:fit], carry[:fit]
            segment, carry = _log_basis_row(pair, n, xs[idx], k_count, built, carry)
            rows = np.concatenate([rows, segment], axis=1)
            s, ok = samples.upto(k_count)
            with np.errstate(divide="ignore", invalid="ignore"):
                ls = np.log(np.abs(s))
            metric = rows + np.where(np.isfinite(ls), ls, 0.0)
            done = metric[:, -1] < metric.max(axis=1) + math.log(_EDGE_FRACTION)
            if k_count >= policy.max_terms:
                done[:] = True
            for i, result in zip(idx[done].tolist(), _sum_rows(rows[done], s, bool(ok.all()), policy)):
                results[i] = result
            idx, rows, carry = idx[~done], rows[~done], carry[~done]
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
    n, xs = _check_point(n, x)
    results = _apply(pair, n, xs, policy, _Samples(_sample_builder(pair, n, f, "nodes")))
    return results if np.ndim(x) else results[0]


def baskakov_moment_closed(pair: PQPair, m: int, n: int, x: float) -> float:
    """Closed moments of the plain operator: 1, x, ([n+1]x^2 + p^{n-1} q x)/(q [n])."""
    if m not in (0, 1, 2):
        raise DomainError(f"closed Baskakov moments exist for m in {{0,1,2}}, got {m}")
    n = _check_order(n)
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
    derivative = pq_derivative(pair, t_m, x)
    nn = pq_number(pair, n)
    lhs = nn * t_next
    rhs = q * p ** (n - 1) * x * (1.0 + p * x) * derivative + nn * q * x * t_m(q * x)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Beta-weighted operator.
# ---------------------------------------------------------------------------


def _log_beta_ratio_factors(
    pair: PQPair, n: int, m: int, k_count: int, k_start: int = 0
) -> np.ndarray:
    """log of q^{2m} p^{m(n+k)} B(k+m+1, n-m) / B(k+1, n) for
    k = k_start..k_count-1.

    This is the exact inner-integral factor for the monomial t^m: the shared
    Gamma(n+k+1) cancels, leaving factorial differences and prefactors.  The
    entries to the analytic route have already checked n > m.
    """
    p, q = pair.p, pair.q
    lp, lq = math.log(p), math.log(q)
    lfact = _log_fact_table(pair, n + k_count + m)
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
    _check_degree(_check_order(n), m)
    e_m = FunctionSpec.polynomial((0.0,) * m + (1.0,))
    return baskakov_beta_apply(pair, e_m, n, x, policy, "analytic").value


def _growth_degree(f: Union[FunctionSpec, Callable]) -> int:
    if isinstance(f, FunctionSpec):
        deg = f.degree
        return deg if deg is not None else 2
    return 2


def _check_degree(n: int, degree: int) -> None:
    # a polynomial's growth degree is its degree, so this is every route's rule
    if n <= degree:
        raise DomainError(f"operator order n={n} must exceed the growth degree {degree} of f")


class _RunCells(NamedTuple):
    """The evaluated grid rows of one cell table."""

    xs: np.ndarray  # the table's grid
    index: dict[float, int]  # grid point -> its position in xs
    rows: dict[tuple, list[OperatorResult]]  # (pair, f, n, policy, method) -> results over xs


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
    token = _RUN_CELLS.set(_RunCells(xs, dict(zip(xs.tolist(), range(xs.size))), {}))
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
            key = (pair, f, n, policy, method)
            row = cells.rows.get(key)
            if row is None:
                row = cells.rows[key] = baskakov_beta_apply(pair, f, n, cells.xs, policy, method)
            return row[i]
    pair.require_strict("the Beta-weighted operator")
    n, xs = _check_point(n, x)
    if method not in ("auto", "analytic", "quadrature"):
        raise DomainError(f"unknown method {method!r}")
    polynomial = isinstance(f, FunctionSpec) and f.as_polynomial() is not None
    if method == "analytic" and not polynomial:
        raise DomainError("analytic evaluation needs a polynomial FunctionSpec")
    _check_degree(n, _growth_degree(f))
    route = "quadrature" if method == "quadrature" or not polynomial else "analytic"
    results = _apply(pair, n, xs, policy, _Samples(_sample_builder(pair, n, f, route)))
    return results if np.ndim(x) else results[0]


def _sample_builder(
    pair: PQPair, n: int, f: Union[FunctionSpec, Callable], route: str
) -> Callable[[int, int], tuple[np.ndarray, np.ndarray]]:
    """build(k_start, k_count) of a route's samples: f at the nodes
    ("nodes"), sum_d c_d q^{2d} p^{d(n+k)} B(k+d+1, n-d) / B(k+1, n) over
    the nonzero coefficients c_d of the polynomial f ("analytic"), or the
    ladder ratios."""
    if route == "quadrature":
        degree = _growth_degree(f)
        return lambda k_start, k_count: batched_weight_ratios(
            pair, n, k_count, f, degree, k_start
        )
    if route == "analytic":
        terms = [(d, c) for d, c in enumerate(f.as_polynomial()) if c != 0.0]

        def values(k_start: int, k_count: int) -> np.ndarray:
            vals = np.zeros(k_count - k_start)
            for d, c in terms:
                vals += c * np.exp(_log_beta_ratio_factors(pair, n, d, k_count, k_start))
            return vals

    else:
        func = as_callable(f)

        def values(k_start: int, k_count: int) -> np.ndarray:
            nodes = _nodes(pair, n, np.arange(k_start, k_count, dtype=float))
            return np.asarray(func(nodes), dtype=float)

    return lambda k_start, k_count: (values(k_start, k_count), np.ones(k_count - k_start, dtype=bool))


# ---------------------------------------------------------------------------
# Closed moments and central moments.
# ---------------------------------------------------------------------------


def moments_closed(pair: PQPair, m: int, n: int, x: float | np.ndarray) -> float | np.ndarray:
    """Closed first and second moments of the Beta-weighted operator.

    m = 0 needs n >= 1, m = 1 needs n > 1, m = 2 needs n > 2.  The second
    moment keeps the printed three-term structure, including the p^n / q
    coefficient, rather than any algebraic rearrangement.  x may be a float
    or an array (a whole grid), and the result has its shape; each element
    is bitwise the value at that float x.
    """
    if m not in (0, 1, 2):
        raise DomainError(f"closed moments exist for m in {{0,1,2}}, got {m}")
    n = _check_order(n)
    if m == 0:
        return 1.0 if np.ndim(x) == 0 else np.ones(np.shape(x))
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


def central_moment(pair: PQPair, order: int, n: int, x: float | np.ndarray) -> float | np.ndarray:
    """Central moments D_n((t-x)^order, x) for order in {1, 2}, n > 2, at a
    float x or elementwise over an array of them (as ``moments_closed``)."""
    if order not in (1, 2):
        raise DomainError(f"central moments exist for order in {{1,2}}, got {order}")
    n = _check_order(n)
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
