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
kernel, ``_apply``, with f and that route; the kernel sizes each basis row
(``_row_extents``), builds the rows and the route's sample vector
(``_samples``), sums them and decides trust.
The row routes differ only in their samples, and share none of them:
  * "nodes" (``baskakov_apply``, the plain B_n) - f at the nodes,
  * "analytic" (``baskakov_beta_apply(..., method="analytic")`` and
    ``baskakov_beta_monomial_exact``) - closed-form Beta ratios,
  * "quadrature" (``baskakov_beta_apply`` of anything but a polynomial, or
    on request) - bilateral ladder quadrature of the inner integrals, each
    row normalized by the ladder value of its own weight integral, so that
    D_n(1, x) = 1.
A polynomial ``FunctionSpec`` under the default method="auto" takes none of
them: its image sum_d c_d U_d(x), U_d = D_n(t^d, .) of the analytic route,
is a polynomial whose coefficients the (p,q) moment recurrence gives in
O(deg^2) float operations (``_image_coefficients``), evaluated at every point
by Horner's rule (``_closed``), with no basis row, no truncation and no term budget.
The closed moment expressions (``moments_closed``) share none of this.
The closed forms - the nodes, ``baskakov_moment_closed``, ``moments_closed``,
``central_moment`` and the recurrence of the images - are written in the
normalised numbers <j> = [j] / p^{j-1} of ``core``, with no power p^n left,
so at a fixed p < 1 they hold at every order n instead of sinking below the
smallest double from n of a few thousand on.

Both operator entries take x as one point or as a 1-D array of points, and
the kernel works on the whole array at once (``_apply``): every cell is
bitwise the value of its point evaluated alone, and nothing lives beyond
the call.  The one cache of operator work is one level up: inside a cell
table (``_cell_table``), which ``run_experiment`` opens for every run and
the analysis layer for every grid row, the first ``baskakov_beta_apply``
call for a point of a grid row evaluates the whole row, and every other
call for that row is an index lookup.

The basis is a probability distribution over k (partition of unity), so a
cell is trusted when its row's mass 1 - sum b is at most rel_tol, the ends
of its samples' ladder bands are negligible in it, its value is finite and
its last term is at most rel_tol of its largest (``_sum_rows``).
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
    _check_nonneg_int,
    _log_fact_table,
    _log_ratio,
    _normalised_number,
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

_ROW_ENTRIES = 1 << 18  # most basis-row entries a block of grid points holds (2 MiB)
# A row leaves out at most _TAIL of its largest weighted term (``_row_extents``)
_TAIL = 1e-18
_THETAS = np.array([[0.99], [0.9], [0.6], [0.3], [0.1], [0.01]])


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
    pair: PQPair, n: int, x: np.ndarray, k_count: int, *, lfact: np.ndarray
) -> np.ndarray:
    """log b_{n,k}(x) for k = 0..k_count-1 at each point of the 1-D array x
    (every x > 0), as a (len(x), k_count) matrix; lfact is the pair's
    log-factorial table, to j = n + k_count - 2 at least.  The prefix sum of
    log (1 (+) x)^j adds left to right, so a longer row starts bitwise with
    the shorter one.  The logs of x itself are taken in math, one point at a
    time: numpy's vectorized log and log1p round some points differently.
    """
    p, q = pair.p, pair.q
    lp, lq = math.log(p), math.log(q)
    ki = np.arange(k_count)
    k = ki.astype(float)
    log_binom = lfact[ki + n - 1] - lfact[n - 1] - lfact[ki]
    base = log_binom + (k + n * (n - 1) / 2) * lp + (k * (k - 1) / 2) * lq
    points = x.tolist()
    j = np.arange(n + k_count - 1, dtype=float)
    if p == q:
        factors = j * lp + np.array([[math.log1p(v)] for v in points])
    else:
        factors = j * lp + np.log1p(pair.ratio**j * x[:, None])
    # column n - 1 + k sums log (1 (+) x)^j over j < n + k
    prefix = np.cumsum(factors, axis=1)
    log_x = np.array([[math.log(v)] for v in points])
    return base + k * log_x - prefix[:, n - 1 :]


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
    if not (xs.min(initial=math.inf) >= 0.0 and xs.max(initial=0.0) < math.inf):  # a NaN fails both
        outside = xs[~((0.0 <= xs) & (xs < math.inf))]
        raise DomainError(f"operator domain is 0 <= x < inf, got x={outside[0]}")
    return n, xs


def baskakov_basis(pair: PQPair, n: int, k: int, x: float) -> float:
    """One basis weight b_{n,k}(x), computed through the log-domain row."""
    _require_basis_regime(pair)
    n, xs = _check_point(n, x, 0)
    k = _check_nonneg_int(k, "basis index k")
    if x == 0.0:
        return 1.0 if k == 0 else 0.0
    row = _log_basis_row(pair, n, xs.reshape(1), k + 1, lfact=_log_fact_table(pair, n + k))
    return float(np.exp(row[0, k]))


def baskakov_node(pair: PQPair, n: int, k: int) -> float:
    """The sample node p^{n-1} [k] / (q^{k-1} [n]) = <k>_{1/r} / <n>_r, r = q/p."""
    n = _check_order(n)
    k = _check_nonneg_int(k, "basis index k")
    return float(_nodes(pair, n, np.array(float(k))))


def _nodes(pair: PQPair, n: int, k: np.ndarray) -> np.ndarray:
    # p^{k-1} <k>_r / q^{k-1} = <k>_{1/r}, exactly 0 at k = 0, and inf where
    # (1/r)^k overflows
    with np.errstate(over="ignore"):
        return _normalised_number(pair.q, pair.p, k) / _normalised_number(pair.p, pair.q, n)


def _samples(
    pair: PQPair, n: int, f: Union[FunctionSpec, Callable], route: str, k_count: int,
    *, lfact: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The samples s_k of a route for k = 0..k_count-1, with a band edge
    per k (0 off the ladder): f at the nodes ("nodes"), sum_d c_d q^{2d}
    p^{d(n+k)} B(k+d+1, n-d) / B(k+1, n) over the nonzero coefficients c_d
    of the polynomial f ("analytic"), or the ladder ratios ("quadrature")."""
    if route == "quadrature":
        return batched_weight_ratios(pair, n, k_count, f, _growth_degree(f))
    if route == "analytic":
        s = np.zeros(k_count)
        terms = [(d, c) for d, c in enumerate(f.as_polynomial()) if c != 0.0]
        if terms:
            degrees, coefficients = zip(*terms)
            log_factors = _log_beta_ratio_factors(pair, n, degrees, k_count, lfact=lfact)
            for c, factor in zip(coefficients, np.exp(log_factors)):
                s += c * factor
    else:
        nodes = _nodes(pair, n, np.arange(k_count, dtype=float))
        values = np.asarray(as_callable(f)(nodes), dtype=float)
        try:
            # one value for all nodes is a constant f, as the ladder route takes it
            s = np.broadcast_to(values, nodes.shape)
        except ValueError:
            raise DomainError(
                f"f gave values of shape {values.shape} at {nodes.size} nodes"
            ) from None
    return s, np.zeros(k_count)


def _row_extents(
    pair: PQPair, n: int, xs: np.ndarray, degree: int, max_terms: int, *, nodes: bool = False
) -> np.ndarray:
    """The length K of the basis row of each point of the 1-D array xs, capped
    at max_terms: past K the terms c_k = b_{n,k}(x) w_k^degree sum to at most
    _TAIL of their largest one, for samples taken to grow like w_k^degree:
    w_k = k + 1, or 1 + t_k at the nodes t_k of the plain operator (nodes),
    which grow like r^{-k}.  x = 0 has K = 1, since b_{n,0}(0) = 1.  With
    r = q/p and <j> = [j] / p^{j-1}, the basis ratio is

        rho_k = b_{n,k+1} / b_{n,k} = ([n+k] / [k+1]) p q^k x / (p^{n+k} + q^{n+k} x)
              = (<n+k> / <k+1>) x / (r^{-k} + r^n x).

    Neither factor rises with k: the first is (n+k)/(k+1) at r = 1, and
    otherwise (1 - c a)/(1 - a) with c = r^{n-1} <= 1 and a = r^{k+1}
    falling, whose derivative in a, (1 - c)/(1 - a)^2, is >= 0; the
    second's denominator does not fall.  Nor does g_k >= w_{k+1}/w_k:
    g_k = (k+2)/(k+1), or at the nodes, where 1 + t_{k+1} = R (1 + t_k) + e
    with R = 1/r and e = 1/<n>_r + 1 - R, g_k = R + max(e, 0)/(1 + t_k).  So
    rho~_k = rho_k g_k^degree >= c_{k+1}/c_k never rises.  Let k_i be the
    first k with rho~_k <= theta_i, for the levels theta_1 > theta_2 > ...
    of _THETAS.  From k_j on the c_k fall by theta_j or more a step, so
    c_{k_i} <= e^{D_i} max_k c_k with D_i = sum_{j<i} (k_{j+1} - k_j) log theta_j,
    and sum_{k>=K} c_k <= c_{k_i} theta_i^{K-k_i} / (1 - theta_i) <= _TAIL max_k c_k
    once K >= (log(_TAIL (1 - theta_i)) - E_i) / log theta_i, where
    E_i = D_i - k_i log theta_i = sum_{j<=i} k_j (log theta_{j-1} - log theta_j)
    and log theta_0 = 0.  K is the least such bound over i.  As rho~_k
    rises with x, rho~_k <= theta reads x <= X_theta(k) = theta r^{-k} /
    (G_k - theta r^n), G_k = (<n+k> / <k+1>) g_k^degree >= 1, which rises
    with k: each k_i is found by bisection (``np.searchsorted``) in an
    x-independent vector, so each K is that of its point alone.  The vector
    stops where the probes k = 2^j - 1 at the largest point bound every K.
    """
    p, q = pair.p, pair.q
    log_r = _log_ratio(p, q)
    r_n = math.exp(n * log_r)
    log_theta = np.log(_THETAS)
    log_reserve = np.log(_TAIL * (1.0 - _THETAS))
    big = np.exp(-log_r)  # R = p/q, inf past the float range
    excess = max(0.0, 1.0 / _normalised_number(p, q, n) + 1.0 - big)

    def parts(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # X_theta(k) = theta scale / (growth - theta r^n)
        upper, lower = _normalised_number(p, q, np.array([n + k, k + 1]))
        step = big + excess / (1.0 + _nodes(pair, n, k)) if nodes else (k + 2.0) / (k + 1.0)
        # r^{-k} is held below the float range, which only lowers X_theta and
        # so lengthens K
        scale = np.exp(np.minimum(-k * log_r, 700.0))
        return scale, upper / lower * step**degree

    probes = np.minimum((1 << np.arange(max_terms.bit_length() + 1)) - 1, max_terms - 1)
    scale, growth = parts(probes.astype(float))
    hit = _THETAS * scale / (growth - _THETAS * r_n) >= xs.max()
    reached = np.where(hit.any(axis=1), probes[np.argmax(hit, axis=1)], max_terms)
    bound = reached + np.ceil(log_reserve / log_theta)[:, 0]
    bound = min(max_terms, int(bound.min()))
    # k_i of each point, one level at a time, so that a long vector is held
    # once; a k_i past the vector reads bound, and its K is >= bound
    scale, growth = parts(np.arange(bound, dtype=float))
    firsts = np.empty((len(_THETAS), xs.size), dtype=np.int64)
    for i, theta in enumerate(_THETAS[:, 0].tolist()):
        levels = np.maximum.accumulate(theta * scale / (growth - theta * r_n))
        firsts[i] = np.searchsorted(levels, xs)
    chain = np.cumsum(firsts * -np.diff(log_theta, axis=0, prepend=0.0), axis=0)  # E_i
    ends = np.ceil((log_reserve - chain) / log_theta)
    ends = np.maximum(ends, firsts).min(axis=0)
    return np.where(xs > 0.0, np.minimum(ends, bound).astype(np.int64), 1)


def _apply(
    pair: PQPair,
    n: int,
    f: Union[FunctionSpec, Callable],
    route: str,
    xs: np.ndarray,
    policy: TruncationPolicy,
) -> list[OperatorResult]:
    """sum_k b_{n,k}(x) s_k at each point of the 1-D array xs, with the
    x-independent samples s_k of the route.  Each point's row length K is
    known before any work (``_row_extents``); the samples, and the table
    log [j]! that the basis binomials and the Beta factors read, are built
    once per call, to the largest K.  The points are taken in blocks of at
    most _ROW_ENTRIES row entries, each block's rows built once to its
    largest K and each row summed to its own K.  Every sample and every term
    is a function of its own k, so every cell is bitwise its point evaluated
    alone (a 1-point grid).  ``_sum_rows`` alone decides trust."""
    if not xs.size:
        return []
    # extreme inputs overflow to inf or NaN on the way (a sample, a node, a
    # term); their cells end untrusted, so numpy need not warn about them
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        degree = _growth_degree(f)
        extents = _row_extents(pair, n, xs, degree, policy.max_terms, nodes=route == "nodes")
        k_count = int(extents.max())
        lfact = _log_fact_table(pair, n + k_count - 1)
        s, edges = _samples(pair, n, f, route, k_count, lfact=lfact)
        results: list = [None] * xs.size
        zero = np.flatnonzero(xs == 0.0)
        if zero.size:
            # b_{n,0}(0) = 1, every other weight vanishes
            result = _sum_rows(np.zeros((1, 1)), s, edges, extents[zero[:1]], policy)[0]
            for i in zero.tolist():
                results[i] = result
        positive = np.flatnonzero(xs)
        while positive.size:
            # the longest row of each prefix, and the n leading factors of each row
            longest = np.maximum.accumulate(extents[positive])
            fit = np.arange(1, positive.size + 1) * (longest + n) <= _ROW_ENTRIES
            block, positive = np.split(positive, [max(1, int(np.count_nonzero(fit)))])
            rows = _log_basis_row(pair, n, xs[block], int(extents[block].max()), lfact=lfact)
            for i, result in zip(block.tolist(), _sum_rows(rows, s, edges, extents[block], policy)):
                results[i] = result
        return results


def _sum_rows(
    rows: np.ndarray, s: np.ndarray, edges: np.ndarray, extents: np.ndarray, policy: TruncationPolicy
) -> list[OperatorResult]:
    """One result per row of log weights, summed against the samples s over
    its own first K = extents[i] terms, as one segment of a
    ``np.add.reduceat``, whatever the width of the matrix.  The one trust
    rule: a value is trusted when sum_k b_k edges_k of its samples' band
    edges is 0 or below rel_tol of sum_k |b_k s_k| (free of f's units; an
    inf or NaN edge fails where b_k > 0), its basis tail is at most rel_tol,
    the value itself is finite, and the last of two or more terms is at most
    rel_tol of the largest one: a row sized for the growth f is taken to
    have (``_row_extents``) may not hold the terms of an f that grows
    faster."""
    width = rows.shape[1]
    b = np.exp(rows)
    terms = np.where(b > 0.0, b * s[:width], 0.0)
    inside = np.arange(width) < extents[:, None]
    starts = np.cumsum(extents) - extents
    tail = 1.0 - np.add.reduceat(b[inside], starts)
    tail = np.where(tail > 0.0, tail, 0.0)  # max(0, 1 - sum b), and 0 for a NaN sum
    sizes = np.where(inside, np.abs(terms), 0.0)
    last_size = sizes[np.arange(extents.size), extents - 1]
    settled = (extents == 1) | (last_size <= policy.rel_tol * sizes.max(axis=1))
    significant = sizes > policy.abs_tol  # sizes are 0 past K
    last = width - np.argmax(significant[:, ::-1], axis=1)
    k_used = np.where(significant.any(axis=1), last, 1)
    spill = np.where(inside & (b > 0.0), b * edges[:width], 0.0).sum(axis=1)
    inner_ok = (spill == 0.0) | (spill < policy.rel_tol * sizes.sum(axis=1))
    values = np.add.reduceat(terms[inside], starts)
    good = inner_ok & settled & (tail <= policy.rel_tol) & np.isfinite(values)
    cells = zip(values.tolist(), k_used.tolist(), tail.tolist(), inner_ok.tolist(), good.tolist())
    return [OperatorResult(*cell) for cell in cells]


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
    x = xs if xs.ndim else float(xs)
    if m < 2:
        return x**m  # a new array of x's shape, or a float
    p, q = pair.p, pair.q
    upper, lower = _normalised_number(p, q, [n + 1, n])
    return (p * upper * x * x + q * x) / (q * lower)


def verify_baskakov_recurrence(
    pair: PQPair,
    n: int,
    m: int,
    x: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Residual of the moment recurrence, divided by p^{n-1} so that it
    holds at every order n (the normalised <n> = [n] / p^{n-1} of ``core``
    does not underflow where [n] and p^{n-1} do):

        <n> T_{m+1}(qx) - q x (1 + px) D[T_m](x) - <n> q x T_m(qx),

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
    nn = _normalised_number(p, q, n)
    lhs = nn * t_next
    rhs = q * x * (1.0 + p * x) * derivative + nn * q * x * t_qx
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Beta-weighted operator.
# ---------------------------------------------------------------------------


def _power(base: float, exponent: float) -> float:
    """base ** exponent (one libm ``pow``) of a base > 0; inf where it overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _image_coefficients(pair: PQPair, n: int, degree: int) -> list[list[float]]:
    """The ascending coefficients u_{m,j} (j = 0..m) of the polynomials
    U_m(x) = D_n(t^m, x) of the analytic route, for m = 0..degree < n.

    U_0 = 1, and U_{m+1} follows from U_m by the (p,q) moment recurrence
    q^{m-1} [n-m-1] U_{m+1}(qx) = p^{n-1} x (1 + px) D_{p,q} U_m(x)
    + (p^{n-2-m} [m+1] + [n] x) U_m(qx).  In coefficients, divided by
    p^{n-m-2} and written in the normalised numbers <j> = [j] / p^{j-1},
    so that no power p^n is left to underflow:

        q^{m-1+j} <n-m-1> u_{m+1,j} = p^{m+1} ([j] u_{m,j} + p [j-1] u_{m,j-1})
                                      + [m+1] q^j u_{m,j} + p^{m+1} <n> q^{j-1} u_{m,j-1}.

    Every term is positive (n > m + 1), so nothing cancels.  The <j> come
    from one ``_normalised_number`` call (libm); the rest is Python float
    arithmetic, in this order, with P = p^{m+1} and [i] = p^{i-1} <i>:
    u_{m+1,j} = ((P [j] + [m+1] q^j) u_{m,j} + P (p [j-1] + <n> q^{j-1}) u_{m,j-1})
    q^{1-m-j} / <n-m-1>.  Each power is one libm ``pow``, inf where it
    overflows (``_power``), as a product is, so at an extreme pair a
    coefficient is inf or NaN, never an exception or a warning."""
    p, q = pair.p, pair.q
    # <0> .. <degree>, then <n> .. <n - degree>
    normalised = _normalised_number(p, q, [*range(degree + 1), *range(n, n - degree - 1, -1)])
    numbers = [_power(p, i - 1.0) * v for i, v in enumerate(normalised[: degree + 1])]  # [i]
    nn, *lower = normalised[degree + 1 :]
    images = [[1.0]]
    for m in range(degree):
        p_m, new = p ** (m + 1.0), [0.0] * (m + 2)
        for j, u in enumerate(images[-1]):
            new[j] += (p_m * numbers[j] + numbers[m + 1] * q**j) * u
            new[j + 1] += p_m * (p * numbers[j] + nn * q**j) * u
        images.append([v * _power(q, 1.0 - m - j) / lower[m] for j, v in enumerate(new)])
    return images


def _closed(pair: PQPair, n: int, f: FunctionSpec, xs: np.ndarray) -> list[OperatorResult]:
    """D_n(f, x) of a polynomial f = sum_d c_d t^d at each point of the 1-D
    array xs, as sum_d c_d U_d(x) (``_image_coefficients``, up to f's degree
    only): the coefficients are combined once, and each point is evaluated
    by Horner's rule, elementwise, so a grid cell is bitwise its point alone.
    c_d all below 2^-600 are scaled by 2^600 and the values back once, so no
    c_d u_{d,j} or Horner step rounds subnormal; a normal cell keeps its bits.

    No basis row is summed, so on this route an ``OperatorResult`` has
    k_terms_used = degree + 1 (the image's coefficients), basis_tail_mass
    0.0, inner_integrals_converged True, and trusted = a finite value; the
    policy's tolerances and term budget play no part."""
    degree, coefficients = f.degree, f.as_polynomial()
    scale = 2.0**600 if all(abs(c) < 2.0**-600 for c in coefficients) else 1.0
    image = [0.0] * (degree + 1)
    for c, u in zip(coefficients, _image_coefficients(pair, n, degree)):
        if c != 0.0:
            for j, v in enumerate(u):
                image[j] += c * scale * v
    # an overflowing coefficient or term gives an inf or NaN cell, untrusted
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.full(xs.shape, image[-1])
        for c in image[-2::-1]:
            values = values * xs + c
        values = values / scale
    return [OperatorResult(v, degree + 1, 0.0, True, math.isfinite(v)) for v in values.tolist()]


def _log_beta_ratio_factors(
    pair: PQPair, n: int, degrees: tuple[int, ...], k_count: int, *, lfact: np.ndarray
) -> np.ndarray:
    """log of q^{2m} p^{m(n+k)} B(k+m+1, n-m) / B(k+1, n) for each degree m
    of the non-empty tuple degrees (one row each, in their order) and
    k = 0..k_count-1 (one column each).

    This is the exact inner-integral factor for the monomial t^m: the shared
    Gamma(n+k+1) cancels, leaving factorial differences and prefactors.  Each
    entry is the same elementwise formula in (m, k), so a row is bitwise the
    row of its degree alone.  The entries to the analytic route have checked
    n > m, so lfact to j = n + k_count - 2 holds every index read.
    """
    p, q = pair.p, pair.q
    lp, lq = math.log(p), math.log(q)
    m = np.array(degrees)[:, None]
    ki = np.arange(k_count)
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
    block has its own table, dropped on exit, so it needs no size bound and
    cannot go stale."""
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
      * "auto"       - polynomials (including the named monomials) take the
                       closed route (``_closed``): the image polynomial from
                       the moment recurrence, by Horner's rule, with
                       k_terms_used = degree + 1, basis_tail_mass 0.0 and
                       trusted = a finite value; anything else falls back to
                       ladder quadrature.
      * "analytic"   - the row sum of the Beta-value expansion of the inner
                       integrals (polynomials only).
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
    if method == "auto" and polynomial:
        results = _closed(pair, n, f, xs.reshape(-1))
    else:
        route = "analytic" if method == "analytic" else "quadrature"
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
    nn, n1, n2 = _normalised_number(p, q, [n, n - 1, n - 2])
    # r^{n-2} through log1p(r - 1), as <j> takes it: (q/p) ** (n - 2) would
    # carry n - 2 times the rounding of q/p; and p r^{n-1} = q r^{n-2}
    r_power = math.exp((n - 2) * _log_ratio(p, q))
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
    """The closed columns of D_n at x (a float, or a float array of any shape)
    from one ``_moment_numerators`` pass, by index: 0 M1, 1 M2, 2 mu1, 3 mu2,
    each numerator by Horner's rule and divided once.  n is a whole order; M1
    needs n > 1 and the other columns n > 2.  A value that overflows (at an
    extreme pair or x) is inf or NaN, without a warning."""
    if n <= (1 if columns == (0,) else 2):
        raise DomainError(f"M1 needs n > 1, and M2, mu1 and mu2 need n > 2; got n = {n}")
    numerators = _moment_numerators(pair, n)
    values = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for coefficients, denominator in (numerators[c] for c in columns):
            value = coefficients[0]
            for c in coefficients[1:]:
                value = value * x + c
            values.append(value / denominator)
    return values


def moments_closed(pair: PQPair, m: int, n: int, x: float | np.ndarray) -> float | np.ndarray:
    """Closed first and second moments of the Beta-weighted operator
    (``_moment_numerators``): m = 0 needs n >= 1, m = 1 needs n > 1, m = 2
    needs n > 2.  x may be a float, or an array or a (nested) list of points
    (a whole grid), evaluated as the float array ``_check_point`` makes of
    it; the result has its shape, a float for one point, and each element is
    bitwise the value at that float x.  A point outside 0 <= x < inf raises
    ``DomainError``.
    """
    if m not in (0, 1, 2):
        raise DomainError(f"closed moments exist for m in {{0,1,2}}, got {m}")
    n, xs = _check_point(n, x, None)
    if m == 0:
        return np.ones(xs.shape) if xs.ndim else 1.0
    return _moment_columns(pair, n, xs if xs.ndim else float(xs), (m - 1,))[0]


def central_moment(pair: PQPair, order: int, n: int, x: float | np.ndarray) -> float | np.ndarray:
    """Central moments D_n((t-x)^order, x) for order in {1, 2}, n > 2, at a
    float x or elementwise over an array of them (as ``moments_closed``),
    from the numerators of ``_moment_numerators``."""
    if order not in (1, 2):
        raise DomainError(f"central moments exist for order in {{1,2}}, got {order}")
    n, xs = _check_point(n, x, None)
    return _moment_columns(pair, n, xs if xs.ndim else float(xs), (order + 1,))[0]
