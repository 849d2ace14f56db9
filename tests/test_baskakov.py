import math
import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pqbaskakov import (
    DomainError,
    FunctionSpec,
    OperatorResult,
    PQPair,
    TruncationPolicy,
    baskakov_apply,
    baskakov_basis,
    baskakov_beta_apply,
    baskakov_moment_closed,
    baskakov_node,
    pq_binomial,
    pq_derivative,
    pq_number,
    pq_power_basis,
    verify_baskakov_recurrence,
)
from pqbaskakov import baskakov, core, quadrature
from pqbaskakov.core import _log_fact_table

from conftest import CLASSICAL, exact_number, rel_err

RECURRENCE_PAIRS = [PQPair(0.9, 0.8), PQPair(1.0, 0.9)]


def basis_direct(pair, n, k, x):
    """The printed product form, evaluated naively (small n + k only)."""
    p, q = pair.p, pair.q
    return (
        pq_binomial(pair, n + k - 1, k)
        * p ** (k + n * (n - 1) / 2)
        * q ** (k * (k - 1) / 2)
        * x**k
        / pq_power_basis(pair, x, n + k)
    )


def one_shot_log_row(pair, n, x, k_count):
    """log b_{n,k}(x) for k < k_count, built in one pass from k = 0."""
    p, q = pair.p, pair.q
    lp, lq = math.log(p), math.log(q)
    lfact = np.asarray(_log_fact_table(pair, n + k_count - 1))
    k = np.arange(k_count, dtype=float)
    ki = np.arange(k_count)
    log_binom = lfact[ki + n - 1] - lfact[n - 1] - lfact[ki]
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


strict_pairs = st.builds(
    lambda p, ratio: PQPair(p, p * ratio), st.floats(0.5, 1.0), st.floats(0.5, 0.999)
)


class TestBasis:
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_k0_at_origin_is_one(self, strict_pair, n):
        assert baskakov_basis(strict_pair, n, 0, 0.0) == 1.0
        assert baskakov_basis(strict_pair, n, 2, 0.0) == 0.0

    def test_classical_value(self):
        # C(2,1) x / (1+x)^3 at x = 1
        assert baskakov_basis(CLASSICAL, 2, 1, 1.0) == pytest.approx(0.25, rel=1e-12)

    def test_log_route_matches_direct_product(self):
        pair = PQPair(0.9, 0.8)
        got = baskakov_basis(pair, 3, 2, 1.0)
        assert rel_err(got, basis_direct(pair, 3, 2, 1.0)) < 1e-12

    @pytest.mark.parametrize("k", [0, 1, 5, 11])
    @pytest.mark.parametrize("n", [2, 6])
    def test_direct_agreement_lattice(self, strict_pair, n, k):
        got = baskakov_basis(strict_pair, n, k, 1.4)
        assert rel_err(got, basis_direct(strict_pair, n, k, 1.4)) < 1e-12

    def test_nonnegative(self, strict_pair):
        for k in range(25):
            assert baskakov_basis(strict_pair, 4, k, 2.5) >= 0.0

    def test_partition_of_unity(self, strict_pair):
        e0 = FunctionSpec.named("e0")
        for n in (2, 5, 10, 20):
            for x in (0.0, 0.5, 1.0, 2.0, 5.0):
                res = baskakov_apply(strict_pair, e0, n, x)
                assert res.basis_tail_mass <= 1e-10
                assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_partition_of_unity_classical(self):
        e0 = FunctionSpec.named("e0")
        for n in (2, 8, 20):
            for x in (0.5, 2.0, 5.0):
                res = baskakov_apply(CLASSICAL, e0, n, x)
                assert res.value == pytest.approx(1.0, abs=1e-10)


class TestRowGrowth:
    @settings(deadline=None, max_examples=60)
    @given(
        pair=st.one_of(st.just(CLASSICAL), strict_pairs),
        n=st.integers(1, 200),
        xs=st.lists(st.floats(1e-6, 50.0), min_size=1, max_size=4),
    )
    def test_every_length_of_row_is_the_one_shot_row(self, pair, n, xs):
        """A block builds its rows to its longest extent and sums each to its
        own: the first columns of a longer row are bitwise the shorter row."""
        x, lfact = np.array(xs), _log_fact_table(pair, n + 1023)
        longest = baskakov._log_basis_row(pair, n, x, 1024, lfact=lfact)
        for k_count in (1, 37, 64, 1024):
            rows = baskakov._log_basis_row(pair, n, x, k_count, lfact=lfact)
            assert np.array_equal(rows, longest[:, :k_count])
            for row, point in zip(rows, xs):
                assert np.array_equal(row, one_shot_log_row(pair, n, point, k_count))


def exact_ratio(p, q, n, k, x, degree=0):
    """rho~_k = (b_{n,k+1} / b_{n,k}) ((k+2)/(k+1))^degree in the arithmetic
    of p, q and x, from the printed basis."""
    binomial_ratio = exact_number(p, q, n + k) / exact_number(p, q, k + 1)
    rho = binomial_ratio * p * q**k * x / (p ** (n + k) + q ** (n + k) * x)
    return rho * Fraction(k + 2, k + 1) ** degree


def log_node_weights(pair, n, k):
    """log (1 + t_k) at the plain operator's nodes t_k = (R^k - 1) / ((R - 1)
    <n>_r), R = 1/r, in logs, so that it stays finite where t_k overflows."""
    if pair.p == pair.q:
        return np.log1p(k / n)
    log_big = -math.log(pair.ratio)
    scale = (math.exp(log_big) - 1.0) * (1.0 - pair.ratio**n) / (1.0 - pair.ratio)
    with np.errstate(divide="ignore"):
        log_t = k * log_big + np.log1p(-np.exp(-k * log_big)) - math.log(scale)
    return np.logaddexp(0.0, log_t)


class TestRowExtents:
    """The premise of ``_row_extents``: the weighted basis ratio does not
    increase with k, and the row it sizes leaves out at most _TAIL of its
    weighted peak."""

    @pytest.mark.parametrize("pair", [PQPair(0.9, 0.8), PQPair(0.5, 0.05), PQPair(1.0, 40 / 41),
                                      PQPair(1.0, 300 / 301), CLASSICAL], ids=str)
    @pytest.mark.parametrize("n", [1, 3, 10, 50])
    def test_the_weighted_ratio_does_not_increase_with_k(self, pair, n):
        p, q = Fraction(pair.p), Fraction(pair.q)
        for x in (Fraction(1, 100), Fraction(1, 2), Fraction(2), Fraction(5), Fraction(60)):
            for degree in (0, 2, 4):
                ratios = [exact_ratio(p, q, n, k, x, degree) for k in range(40)]
                assert all(a >= b for a, b in zip(ratios, ratios[1:])), (x, degree)
                if pair.is_strict:  # and strictly, as r^{-k} rises
                    assert all(a > b for a, b in zip(ratios, ratios[1:])), (x, degree)

    def test_the_float_pair_ratio_is_the_normalised_one(self):
        # (<n+k>/<k+1>) x / (r^{-k} + r^n x), the form _row_extents bounds
        p, q, n, x = Fraction(0.9), Fraction(0.8), 7, Fraction(5, 2)
        r = q / p
        for k in range(12):
            normalised = ((1 - r ** (n + k)) / (1 - r ** (k + 1))) * x / (r**-k + r**n * x)
            assert normalised == exact_ratio(p, q, n, k, x)

    @pytest.mark.parametrize("pair", [PQPair(0.9, 0.8), PQPair(0.5, 0.05), PQPair(1.0, 40 / 41),
                                      PQPair(0.99, 0.2), CLASSICAL], ids=str)
    @pytest.mark.parametrize("n", [1, 3, 10, 50])
    def test_the_node_step_bound_holds_and_does_not_increase(self, pair, n):
        """At the plain operator's nodes t_k = <k>_{1/r} / <n>_r, the step
        (1 + t_{k+1}) / (1 + t_k) is at most g_k = R + max(e, 0) / (1 + t_k),
        R = 1/r, e = 1/<n>_r + 1 - R, with equality when e >= 0, and g_k does
        not increase with k."""
        p, q = Fraction(pair.p), Fraction(pair.q)
        r = q / p
        nn = exact_number(Fraction(1), r, n)  # <n>_r
        nodes = [exact_number(Fraction(1), 1 / r, k) / nn for k in range(41)]
        excess = 1 / nn + 1 - 1 / r
        bounds = [1 / r + max(excess, 0) / (1 + t) for t in nodes]
        for k in range(40):
            step = (1 + nodes[k + 1]) / (1 + nodes[k])
            assert step <= bounds[k] and (excess < 0 or step == bounds[k])
            assert bounds[k + 1] <= bounds[k]

    @settings(deadline=None, max_examples=80)
    @example(pair=CLASSICAL, n=1, xs=[60.0], degree=2, max_terms=10000, nodes=False)
    @example(pair=PQPair(1.0, 300 / 301), n=300, xs=[5.0, 0.0, 1e-6], degree=2, max_terms=10000,
             nodes=False)
    @example(pair=PQPair(0.9, 1e-300), n=10, xs=[1.0, 1e300], degree=2, max_terms=10000, nodes=False)
    @example(pair=PQPair(0.9, 1e-300), n=10, xs=[1.0, 1e300], degree=2, max_terms=10000, nodes=True)
    # nodes that grow like (8/5)^k: sized for weights (k+1)^4, this row
    # leaves out 5.4e-15 of its peak at the nodes
    @example(pair=PQPair(0.8, 0.5), n=1, xs=[60.0], degree=4, max_terms=10000, nodes=True)
    @given(
        pair=st.one_of(st.just(CLASSICAL), strict_pairs),
        n=st.integers(1, 200),
        xs=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(1.0, 60.0)),
                    min_size=1, max_size=5),
        degree=st.integers(0, 4),
        max_terms=st.sampled_from([1, 3, 40, 100, 10000]),
        nodes=st.booleans(),
    )
    def test_the_mass_past_each_extent_is_at_most_the_tail(self, pair, n, xs, degree, max_terms, nodes):
        """Measured on a one-shot row four times longer (and at least 4,096
        terms): past K the terms b_{n,k}(x) w_k^degree, w_k = k + 1 or, at the
        plain operator's nodes, 1 + t_k, sum to at most _TAIL times their
        largest one, unless the budget cut the row; and each K is that of its
        point alone."""
        grid = np.array(xs)
        # as in the kernel, a step R^degree past the float range (q = 1e-300) is inf
        with np.errstate(over="ignore"):
            extents = baskakov._row_extents(pair, n, grid, degree, max_terms, nodes=nodes)
            alone = [
                baskakov._row_extents(pair, n, np.array([x]), degree, max_terms, nodes=nodes)[0]
                for x in xs
            ]
        assert extents.tolist() == alone
        assert all(1 <= k <= max_terms for k in extents.tolist())
        for x, k_count in zip(xs, extents.tolist()):
            if x == 0.0:
                assert k_count == 1
            elif k_count < max_terms:
                length = max(4 * k_count, 4096)
                k = np.arange(length, dtype=float)
                log_w = log_node_weights(pair, n, k) if nodes else np.log1p(k)
                log_c = one_shot_log_row(pair, n, x, length) + degree * log_w
                assert np.argmax(log_c) < k_count  # the row holds its weighted peak
                left_out = math.fsum(np.exp(log_c[k_count:] - log_c.max()).tolist())
                assert left_out <= baskakov._TAIL * (1.0 + 1e-9), (x, k_count, left_out)


def reference_apply(pair, n, x, policy, build, degree, nodes=False):
    """The kernel at one point, written out: the row has its closed-form
    length K (``_row_extents``, for samples growing like t^degree, at the
    plain operator's nodes if nodes), the point's own sample vector is built
    by build(K), and the K terms are summed as one ``np.add.reduceat``
    segment; a row of two or more terms whose last term is above rel_tol of
    its largest, or whose samples' band edges, weighted as the samples are,
    are not below rel_tol of its size, is not trusted."""
    k_count = int(baskakov._row_extents(pair, n, np.array([x]), degree, policy.max_terms, nodes=nodes)[0])
    s, edges = build(k_count)
    row = np.zeros(1) if x == 0.0 else one_shot_log_row(pair, n, x, k_count)
    b = np.exp(row)
    terms = np.where(b > 0.0, b * s, 0.0)
    tail = max(0.0, 1.0 - float(np.add.reduceat(b, [0])[0]))
    significant = np.nonzero(np.abs(terms) > policy.abs_tol)[0]
    k_used = int(significant[-1]) + 1 if significant.size else 1
    value = float(np.add.reduceat(terms, [0])[0])
    spill = float(np.where(b > 0.0, b * edges, 0.0).sum())
    inner_ok = spill == 0.0 or spill < policy.rel_tol * float(np.abs(terms).sum())
    settled = k_count == 1 or bool(abs(terms[-1]) <= policy.rel_tol * np.abs(terms).max())
    trusted = inner_ok and settled and tail <= policy.rel_tol and math.isfinite(value)
    return OperatorResult(value, k_used, tail, inner_ok, trusted)


def route_builders(pair, n, f):
    """build(k_count) of each route's samples for the polynomial f (and for
    |t - 1| on the ladder), written out from the route's parts."""
    def ones(s):  # no plain or analytic sample has a band edge
        return s, np.zeros(s.size)

    def nodes(k_count):
        at = baskakov._nodes(pair, n, np.arange(k_count, dtype=float))
        return ones(np.asarray(f.evaluate(at), dtype=float))

    def analytic(k_count):
        lfact = _log_fact_table(pair, n + k_count - 1)
        return ones(sum(
            c * np.exp(baskakov._log_beta_ratio_factors(pair, n, (d,), k_count, lfact=lfact)[0])
            for d, c in enumerate(f.as_polynomial()) if c != 0.0
        ))

    def ladder(k_count):
        return quadrature.batched_weight_ratios(pair, n, k_count, ABS, 2)

    return {"nodes": nodes, "analytic": analytic, "quadrature": ladder}


# grid points: the origin, points close to it and points far out, so that the
# rows of one grid stop at different lengths
grid_points = st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(1.0, 60.0))
ABS = FunctionSpec.named("abs_t_minus_1")
BUDGETS = [3, 40, 64, 100, 10000]


class TestGridKernel:
    F = FunctionSpec.polynomial([1.0, -2.0, 3.0])

    @settings(deadline=None, max_examples=150)
    # np.log and np.log1p differ from math.log and math.log1p by an ulp at
    # these points, so the row must take the logs of x in math
    @example(pair=PQPair(0.9, 0.8), n=3, xs=[0.7823501688599585], max_terms=10000,
             row_entries=150, earlier=3)
    @example(pair=CLASSICAL, n=1, xs=[0.5882328908161044], max_terms=10000, row_entries=150,
             earlier=3)
    # summed at the length of the longest row, the short row's value moves
    @example(pair=CLASSICAL, n=99, xs=[0.5, 37.0], max_terms=10000, row_entries=1 << 18,
             earlier=3)
    # a ladder evaluated first under another budget
    @example(pair=PQPair(0.9, 0.8), n=10, xs=[0.0, 40.0], max_terms=10000, row_entries=150,
             earlier=100)
    @given(
        pair=st.one_of(st.just(CLASSICAL), strict_pairs),
        n=st.integers(1, 200),
        xs=st.lists(grid_points, min_size=1, max_size=8),
        max_terms=st.sampled_from(BUDGETS),
        row_entries=st.sampled_from([150, 1000, baskakov._ROW_ENTRIES]),
        earlier=st.sampled_from(BUDGETS),
    )
    def test_each_cell_of_a_grid_is_its_one_point_result(
        self, pair, n, xs, max_terms, row_entries, earlier
    ):
        """Every OperatorResult field of a grid cell of the public entries
        equals, exactly, that of the same point evaluated alone and that of
        the point written out alone (``reference_apply``), with or without the
        origin in the grid, however the grid is split in blocks, and after
        an evaluation under another max_terms (so no state survives between
        calls).  A trusted value is finite."""
        grid, policy = np.array(xs), TruncationPolicy(max_terms=max_terms)
        builders = route_builders(pair, n, self.F)

        def route(f, method=None):
            if method is None:  # the plain operator
                return lambda points, policy: baskakov_apply(pair, f, n, points, policy)
            return lambda points, policy: baskakov_beta_apply(pair, f, n, points, policy, method)

        routes = [("nodes", route(self.F))]
        if pair.is_strict and n > 2:
            routes.append(("analytic", route(self.F, "analytic")))
            # the ladder's bands widen as q/p nears 1; keep its cost small
            if n <= 40 and pair.ratio <= 0.95:
                routes.append(("quadrature", route(ABS, "quadrature")))
        positive = grid[grid > 0.0]
        with patch.object(baskakov, "_ROW_ENTRIES", row_entries), np.errstate(over="ignore"):
            for name, grid_route in routes:
                grid_route(grid, TruncationPolicy(max_terms=earlier))
                want = [repr(reference_apply(pair, n, x, policy, builders[name], 2, name == "nodes"))
                        for x in xs]
                # repr is exact for floats and equal for NaN cells of the ladder
                got = grid_route(grid, policy)
                assert [repr(r) for r in got] == want
                assert all(math.isfinite(r.value) for r in got if r.trusted)
                assert [repr(grid_route(grid[i : i + 1], policy)[0]) for i in range(grid.size)] == want
                assert [repr(grid_route(x, policy)) for x in xs] == want  # one point, one result
                assert [repr(r) for r in grid_route(positive, policy)] == [
                    w for w, x in zip(want, xs) if x > 0.0
                ]

    def test_a_large_grid_row_is_evaluated_in_bounded_blocks(self):
        """6,000 points at n = 300, whose rows reach 683 terms; in one block
        of the earlier doubling kernel this row peaked at 98 MiB, in blocks
        of at most _ROW_ENTRIES entries it peaks at about 9 MiB."""
        n, f = 300, FunctionSpec.polynomial([7.0, -2.0, 25.0])
        pair, xs = PQPair(1.0, n / (n + 1.0)), np.linspace(0.0, 5.0, 6000)
        baskakov_beta_apply(pair, f, n, 5.0, method="analytic")  # the samples, outside the measurement
        tracemalloc.start()
        try:
            cells = baskakov_beta_apply(pair, f, n, xs, method="analytic")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cells) == xs.size
        assert cells[-1] == baskakov_beta_apply(pair, f, n, xs[-1], method="analytic")
        assert cells[-1].k_terms_used > 500
        assert peak < 32 * 2**20


class TestNodes:
    def test_first_node_is_origin(self, strict_pair):
        assert baskakov_node(strict_pair, 5, 0) == 0.0

    def test_classical_nodes(self):
        assert baskakov_node(CLASSICAL, 4, 3) == pytest.approx(0.75, rel=1e-14)

    def test_matches_defining_ratio(self, strict_pair):
        p, q = strict_pair.p, strict_pair.q
        for n in (2, 6):
            for k in (1, 4, 9):
                want = (
                    p ** (n - 1)
                    * pq_number(strict_pair, k)
                    / (q ** (k - 1) * pq_number(strict_pair, n))
                )
                assert rel_err(baskakov_node(strict_pair, n, k), want) < 1e-12

    @staticmethod
    def exact_node(p, q, n, k):
        """p^{n-1} [k] / (q^{k-1} [n]) of the floats' exact binary values."""
        p, q = Fraction(p), Fraction(q)
        return p ** (n - 1) * (p**k - q**k) / (q ** (k - 1) * (p**n - q**n))

    @pytest.mark.parametrize("k", [1, 2, 5, 50])
    def test_near_p_equals_q_example(self, k):
        # (p/q)^k - 1 cancels near p = q: at q/p = 1 - 1.1e-11 each of these
        # nodes was 9.0e-6 off when that difference was taken as written
        p, n = 0.9, 10
        q = p * (1.0 - 1.1e-11)
        got = Fraction(baskakov_node(PQPair(p, q), n, k))
        assert abs(got / self.exact_node(p, q, n, k) - 1) < 1e-15

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.floats(0.9, 1.0),
        gap=st.floats(1e-15, 1e-3),
        n=st.integers(1, 100),
        k=st.integers(1, 200),
    )
    def test_matches_exact_near_p_equals_q(self, p, gap, n, k):
        q = p * (1.0 - gap)
        assume(q < p)
        got = Fraction(baskakov_node(PQPair(p, q), n, k))
        assert abs(got / self.exact_node(p, q, n, k) - 1) < 2e-15


class TestOperator:
    def test_constant_reproduced(self, strict_pair):
        res = baskakov_apply(strict_pair, FunctionSpec.named("e0"), 7, 1.3)
        assert res.value == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("x", [1.0, 0.0, np.array([0.0, 0.5, 1.0, 40.0])],
                             ids=["point", "origin", "grid"])
    @pytest.mark.parametrize("f", [lambda t: 1.0, lambda t: np.ones(1)], ids=["float", "1-vector"])
    def test_one_value_for_all_nodes_is_a_constant_target(self, f, x):
        # as the quadrature route of the Beta operator takes such a callable
        pair = PQPair(0.9, 0.8)
        assert baskakov_apply(pair, f, 10, x) == baskakov_apply(pair, FunctionSpec.named("e0"), 10, x)

    @pytest.mark.parametrize(
        "f", [lambda t: np.ones(3), lambda t: np.ones((t.size, 2)), lambda t: t[:, None]],
        ids=["3-vector", "two-per-node", "column"],
    )
    def test_values_that_do_not_fit_the_nodes_are_refused(self, f):
        with pytest.raises(DomainError, match="nodes"):
            baskakov_apply(PQPair(0.9, 0.8), f, 10, 1.0)

    def test_linear_reproduced(self):
        res = baskakov_apply(PQPair(0.9, 0.8), FunctionSpec.named("e1"), 5, 1.5)
        assert res.value == pytest.approx(1.5, rel=1e-10)

    def test_quadratic_closed_form_classical(self):
        # ([n+1] x^2 + x) / [n] at n = 4, x = 1 -> 1.5
        res = baskakov_apply(CLASSICAL, FunctionSpec.named("e2"), 4, 1.0)
        assert res.value == pytest.approx(1.5, rel=1e-10)

    def test_quadratic_closed_form_strict(self, strict_pair):
        e2 = FunctionSpec.named("e2")
        for n in (3, 6, 12):
            for x in (0.4, 1.0, 2.0):
                got = baskakov_apply(strict_pair, e2, n, x).value
                want = baskakov_moment_closed(strict_pair, 2, n, x)
                assert rel_err(got, want) < 1e-10

    def test_second_moment_closed_value(self):
        # ([4] x^2 + p^2 q x) / (q [3]) at (0.9, 0.8), n = 3, x = 1,
        # with [4] = 2.465 and [3] = 2.17
        pair = PQPair(0.9, 0.8)
        want = (2.465 + 0.81 * 0.8) / (0.8 * 2.17)
        assert baskakov_moment_closed(pair, 2, 3, 1.0) == pytest.approx(want, rel=1e-12)
        assert baskakov_apply(pair, FunctionSpec.named("e2"), 3, 1.0).value == pytest.approx(
            want, rel=1e-10
        )

    def test_term_budget_below_the_first_row(self):
        # max_terms = 5 caps the row at 5 terms, so most of the mass is missing
        policy = TruncationPolicy(max_terms=5)
        res = baskakov_apply(PQPair(0.9, 0.8), FunctionSpec.named("e1"), 10, 3.0, policy)
        assert res.k_terms_used <= 5
        assert res.basis_tail_mass > 0.9
        assert res.trusted is False

    def test_moment_order_validated(self):
        with pytest.raises(DomainError):
            baskakov_moment_closed(CLASSICAL, 3, 4, 1.0)

    def test_a_row_whose_last_term_is_not_small_is_not_trusted(self):
        # exp outgrows the t^2 that a callable is taken to grow like: at
        # nodes growing like (9/8)^k its terms stop falling near k = 27 and
        # rise without bound, so the row sized for t^2 ends on a term about
        # 6e-11 of the largest (the earlier doubling kernel summed 64
        # terms, whose samples overflowed, and gave an untrusted inf)
        res = baskakov_apply(PQPair(0.9, 0.8), np.exp, 10, 0.5)
        assert res.basis_tail_mass <= 1e-12 and math.isfinite(res.value)
        assert not res.trusted
        # a row that the budget cuts while its terms still matter: its basis
        # tail is below rel_tol, but its value is 1.01e-12 off the exact 648.5
        quadratic = FunctionSpec.polynomial([1.0, -2.0, 3.0])
        cut = baskakov_apply(PQPair(0.9, 0.8), quadratic, 1, 10.0, TruncationPolicy(max_terms=40))
        assert cut.basis_tail_mass <= 1e-12 and rel_err(cut.value, 648.5) > 1e-12
        assert not cut.trusted
        assert baskakov_apply(PQPair(0.9, 0.8), quadratic, 1, 10.0).trusted
        # the one term of a row (x = 0, or a budget of one term) is its largest
        assert baskakov_apply(PQPair(0.9, 0.8), np.exp, 10, 0.0).trusted
        rows, edges, extents = np.zeros((2, 3)) - math.log(3.0), np.zeros(3), np.array([3, 3])
        steady, rising = (
            baskakov._sum_rows(rows[:1], np.array(s), edges, extents[:1], TruncationPolicy())[0]
            for s in ([1.0, 1.0, 1e-12], [1.0, 1.0, 1.1e-12])
        )
        assert steady.trusted and not rising.trusted

    def test_a_sum_that_overflows_is_not_trusted(self):
        # every term is finite and the basis is complete, but the sum is not
        # finite: trust follows the value, not the terms
        with np.errstate(over="ignore"):
            (res,) = baskakov._sum_rows(
                np.zeros((1, 2)), np.array([1e308, 1e308]), np.zeros(2), np.array([2]),
                TruncationPolicy(),
            )
        assert res.value == math.inf and res.basis_tail_mass == 0.0
        assert not res.trusted

    @settings(deadline=None, max_examples=25)
    @given(
        c=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
        x=st.floats(0.0, 4.0),
    )
    def test_positive_functions_map_to_positive_values(self, c, x):
        f = FunctionSpec.polynomial(list(c) or [1.0])
        res = baskakov_apply(PQPair(0.95, 0.9), f, 5, x)
        assert res.value >= -1e-12

    @settings(deadline=None, max_examples=25)
    @given(
        c=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        bump=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
        x=st.floats(0.0, 3.0),
    )
    def test_monotone_in_the_function_argument(self, c, bump, x):
        pair = PQPair(0.9, 0.8)
        f = FunctionSpec.polynomial(list(c))
        g = FunctionSpec.polynomial([c[0] + bump[0], c[1] + bump[1]])
        lo = baskakov_apply(pair, f, 6, x).value
        hi = baskakov_apply(pair, g, 6, x).value
        assert hi >= lo - 1e-10


class TestRecurrence:
    @pytest.mark.parametrize("pair", RECURRENCE_PAIRS, ids=lambda p: f"p{p.p}-q{p.q}")
    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_first_order_residual(self, pair, n, x):
        assert verify_baskakov_recurrence(pair, n, 1, x) <= 1e-8

    @pytest.mark.parametrize("pair", RECURRENCE_PAIRS, ids=lambda p: f"p{p.p}-q{p.q}")
    def test_constant_moment_degeneracy(self, pair):
        # T_0 = 1 collapses the relation to T_1(qx) = qx
        assert verify_baskakov_recurrence(pair, 5, 0, 1.0) <= 1e-9

    def test_q_special_case(self):
        assert verify_baskakov_recurrence(PQPair(1.0, 0.9), 6, 1, 2.0) <= 1e-8

    def test_rejects_x_zero(self):
        with pytest.raises(DomainError):
            verify_baskakov_recurrence(PQPair(0.9, 0.8), 4, 1, 0.0)

    @pytest.mark.parametrize("x", [np.array([1.0, 2.0]), np.ones((2, 2)), np.array([1.0])],
                             ids=["2-point", "2-d", "1-point-array"])
    def test_rejects_an_array_x(self, x):
        with pytest.raises(DomainError, match="one point"):
            verify_baskakov_recurrence(PQPair(0.9, 0.8), 10, 1, x)

    @pytest.mark.parametrize("x", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_rejects_a_point_outside_the_domain(self, x):
        with pytest.raises(DomainError):
            verify_baskakov_recurrence(PQPair(0.9, 0.8), 10, 1, x)

    @pytest.mark.parametrize("pair", RECURRENCE_PAIRS, ids=lambda p: f"p{p.p}-q{p.q}")
    @pytest.mark.parametrize("m", [0, 1])
    def test_two_kernel_calls_give_the_one_point_residual(self, monkeypatch, pair, m):
        """T_m at px and qx is one grid call and T_{m+1}(qx) the other; the
        residual is bitwise that of one-point calls and ``pq_derivative``."""
        n, x, (p, q) = 10, 1.5, (pair.p, pair.q)

        def t(j, at):
            return baskakov_apply(pair, FunctionSpec.named(f"e{j}"), n, at).value

        # the recurrence divided by p^{n-1}: <n> = [n] / p^{n-1}
        nn = float(core._normalised_number(p, q, n))
        derivative = pq_derivative(pair, lambda at: t(m, at), x)
        rhs = q * x * (1.0 + p * x) * derivative + nn * q * x * t(m, q * x)
        want = abs(nn * t(m + 1, q * x) - rhs)
        calls = []
        real = baskakov._apply

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(baskakov, "_apply", counting)
        assert verify_baskakov_recurrence(pair, n, m, x) == want
        assert len(calls) == 2

    @pytest.mark.parametrize("m", [0, 1])
    def test_a_perturbed_moment_shows_at_a_large_order(self, monkeypatch, m):
        """At (0.9, 0.8) and n = 7,000, [n] and p^{n-1} are below the
        smallest double, and the residual in them read 0.0 whatever T_m was;
        in <n> a relative change of 1e-6 in T_{m+1} shows."""
        pair, n, x = PQPair(0.9, 0.8), 7000, 1.5
        honest = verify_baskakov_recurrence(pair, n, m, x)
        real = baskakov.baskakov_apply

        def perturbed(pair, f, n, at, policy):
            result = real(pair, f, n, at, policy)
            return result._replace(value=result.value * (1.0 + 1e-6)) if f.name == f"e{m + 1}" else result

        monkeypatch.setattr(baskakov, "baskakov_apply", perturbed)
        assert 0.0 < honest < 1e-8
        assert verify_baskakov_recurrence(pair, n, m, x) > 1e-6


@pytest.mark.parametrize(
    "call",
    [
        lambda: baskakov_apply(PQPair(0.9, 0.9), FunctionSpec.named("e1"), 10, 1.0),
        lambda: verify_baskakov_recurrence(PQPair(0.9, 0.8), 10, 2, 1.0),
        lambda: baskakov_beta_apply(PQPair(0.9, 0.8), FunctionSpec.named("e1"), 10, 1.0, method="bogus"),
    ],
    ids=["basis-on-the-line-p-eq-q", "recurrence-of-m-2", "unknown-method"],
)
def test_an_argument_outside_the_domain_is_refused(call):
    with pytest.raises(DomainError):
        call()
