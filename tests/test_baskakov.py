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
from pqbaskakov import baskakov, quadrature
from pqbaskakov.core import _log_fact_table

from conftest import CLASSICAL, rel_err

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
    def test_appended_segments_equal_the_one_shot_row(self, pair, n, xs):
        x = np.array(xs)
        rows, carry, lfact = np.empty((x.size, 0)), 0.0, _log_fact_table(pair, 0)
        for k_count in (64, 128, 256, 512, 1024):
            lfact = _log_fact_table(pair, n + k_count - 1, lfact)
            segment, carry = baskakov._log_basis_row(
                pair, n, x, k_count, rows.shape[1], carry, lfact=lfact
            )
            rows = np.concatenate([rows, segment], axis=1)
            for row, point in zip(rows, xs):
                assert np.array_equal(row, one_shot_log_row(pair, n, point, k_count))


def reference_apply(pair, n, x, policy, build):
    """The kernel at one point, as a loop: the row doubles until its
    sample-weighted edge term is negligible or the budget is spent, and the
    point's own sample vector grows with it, by build(k_start, k_count) of
    the new k only."""
    s, ok = build(0, min(64, policy.max_terms))
    if x == 0.0:
        row, s, ok = np.zeros(1), s[:1], ok[:1]
    else:
        k_count = s.size
        while True:
            row = one_shot_log_row(pair, n, x, k_count)
            with np.errstate(divide="ignore", invalid="ignore"):
                ls = np.log(np.abs(s))
            metric = row + np.where(np.isfinite(ls), ls, 0.0)
            edge = metric.max() + math.log(baskakov._EDGE_FRACTION)
            if metric[-1] < edge or k_count >= policy.max_terms:
                break
            k_count = min(2 * k_count, policy.max_terms)
            new_s, new_ok = build(s.size, k_count)
            s, ok = np.concatenate([s, new_s]), np.concatenate([ok, new_ok])
    b = np.exp(row)
    terms = np.where(b > 0.0, b * s, 0.0)
    tail = max(0.0, 1.0 - float(b.sum()))
    significant = np.nonzero(np.abs(terms) > policy.abs_tol)[0]
    k_used = int(significant[-1]) + 1 if significant.size else 1
    value, inner_ok = float(terms.sum()), bool(ok.all())
    trusted = inner_ok and tail <= policy.rel_tol and math.isfinite(value)
    return OperatorResult(value, k_used, tail, inner_ok, trusted)


def route_builders(pair, n, f):
    """build(k_start, k_count) of each route's samples for the polynomial f
    (and for |t - 1| on the ladder), written out from the route's parts."""
    def ones(s):  # every plain and analytic sample is trusted
        return s, np.ones(s.size, dtype=bool)

    def nodes(k_start, k_count):
        at = baskakov._nodes(pair, n, np.arange(k_start, k_count, dtype=float))
        return ones(np.asarray(f.evaluate(at), dtype=float))

    def analytic(k_start, k_count):
        lfact = _log_fact_table(pair, n + k_count - 1)
        return ones(sum(
            c * np.exp(baskakov._log_beta_ratio_factors(pair, n, (d,), k_count, k_start, lfact=lfact)[0])
            for d, c in enumerate(f.as_polynomial()) if c != 0.0
        ))

    def ladder(k_start, k_count):
        return quadrature.batched_weight_ratios(pair, n, k_count, ABS, 2, k_start)

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
        the per-point loop growing its own sample vector, with or without the
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
            routes.append(("analytic", route(self.F, "auto")))
            # the ladder's bands widen as q/p nears 1; keep its cost small
            if n <= 40 and pair.ratio <= 0.95:
                routes.append(("quadrature", route(ABS, "quadrature")))
        positive = grid[grid > 0.0]
        with patch.object(baskakov, "_ROW_ENTRIES", row_entries), np.errstate(over="ignore"):
            for name, grid_route in routes:
                grid_route(grid, TruncationPolicy(max_terms=earlier))
                want = [repr(reference_apply(pair, n, x, policy, builders[name])) for x in xs]
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
        """6,000 points at n = 300 grow rows of 1,024 terms; in one block
        this row peaked at 98 MiB, in blocks at about 18 MiB."""
        n, f = 300, FunctionSpec.polynomial([7.0, -2.0, 25.0])
        pair, xs = PQPair(1.0, n / (n + 1.0)), np.linspace(0.0, 5.0, 6000)
        baskakov_beta_apply(pair, f, n, 5.0)  # the samples, outside the measurement
        tracemalloc.start()
        try:
            cells = baskakov_beta_apply(pair, f, n, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cells) == xs.size
        assert cells[-1] == baskakov_beta_apply(pair, f, n, xs[-1])
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

    def test_a_sum_that_overflows_is_not_trusted(self):
        # every term is finite and the basis is complete, but the sum is not
        # finite: trust follows the value, not the terms
        with np.errstate(over="ignore"):
            (res,) = baskakov._sum_rows(
                np.zeros((1, 2)), np.array([1e308, 1e308]), True, TruncationPolicy()
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

        nn = pq_number(pair, n)
        derivative = pq_derivative(pair, lambda at: t(m, at), x)
        rhs = q * p ** (n - 1) * x * (1.0 + p * x) * derivative + nn * q * x * t(m, q * x)
        want = abs(nn * t(m + 1, q * x) - rhs)
        calls = []
        real = baskakov._apply

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(baskakov, "_apply", counting)
        assert verify_baskakov_recurrence(pair, n, m, x) == want
        assert len(calls) == 2


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
