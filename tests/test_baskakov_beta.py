import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqbaskakov import (
    DEFAULT_POLICY,
    DomainError,
    FunctionSpec,
    PQPair,
    RegimeError,
    TruncationPolicy,
    baskakov_apply,
    baskakov_beta_apply,
    baskakov_beta_monomial_exact,
    central_moment,
    moments_closed,
)

from pqbaskakov import baskakov, quadrature

from conftest import CLASSICAL, rel_err

E = {m: FunctionSpec.named(f"e{m}") for m in (0, 1, 2)}


class TestMomentsClosed:
    def test_zeroth_is_one(self, strict_pair):
        assert moments_closed(strict_pair, 0, 3, 1.7) == 1.0

    def test_first_moment_classical(self):
        # (n x + 1)/(n - 1) at n = 3, x = 1
        assert moments_closed(CLASSICAL, 1, 3, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_second_moment_classical(self):
        # (n(n+1) x^2 + 4 n x + 2)/((n-1)(n-2)) at n = 4, x = 1
        assert moments_closed(CLASSICAL, 2, 4, 1.0) == pytest.approx(38.0 / 6.0, rel=1e-12)

    @pytest.mark.parametrize("n", range(3, 13))
    @pytest.mark.parametrize("x", [0.0, 0.7, 2.0, 5.0])
    def test_classical_reduction_formulas(self, n, x):
        m1 = moments_closed(CLASSICAL, 1, n, x)
        m2 = moments_closed(CLASSICAL, 2, n, x)
        assert rel_err(m1, (n * x + 1.0) / (n - 1.0)) < 1e-12
        want2 = (n * (n + 1.0) * x * x + 4.0 * n * x + 2.0) / ((n - 1.0) * (n - 2.0))
        assert rel_err(m2, want2) < 1e-12

    def test_stated_ranges(self):
        pair = PQPair(0.9, 0.8)
        with pytest.raises(DomainError):
            moments_closed(pair, 1, 1, 0.5)
        with pytest.raises(DomainError):
            moments_closed(pair, 2, 2, 0.5)
        with pytest.raises(DomainError):
            moments_closed(pair, 3, 5, 0.5)


class TestMonomialExact:
    def test_mass_normalization(self, strict_pair):
        for n in (3, 7):
            for x in (0.0, 1.0, 4.0):
                got = baskakov_beta_monomial_exact(strict_pair, 0, n, x)
                assert got == pytest.approx(1.0, abs=1e-10)

    def test_first_moment_example(self):
        pair = PQPair(0.9, 0.8)
        # ([3] 2 + p q)/[2] = (4.34 + 0.72)/1.7
        want = (4.34 + 0.72) / 1.7
        got = baskakov_beta_monomial_exact(pair, 1, 3, 2.0)
        assert got == pytest.approx(want, rel=1e-9)
        assert moments_closed(pair, 1, 3, 2.0) == pytest.approx(want, rel=1e-12)

    def test_second_moment_against_closed(self):
        pair = PQPair(0.95, 0.9)
        got = baskakov_beta_monomial_exact(pair, 2, 4, 1.0)
        assert rel_err(got, moments_closed(pair, 2, 4, 1.0)) < 1e-9

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_agrees_with_closed_on_lattice(self, strict_pair, m):
        for n in (3, 6, 10, 15):
            for x in (0.0, 0.5, 1.0, 2.0, 5.0):
                got = baskakov_beta_monomial_exact(strict_pair, m, n, x)
                want = moments_closed(strict_pair, m, n, x)
                assert rel_err(got, want) < 1e-9

    def test_higher_monomials_need_larger_n(self):
        pair = PQPair(0.9, 0.8)
        with pytest.raises(DomainError):
            baskakov_beta_monomial_exact(pair, 3, 3, 1.0)
        # m = 3 with n = 5 is fine and positive
        assert baskakov_beta_monomial_exact(pair, 3, 5, 1.0) > 0.0

    def test_classical_pair_rejected(self):
        with pytest.raises(RegimeError):
            baskakov_beta_monomial_exact(CLASSICAL, 1, 5, 1.0)


class TestBetaOperator:
    def test_term_budget_below_the_first_row(self):
        # max_terms = 5 caps the row at 5 terms, so most of the mass is missing
        policy = TruncationPolicy(max_terms=5)
        res = baskakov_beta_apply(PQPair(0.9, 0.8), E[1], 10, 3.0, policy, method="analytic")
        assert res.k_terms_used <= 5
        assert res.basis_tail_mass > 0.9
        assert res.trusted is False

    def test_constant_exact(self, strict_pair):
        res = baskakov_beta_apply(strict_pair, E[0], 5, 1.2)
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert res.trusted

    def test_first_moment_oracle(self):
        pair = PQPair(0.9, 0.8)
        res = baskakov_beta_apply(pair, E[1], 3, 2.0)
        assert res.value == pytest.approx((4.34 + 0.72) / 1.7, rel=1e-9)

    def test_quadratic_target_matches_moment_combination(self, strict_pair):
        f = FunctionSpec.polynomial([2015.0, -12.0, 18.0])
        for n in (5, 10):
            for x in (0.0, 1.0, 3.0):
                got = baskakov_beta_apply(strict_pair, f, n, x).value
                want = (
                    18.0 * moments_closed(strict_pair, 2, n, x)
                    - 12.0 * moments_closed(strict_pair, 1, n, x)
                    + 2015.0
                )
                assert rel_err(got, want) < 1e-8

    @settings(deadline=None, max_examples=20)
    @given(
        cf=st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)),
        cg=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        alpha=st.floats(-2, 2),
        beta=st.floats(-2, 2),
        x=st.floats(0.0, 3.0),
    )
    def test_linearity(self, cf, cg, alpha, beta, x):
        pair = PQPair(0.9, 0.8)
        n = 6
        f = FunctionSpec.polynomial(cf)
        g = FunctionSpec.polynomial(cg)
        combo = FunctionSpec.polynomial(
            [alpha * cf[0] + beta * cg[0], alpha * cf[1] + beta * cg[1], alpha * cf[2]]
        )
        lhs = baskakov_beta_apply(pair, combo, n, x).value
        rhs = (
            alpha * baskakov_beta_apply(pair, f, n, x).value
            + beta * baskakov_beta_apply(pair, g, n, x).value
        )
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @settings(deadline=None, max_examples=20)
    @given(
        c=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
        x=st.floats(0.0, 3.0),
    )
    def test_positivity(self, c, x):
        res = baskakov_beta_apply(PQPair(0.95, 0.9), FunctionSpec.polynomial(c), 6, x)
        assert res.value >= -1e-10

    def test_monotone_in_the_function(self):
        pair = PQPair(0.9, 0.8)
        f = FunctionSpec.polynomial([1.0, 0.5])
        g = FunctionSpec.polynomial([1.5, 0.5, 0.25])
        for x in (0.0, 1.0, 2.5):
            assert (
                baskakov_beta_apply(pair, g, 6, x).value
                >= baskakov_beta_apply(pair, f, 6, x).value - 1e-10
            )

    def test_degree_must_be_below_n(self):
        pair = PQPair(0.9, 0.8)
        with pytest.raises(DomainError):
            baskakov_beta_apply(pair, E[2], 2, 1.0)

    def test_classical_pair_rejected(self):
        with pytest.raises(RegimeError):
            baskakov_beta_apply(CLASSICAL, E[1], 5, 1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_value_is_not_trusted(self):
        # the Beta-ratio samples overflow to inf; the plain operator already
        # flags the same input
        f = FunctionSpec.polynomial([1e308, 0.0, 1e308])
        res = baskakov_beta_apply(PQPair(0.9, 0.8), f, 10, 2.0)
        assert not math.isfinite(res.value)
        assert not res.trusted

    def test_nonpolynomial_routes_to_quadrature(self):
        pair = PQPair(0.9, 0.8)
        res = baskakov_beta_apply(pair, FunctionSpec.named("abs_t_minus_1"), 5, 1.0)
        assert res.inner_integrals_converged
        assert res.value > 0.0


class TestQuadratureRoute:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_matches_closed_moments_in_the_q_case(self, m):
        # at p = 1 the ladder quadrature reproduces the closed moments exactly
        pair = PQPair(1.0, 0.9)
        for n in (3, 8, 15):
            for x in (0.0, 1.0, 5.0):
                got = baskakov_beta_apply(pair, E[m], n, x, method="quadrature")
                want = moments_closed(pair, m, n, x)
                assert got.inner_integrals_converged
                assert rel_err(got.value, want) < 1e-9

    def test_self_normalization_fixes_the_constant(self, strict_pair):
        res = baskakov_beta_apply(strict_pair, E[0], 5, 1.0, method="quadrature")
        assert res.value == pytest.approx(1.0, abs=1e-11)

    def test_two_parameter_ladder_departs_from_closed_moments(self):
        # For p < 1 the bilateral ladder integral and the closed-form Beta
        # normalization are genuinely different functionals, so the honest
        # quadrature route lands away from the closed first moment.  This
        # pins the measured size of that departure.
        pair = PQPair(0.9, 0.8)
        got = baskakov_beta_apply(pair, E[1], 5, 1.0, method="quadrature").value
        want = moments_closed(pair, 1, 5, 1.0)
        assert rel_err(got, want) > 0.1

    def test_agrees_with_analytic_route_in_the_q_case(self):
        pair = PQPair(1.0, 0.9)
        f = FunctionSpec.polynomial([3.0, -1.0, 0.5])
        for x in (0.0, 0.8, 2.0):
            quad = baskakov_beta_apply(pair, f, 7, x, method="quadrature").value
            ana = baskakov_beta_apply(pair, f, 7, x, method="analytic").value
            assert rel_err(quad, ana, floor=1e-12) < 1e-9

    def test_analytic_route_requires_polynomial(self):
        with pytest.raises(DomainError):
            baskakov_beta_apply(
                PQPair(0.9, 0.8),
                FunctionSpec.named("abs_t_minus_1"),
                5,
                1.0,
                method="analytic",
            )

    @pytest.mark.parametrize("n", [150, 190])
    def test_q_ratio_ladder_converges_at_large_n(self, n):
        res = baskakov_beta_apply(PQPair(1.0, n / (n + 1)), FunctionSpec.named("abs_t_minus_1"), n, 1.0)
        assert res.inner_integrals_converged
        assert res.trusted

    @pytest.mark.parametrize("n", [150, 190])
    @pytest.mark.parametrize("m", [1, 2])
    def test_large_n_quadrature_matches_exact_closed_moments(self, n, m):
        pair = PQPair(1.0, n / (n + 1))
        for x in (0.5, 1.0, 3.0):
            got = baskakov_beta_apply(pair, E[m], n, x, method="quadrature")
            want = fraction_moment(Fraction(pair.q), m, n, Fraction(x))
            assert got.trusted
            assert rel_err(got.value, float(want)) < 5e-12


def fraction_moment(q, m, n, x):
    """moments_closed at p = 1, in exact rational arithmetic."""

    def number(k):  # [k]_{1,q}
        return sum(q**j for j in range(k))

    nn, n1, n2 = number(n), number(n - 1), number(n - 2)
    if m == 1:
        return (nn * x + q) / n1
    return (
        x * x * nn * (nn + 1 / q) / (q * n1 * n2)
        + x * nn * (q * q + 2 * q + 1) / (q * n1 * n2)
        + q * number(2) / (n1 * n2)
    )


ABS = FunctionSpec.named("abs_t_minus_1")
POLY = FunctionSpec.polynomial([7.0, -2.0, 25.0])


def clear_sample_cache():
    baskakov._shared_samples.cache_clear()


def built_rows(pair, n, f, route, policy=DEFAULT_POLICY):
    """How many rows the shared sample source of (pair, n, f, route) holds."""
    return baskakov._shared_samples(pair, n, f, route, policy.max_terms)._vector[0].size


class TestSampleCache:
    PAIR = PQPair(0.95, 0.9)

    @pytest.mark.parametrize(
        "f, method", [(POLY, "analytic"), (ABS, "quadrature")], ids=["analytic", "quadrature"]
    )
    @pytest.mark.parametrize("x", [0.0, 0.05, 20.0])
    def test_warm_result_equals_cold(self, f, method, x):
        cache = baskakov._shared_samples
        clear_sample_cache()
        cold = baskakov_beta_apply(self.PAIR, f, 20, x, method=method)
        # one growing source, also where the row regrew from 64 to 128 terms
        assert cache.cache_info().misses == 1
        # warm the cache from other points first, then repeat x
        clear_sample_cache()
        for other in (0.0, 0.05, 20.0, 3.0):
            baskakov_beta_apply(self.PAIR, f, 20, other, method=method)
        hits = cache.cache_info().hits
        warm = baskakov_beta_apply(self.PAIR, f, 20, x, method=method)
        assert cache.cache_info().hits > hits
        assert warm == cold  # every OperatorResult field, exactly

    @pytest.mark.parametrize("apply", [baskakov.baskakov_apply, baskakov_beta_apply])
    @pytest.mark.parametrize("x, k_count", [(1e-3, 64), (1.0, 256), (5.0, 512), (20.0, 1024)])
    def test_long_rows_warm_equal_cold(self, apply, x, k_count):
        # the q_ratio schedule at n = 150, where rows grow to 1,024 terms
        pair = PQPair(1.0, 150 / 151)
        route = "nodes" if apply is baskakov.baskakov_apply else "analytic"
        f = POLY if route == "nodes" else tuple(enumerate(POLY.as_polynomial()))
        clear_sample_cache()
        cold = apply(pair, POLY, 150, x)
        assert built_rows(pair, 150, f, route) == k_count  # grown to the row's length only
        clear_sample_cache()
        for other in (1e-3, 1.0, 5.0, 20.0, 3.0):
            apply(pair, POLY, 150, other)
        assert apply(pair, POLY, 150, x) == cold

    def test_size_stays_bounded(self):
        cache = baskakov._shared_samples
        clear_sample_cache()
        for n in range(3, 3 + baskakov._SAMPLE_CACHE_SIZE):
            baskakov_beta_apply(self.PAIR, POLY, n, 20.0)
            baskakov_beta_apply(self.PAIR, ABS, n, 0.0)
            info = cache.cache_info()
            assert info.maxsize == baskakov._SAMPLE_CACHE_SIZE
            assert info.currsize <= info.maxsize
        assert cache.cache_info().currsize == baskakov._SAMPLE_CACHE_SIZE

    def test_plain_callable_is_sampled_on_every_call(self):
        scale = [1.0]
        calls = []

        def f(t):
            calls.append(1)
            return scale[0] * np.abs(np.asarray(t) - 1.0)

        first = baskakov_beta_apply(self.PAIR, f, 8, 1.0, method="quadrature")
        evaluations = len(calls)
        scale[0] = 2.0
        second = baskakov_beta_apply(self.PAIR, f, 8, 1.0, method="quadrature")
        assert evaluations > 0 and len(calls) == 2 * evaluations
        assert second.value == pytest.approx(2.0 * first.value, rel=1e-13)

    @pytest.mark.parametrize(
        "f, route", [(ABS, "quadrature"), (((0, 1.0), (2, 3.0)), "analytic"), (POLY, "nodes")]
    )
    def test_cached_samples_are_read_only(self, f, route):
        for array in baskakov._shared_samples(self.PAIR, 5, f, route, 100).upto(4):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


class TestNoRework:
    """Each sample of a (pair, n, f) row is built once, by appending the new
    rows of each longer segment, and the segments concatenate to the
    one-shot vector."""

    PAIR, N = PQPair(0.95, 0.9), 20
    GRID = np.linspace(0.0, 60.0, 21)

    def evaluate_row(self, f, method, grid_call):
        clear_sample_cache()
        if grid_call:
            return baskakov._beta_apply(self.PAIR, f, self.N, self.GRID, DEFAULT_POLICY, method)
        return [baskakov_beta_apply(self.PAIR, f, self.N, x, method=method) for x in self.GRID]

    @pytest.mark.parametrize("grid_call", [True, False], ids=["grid", "per-point"])
    def test_ladder_rows_are_built_once(self, monkeypatch, grid_call):
        rows = []
        real = quadrature._band_sums

        def recording(pair, n, ks, *rest):
            rows.extend(ks.tolist())
            return real(pair, n, ks, *rest)

        monkeypatch.setattr(quadrature, "_band_sums", recording)
        cells = self.evaluate_row(ABS, "quadrature", grid_call)
        final = built_rows(self.PAIR, self.N, ABS, "quadrature")
        assert final == 128 and max(c.k_terms_used for c in cells) > 64  # two segments
        assert sorted(rows) == list(range(final))

    @pytest.mark.parametrize("grid_call", [True, False], ids=["grid", "per-point"])
    def test_beta_factors_are_built_once(self, monkeypatch, grid_call):
        rows = {}
        real = baskakov._log_beta_ratio_factors

        def recording(pair, n, m, k_count, k_start=0):
            rows[m] = rows.get(m, 0) + k_count - k_start
            return real(pair, n, m, k_count, k_start)

        monkeypatch.setattr(baskakov, "_log_beta_ratio_factors", recording)
        self.evaluate_row(POLY, "analytic", grid_call)
        final = built_rows(self.PAIR, self.N, tuple(enumerate(POLY.as_polynomial())), "analytic")
        assert final == 128
        assert rows == {0: final, 1: final, 2: final}

    def test_segments_equal_the_one_shot_vectors(self):
        pair, n, k_count = self.PAIR, self.N, 512
        coeffs = tuple(enumerate(POLY.as_polynomial()))
        one_shot = {
            "nodes": np.asarray(POLY.evaluate(baskakov._nodes(pair, n, np.arange(k_count, dtype=float)))),
            "analytic": sum(c * np.exp(baskakov._log_beta_ratio_factors(pair, n, d, k_count))
                            for d, c in coeffs),
        }
        for f, route in ((POLY, "nodes"), (coeffs, "analytic"), (ABS, "quadrature")):
            source = baskakov._Samples(baskakov._sample_builder(pair, n, f, route))
            for length in (64, 128, 256, 512):
                s, ok = source.upto(length)
            if route == "quadrature":
                want, want_ok = quadrature.batched_weight_ratios(pair, n, k_count, ABS)
                assert np.array_equal(ok, want_ok)
                assert np.allclose(s, want, rtol=1e-15, atol=0.0)
            else:
                assert ok.all()
                assert np.array_equal(s, one_shot[route])


class TestLadderNodeCap:
    """max_terms caps the outer basis row only; the ladder bands of the
    quadrature route have a fixed node cap of their own."""

    @pytest.mark.parametrize("max_terms", [40, 100, 221])
    def test_outer_budget_does_not_reach_the_ladder(self, max_terms):
        # the outer row needs 20-39 terms here, far below each budget
        pair, policy = PQPair(0.9, 0.8), TruncationPolicy(max_terms=max_terms)
        for x in (0.5, 1.0, 5.0):
            got = baskakov_beta_apply(pair, ABS, 10, x, policy, method="quadrature")
            want = baskakov_beta_apply(pair, ABS, 10, x, method="quadrature")
            assert got.trusted
            assert rel_err(got.value, want.value) < 1e-13

    @pytest.mark.parametrize("q", [0.89999, 0.8999999])
    def test_a_huge_budget_does_not_lift_the_node_cap(self, monkeypatch, q):
        # the first band needs about 4.65e6 (q = 0.89999) or 4.65e8 nodes
        clear_sample_cache()
        windows = []
        real = quadrature._LadderWindow

        def recording(*args):
            windows.append(args)
            return real(*args)

        monkeypatch.setattr(quadrature, "_LadderWindow", recording)
        policy = TruncationPolicy(max_terms=10**9)
        res = baskakov_beta_apply(PQPair(0.9, q), ABS, 10, 1.0, policy, method="quadrature")
        assert math.isnan(res.value) and not res.trusted
        assert windows == []

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.floats(0.6, 1.0),
        r=st.floats(0.5, 0.99),
        n=st.integers(3, 60),
        x=st.floats(0.0, 10.0),
        max_terms=st.integers(1, 400),
    )
    def test_quadrature_is_finite_where_the_plain_operator_is_trusted(self, p, r, n, x, max_terms):
        pair, policy = PQPair(p, p * r), TruncationPolicy(max_terms=max_terms)
        assume(baskakov_apply(pair, ABS, n, x, policy).trusted)
        res = baskakov_beta_apply(pair, ABS, n, x, policy, method="quadrature")
        assert math.isfinite(res.value)


def _counting_route(monkeypatch, name="_beta_apply_analytic"):
    """Replace a route function of baskakov by one that records its calls'
    (n, grid points) and whether a cell table was open."""
    calls = []
    real = getattr(baskakov, name)

    def route(pair, f, n, xs, policy):
        calls.append((n, tuple(xs.tolist()), baskakov._RUN_CELLS.get() is not None))
        return real(pair, f, n, xs, policy)

    monkeypatch.setattr(baskakov, name, route)
    return calls


class TestCellTable:
    PAIR = PQPair(0.95, 0.9)
    F = FunctionSpec.polynomial([7.0, -2.0, 25.0])
    GRID = (0.0, 1.5, 3.0)

    def test_inside_a_table_a_repeated_cell_is_a_lookup(self, monkeypatch):
        calls = _counting_route(monkeypatch)
        with baskakov._cell_table(np.array(self.GRID)):
            first = baskakov_beta_apply(self.PAIR, self.F, 10, 1.5)
            again = baskakov_beta_apply(self.PAIR, self.F, 10, 1.5)
            origin = baskakov_beta_apply(self.PAIR, self.F, 10, 0.0)
            other = baskakov_beta_apply(self.PAIR, self.F, 10, 1.5, TruncationPolicy(rel_tol=1e-10))
        assert again is first and other == first
        # one kernel call per grid row; the other policy is another row
        assert calls == [(10, self.GRID, True)] * 2
        assert first == baskakov_beta_apply(self.PAIR, self.F, 10, 1.5)
        assert origin == baskakov_beta_apply(self.PAIR, self.F, 10, 0.0)
        assert baskakov._RUN_CELLS.get() is None  # dropped on exit

    def test_a_point_off_the_grid_is_computed_afresh(self, monkeypatch):
        calls = _counting_route(monkeypatch)
        with baskakov._cell_table(np.array(self.GRID)):
            for _ in range(2):
                baskakov_beta_apply(self.PAIR, self.F, 10, 2.0)
            assert baskakov._RUN_CELLS.get().rows == {}
        assert calls == [(10, (2.0,), True)] * 2

    def test_calls_outside_a_run_both_recompute(self, monkeypatch):
        calls = _counting_route(monkeypatch)
        baskakov_beta_apply(self.PAIR, self.F, 10, 1.5)
        baskakov_beta_apply(self.PAIR, self.F, 10, 1.5)
        assert calls == [(10, (1.5,), False)] * 2
        # a result kept across direct calls would hide this change
        clear_sample_cache()
        before = baskakov_beta_apply(self.PAIR, ABS, 10, 1.0, method="quadrature")
        monkeypatch.setattr(quadrature, "_LADDER_NODES", 5)
        clear_sample_cache()
        after = baskakov_beta_apply(self.PAIR, ABS, 10, 1.0, method="quadrature")
        clear_sample_cache()
        assert before.trusted and math.isfinite(before.value)
        assert not after.trusted and math.isnan(after.value)

    def test_a_plain_callable_is_never_stored(self):
        calls = []

        def f(t):
            calls.append(1)
            return np.abs(np.asarray(t) - 1.0)

        with baskakov._cell_table(np.array(self.GRID + (1.0,))):
            first = baskakov_beta_apply(self.PAIR, f, 8, 1.0, method="quadrature")
            evaluations = len(calls)
            second = baskakov_beta_apply(self.PAIR, f, 8, 1.0, method="quadrature")
            assert baskakov._RUN_CELLS.get().rows == {}
        assert evaluations > 0 and len(calls) == 2 * evaluations
        assert second == first

    def test_a_call_that_raises_is_not_stored(self):
        with baskakov._cell_table(np.array(self.GRID)):
            for _ in range(2):
                with pytest.raises(DomainError):
                    baskakov_beta_apply(self.PAIR, self.F, 2, 1.5)  # n must exceed the degree
            assert baskakov._RUN_CELLS.get().rows == {}


# every operator entry point, called at order n and point x
ENTRIES = {
    "basis": lambda n, x: baskakov.baskakov_basis(PQPair(0.9, 0.8), n, 1, x),
    "plain": lambda n, x: baskakov_apply(PQPair(0.9, 0.8), E[1], n, x),
    "beta": lambda n, x: baskakov_beta_apply(PQPair(0.9, 0.8), E[1], n, x),
    "monomial": lambda n, x: baskakov_beta_monomial_exact(PQPair(0.9, 0.8), 1, n, x),
}


class TestArgumentRules:
    @pytest.mark.parametrize(
        "n, x", [(0, 1.0), (10.5, 1.0), (10, -1.0), (10, math.inf), (10, math.nan)]
    )
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_each_entry_refuses_an_order_or_point_outside_the_domain(self, entry, n, x):
        with pytest.raises(DomainError):
            ENTRIES[entry](n, x)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_a_whole_float_order_is_the_integer_order(self, entry):
        assert ENTRIES[entry](10.0, 2.0) == ENTRIES[entry](10, 2.0)

    @pytest.mark.parametrize(
        "f, n, method",
        [
            (FunctionSpec.polynomial([1.0, 0.0, 0.0, 2.0]), 3, "auto"),
            (FunctionSpec.polynomial([1.0, 0.0, 0.0, 2.0]), 3, "analytic"),
            (FunctionSpec.polynomial([1.0, 0.0, 0.0, 2.0]), 3, "quadrature"),
            (FunctionSpec.named("abs_t_minus_1"), 2, "auto"),
            (lambda t: np.abs(t - 1.0), 2, "quadrature"),
        ],
        ids=["cubic-auto", "cubic-analytic", "cubic-quadrature", "named-kink", "callable"],
    )
    def test_every_route_needs_n_above_the_growth_degree(self, f, n, method):
        pair = PQPair(0.9, 0.8)
        with pytest.raises(DomainError):
            baskakov_beta_apply(pair, f, n, 1.0, method=method)
        assert math.isfinite(baskakov_beta_apply(pair, f, n + 1, 1.0, method=method).value)


class TestCentralMoments:
    def test_first_central_moment_at_origin_classical(self):
        # q p^{n-2} / [n-1] -> 1/4 at n = 5, p = q = 1
        assert central_moment(CLASSICAL, 1, 5, 0.0) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 9, 15])
    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.0, 5.0])
    def test_first_equals_moment_minus_x(self, strict_pair, n, x):
        mu1 = central_moment(strict_pair, 1, n, x)
        want = moments_closed(strict_pair, 1, n, x) - x
        assert mu1 == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 9, 15])
    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.0, 5.0])
    def test_second_equals_binomial_expansion(self, strict_pair, n, x):
        mu2 = central_moment(strict_pair, 2, n, x)
        want = (
            moments_closed(strict_pair, 2, n, x)
            - 2.0 * x * moments_closed(strict_pair, 1, n, x)
            + x * x
        )
        assert rel_err(mu2, want, floor=1e-12) < 1e-10

    def test_second_is_nonnegative(self, strict_pair):
        for n in (3, 8):
            for x in (0.0, 1.0, 4.0):
                assert central_moment(strict_pair, 2, n, x) >= 0.0

    def test_needs_n_above_two(self):
        with pytest.raises(DomainError):
            central_moment(PQPair(0.9, 0.8), 1, 2, 1.0)
        with pytest.raises(DomainError):
            central_moment(PQPair(0.9, 0.8), 3, 5, 1.0)
