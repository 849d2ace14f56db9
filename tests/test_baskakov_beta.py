import math
import random
import warnings
from fractions import Fraction
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqbaskakov import (
    DomainError,
    EvalGrid,
    FunctionSpec,
    ParameterSchedule,
    PQPair,
    RegimeError,
    TruncationPolicy,
    baskakov_apply,
    baskakov_beta_apply,
    baskakov_beta_monomial_exact,
    central_moment,
    convergence_run,
    moments_closed,
    weighted_sup_error,
)

from pqbaskakov import analysis, baskakov, core, quadrature
from pqbaskakov.core import _log_fact_table

from conftest import CLASSICAL, exact_number, exact_numbers, fraction_moment, rel_err

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

    def test_is_the_analytic_route_of_t_to_the_m(self):
        rng = random.Random(0)
        for _ in range(200):
            p = rng.uniform(0.6, 1.0)
            pair = PQPair(p, p * rng.uniform(0.5, 0.99))
            m = rng.randrange(5)
            n = rng.randint(m + 1, 60)
            x = rng.choice([0.0, rng.uniform(0.0, 1.0), rng.uniform(1.0, 20.0)])
            e_m = FunctionSpec.polynomial((0.0,) * m + (1.0,))
            want = baskakov_beta_apply(pair, e_m, n, x, method="analytic").value
            got = baskakov_beta_monomial_exact(pair, m, n, x)
            assert got == want or (math.isnan(got) and math.isnan(want))

    @pytest.mark.parametrize(
        "pair, m, n, x, error",
        [
            (CLASSICAL, 1, 5, 1.0, RegimeError),
            (PQPair(0.8, 0.8), 1, 5, 1.0, RegimeError),
            (PQPair(0.9, 0.8), 3, 3, 1.0, DomainError),  # n must exceed m
            (PQPair(0.9, 0.8), 10**12, 10, 1.0, DomainError),  # refused before t^m is built
            (PQPair(0.9, 0.8), -1, 5, 1.0, DomainError),
            (PQPair(0.9, 0.8), 1.5, 5, 1.0, DomainError),
            (PQPair(0.9, 0.8), math.nan, 5, 1.0, DomainError),
            (PQPair(0.9, 0.8), 1, 0, 1.0, DomainError),
            (PQPair(0.9, 0.8), 1, 5.5, 1.0, DomainError),
            (PQPair(0.9, 0.8), 1, math.inf, 1.0, DomainError),
            (PQPair(0.9, 0.8), 1, 5, -1.0, DomainError),
            (PQPair(0.9, 0.8), 1, 5, math.nan, DomainError),
            (PQPair(0.9, 0.8), 1, 5, math.inf, DomainError),
        ],
    )
    def test_each_invalid_argument_is_refused(self, pair, m, n, x, error):
        with pytest.raises(error):
            baskakov_beta_monomial_exact(pair, m, n, x)


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


ANALYTIC = partial(baskakov_beta_apply, method="analytic")  # the Beta-expansion row sum


class TestExtremeInputs:
    """Inputs whose terms overflow end in an untrusted cell, and numpy does
    not warn on the way (pytest turns any warning into an error)."""

    @pytest.mark.parametrize(
        "apply, pair, f, x",
        [
            (baskakov_beta_apply, PQPair(0.9, 0.8), FunctionSpec.named("abs_t_minus_1"), 1e300),
            (ANALYTIC, PQPair(0.9, 0.8), E[1], 1e300),
            (baskakov_apply, PQPair(0.9, 0.8), E[1], 1e300),
            (ANALYTIC, PQPair(0.9, 1e-300), E[2], 1.0),
            (baskakov_beta_apply, PQPair(0.9, 1e-300), E[2], 1.0),
        ],
        ids=["ladder-huge-x", "analytic-huge-x", "plain-huge-x", "analytic-tiny-q", "closed-tiny-q"],
    )
    def test_untrusted_without_a_warning(self, apply, pair, f, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = apply(pair, f, 10, x)
        assert not res.trusted

    def test_a_tiny_q_is_no_math_domain_error(self):
        # (q - p)/p rounds to -1 at q = 1e-300, and log1p(-1) raised a bare
        # ValueError from every closed form written in <j>
        pair = PQPair(0.9, 1e-300)
        assert moments_closed(pair, 1, 10, 2.0) == pytest.approx(0.9 * 2.0, rel=1e-15)
        assert central_moment(pair, 1, 10, 2.0) == pytest.approx(-0.2, rel=1e-14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not baskakov_apply(pair, E[1], 10, 2.0).trusted

    def test_the_floating_point_state_is_restored(self):
        before = np.geterr()
        baskakov_beta_apply(PQPair(0.9, 0.8), E[1], 10, 1e300)
        assert np.geterr() == before


class TestClosedRoute:
    """The default route of a polynomial: sum_d c_d U_d(x) from the
    coefficients of the moment recurrence, by Horner's rule, with no basis
    row (tests/test_exact_images.py checks its values against exact ones)."""

    def test_huge_x_is_trusted_and_the_closed_moment(self):
        cell = baskakov_beta_apply(PQPair(0.9, 0.8), E[1], 10, 1e300)
        assert cell.trusted
        assert rel_err(cell.value, moments_closed(PQPair(0.9, 0.8), 1, 10, 1e300)) <= 2.3e-16

    def test_tiny_q_is_untrusted_without_a_warning(self):
        # q^{m-1+j} sinks below the smallest double, and a coefficient overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cell = baskakov_beta_apply(PQPair(0.9, 1e-300), E[2], 10, 1.0)
        assert not cell.trusted and not math.isfinite(cell.value)

    @pytest.mark.parametrize("coefficients", [(0.0,), (0.0, 0.0, 0.0, 0.0), (3.0, 0.0, 0.0)])
    def test_the_recurrence_runs_to_the_degree_only(self, coefficients):
        # four zero coefficients at n = 3 would need <0> = 0 as a divisor
        f = FunctionSpec.polynomial(coefficients)
        cell = baskakov_beta_apply(PQPair(0.9, 0.8), f, 3, 2.0)
        assert cell == (coefficients[0], 1, 0.0, True, True)

    def test_the_result_fields(self):
        cells = baskakov_beta_apply(PQPair(0.95, 0.9), POLY, 150, np.array([0.0, 2.5, 60.0]),
                                    TruncationPolicy(max_terms=1))
        assert [cell[1:] for cell in cells] == [(3, 0.0, True, True)] * 3
        assert cells[0].value == baskakov_beta_apply(PQPair(0.95, 0.9), POLY, 150, 0.0).value

    def test_no_basis_row_is_built(self, monkeypatch):
        def kernel(*args):
            raise AssertionError("a polynomial went through the row-sum kernel")

        monkeypatch.setattr(baskakov, "_apply", kernel)
        baskakov_beta_apply(PQPair(0.9, 0.8), POLY, 50, np.linspace(0.0, 5.0, 11))

    @settings(deadline=None, max_examples=100)
    @given(
        pair=st.builds(lambda p, r: PQPair(p, p * r), st.floats(0.5, 1.0), st.floats(1e-3, 0.999)),
        n=st.integers(5, 10**5),
        coefficients=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5),
        xs=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=1, max_size=8),
    )
    def test_each_grid_cell_is_its_one_point_result(self, pair, n, coefficients, xs):
        f = FunctionSpec.polynomial(coefficients)
        cells = baskakov_beta_apply(pair, f, n, np.array(xs))
        assert [repr(cell) for cell in cells] == [repr(baskakov_beta_apply(pair, f, n, x)) for x in xs]


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
            want = fraction_moment(Fraction(pair.p), Fraction(pair.q), m, n, Fraction(x))
            assert got.trusted
            assert rel_err(got.value, float(want)) < 5e-12


def exact_beta_factors(pair, n, m, k_count):
    """q^{2m} p^{m(n+k)} B(k+m+1, n-m) / B(k+1, n) for k < k_count, of the
    pair's exact binary values, with B(a, b) = q^{1-a(a-1)/2} p^{-a(a+1)/2}
    [a-1]! [b-1]! / [a+b-1]!: the two [n+k]! cancel, and of the other
    factorials only m factors [j] each are left."""
    p, q = Fraction(pair.p), Fraction(pair.q)

    def numbers(lo, hi):  # [lo] [lo+1] ... [hi-1]
        return math.prod((p**j - q**j) / (p - q) for j in range(lo, hi))

    def prefactor(a):
        return q ** (1 - a * (a - 1) // 2) / p ** (a * (a + 1) // 2)

    return [
        q ** (2 * m) * p ** (m * (n + k)) * prefactor(k + m + 1) / prefactor(k + 1)
        * numbers(k + 1, k + m + 1) / numbers(n - m, n)
        for k in range(k_count)
    ]


class TestLadderBetaIdentity:
    """For f = t^m the ladder ratio of row k is the exact Beta factor of the
    analytic route times p^{m(n+k)}: an oracle for the quadrature route at
    p < 1 that uses no ladder code (worst seen 7.4e-15, and 6.2e-15 for the
    factor against Fraction)."""

    ROWS = 40

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize(
        "pair, n", [(PQPair(0.9, 0.8), 10), (PQPair(0.9, 0.8), 50), (PQPair(0.95, 0.9), 15)]
    )
    def test_ladder_ratios_are_the_beta_factors(self, pair, n, m):
        e_m = FunctionSpec.polynomial((0.0,) * m + (1.0,))
        ratios, converged = quadrature.batched_weight_ratios(pair, n, self.ROWS, e_m, m)
        lfact = _log_fact_table(pair, n + self.ROWS - 1)
        factors = np.exp(baskakov._log_beta_ratio_factors(pair, n, (m,), self.ROWS, lfact=lfact)[0])
        k = np.arange(self.ROWS)
        assert converged.all()
        assert np.max(np.abs(ratios / (factors * pair.p ** (m * (n + k))) - 1.0)) < 1e-13
        for factor, want in zip(factors.tolist(), exact_beta_factors(pair, n, m, self.ROWS)):
            assert abs(Fraction(factor) / want - 1) < 1e-13


def one_degree_log_factors(pair, n, m, k_count, k_start):
    """log q^{2m} p^{m(n+k)} B(k+m+1, n-m) / B(k+1, n) for one degree m, in
    the association of the analytic route's formula."""
    lp, lq = math.log(pair.p), math.log(pair.q)
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


class TestBetaFactorRows:
    """The analytic route builds the factors of all its degrees in one
    matrix, one row per degree, each bitwise that degree's factors alone."""

    @pytest.mark.parametrize("k_start, k_count", [(0, 64), (64, 128), (5, 7), (0, 1)])
    @pytest.mark.parametrize("degrees", [(0,), (0, 1, 2), (2, 0, 1), (1, 3, 5), (4,)], ids=str)
    @pytest.mark.parametrize(
        "pair, n", [(PQPair(0.9, 0.8), 10), (PQPair(1.0, 0.99), 40), (PQPair(0.95, 0.9), 200)],
        ids=["0.9-0.8", "1-0.99", "0.95-0.9"],
    )
    def test_each_row_is_its_degree_alone(self, pair, n, degrees, k_start, k_count):
        lfact = _log_fact_table(pair, n + k_count - 1)
        matrix = baskakov._log_beta_ratio_factors(pair, n, degrees, k_count, k_start, lfact=lfact)
        assert matrix.shape == (len(degrees), k_count - k_start)
        for m, row, factors in zip(degrees, matrix, np.exp(matrix)):
            alone = one_degree_log_factors(pair, n, m, k_count, k_start)
            assert np.array_equal(row, alone)
            assert np.array_equal(factors, np.exp(alone))

    def test_one_call_per_segment_covers_every_degree(self, monkeypatch):
        calls = []
        real = baskakov._log_beta_ratio_factors

        def recording(pair, n, degrees, k_count, k_start=0, *, lfact):
            calls.append((degrees, k_start, k_count))
            return real(pair, n, degrees, k_count, k_start, lfact=lfact)

        monkeypatch.setattr(baskakov, "_log_beta_ratio_factors", recording)
        f = FunctionSpec.polynomial([7.0, 0.0, 25.0])  # the zero coefficient builds no row
        cell = baskakov_beta_apply(PQPair(0.95, 0.9), f, 20, 60.0, method="analytic")
        assert cell.k_terms_used > 64
        assert calls == [((0, 2), 0, 64), ((0, 2), 64, 128)]


class TestLadderRouteMoments:
    """The quadrature route's own moments at p < 1 are
    M~_m(x) = sum_k b_{n,k}(x) p^{m(n+k)} F_{k,m}, with F_{k,m} the analytic
    route's Beta factor: a check of whole operator values that uses no
    ladder code (worst seen 6e-15).  The sum is taken in log space, shifted
    by its largest term, so that no weight or factor overflows."""

    K = 1024
    XS = np.array([0.5, 1.0, 2.5, 5.0])

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [10, 20, 40])
    @pytest.mark.parametrize("pair", [PQPair(0.9, 0.8), PQPair(0.95, 0.9)], ids=str)
    def test_the_ladder_value_is_the_beta_factor_sum(self, pair, n, m):
        k, lfact = np.arange(self.K), _log_fact_table(pair, n + self.K - 1)
        log_terms = (
            baskakov._log_basis_row(pair, n, self.XS, self.K, lfact=lfact)[0]
            + m * (n + k) * math.log(pair.p)
            + baskakov._log_beta_ratio_factors(pair, n, (m,), self.K, lfact=lfact)[0]
        )
        top = log_terms.max(axis=1)
        want = [math.exp(t) * math.fsum(np.exp(row - t)) for t, row in zip(top, log_terms)]
        e_m = FunctionSpec.polynomial((0.0,) * m + (1.0,))
        cells = baskakov_beta_apply(pair, e_m, n, self.XS, method="quadrature")
        assert all(cell.trusted for cell in cells)
        assert max(abs(cell.value / w - 1.0) for cell, w in zip(cells, want)) < 1e-13


class TestClosedMomentsExact:
    """moments_closed and central_moment against the printed formulas on the
    float pair's exact values.  Each error is taken at the size of the terms
    the value is formed from: |M1| + x for mu1 = M1 - x, and M2 + 2x M1 + x^2
    for mu2 = M2 - 2x M1 + x^2, whose terms cancel by a factor of about n.
    The large orders are past the point (n = 3,558 at (0.9, 0.8)) where
    powers p^n in the printed forms sink below the smallest double."""

    PAIRS = {"0.9-0.8": lambda n: PQPair(0.9, 0.8), "0.95-0.9": lambda n: PQPair(0.95, 0.9),
             "0.9-0.75": lambda n: PQPair(0.9, 0.75), "0.9-0.85": lambda n: PQPair(0.9, 0.85),
             "0.9-0.9": lambda n: PQPair(0.9, 0.9), "1-1": lambda n: PQPair(1.0, 1.0),
             "harmonic": ParameterSchedule.harmonic_decay(0.5, 1.5).pair_at,
             "q_ratio": ParameterSchedule.q_ratio().pair_at}
    NS = (3, 4, 10, 40, 150, 3558, 3559, 8000, 100_000)

    @pytest.mark.parametrize(
        "family, n", [*product(sorted(PAIRS), NS), ("q_ratio", 10**6)]
    )
    def test_moments_match_exact_references(self, family, n):
        pair = self.PAIRS[family](n)
        xs = np.array([0.0, 0.01, 0.25, 1.0, 2.5, 7.0, 1e3])
        got = {"M1": moments_closed(pair, 1, n, xs), "M2": moments_closed(pair, 2, n, xs),
               "mu1": central_moment(pair, 1, n, xs), "mu2": central_moment(pair, 2, n, xs)}
        with exact_numbers(n) as exact:
            p, q = exact(pair.p), exact(pair.q)
            for i, x in enumerate(map(exact, xs.tolist())):
                m1, m2 = (fraction_moment(p, q, m, n, x) for m in (1, 2))
                want = {"M1": (m1, m1), "M2": (m2, m2), "mu1": (m1 - x, abs(m1) + x),
                        "mu2": (m2 - 2 * x * m1 + x * x, m2 + 2 * x * abs(m1) + x * x)}
                for name, (value, scale) in want.items():
                    error = abs(exact(float(got[name][i])) - value) / scale
                    assert error < 1e-15, (name, float(x), float(error))

    @pytest.mark.parametrize(
        "pair, n",
        [(PQPair(0.9, 0.8), 100), (PQPair(1.0 - 0.5 / 1000, 1.0 - 1.5 / 1000), 1000),
         (PQPair(0.999, 0.999), 1000), (PQPair(1.0, 1.0), 3000)]
        + [(ParameterSchedule.q_ratio().pair_at(n), n) for n in (10, 190, 400, 3000)],
        ids=["0.9-0.8", "harmonic-1000", "p=q-1000", "classical-3000",
             "q_ratio-10", "q_ratio-190", "q_ratio-400", "q_ratio-3000"],
    )
    def test_mu2_is_within_a_few_units_of_its_own_value(self, pair, n):
        # mu2's x^2 coefficient, about 2n + 2, is not the difference of terms
        # of about n^2, so mu2 keeps its precision as n grows
        p, q = Fraction(pair.p), Fraction(pair.q)
        xs = np.array([0.5, 5.0])
        for value, x in zip(central_moment(pair, 2, n, xs).tolist(), map(Fraction, xs.tolist())):
            m1, m2 = (fraction_moment(p, q, m, n, x) for m in (1, 2))
            want = m2 - 2 * x * m1 + x * x
            assert abs(Fraction(value) - want) / want < 2e-15, (float(x), value)

    @pytest.mark.parametrize(
        "family, n",
        [("0.9-0.8", 100), ("0.9-0.8", 100_000), ("0.9-0.9", 3000), ("0.9-0.9", 100_000),
         ("1-1", 3000), ("1-1", 10**6)] + [("q_ratio", n) for n in (10, 190, 3000, 100_000, 10**6)],
    )
    def test_mu1_is_within_a_few_units_of_its_own_value(self, family, n):
        # mu1's x coefficient p <n> - <n-1> is q^(n-1) at p = 1 out of terms
        # of about n; taken as that difference it was 4e-13 off mu1 at
        # q_ratio, n = 3,000.  Away from a root of the coefficient (where
        # p r^{n-1} = (1 - p) <n-1>) mu1 keeps its precision
        pair = self.PAIRS[family](n)
        xs = np.array([0.5, 5.0])
        with exact_numbers(n) as exact:
            p, q = exact(pair.p), exact(pair.q)
            for value, x in zip(central_moment(pair, 1, n, xs).tolist(), map(exact, xs.tolist())):
                want = fraction_moment(p, q, 1, n, x) - x
                assert abs(exact(value) - want) / abs(want) < 2e-15, (float(x), value)

    @pytest.mark.parametrize("n", [8000, 100_000])
    @pytest.mark.parametrize("family", sorted(PAIRS))
    def test_plain_operator_closed_forms_at_large_n(self, family, n):
        # with [n] below the smallest double, the node was 0/0 (a numpy
        # RuntimeWarning) and the second moment raised ZeroDivisionError
        pair = self.PAIRS[family](n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nodes = [baskakov.baskakov_node(pair, n, k) for k in (0, 1, 2, 5, 20, 50)]
            xs = (0.0, 0.5, 2.5, 7.0)
            second = [baskakov.baskakov_moment_closed(pair, 2, n, x) for x in xs]
        assert nodes[0] == 0.0
        with exact_numbers(n) as exact:
            p, q = exact(pair.p), exact(pair.q)
            nn = exact_number(p, q, n)
            for k, node in zip((1, 2, 5, 20, 50), nodes[1:]):
                want = p ** (n - 1) * exact_number(p, q, k) / (q ** (k - 1) * nn)
                assert abs(exact(node) / want - 1) < 1e-15, (k, node)
            for x, value in zip(map(exact, xs[1:]), second[1:]):
                want = (exact_number(p, q, n + 1) * x * x + p ** (n - 1) * q * x) / (q * nn)
                assert abs(exact(value) / want - 1) < 1e-15, (float(x), value)
        assert second[0] == 0.0


ABS = FunctionSpec.named("abs_t_minus_1")
POLY = FunctionSpec.polynomial([7.0, -2.0, 25.0])


def recording_builds(monkeypatch):
    """Record the (k_start, k_count) of every sample segment built."""
    builds = []
    real = baskakov._samples

    def recording(pair, n, f, route, k_start, k_count, *, lfact):
        builds.append((k_start, k_count))
        return real(pair, n, f, route, k_start, k_count, lfact=lfact)

    monkeypatch.setattr(baskakov, "_samples", recording)
    return builds


class TestSampleSource:
    """A kernel call grows its own sample vector and log-factorial table, so
    no cell depends on the calls made before it."""

    PAIR = PQPair(0.95, 0.9)

    @pytest.mark.parametrize(
        "f, method", [(POLY, "analytic"), (ABS, "quadrature")], ids=["analytic", "quadrature"]
    )
    @pytest.mark.parametrize("x", [0.0, 0.05, 20.0])
    def test_warm_result_equals_cold(self, f, method, x):
        cold = baskakov_beta_apply(self.PAIR, f, 20, x, method=method)
        for other in (0.0, 0.05, 20.0, 3.0):
            baskakov_beta_apply(self.PAIR, f, 20, other, method=method)
        warm = baskakov_beta_apply(self.PAIR, f, 20, x, method=method)
        assert warm == cold  # every OperatorResult field, exactly

    @pytest.mark.parametrize("apply", [baskakov.baskakov_apply, ANALYTIC],
                             ids=["baskakov_apply", "baskakov_beta_apply"])
    @pytest.mark.parametrize("x, k_count", [(1e-3, 64), (1.0, 256), (5.0, 512), (20.0, 1024)])
    def test_samples_grow_to_the_row_length_only(self, monkeypatch, apply, x, k_count):
        # the q_ratio schedule at n = 150, where rows grow to 1,024 terms
        pair = PQPair(1.0, 150 / 151)
        builds = recording_builds(monkeypatch)
        cold = apply(pair, POLY, 150, x)
        lengths = [64 << i for i in range(k_count.bit_length() - 6)]
        assert builds == list(zip([0] + lengths[:-1], lengths))  # each new k once
        for other in (1e-3, 1.0, 5.0, 20.0, 3.0):
            apply(pair, POLY, 150, other)
        assert apply(pair, POLY, 150, x) == cold

    @pytest.mark.parametrize("xs, k_counts", [([60.0], [64, 128]), ([0.0, 60.0], [64, 64, 128])])
    def test_the_log_factorial_table_grows_with_the_row(self, monkeypatch, xs, k_counts):
        # per segment (and for the x = 0 samples) the call extends its own
        # table to j = n + k_count - 1, and the next call starts afresh
        real, calls = baskakov._log_fact_table, []

        def recording(pair, n, table):
            grown = real(pair, n, table)
            calls.append((n, table.size, grown.size))
            return grown

        monkeypatch.setattr(baskakov, "_log_fact_table", recording)
        f = FunctionSpec.polynomial([7.0, 0.0, 25.0])
        for _ in range(2):
            calls.clear()
            cells = baskakov_beta_apply(self.PAIR, f, 20, np.array(xs), method="analytic")
            assert max(cell.k_terms_used for cell in cells) > 64
            assert [n for n, _, _ in calls] == [20 + k_count - 1 for k_count in k_counts]
            sizes = [1] + [grown for _, _, grown in calls]
            assert [given for _, given, _ in calls] == sizes[:-1]
            assert sizes[1:] == [max(given, n + 1) for n, given, _ in calls]

    def test_calls_at_another_pair_in_between_change_nothing(self):
        """Pair A, then B, then A: A's cells are bitwise the same, and no
        module attribute is rebound, nor any module-level array changed."""
        modules = (core, quadrature, baskakov)
        before = {(m.__name__, name): value for m in modules for name, value in vars(m).items()}
        arrays = {key: value.tobytes() for key, value in before.items() if isinstance(value, np.ndarray)}
        assert arrays  # core's empty table, also imported into baskakov
        grid = np.linspace(0.0, 20.0, 9)

        def cells(pair):
            return (
                baskakov_beta_apply(pair, POLY, 30, grid),
                baskakov_beta_apply(pair, ABS, 30, grid),
                baskakov_apply(pair, POLY, 30, grid),
                baskakov.baskakov_basis(pair, 30, 7, 2.0),
                core.log_pq_factorial(pair, 500),
            )

        first = cells(PQPair(0.95, 0.9))
        cells(PQPair(1.0, 40 / 41))
        assert cells(PQPair(0.95, 0.9)) == first  # every field, exactly
        after = {(m.__name__, name): value for m in modules for name, value in vars(m).items()}
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())
        assert all(after[key].tobytes() == data for key, data in arrays.items())

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


class TestNoRework:
    """Each sample of a (pair, n, f) grid row is built once, by appending
    the new rows of each longer segment, and the segments concatenate to
    the one-shot vector.  A per-point loop does so only inside an open
    cell table, which answers it from one grid-row evaluation."""

    PAIR, N = PQPair(0.95, 0.9), 20
    GRID = np.linspace(0.0, 60.0, 21)

    def evaluate_row(self, f, method, grid_call):
        if grid_call:
            return baskakov_beta_apply(self.PAIR, f, self.N, self.GRID, method=method)
        with baskakov._cell_table(self.GRID):
            return [baskakov_beta_apply(self.PAIR, f, self.N, float(x), method=method)
                    for x in self.GRID]

    @pytest.mark.parametrize("grid_call", [True, False], ids=["grid", "per-point"])
    def test_ladder_rows_are_built_once(self, monkeypatch, grid_call):
        rows = []
        real = quadrature._band_sums

        def recording(pair, n, ks, *rest):
            rows.extend(ks.tolist())
            return real(pair, n, ks, *rest)

        monkeypatch.setattr(quadrature, "_band_sums", recording)
        cells = self.evaluate_row(ABS, "quadrature", grid_call)
        assert max(c.k_terms_used for c in cells) > 64  # two segments
        assert sorted(rows) == list(range(128))

    @pytest.mark.parametrize("grid_call", [True, False], ids=["grid", "per-point"])
    def test_beta_factors_are_built_once(self, monkeypatch, grid_call):
        rows = {}
        real = baskakov._log_beta_ratio_factors

        def recording(pair, n, degrees, k_count, k_start=0, *, lfact):
            for m in degrees:
                rows[m] = rows.get(m, 0) + k_count - k_start
            return real(pair, n, degrees, k_count, k_start, lfact=lfact)

        monkeypatch.setattr(baskakov, "_log_beta_ratio_factors", recording)
        cells = self.evaluate_row(POLY, "analytic", grid_call)
        assert max(c.k_terms_used for c in cells) > 64  # two segments
        assert rows == {0: 128, 1: 128, 2: 128}

    def test_segments_equal_the_one_shot_vectors(self):
        pair, n, k_count = self.PAIR, self.N, 512
        coeffs = tuple(enumerate(POLY.as_polynomial()))
        lfact = _log_fact_table(pair, n + k_count - 1)
        one_shot = {
            "nodes": np.asarray(POLY.evaluate(baskakov._nodes(pair, n, np.arange(k_count, dtype=float)))),
            "analytic": sum(
                c * np.exp(baskakov._log_beta_ratio_factors(pair, n, (d,), k_count, lfact=lfact)[0])
                for d, c in coeffs
            ),
        }
        for f, route in ((POLY, "nodes"), (POLY, "analytic"), (ABS, "quadrature")):
            segments = [baskakov._samples(pair, n, f, route, k_start, k_count, lfact=lfact)
                        for k_start, k_count in ((0, 64), (64, 128), (128, 256), (256, 512))]
            s, ok = (np.concatenate(parts) for parts in zip(*segments))
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


def _counting_evaluations(monkeypatch):
    """Replace the grid evaluations of baskakov, the row-sum kernel and the
    closed route of polynomials, by ones that record their calls'
    (n, grid points) and whether a cell table was open."""
    calls = []
    kernel, closed = baskakov._apply, baskakov._closed

    def record(n, xs):
        calls.append((n, tuple(xs.tolist()), baskakov._RUN_CELLS.get() is not None))

    def counting_kernel(pair, n, f, route, xs, policy):
        record(n, xs)
        return kernel(pair, n, f, route, xs, policy)

    def counting_closed(pair, n, f, xs):
        record(n, xs)
        return closed(pair, n, f, xs)

    monkeypatch.setattr(baskakov, "_apply", counting_kernel)
    monkeypatch.setattr(baskakov, "_closed", counting_closed)
    return calls


class TestCellTable:
    PAIR = PQPair(0.95, 0.9)
    F = FunctionSpec.polynomial([7.0, -2.0, 25.0])
    GRID = (0.0, 1.5, 3.0)

    def test_inside_a_table_a_repeated_cell_is_a_lookup(self, monkeypatch):
        calls = _counting_evaluations(monkeypatch)
        with baskakov._cell_table(np.array(self.GRID)):
            first = baskakov_beta_apply(self.PAIR, self.F, 10, 1.5)
            again = baskakov_beta_apply(self.PAIR, self.F, 10, 1.5)
            origin = baskakov_beta_apply(self.PAIR, self.F, 10, 0.0)
            other = baskakov_beta_apply(self.PAIR, self.F, 10, 1.5, TruncationPolicy(rel_tol=1e-10))
        assert again is first and other == first
        # one grid evaluation per grid row; the other policy is another row
        assert calls == [(10, self.GRID, True)] * 2
        assert first == baskakov_beta_apply(self.PAIR, self.F, 10, 1.5)
        assert origin == baskakov_beta_apply(self.PAIR, self.F, 10, 0.0)
        assert baskakov._RUN_CELLS.get() is None  # dropped on exit

    def test_the_cells_of_one_row_hash_its_key_at_most_twice(self):
        hashes = []

        class Method(str):
            def __hash__(self):
                hashes.append(self)
                return str.__hash__(self)

        method = Method("auto")
        with baskakov._cell_table(np.array(self.GRID)):
            cells = [baskakov_beta_apply(self.PAIR, self.F, 10, x, method=method)
                     for _ in range(2) for x in self.GRID]
        # the first lookup finds no row and stores it; the others reuse it
        assert 1 <= len(hashes) <= 2
        assert cells == 2 * baskakov_beta_apply(self.PAIR, self.F, 10, np.array(self.GRID))

    def test_a_point_off_the_grid_is_computed_afresh(self, monkeypatch):
        calls = _counting_evaluations(monkeypatch)
        with baskakov._cell_table(np.array(self.GRID)):
            for _ in range(2):
                baskakov_beta_apply(self.PAIR, self.F, 10, 2.0)
            assert baskakov._RUN_CELLS.get().rows == {}
        assert calls == [(10, (2.0,), True)] * 2

    def test_calls_outside_a_run_both_recompute(self, monkeypatch):
        calls = _counting_evaluations(monkeypatch)
        baskakov_beta_apply(self.PAIR, self.F, 10, 1.5)
        baskakov_beta_apply(self.PAIR, self.F, 10, 1.5)
        assert calls == [(10, (1.5,), False)] * 2
        # a result kept across direct calls would hide this change
        before = baskakov_beta_apply(self.PAIR, ABS, 10, 1.0, method="quadrature")
        monkeypatch.setattr(quadrature, "_LADDER_NODES", 5)
        after = baskakov_beta_apply(self.PAIR, ABS, 10, 1.0, method="quadrature")
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

    def test_a_nested_table_on_an_equal_grid_is_the_open_one(self, monkeypatch):
        calls = _counting_evaluations(monkeypatch)
        with baskakov._cell_table(np.array(self.GRID)):
            outer = baskakov._RUN_CELLS.get()
            first = baskakov_beta_apply(self.PAIR, self.F, 10, 1.5)
            with baskakov._cell_table(np.array(self.GRID)):
                assert baskakov._RUN_CELLS.get() is outer
                assert baskakov_beta_apply(self.PAIR, self.F, 10, 1.5) is first
                baskakov_beta_apply(self.PAIR, self.F, 10, 3.0)
            assert baskakov._RUN_CELLS.get() is outer
        assert calls == [(10, self.GRID, True)]
        assert baskakov._RUN_CELLS.get() is None

    def test_a_nested_table_on_another_grid_is_dropped_on_exit(self, monkeypatch):
        calls = _counting_evaluations(monkeypatch)
        other = (0.0, 2.0)
        with baskakov._cell_table(np.array(self.GRID)):
            outer = baskakov._RUN_CELLS.get()
            first = baskakov_beta_apply(self.PAIR, self.F, 10, 1.5)
            with baskakov._cell_table(np.array(other)):
                assert baskakov._RUN_CELLS.get() is not outer
                baskakov_beta_apply(self.PAIR, self.F, 10, 2.0)
                baskakov_beta_apply(self.PAIR, self.F, 10, 1.5)  # off this grid
            assert baskakov._RUN_CELLS.get() is outer and len(outer.rows) == 1
            assert baskakov_beta_apply(self.PAIR, self.F, 10, 1.5) is first
        assert calls == [(10, self.GRID, True), (10, other, True), (10, (1.5,), True)]
        assert baskakov._RUN_CELLS.get() is None

    @pytest.mark.parametrize("f", [F, ABS], ids=["closed", "quadrature"])
    def test_analysis_evaluates_each_grid_row_once(self, monkeypatch, f):
        # outside a run, each row of convergence_run and weighted_sup_error
        # is one grid evaluation
        grid = EvalGrid(0.0, 3.0, 7)
        xs = tuple(grid.array().tolist())
        cells = []
        real = analysis.baskakov_beta_apply

        def recording(pair, f, n, x, policy):
            cells.append((pair, n, x, policy, real(pair, f, n, x, policy)))
            return cells[-1][-1]

        monkeypatch.setattr(analysis, "baskakov_beta_apply", recording)
        calls = _counting_evaluations(monkeypatch)
        convergence_run(ParameterSchedule.fixed(self.PAIR), f, [5, 10], grid)
        weighted_sup_error(self.PAIR, 10, f, grid)
        assert calls == [(5, xs, True), (10, xs, True), (10, xs, True)]
        assert [(n, x) for _, n, x, _, _ in cells] == [(n, x) for n in (5, 10, 10) for x in xs]
        for pair, n, x, policy, cell in cells:
            alone = baskakov_beta_apply(pair, f, n, x, policy)
            assert repr(cell) == repr(alone)  # bitwise, every field
        assert baskakov._RUN_CELLS.get() is None


# every operator entry point, called at order n and point x
ENTRIES = {
    "basis": lambda n, x: baskakov.baskakov_basis(PQPair(0.9, 0.8), n, 1, x),
    "plain": lambda n, x: baskakov_apply(PQPair(0.9, 0.8), E[1], n, x),
    "beta": lambda n, x: baskakov_beta_apply(PQPair(0.9, 0.8), E[1], n, x),
    "monomial": lambda n, x: baskakov_beta_monomial_exact(PQPair(0.9, 0.8), 1, n, x),
}


# every closed moment expression at order 10, called at point x
CLOSED = {
    "moments_closed-0": lambda x: moments_closed(PQPair(0.9, 0.8), 0, 10, x),
    "moments_closed-2": lambda x: moments_closed(PQPair(0.9, 0.8), 2, 10, x),
    "central_moment-1": lambda x: central_moment(PQPair(0.9, 0.8), 1, 10, x),
    "central_moment-2": lambda x: central_moment(PQPair(0.9, 0.8), 2, 10, x),
    "plain-0": lambda x: baskakov.baskakov_moment_closed(PQPair(0.9, 0.8), 0, 10, x),
    "plain-2": lambda x: baskakov.baskakov_moment_closed(PQPair(0.9, 0.8), 2, 10, x),
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

    @pytest.mark.parametrize("x", [2, np.float64(2.0), np.int64(2), np.array(2.0)],
                             ids=["int", "float64", "int64", "0-d"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_any_one_point_is_one_result(self, entry, x):
        assert ENTRIES[entry](10, x) == ENTRIES[entry](10, 2.0)

    @pytest.mark.parametrize(
        "xs",
        [np.ones((2, 2)), np.array([1.0, math.nan, 2.0]), np.array([0.5, math.inf]),
         np.array([1.0, -1.0])],
        ids=["2-d", "nan-inside", "inf-inside", "negative-inside"],
    )
    @pytest.mark.parametrize("entry", ["beta", "plain"])
    def test_each_grid_entry_refuses_a_grid_outside_the_domain(self, entry, xs):
        with pytest.raises(DomainError):
            ENTRIES[entry](10, xs)

    @pytest.mark.parametrize("entry", ["beta", "plain"])
    def test_an_empty_grid_has_no_results(self, entry):
        assert ENTRIES[entry](10, np.array([])) == []

    @pytest.mark.parametrize("x", [1.0, np.array([])], ids=["point", "empty-grid"])
    @pytest.mark.parametrize("apply", [baskakov_apply, baskakov_beta_apply])
    def test_each_grid_entry_refuses_a_target_that_is_not_a_function(self, apply, x):
        with pytest.raises(DomainError):
            apply(PQPair(0.9, 0.8), 3.0, 10, x)

    @pytest.mark.parametrize("xs", [np.array([1.0, 2.0]), np.ones((2, 2))], ids=["2-point", "2-d"])
    @pytest.mark.parametrize("entry", ["basis", "monomial"])
    def test_each_one_point_entry_refuses_an_array(self, entry, xs):
        with pytest.raises(DomainError):
            ENTRIES[entry](10, xs)

    @pytest.mark.parametrize("x", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("grid", [False, True], ids=["float", "array"])
    @pytest.mark.parametrize("entry", sorted(CLOSED))
    def test_each_closed_moment_refuses_a_point_outside_the_domain(self, entry, grid, x):
        with pytest.raises(DomainError):
            CLOSED[entry](np.array([1.0, x]) if grid else x)

    @pytest.mark.parametrize("entry", [e for e in sorted(CLOSED) if not e.startswith("plain")])
    def test_a_closed_moment_keeps_the_shape_of_x(self, entry):
        assert isinstance(CLOSED[entry](2.0), float)
        grid = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        got = CLOSED[entry](grid)
        assert got.shape == grid.shape
        assert all(g == CLOSED[entry](x) for g, x in zip(got.ravel(), grid.ravel().tolist()))

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
