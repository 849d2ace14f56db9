import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqbaskakov import (
    DomainError,
    FunctionSpec,
    PQPair,
    RegimeError,
    baskakov_beta_apply,
    baskakov_beta_monomial_exact,
    central_moment,
    moments_closed,
)

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
