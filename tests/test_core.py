import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pqbaskakov import (
    DomainError,
    PQPair,
    RegimeError,
    TruncationPolicy,
    pq_beta,
    pq_binomial,
    pq_derivative,
    pq_factorial,
    pq_gamma,
    pq_number,
    pq_power_basis,
    pq_power_basis_log,
)

from pqbaskakov import core

from conftest import CLASSICAL, STRICT_PAIRS, rel_err


class TestPQPair:
    def test_rejects_nonpositive_q(self):
        with pytest.raises(RegimeError):
            PQPair(0.9, 0.0)
        with pytest.raises(RegimeError):
            PQPair(0.9, -0.1)

    def test_rejects_p_above_one(self):
        with pytest.raises(RegimeError):
            PQPair(1.1, 0.9)

    def test_rejects_q_above_p(self):
        with pytest.raises(RegimeError):
            PQPair(0.8, 0.9)

    def test_degenerate_line_is_allowed_but_not_strict(self):
        pair = PQPair(0.5, 0.5)
        assert not pair.is_strict
        with pytest.raises(RegimeError):
            pair.require_strict()

    def test_classical_corner(self):
        assert CLASSICAL.is_classical
        assert not PQPair(1.0, 0.9).is_classical

    def test_a_nan_parameter_is_refused(self):
        with pytest.raises(RegimeError):
            PQPair(math.nan, 0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: core.log_pq_number(PQPair(0.9, 0.8), 0),
        lambda: pq_power_basis_log(PQPair(0.9, 0.8), -1.0, 3),
    ],
    ids=["log-of-[0]", "log-power-basis-at-negative-x"],
)
def test_an_argument_outside_the_domain_is_refused(call):
    with pytest.raises(DomainError):
        call()


class TestTruncationPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"abs_tol": -1e-3},
            {"max_terms": 0},
            # a fractional budget made the operators raise TypeError, and a
            # NaN one was silently ignored
            {"max_terms": 2.5},
            {"max_terms": math.nan},
            {"max_terms": math.inf},
            # an infinite tolerance stopped a Jackson ladder after 3 terms as
            # converged (e2 on [0, 2] at (0.9, 0.8): 2.409, exact 3.687)
            {"rel_tol": math.inf},
            {"abs_tol": math.inf},
            {"rel_tol": math.nan},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(DomainError):
            TruncationPolicy(**kwargs)

    def test_a_whole_float_budget_is_stored_as_an_int(self):
        policy = TruncationPolicy(max_terms=64.0)
        assert type(policy.max_terms) is int and policy == TruncationPolicy(max_terms=64)


class TestNumbers:
    def test_classical_is_the_integer(self):
        assert pq_number(CLASSICAL, 5) == 5.0

    def test_direct_summation_examples(self):
        pair = PQPair(0.9, 0.8)
        # 0.9 + 0.8 and 0.81 + 0.72 + 0.64
        assert pq_number(pair, 2) == pytest.approx(1.7, rel=1e-14)
        assert pq_number(pair, 3) == pytest.approx(2.17, rel=1e-14)

    def test_zero(self):
        assert pq_number(PQPair(0.95, 0.9), 0) == 0.0

    def test_degenerate_line_limit(self):
        pair = PQPair(0.7, 0.7)
        assert pq_number(pair, 4) == pytest.approx(4 * 0.7**3, rel=1e-14)

    @pytest.mark.parametrize("pair", STRICT_PAIRS + [CLASSICAL, PQPair(0.7, 0.7)])
    def test_recurrences(self, pair):
        # [n] = p [n-1] + q^{n-1}  and  [n] = q [n-1] + p^{n-1}
        for n in range(1, 51):
            prev = pq_number(pair, n - 1)
            val = pq_number(pair, n)
            assert val == pytest.approx(pair.p * prev + pair.q ** (n - 1), rel=1e-12, abs=1e-300)
            assert val == pytest.approx(pair.q * prev + pair.p ** (n - 1), rel=1e-12, abs=1e-300)

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.floats(0.9, 1.0),
        gap=st.one_of(st.floats(1e-15, 1e-9), st.floats(1e-9, 0.5)),
        n=st.one_of(st.integers(1, 50), st.integers(50, 1000)),
    )
    def test_matches_exact_near_p_equals_q_and_at_large_n(self, p, gap, n):
        # p^n - q^n cancels near p = q: at q/p = 1 - 1.1e-11 the plain
        # difference quotient was 1.2e-6 off at n = 2 and 2.7e-9 at n = 1,000
        q = p * (1.0 - gap)
        assume(q < p)
        fp, fq = Fraction(p), Fraction(q)
        exact = (fp**n - fq**n) / (fp - fq)
        assert abs(Fraction(pq_number(PQPair(p, q), n)) / exact - 1) < 2e-15

    @pytest.mark.parametrize("n", [2, 1000])
    def test_near_p_equals_q_example(self, n):
        p = 0.9
        q = p * (1.0 - 1.1e-11)
        fp, fq = Fraction(p), Fraction(q)
        exact = (fp**n - fq**n) / (fp - fq)
        assert abs(Fraction(pq_number(PQPair(p, q), n)) / exact - 1) < 1e-15

    @settings(max_examples=100, deadline=None)
    @given(
        pair=st.one_of(st.sampled_from(STRICT_PAIRS + [CLASSICAL, PQPair(0.9, 1e-300)]),
                       st.builds(lambda p, r: PQPair(p, p * r), st.floats(0.5, 1.0), st.floats(1e-3, 1.0))),
        js=st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
    )
    def test_the_whole_and_list_forms_are_libm_and_the_array_form_numpy(self, pair, js):
        p, q = pair.p, pair.q
        if p == q:
            assert core._normalised_number(p, q, js) == js
            return
        rate = core._log_ratio(p, q)
        want = [math.expm1(j * rate) / math.expm1(rate) for j in js]
        got = [core._normalised_number(p, q, j) for j in js]
        assert all(type(v) is float for v in got)
        assert repr(got) == repr(want)
        assert repr(core._normalised_number(p, q, js)) == repr(want)
        # the array form, as the plain operator's nodes take it at 1/r too,
        # where (1/r)^j overflows to inf under the caller's np.errstate
        for a, b in ((p, q), (q, p)):
            rate = core._log_ratio(a, b)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(over="ignore"):
                    got = core._normalised_number(a, b, np.array(js))
                    want = np.expm1(np.array(js) * rate) / math.expm1(rate)
            assert got.tobytes() == want.tobytes()
            overflows = np.array(js) * rate > math.log(np.finfo(float).max)
            assert np.isinf(got[overflows]).all() and np.isfinite(got[~overflows]).all()

    @settings(max_examples=200, deadline=None)
    @given(st.builds(lambda p, r: PQPair(p, p * r), st.floats(1e-3, 1.0), st.floats(1e-12, 1.0, exclude_max=True)))
    @example(PQPair(0.8645471331263878, 0.4681191420938553))
    def test_the_first_number_is_exactly_one(self, pair):
        # <1> = expm1(log r) / d is exactly 1 only when d is expm1(log r)
        # itself: d = (q - p)/p leaves it one ulp below 1 at the example
        assume(pair.is_strict)
        assert pq_number(pair, 1) == 1.0
        assert core.log_pq_number(pair, 1) == 0.0

    def test_classical_limit_along_q_equals_p_squared(self):
        n = 7
        errors = [abs(pq_number(PQPair(p, p * p), n) - n) for p in (0.9, 0.99, 0.999)]
        assert errors[0] > errors[1] > errors[2]


class TestFactorial:
    def test_empty_product(self):
        assert pq_factorial(PQPair(0.9, 0.8), 0) == 1.0

    def test_classical(self):
        assert pq_factorial(CLASSICAL, 4) == pytest.approx(24.0, rel=1e-14)

    def test_product_of_numbers(self):
        pair = PQPair(0.9, 0.8)
        assert pq_factorial(pair, 3) == pytest.approx(1.0 * 1.7 * 2.17, rel=1e-13)

    def test_overflow_is_inf(self):
        # 200! is beyond the double range: inf, not an OverflowError
        assert pq_factorial(CLASSICAL, 200) == math.inf

    # at (0.999, 0.99) [j] peaks at j = 255 and falls below 1 after j = 4,708,
    # where log [n]! peaks (10,908); the running product overflows long
    # before n = 9,365, where [n]! is e^57.39 again, and log [20,000]! = -106,078
    @pytest.mark.parametrize("n, want", [(5_000, math.inf), (20_000, 0.0), (800_000, 0.0)])
    def test_a_product_that_overflows_and_shrinks_follows_the_log(self, n, want):
        pair = PQPair(0.999, 0.99)
        assert abs(core.log_pq_factorial(pair, n)) > 745.2  # beyond both ends of the double range
        assert pq_factorial(pair, n) == want

    def test_the_product_stops_at_its_first_overflow(self, monkeypatch):
        # at (0.999, 0.99) the running product is inf from j = 188 on, and the
        # answer comes from log [n]!, so the other 799,812 factors are not taken
        real, taken = core.pq_number, []
        monkeypatch.setattr(core, "pq_number", lambda pair, j: taken.append(j) or real(pair, j))
        assert pq_factorial(PQPair(0.999, 0.99), 800_000) == 0.0
        assert taken == list(range(1, 189))

    def test_a_product_that_overflows_and_shrinks_back_into_range(self):
        mp = pytest.importorskip("mpmath")
        pair, n = PQPair(0.999, 0.99), 9_365
        with mp.workdps(30):
            p, q = mp.mpf(pair.p), mp.mpf(pair.q)
            want = mp.exp(mp.fsum(mp.log((p**j - q**j) / (p - q)) for j in range(1, n + 1)))
            error = float(abs(mp.mpf(pq_factorial(pair, n)) - want) / want)
        # the bound of the pq_factorial docstring; about 6e-12 is seen here.  Entry
        # j of the table is bitwise log_pq_factorial(pair, j)
        bound = n * 2.0**-53 * float(np.abs(core._log_fact_table(pair, n)).max())
        assert error < bound < 1.2e-8

    def test_classical_170_matches_the_integer_factorial(self):
        assert pq_factorial(CLASSICAL, 170) == pytest.approx(math.factorial(170), rel=1e-14)

    @pytest.mark.parametrize(
        "pq, n", [((1.0, 40 / 41), 170), ((0.95, 0.9), 170), ((0.9, 0.8), 100), ((0.9, 0.8), 10)]
    )
    def test_matches_the_exact_product_at_large_n(self, pq, n):
        # the exact rational [n]! of the float pair: with p = A/D and q = B/D
        # over one power of two D, [j] = (A^j - B^j) / ((A - B) D^(j-1)), so
        # [n]! is an integer over D^(n(n-1)/2)
        pair = PQPair(*pq)
        (a, d_p), (b, d_q) = pair.p.as_integer_ratio(), pair.q.as_integer_ratio()
        d = max(d_p, d_q)
        big_a, big_b = a * (d // d_p), b * (d // d_q)
        num = math.prod((big_a**j - big_b**j) // (big_a - big_b) for j in range(1, n + 1))
        den = d ** (n * (n - 1) // 2)
        got, got_den = pq_factorial(pair, n).as_integer_ratio()
        # int / int rounds the exact ratio once
        error = abs(got * den - num * got_den) / (num * got_den)
        assert error < 1e-14


class TestLogFactCache:
    """_log_fact_table is a pure builder: it keeps no table between calls."""

    @staticmethod
    def log_factorial(pair, n):
        return sum(math.log(pq_number(pair, j)) for j in range(1, n + 1))

    def test_a_return_to_an_earlier_pair_rebuilds_the_same_table(self):
        first, second = PQPair(0.9, 0.8), PQPair(0.95, 0.9)
        table = core._log_fact_table(first, 9)
        core._log_fact_table(second, 9)
        rebuilt = core._log_fact_table(first, 9)
        assert rebuilt is not table
        assert rebuilt.tobytes() == table.tobytes()
        assert rel_err(float(rebuilt[9]), self.log_factorial(first, 9)) < 1e-13

    @pytest.mark.parametrize("pair", [PQPair(0.9, 0.8), PQPair(1.0, 150 / 151), PQPair(0.7, 0.7), CLASSICAL])
    def test_every_table_starts_the_running_sum_of_log_numbers(self, pair):
        want = [0.0]
        for j in range(1, 301):
            want.append(want[-1] + core.log_pq_number(pair, j))
        assert core._log_fact_table(pair, 300).tolist() == want
        for n in (0, 1, 3, 64, 65, 67):
            assert core._log_fact_table(pair, n).tolist() == want[: n + 1]

    @pytest.mark.parametrize(
        "pair", [PQPair(0.9, 0.8), PQPair(1.0, 150 / 151), PQPair(0.7, 0.7), PQPair(0.5, 1e-3), CLASSICAL],
        ids=str,
    )
    def test_each_log_number_is_the_scalar_math_expression(self, pair):
        """The vectorized terms are bitwise the one-j-at-a-time expression in
        math, (j-1) log p + log <j>, with <j> from ``_normalised_number``."""
        p, q = pair.p, pair.q
        lp = math.log(p)

        def scalar(j):
            return (j - 1) * lp + math.log(core._normalised_number(p, q, j))

        for js in (range(1, 2), range(1, 700), range(64, 129), range(5, 5)):
            assert core._log_pq_terms(pair, js).tolist() == [scalar(j) for j in js]
        for j in (1, 2, 65, 5000):
            assert core.log_pq_number(pair, j) == scalar(j)

    @pytest.mark.parametrize(
        "pair", [PQPair(1.0, n / (n + 1)) for n in (10, 100, 1000, 10_000)] + [PQPair(0.999, 0.99)], ids=str
    )
    def test_each_log_number_is_within_2e_15_of_the_exact_one(self, pair):
        # worst seen 6.5e-16 (n = 10^4, near r = 1) and 9.9e-16 at
        # (0.999, 0.99).  At (0.9, 0.8) the rounding of (j-1) log p alone is
        # 4.7e-14 by j = 3,000, so that pair is not taken
        mp = pytest.importorskip("mpmath")
        got = core._log_pq_terms(pair, range(1, 3001)).tolist()
        with mp.workdps(50):
            p, q = mp.mpf(pair.p), mp.mpf(pair.q)
            number, q_power, worst = mp.mpf(1), mp.mpf(1), 0.0
            for value in got:
                worst = max(worst, abs(float(mp.log(number) - value)))
                q_power *= q
                number = p * number + q_power  # [j+1] = p [j] + q^j
        assert worst <= 2e-15


class TestBinomial:
    def test_boundary(self):
        assert pq_binomial(PQPair(0.95, 0.9), 7, 0) == pytest.approx(1.0, rel=1e-12)

    def test_classical(self):
        assert pq_binomial(CLASSICAL, 5, 2) == pytest.approx(10.0, rel=1e-12)

    def test_factorial_ratio(self):
        pair = PQPair(0.9, 0.8)
        assert pq_binomial(pair, 3, 1) == pytest.approx(2.17, rel=1e-12)

    def test_rejects_r_above_n(self):
        with pytest.raises(DomainError):
            pq_binomial(CLASSICAL, 3, 4)

    @pytest.mark.parametrize("n, r", [(5, -1), (5.5, 2), (0, -2), (3, 4)])
    @pytest.mark.parametrize("binomial", [pq_binomial, core.log_pq_binomial])
    def test_rejects_anything_but_whole_r_in_zero_to_n(self, binomial, n, r):
        with pytest.raises(DomainError):
            binomial(PQPair(0.9, 0.8), n, r)

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(0, 40), r=st.integers(0, 40))
    def test_symmetry(self, n, r):
        if r > n:
            n, r = r, n
        for pair in STRICT_PAIRS:
            lhs = pq_binomial(pair, n, r)
            rhs = pq_binomial(pair, n, n - r)
            assert rel_err(lhs, rhs) < 1e-12

    def test_classical_170_choose_85_matches_the_integer(self):
        want = math.comb(170, 85)
        assert abs(Fraction(pq_binomial(CLASSICAL, 170, 85)) - want) / want < 1e-13

    def test_matches_the_exact_ratio_of_products(self):
        pair = PQPair(1.0, 0.9)
        want = exact_factorial(pair, 80) / exact_factorial(pair, 40) ** 2
        assert abs(Fraction(pq_binomial(pair, 80, 40)) - want) / want < 5e-15


def exact_factorial(pair, n):
    """[n]! of the float pair's exact binary values, as a Fraction."""
    p, q = Fraction(pair.p), Fraction(pair.q)
    return math.prod((sum(p ** (j - 1 - i) * q**i for i in range(j)) for j in range(1, n + 1)),
                     start=Fraction(1))


class TestGamma:
    def test_gamma_one(self):
        assert pq_gamma(PQPair(0.9, 0.8), 1) == 1.0

    def test_classical_gamma_five(self):
        assert pq_gamma(CLASSICAL, 5) == pytest.approx(24.0, rel=1e-14)

    def test_equals_factorial(self):
        pair = PQPair(0.9, 0.8)
        assert pq_gamma(pair, 4) == pytest.approx(pq_factorial(pair, 3), rel=1e-14)

    @pytest.mark.parametrize("pair", STRICT_PAIRS)
    def test_functional_equation(self, pair):
        for n in range(1, 31):
            lhs = pq_gamma(pair, n + 1)
            rhs = pq_number(pair, n) * pq_gamma(pair, n)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    def test_rejects_arguments_below_one(self):
        with pytest.raises(DomainError):
            pq_gamma(CLASSICAL, 0)


class TestPowerBasis:
    def test_x_zero_gives_p_powers(self, strict_pair):
        want = strict_pair.p**3  # p^0 p^1 p^2
        assert pq_power_basis(strict_pair, 0.0, 3) == pytest.approx(want, rel=1e-14)

    def test_classical_binomial_power(self):
        assert pq_power_basis(CLASSICAL, 2.0, 4) == pytest.approx(81.0, rel=1e-14)

    def test_two_factor_product(self):
        pair = PQPair(0.9, 0.8)
        assert pq_power_basis(pair, 1.0, 2) == pytest.approx(2.0 * 1.7, rel=1e-14)

    def test_empty_product(self):
        assert pq_power_basis(PQPair(0.9, 0.8), 3.7, 0) == 1.0

    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 5.0])
    @pytest.mark.parametrize("n", [1, 2, 7, 25])
    def test_log_variant_agrees(self, strict_pair, x, n):
        direct = pq_power_basis(strict_pair, x, n)
        logged = math.exp(pq_power_basis_log(strict_pair, x, n))
        assert rel_err(logged, direct) < 1e-12

    def test_log_variant_survives_deep_products(self):
        # the direct product underflows long before n ~ 2000; the log stays finite
        pair = PQPair(0.9, 0.8)
        val = pq_power_basis_log(pair, 1.0, 2000)
        assert math.isfinite(val)


class TestBeta:
    def test_classical_reduction(self):
        assert pq_beta(CLASSICAL, 2, 3) == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_closed_form_value(self):
        pair = PQPair(0.9, 0.8)
        assert pq_beta(pair, 1, 2) == pytest.approx((0.8 / 0.9) / 1.7, rel=1e-12)

    def test_not_commutative(self):
        pair = PQPair(0.9, 0.8)
        assert abs(pq_beta(pair, 1, 2) - pq_beta(pair, 2, 1)) > 1e-3

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_classical_matches_integer_beta(self, m, n):
        want = (
            math.factorial(m - 1)
            * math.factorial(n - 1)
            / math.factorial(m + n - 1)
        )
        assert rel_err(pq_beta(CLASSICAL, m, n), want) < 1e-12

    def test_rejects_arguments_below_one(self):
        with pytest.raises(DomainError):
            pq_beta(CLASSICAL, 0, 3)

    def test_classical_85_85_matches_the_exact_value(self):
        want = Fraction(math.factorial(84) ** 2, math.factorial(169))
        assert abs(Fraction(pq_beta(CLASSICAL, 85, 85)) - want) / want < 1e-14

    def test_matches_the_exact_value(self):
        pair, m, n = PQPair(1.0, 0.9), 40, 40
        q = Fraction(pair.q)
        gammas = exact_factorial(pair, m - 1) * exact_factorial(pair, n - 1)
        want = q ** (1 - m * (m - 1) // 2) * gammas / exact_factorial(pair, m + n - 1)
        assert abs(Fraction(pq_beta(pair, m, n)) - want) / want < 1e-14


class TestDerivative:
    def test_constant_maps_to_zero(self):
        pair = PQPair(0.9, 0.8)
        assert pq_derivative(pair, lambda t: 4.25, 1.3) == 0.0

    def test_square_at_one(self):
        pair = PQPair(0.9, 0.8)
        # (0.81 - 0.64) / 0.1 = [2]
        assert pq_derivative(pair, lambda t: t * t, 1.0) == pytest.approx(1.7, rel=1e-12)

    def test_cube_at_two(self):
        pair = PQPair(0.9, 0.8)
        assert pq_derivative(pair, lambda t: t**3, 2.0) == pytest.approx(
            2.17 * 4.0, rel=1e-12
        )

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(1, 8),
        x=st.floats(-4.0, 4.0).filter(lambda v: abs(v) > 1e-3),
    )
    def test_monomial_eigenrelation(self, n, x):
        # D t^n = [n] t^{n-1}
        for pair in STRICT_PAIRS:
            got = pq_derivative(pair, lambda t: t**n, x)
            want = pq_number(pair, n) * x ** (n - 1)
            assert rel_err(got, want, floor=1e-12) < 1e-10

    def test_rejects_x_zero(self):
        with pytest.raises(DomainError):
            pq_derivative(PQPair(0.9, 0.8), lambda t: t, 0.0)

    def test_rejects_degenerate_pair(self):
        with pytest.raises(RegimeError):
            pq_derivative(PQPair(0.7, 0.7), lambda t: t, 1.0)
