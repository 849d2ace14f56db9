import math
import random
from fractions import Fraction

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

from pqbaskakov import analysis, baskakov, quadrature

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
        factors = np.exp(baskakov._log_beta_ratio_factors(pair, n, m, self.ROWS))
        k = np.arange(self.ROWS)
        assert converged.all()
        assert np.max(np.abs(ratios / (factors * pair.p ** (m * (n + k))) - 1.0)) < 1e-13
        for factor, want in zip(factors.tolist(), exact_beta_factors(pair, n, m, self.ROWS)):
            assert abs(Fraction(factor) / want - 1) < 1e-13


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
        k = np.arange(self.K)
        log_terms = (
            baskakov._log_basis_row(pair, n, self.XS, self.K)[0]
            + m * (n + k) * math.log(pair.p)
            + baskakov._log_beta_ratio_factors(pair, n, m, self.K)
        )
        top = log_terms.max(axis=1)
        want = [math.exp(t) * math.fsum(np.exp(row - t)) for t, row in zip(top, log_terms)]
        e_m = FunctionSpec.polynomial((0.0,) * m + (1.0,))
        cells = baskakov_beta_apply(pair, e_m, n, self.XS, method="quadrature")
        assert all(cell.trusted for cell in cells)
        assert max(abs(cell.value / w - 1.0) for cell, w in zip(cells, want)) < 1e-13


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


def recording_builds(monkeypatch):
    """Record the (k_start, k_count) of every sample segment built."""
    builds = []
    real = baskakov._sample_builder

    def builder(*args):
        build = real(*args)

        def recording(k_start, k_count):
            builds.append((k_start, k_count))
            return build(k_start, k_count)

        return recording

    monkeypatch.setattr(baskakov, "_sample_builder", builder)
    return builds


class TestSampleSource:
    """A kernel call grows one fresh sample source, so no cell depends on
    the calls made before it."""

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

    @pytest.mark.parametrize("apply", [baskakov.baskakov_apply, baskakov_beta_apply])
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

        def recording(pair, n, m, k_count, k_start=0):
            rows[m] = rows.get(m, 0) + k_count - k_start
            return real(pair, n, m, k_count, k_start)

        monkeypatch.setattr(baskakov, "_log_beta_ratio_factors", recording)
        cells = self.evaluate_row(POLY, "analytic", grid_call)
        assert max(c.k_terms_used for c in cells) > 64  # two segments
        assert rows == {0: 128, 1: 128, 2: 128}

    def test_segments_equal_the_one_shot_vectors(self):
        pair, n, k_count = self.PAIR, self.N, 512
        coeffs = tuple(enumerate(POLY.as_polynomial()))
        one_shot = {
            "nodes": np.asarray(POLY.evaluate(baskakov._nodes(pair, n, np.arange(k_count, dtype=float)))),
            "analytic": sum(c * np.exp(baskakov._log_beta_ratio_factors(pair, n, d, k_count))
                            for d, c in coeffs),
        }
        for f, route in ((POLY, "nodes"), (POLY, "analytic"), (ABS, "quadrature")):
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


def _counting_kernel(monkeypatch):
    """Replace the kernel of baskakov by one that records its calls'
    (n, grid points) and whether a cell table was open."""
    calls = []
    real = baskakov._apply

    def kernel(pair, n, xs, policy, samples):
        calls.append((n, tuple(xs.tolist()), baskakov._RUN_CELLS.get() is not None))
        return real(pair, n, xs, policy, samples)

    monkeypatch.setattr(baskakov, "_apply", kernel)
    return calls


class TestCellTable:
    PAIR = PQPair(0.95, 0.9)
    F = FunctionSpec.polynomial([7.0, -2.0, 25.0])
    GRID = (0.0, 1.5, 3.0)

    def test_inside_a_table_a_repeated_cell_is_a_lookup(self, monkeypatch):
        calls = _counting_kernel(monkeypatch)
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
        calls = _counting_kernel(monkeypatch)
        with baskakov._cell_table(np.array(self.GRID)):
            for _ in range(2):
                baskakov_beta_apply(self.PAIR, self.F, 10, 2.0)
            assert baskakov._RUN_CELLS.get().rows == {}
        assert calls == [(10, (2.0,), True)] * 2

    def test_calls_outside_a_run_both_recompute(self, monkeypatch):
        calls = _counting_kernel(monkeypatch)
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
        calls = _counting_kernel(monkeypatch)
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
        calls = _counting_kernel(monkeypatch)
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

    @pytest.mark.parametrize("f", [F, ABS], ids=["analytic", "quadrature"])
    def test_analysis_evaluates_each_grid_row_once(self, monkeypatch, f):
        # outside a run, each row of convergence_run and weighted_sup_error
        # is one kernel call over the whole grid
        grid = EvalGrid(0.0, 3.0, 7)
        xs = tuple(grid.array().tolist())
        cells = []
        real = analysis.baskakov_beta_apply

        def recording(pair, f, n, x, policy):
            cells.append((pair, n, x, policy, real(pair, f, n, x, policy)))
            return cells[-1][-1]

        monkeypatch.setattr(analysis, "baskakov_beta_apply", recording)
        calls = _counting_kernel(monkeypatch)
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
