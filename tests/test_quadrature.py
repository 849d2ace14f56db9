import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqbaskakov import (
    DomainError,
    FunctionSpec,
    PQPair,
    RegimeError,
    TruncationPolicy,
    beta_kernel,
    improper_integral,
    jackson_integral,
    pq_beta,
    pq_gamma,
    pq_number,
    verify_integration_by_parts,
)

from conftest import STRICT_PAIRS, rel_err


def ladder_beta_value(pair, m, n):
    """Exact value of the bilateral ladder integral of t^{m-1}/(1 (+) pt)^{m+n}.

    Derived independently of the quadrature code by telescoping the bilateral
    sum: with r = q/p, sum_i r^{im} / prod_{j<m+n} (1 + r^{i+j}) collapses to
    r^{-m(m-1)/2} prod_{l<m} (1-r^l) / prod_{n<=l<m+n} (1-r^l), which in the
    (p,q)-Gamma notation reads

        q^{-m(m-1)/2} p^{-m - n(n-1)/2} Gamma(m) Gamma(n) / Gamma(m+n).

    The value is invariant under rescaling the ladder (any scale c > 0 gives
    the same sum at integer m), so this is THE value of any Jackson-type
    improper integral of the Beta integrand.
    """
    pref = pair.q ** (-m * (m - 1) / 2) * pair.p ** (-m - n * (n - 1) / 2)
    return pref * pq_gamma(pair, m) * pq_gamma(pair, n) / pq_gamma(pair, m + n)


class TestJacksonIntegral:
    def test_constant(self):
        res = jackson_integral(PQPair(0.9, 0.8), lambda t: 1.0, 3.0)
        assert res.converged
        assert res.value == pytest.approx(3.0, rel=1e-10)

    def test_linear(self):
        res = jackson_integral(PQPair(0.9, 0.8), lambda t: t, 1.0)
        assert res.value == pytest.approx(1.0 / 1.7, rel=1e-10)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", range(0, 11))
    def test_monomial_identity(self, strict_pair, n, a):
        res = jackson_integral(strict_pair, lambda t, n=n: t**n, a)
        want = a ** (n + 1) / pq_number(strict_pair, n + 1)
        assert res.converged
        assert rel_err(res.value, want) < 1e-10

    @settings(deadline=None, max_examples=30)
    @given(
        c0=st.floats(-5, 5),
        c1=st.floats(-5, 5),
        c2=st.floats(-5, 5),
        alpha=st.floats(-3, 3),
        beta=st.floats(-3, 3),
    )
    def test_linearity(self, c0, c1, c2, alpha, beta):
        pair = PQPair(0.9, 0.8)
        f = FunctionSpec.polynomial([c0, c1, c2])
        g = FunctionSpec.polynomial([c2, c0, 0.0, c1])
        combo = FunctionSpec.polynomial(
            [alpha * c0 + beta * c2, alpha * c1 + beta * c0, alpha * c2, beta * c1]
        )
        lhs = jackson_integral(pair, combo, 2.0).value
        rhs = alpha * jackson_integral(pair, f, 2.0).value + beta * jackson_integral(
            pair, g, 2.0
        ).value
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-9)

    def test_positivity(self, strict_pair):
        res = jackson_integral(strict_pair, lambda t: t**2 + 0.5, 2.0)
        assert res.value > 0.0

    def test_refinement_stability(self):
        pair = PQPair(0.95, 0.9)
        f = FunctionSpec.polynomial([1.0, 0.0, 3.0])
        coarse = jackson_integral(pair, f, 2.0, TruncationPolicy(rel_tol=1e-8))
        fine = jackson_integral(pair, f, 2.0, TruncationPolicy(rel_tol=5e-9))
        assert abs(fine.value - coarse.value) < coarse.tail_estimate + 1e-15

    def test_degenerate_pair_rejected(self):
        with pytest.raises(RegimeError):
            jackson_integral(PQPair(1.0, 1.0), lambda t: t, 1.0)

    def test_nodes_outside_interval_diagnostic(self):
        # q^i > p^{i+1} happens for finitely many i only; at (0.9, 0.8) just i=0
        res = jackson_integral(PQPair(0.9, 0.8), lambda t: t, 1.0)
        assert res.nodes_outside_interval == 1
        res = jackson_integral(PQPair(1.0, 0.9), lambda t: t, 1.0)
        assert res.nodes_outside_interval == 0

    def test_converged_flag_matches_invariant(self, strict_pair):
        policy = TruncationPolicy()
        res = jackson_integral(strict_pair, lambda t: t**3, 1.5, policy)
        assert res.converged == res.check(policy)

    def test_infinite_term_is_not_converged(self):
        # the first node of the ladder at (0.9, 0.8), a = 1 is 1/0.9
        res = jackson_integral(
            PQPair(0.9, 0.8), lambda t: math.inf if abs(t - 1 / 0.9) < 1e-12 else 0.0, 1.0
        )
        assert not res.converged


class TestImproperIntegral:
    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_ladder_identity(self, strict_pair, m, n):
        res = improper_integral(strict_pair, beta_kernel(strict_pair, m, n))
        assert res.converged
        assert rel_err(res.value, ladder_beta_value(strict_pair, m, n)) < 1e-8

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_offset_to_closed_form_is_exactly_q_p_power(self, strict_pair, m, n):
        # The ladder value and the closed-form Beta differ by the systematic
        # factor q p^{(n-m)(n+m-1)/2}; asserting it pins both implementations.
        res = improper_integral(strict_pair, beta_kernel(strict_pair, m, n))
        factor = strict_pair.q * strict_pair.p ** ((n - m) * (n + m - 1) / 2)
        assert rel_err(res.value * factor, pq_beta(strict_pair, m, n)) < 1e-8

    def test_classical_limit_path(self):
        # along p = 1, q -> 1 the ladder value approaches the classical Beta
        m, n = 2, 3
        want = math.factorial(1) * math.factorial(2) / math.factorial(4)
        errors = []
        for q in (0.9, 0.99, 0.999):
            pair = PQPair(1.0, q)
            res = improper_integral(pair, beta_kernel(pair, m, n))
            errors.append(abs(res.value - want))
        assert errors[0] > errors[1] > errors[2]

    def test_divergent_integrand_is_flagged_not_raised(self):
        res = improper_integral(PQPair(0.9, 0.8), lambda t: 1.0, TruncationPolicy(max_terms=500))
        assert not res.converged

    def test_degenerate_pair_rejected(self):
        with pytest.raises(RegimeError):
            improper_integral(PQPair(0.5, 0.5), lambda t: t)

    def test_positivity(self, strict_pair):
        res = improper_integral(strict_pair, beta_kernel(strict_pair, 3, 4))
        assert res.value > 0.0

    def test_refinement_stability(self):
        pair = PQPair(0.9, 0.8)
        kern = beta_kernel(pair, 2, 2)
        coarse = improper_integral(pair, kern, TruncationPolicy(rel_tol=1e-8))
        fine = improper_integral(pair, kern, TruncationPolicy(rel_tol=5e-9))
        assert abs(fine.value - coarse.value) < coarse.tail_estimate + 1e-15

    def test_converged_flag_matches_invariant(self, strict_pair):
        policy = TruncationPolicy()
        res = improper_integral(strict_pair, beta_kernel(strict_pair, 1, 3), policy)
        assert res.converged == res.check(policy)


class TestIntegrationByParts:
    def test_constant_f_degeneracy(self):
        pair = PQPair(0.9, 0.8)
        g = FunctionSpec.polynomial([1.0, -2.0, 0.5, 1.0])
        residual = verify_integration_by_parts(pair, lambda t: 3.0, g, 0.0, 2.0)
        assert residual <= 1e-9

    def test_linear_against_linear(self):
        residual = verify_integration_by_parts(
            PQPair(0.9, 0.8), lambda t: t, lambda t: t, 0.5, 2.0
        )
        assert residual <= 1e-8

    def test_square_against_cube(self):
        residual = verify_integration_by_parts(
            PQPair(0.95, 0.9), lambda t: t**2, lambda t: t**3, 1.0, 3.0
        )
        assert residual <= 1e-8

    @pytest.mark.parametrize("pair", STRICT_PAIRS, ids=lambda p: f"p{p.p}-q{p.q}")
    def test_polynomial_pairs(self, pair):
        f = FunctionSpec.polynomial([0.5, 1.5, -0.25])
        g = FunctionSpec.polynomial([2.0, -1.0, 0.0, 0.125])
        assert verify_integration_by_parts(pair, f, g, 0.25, 1.75) <= 1e-8

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            verify_integration_by_parts(PQPair(0.9, 0.8), lambda t: t, lambda t: t, 2.0, 1.0)
