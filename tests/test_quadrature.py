import math

import numpy as np
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

from pqbaskakov import quadrature

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


class TestBatchedWeightRatios:
    def test_power_column_matches_one_power_at_a_time(self):
        window = quadrature._LadderWindow(PQPair(0.9, 0.8), -40, 60, 30)
        rows = window.log_power_basis(np.arange(5, 31)[:, None])
        for power, row in zip(range(5, 31), rows):
            assert np.array_equal(row, window.log_power_basis(power))

    @staticmethod
    def record_widths(monkeypatch, cap=quadrature._LADDER_NODES):
        real = quadrature._LadderWindow
        widths = []

        def recording(pair, i_lo, i_hi, max_power):
            widths.append(i_hi - i_lo + 1)
            assert widths[-1] <= cap, f"a ladder window of {widths[-1]} nodes was built"
            return real(pair, i_lo, i_hi, max_power)

        monkeypatch.setattr(quadrature, "_LadderWindow", recording)
        return widths

    def test_window_is_capped_before_allocation(self, monkeypatch):
        # at p/q = 1 + 1.1e-5 the ladder would need about 5e6 nodes
        widths = self.record_widths(monkeypatch)
        ratios, converged = quadrature.batched_weight_ratios(
            PQPair(0.9, 0.89999), 5, 1, FunctionSpec.named("abs_t_minus_1")
        )
        assert widths == []
        assert not converged.any()
        assert np.isnan(ratios).all()

    @staticmethod
    def record_bands(monkeypatch):
        real = quadrature._band_sums
        widths = []

        def recording(pair, n, rows, peaks, lo, hi, func):
            widths.extend(hi - lo + 1)
            return real(pair, n, rows, peaks, lo, hi, func)

        monkeypatch.setattr(quadrature, "_band_sums", recording)
        return widths

    def test_bands_fit_the_cap_and_converge(self, monkeypatch):
        # q_ratio pair at n = 100, 128 rows: one dense window shared by every
        # row had to stop growing at the 20,001-node cap; each row's own band
        # fits well inside it
        pair, f = PQPair(1.0, 100 / 101), FunctionSpec.named("abs_t_minus_1")
        cap = quadrature._LADDER_NODES
        with monkeypatch.context() as wide:
            wide.setattr(quadrature, "_LADDER_NODES", 40_001)
            wider, _ = quadrature.batched_weight_ratios(pair, 100, 128, f)
        windows = self.record_widths(monkeypatch, cap)
        bands = self.record_bands(monkeypatch)
        ratios, converged = quadrature.batched_weight_ratios(pair, 100, 128, f)
        assert windows and max(windows) <= cap
        assert len(bands) >= 128 and max(bands) <= cap
        assert converged.all()
        assert np.allclose(ratios, wider, rtol=1e-12, atol=0.0)

    def test_a_row_whose_regrowth_does_not_fit_keeps_its_last_band(self, monkeypatch):
        # e2 with its growth understated as degree 0: the first band is too
        # narrow on the large-t side, and its 1.6x regrowth passes the cap
        pair, f = PQPair(0.9, 0.8), FunctionSpec.polynomial([0.0, 0.0, 1.0])
        grown, grown_ok = quadrature.batched_weight_ratios(pair, 3, 1, f, 0)
        monkeypatch.setattr(quadrature, "_LADDER_NODES", 601)
        windows = self.record_widths(monkeypatch, 601)
        ratios, converged = quadrature.batched_weight_ratios(pair, 3, 1, f, 0)
        assert len(windows) == 1
        assert not converged.any() and grown_ok.all()
        assert np.isfinite(ratios).all()
        assert ratios[0] == pytest.approx(grown[0], rel=1e-5)
        assert ratios[0] != grown[0]

    def test_rows_beyond_one_window_are_split_over_several(self, monkeypatch):
        # at (0.9, 0.8), n = 10, the 250 rows' bands span ~700 nodes together
        # while each fits a 461-node cap
        pair, f = PQPair(0.9, 0.8), FunctionSpec.named("abs_t_minus_1")
        one, _ = quadrature.batched_weight_ratios(pair, 10, 250, f)
        monkeypatch.setattr(quadrature, "_LADDER_NODES", 461)
        windows = self.record_widths(monkeypatch, 461)
        ratios, converged = quadrature.batched_weight_ratios(pair, 10, 250, f)
        assert len(windows) > 1
        assert converged.all()
        assert np.allclose(ratios, one, rtol=1e-13, atol=0.0)


def dense_weight_ratios(pair, n, k_count):
    """Reference for batched_weight_ratios with f = |t - 1|: every row summed
    over one dense window wide enough for all of them, written out directly
    (the linear part of log(1 + r^s) in integers, the rest by cumsum)."""
    p, q = pair.p, pair.q
    log_r = math.log(q / p)
    # row k peaks within k + 1 + log(n)/L nodes of i = 0, L = -log r
    reach = k_count + 1 + int(math.ceil((math.log(n) + 80.0) / -log_r))
    i = np.arange(-reach, reach + 1)
    s = np.arange(-reach, reach + n + k_count + 1)
    cum = np.concatenate([[0.0], np.cumsum(np.log1p(np.exp(-np.abs(s) * -log_r)))])
    neg = np.concatenate([[0], np.cumsum(np.minimum(s, 0))])
    ks = np.arange(k_count)[:, None]
    power = n + ks + 1
    off = i - s[0]
    log_basis = (power * (power - 1) / 2) * math.log(p) + log_r * (neg[off + power] - neg[off])
    log_basis = log_basis + cum[off + power] - cum[off]
    log_t = i * log_r - math.log(p)
    log_w = (ks + 1) * log_t - log_basis
    w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    c = q * q * np.power(p, n + ks)
    fw = w * np.abs(c * np.exp(log_t) - 1.0)
    return fw.sum(axis=1) / w.sum(axis=1)


class TestBandedRatiosAgainstReferences:
    @settings(max_examples=25, deadline=None)
    @given(
        p=st.floats(0.5, 1.0),
        r=st.floats(0.5, 0.95),
        n=st.integers(3, 60),
        k_count=st.sampled_from([1, 64, 128]),
    )
    def test_bands_match_one_dense_window(self, p, r, n, k_count):
        pair = PQPair(p, p * r)
        ratios, converged = quadrature.batched_weight_ratios(
            pair, n, k_count, FunctionSpec.named("abs_t_minus_1")
        )
        assert converged.all()
        want = dense_weight_ratios(pair, n, k_count)
        assert np.allclose(ratios, want, rtol=1e-12, atol=0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        p=st.floats(0.5, 1.0),
        r=st.floats(0.5, 0.95),
        n=st.integers(3, 60),
        split=st.integers(1, 127),
    )
    def test_appended_rows_match_the_one_shot_vector(self, p, r, n, split):
        pair, f = PQPair(p, p * r), FunctionSpec.named("abs_t_minus_1")
        whole, whole_ok = quadrature.batched_weight_ratios(pair, n, 128, f)
        head, head_ok = quadrature.batched_weight_ratios(pair, n, split, f)
        tail, tail_ok = quadrature.batched_weight_ratios(pair, n, 128, f, 2, split)
        assert tail.size == tail_ok.size == 128 - split
        assert np.array_equal(np.concatenate([head_ok, tail_ok]), whole_ok)
        # a row shares its window with other rows, which rounds it by a few ulps
        assert np.allclose(np.concatenate([head, tail]), whole, rtol=2e-15, atol=0.0)

    def test_an_empty_row_range_is_refused(self):
        with pytest.raises(DomainError):
            quadrature.batched_weight_ratios(PQPair(0.9, 0.8), 5, 8, FunctionSpec.named("e1"), 1, 8)

    @pytest.mark.parametrize("pq", [(0.9, 0.8), (1.0, 0.9)])
    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_ratios_match_mpmath(self, pq, n):
        mp = pytest.importorskip("mpmath")
        specs = {"abs_t_minus_1": FunctionSpec.named("abs_t_minus_1"),
                 "e2": FunctionSpec.polynomial([0.0, 0.0, 1.0])}
        with mp.workdps(30):
            want = self.mpmath_ratios(mp, *pq, n, 16)
        for name, spec in specs.items():
            got, converged = quadrature.batched_weight_ratios(PQPair(*pq), n, 16, spec)
            assert converged.all()
            for g, v in zip(got, want[name]):
                assert abs((mp.mpf(g) - v) / v) < 1e-13, name

    @staticmethod
    def mpmath_ratios(mp, p, q, n, k_count):
        """ratio_k for f = |t - 1| and t^2 straight from the definition, summed
        over a bilateral window far beyond every row's 1e-18 band (both edges
        are checked to carry less than 1e-25 of the mass)."""
        exact = {"abs_t_minus_1": lambda t: abs(t - 1), "e2": lambda t: t * t}
        p, q = mp.mpf(p), mp.mpf(q)
        nodes = [(q / p) ** i / p for i in range(-260, 641)]
        den = []
        for t in nodes:
            d = mp.mpf(1)
            for j in range(n + 1):
                d *= p**j + q**j * p * t
            den.append(d)
        want = {name: [] for name in exact}
        powers = list(nodes)  # t^(k+1)
        for k in range(k_count):
            c = q * q * p ** (n + k)
            w = [tk / d for tk, d in zip(powers, den)]
            total = mp.fsum(w)
            assert (w[0] + w[-1]) / total < 1e-25
            for name, func in exact.items():
                fw = [wi * func(c * t) for wi, t in zip(w, nodes)]
                assert (abs(fw[0]) + abs(fw[-1])) / total < 1e-25
                want[name].append(mp.fsum(fw) / total)
            power = n + k + 1
            den = [d * (p**power + q**power * p * t) for d, t in zip(den, nodes)]
            powers = [tk * t for tk, t in zip(powers, nodes)]
        return want
