import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqbaskakov import (
    DEFAULT_POLICY,
    DomainError,
    FunctionSpec,
    PQPair,
    RegimeError,
    TruncationPolicy,
    baskakov_beta_apply,
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

    def test_converged_flag_matches_invariant(self, strict_pair):
        # converged <=> the ladder stopped, which takes three small terms and a
        # tail within 0.45 of the tolerance; three terms stop no ladder here
        for policy in (TruncationPolicy(), TruncationPolicy(max_terms=3)):
            res = jackson_integral(strict_pair, lambda t: t**3, 1.5, policy)
            assert res.converged == (policy.max_terms > 3)
            if res.converged:
                assert res.tail_estimate <= 0.45 * policy.threshold(res.value)

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

    def test_divergent_integrand_stops_at_the_node_cap(self):
        # at the default budget the ladder weight passes _NODE_CAP first: the
        # backward direction alone may take max_terms terms, and without the
        # cap the sum would run on towards the float overflow
        res = improper_integral(PQPair(0.9, 0.8), lambda t: 1.0)
        assert not res.converged
        assert res.terms_used < DEFAULT_POLICY.max_terms
        assert res.value < quadrature._NODE_CAP

    def test_degenerate_pair_rejected(self):
        with pytest.raises(RegimeError):
            improper_integral(PQPair(0.5, 0.5), lambda t: t)

    @pytest.mark.parametrize("m, n", [(2.5, 3), (2, 3.5), (0, 3)])
    def test_beta_kernel_refuses_its_arguments_when_made(self, m, n):
        # the rule of pq_beta: whole m, n >= 1, checked before any evaluation
        with pytest.raises(DomainError):
            beta_kernel(PQPair(0.9, 0.8), m, n)

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
        # converged <=> both directions stopped and their summed tail is within
        # the tolerance; three terms per direction stop neither
        for policy in (TruncationPolicy(), TruncationPolicy(max_terms=3)):
            res = improper_integral(strict_pair, beta_kernel(strict_pair, 1, 3), policy)
            assert res.converged == (policy.max_terms > 3)
            if res.converged:
                assert res.tail_estimate <= policy.threshold(res.value)

    def test_term_budget_is_per_direction(self):
        # 129 forward and 86 backward terms: each direction stops within its
        # 130-term budget, though together they use more, and the value is the
        # default policy's bit for bit
        pair = PQPair(0.9, 0.8)
        kernel = beta_kernel(pair, 2, 3)
        res = improper_integral(pair, kernel, TruncationPolicy(max_terms=130))
        assert res.terms_used == 215
        assert res.converged
        assert res.value == improper_integral(pair, kernel).value == 0.395749895037865


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


@st.composite
def ladder_windows(draw):
    """A window reaching both sides of i = 0, as every operator window does."""
    p = draw(st.floats(0.5, 1.0))
    r = draw(st.floats(0.5, 0.95))
    return quadrature._LadderWindow(
        PQPair(p, p * r), draw(st.integers(-300, -1)), draw(st.integers(1, 300)), draw(st.integers(1, 200))
    )


def node_subsets(window):
    """Sorted node indices of the window, always holding its last node i_hi,
    where i + power reaches the end of the window's tables."""
    return st.sets(st.integers(window.i_lo, window.i_hi), max_size=40).map(
        lambda nodes: np.array(sorted(nodes | {window.i_hi}))
    )


def split_by_definition(window, power, i):
    """(sum_{i <= s < i+power} min(s, 0), prefix difference) for one node."""
    start = i - window.i_lo
    linear = sum(min(s, 0) for s in range(i, i + power))
    return linear, window.prefix[start + power] - window.prefix[start]


class TestLadderWindowTables:
    @settings(max_examples=60, deadline=None)
    @given(window=ladder_windows(), data=st.data())
    def test_split_is_the_closed_form(self, window, data):
        nodes = data.draw(node_subsets(window))
        power = data.draw(st.integers(1, window.max_power))
        powers = np.array(data.draw(st.lists(st.integers(1, window.max_power), min_size=nodes.size,
                                             max_size=nodes.size)), dtype=np.int64)
        triangle = quadrature._neg_triangle
        start = nodes - window.i_lo
        for each in (power, powers):
            linear, bounded = window._split(each, nodes)
            assert np.array_equal(linear, triangle(nodes + each) - triangle(nodes))
            assert np.array_equal(bounded, window.prefix[start + each] - window.prefix[start])
        # the closed form is the defining sum, in exact integers
        want = [split_by_definition(window, each, i)[0] for each, i in zip(powers.tolist(), nodes.tolist())]
        assert window._split(powers, nodes)[0].tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(window=ladder_windows(), data=st.data())
    def test_log_weight_drop_matches_a_per_node_reference(self, window, data):
        rows = []
        for _ in range(data.draw(st.integers(1, 5))):
            power = data.draw(st.integers(1, window.max_power))
            k = data.draw(st.integers(0, power - 1))
            peak = data.draw(st.integers(window.i_lo, window.i_hi))
            rows.append((k, power, peak, data.draw(node_subsets(window))))
        ks, powers, peaks, bands = zip(*rows)
        got = window.log_weight_drop(
            np.array(ks), np.array(powers), np.array(peaks), np.concatenate(bands),
            np.array([band.size for band in bands]),
        )
        want = []
        for k, power, peak, band in rows:
            peak_linear, peak_bounded = split_by_definition(window, power, peak)
            for i in band.tolist():
                linear, bounded = split_by_definition(window, power, i)
                steps = (k + 1) * (i - peak) - (linear - peak_linear)
                want.append(window.log_r * steps - (bounded - peak_bounded))
        assert np.array_equal(got, np.array(want))


def abs_t_minus_1_times(c):
    return lambda t: c * np.abs(t - 1.0)


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
        ratios, edges = quadrature.batched_weight_ratios(
            PQPair(0.9, 0.89999), 5, 1, FunctionSpec.named("abs_t_minus_1")
        )
        assert widths == []
        assert np.isnan(ratios).all() and np.isnan(edges).all()

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
        ratios, edges = quadrature.batched_weight_ratios(pair, 100, 128, f)
        assert windows and max(windows) <= cap
        assert len(bands) >= 128 and max(bands) <= cap
        assert (edges < 1e-15 * ratios).all()
        assert np.allclose(ratios, wider, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "pair, n, k_count, f",
        [(PQPair(1.0, 5 / 6), 5, 64, lambda t: t**3), (PQPair(1.0, 5 / 6), 5, 64, lambda t: t**4)]
        + [(PQPair(0.9, 0.8), 10, 47, abs_t_minus_1_times(c)) for c in (1e-20, 1.0, 1e12, 1e20)],
        ids=["t^3", "t^4", "1e-20|t-1|", "|t-1|", "1e12|t-1|", "1e20|t-1|"],
    )
    def test_every_row_is_summed_over_one_band_whatever_the_units_of_f(
        self, monkeypatch, pair, n, k_count, f
    ):
        bands = self.record_bands(monkeypatch)
        quadrature.batched_weight_ratios(pair, n, k_count, f)
        assert len(bands) == k_count

    @pytest.mark.parametrize("c", [1e-20, 3.7, 1e12, 1e20])
    @pytest.mark.parametrize(
        "pair, n, k_count, f",
        [(PQPair(0.9, 0.8), 10, 47, abs_t_minus_1_times(1.0)), (PQPair(1.0, 5 / 6), 5, 64, lambda t: t**3)],
        ids=["|t-1|", "t^3"],
    )
    def test_scaling_f_scales_its_ratios_and_edges_and_keeps_its_trust(self, pair, n, k_count, f, c):
        base, base_edges = quadrature.batched_weight_ratios(pair, n, k_count, f)
        scaled, scaled_edges = quadrature.batched_weight_ratios(pair, n, k_count, lambda t: c * f(t))
        assert np.allclose(scaled, c * base, rtol=1e-15, atol=0.0)
        assert np.allclose(scaled_edges, c * base_edges, rtol=1e-15, atol=0.0)
        xs = np.array([0.0, 0.5, 2.5, 10.0])
        cells = baskakov_beta_apply(pair, f, n, xs)
        scaled_cells = baskakov_beta_apply(pair, lambda t: c * f(t), n, xs)
        for cell, scaled_cell in zip(cells, scaled_cells):
            assert scaled_cell.inner_integrals_converged == cell.inner_integrals_converged
            assert scaled_cell.trusted == cell.trusted

    def test_an_f_growing_faster_than_its_band_is_flagged(self):
        # a callable is taken to grow like t^2; t^3 outruns the band sized for
        # that growth at its large-t end, and the band is not widened to
        # rescue it
        _, edges = quadrature.batched_weight_ratios(PQPair(1.0, 5 / 6), 5, 64, lambda t: t**3)
        assert np.isinf(edges).all()
        result = baskakov_beta_apply(PQPair(0.9, 0.8), lambda t: t**3, 5, 0.5)
        assert np.isfinite(result.value)
        assert not result.inner_integrals_converged and not result.trusted
        # so is e2 with its growth understated as degree 0, whose one band is
        # too narrow on the large-t side: finite, near, and flagged
        f = FunctionSpec.polynomial([0.0, 0.0, 1.0])
        narrow, narrow_edges = quadrature.batched_weight_ratios(PQPair(0.9, 0.8), 3, 1, f, 0)
        sized, sized_edges = quadrature.batched_weight_ratios(PQPair(0.9, 0.8), 3, 1, f)
        assert np.isinf(narrow_edges).all() and (sized_edges < 1e-15 * sized).all()
        assert narrow[0] == pytest.approx(sized[0], rel=1e-5)

    def test_a_decaying_f_is_judged_by_what_its_rows_weigh_in_the_cell(self):
        # at p = 1 every row samples e^-t at the same scale, so rows far out
        # peak where e^-t is tiny, and f w peaks at their small-t end: from
        # k = 40 on their edges exceed rel_tol of their own ratios, but they
        # weigh almost nothing in the cells up to x = 2.5
        pair, f = PQPair(1.0, 0.9), (lambda t: np.exp(-t))
        ratios, edges = quadrature.batched_weight_ratios(pair, 5, 64, f)
        assert np.isfinite(edges).all()
        assert (edges[40:] > 1e-12 * ratios[40:]).all()
        xs = np.array([0.5, 0.9, 1.0, 1.5, 2.0, 2.5])
        for x, cell in zip(xs.tolist(), baskakov_beta_apply(pair, f, 5, xs)):
            assert cell.inner_integrals_converged and cell.trusted, x

    def test_rows_beyond_one_window_are_split_over_several(self, monkeypatch):
        # at (0.9, 0.8), n = 10, the 250 rows' bands span ~700 nodes together
        # while each fits a 461-node cap
        pair, f = PQPair(0.9, 0.8), FunctionSpec.named("abs_t_minus_1")
        one, _ = quadrature.batched_weight_ratios(pair, 10, 250, f)
        monkeypatch.setattr(quadrature, "_LADDER_NODES", 461)
        windows = self.record_widths(monkeypatch, 461)
        ratios, edges = quadrature.batched_weight_ratios(pair, 10, 250, f)
        assert len(windows) > 1
        assert (edges < 1e-15 * ratios).all()
        assert np.allclose(ratios, one, rtol=1e-13, atol=0.0)


def dense_weight_ratios(pair, n, k_count):
    """Reference for batched_weight_ratios with f = |t - 1|: every row summed
    over one dense window wide enough for all of them, written out directly.

    Node i is t_i = r^i / p, and row k weighs it by t_i^(k+1) over the product
    of (1 + r^s) for s = i .. i + n + k.  For s < 0, log(1 + r^s) is
    s log r + log1p(r^-s); the integer parts and the k + 1 powers of r^i are
    summed as integers before one multiplication by log r, each row is taken
    relative to its own peak node, and factors constant along a row are left
    out, so no large logarithm is ever rounded."""
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
    # log w = log_r * exponent - soft, up to a constant per row
    exponent = (ks + 1) * i - (neg[off + power] - neg[off])
    soft = cum[off + power] - cum[off]
    peak = np.argmax(exponent * log_r - soft, axis=1)[:, None]
    log_w = (exponent - exponent[ks, peak]) * log_r - (soft - soft[ks, peak])
    w = np.exp(log_w)
    c = q * q * np.power(p, n + ks)
    fw = w * np.abs(c * np.exp(i * log_r - math.log(p)) - 1.0)
    return fw.sum(axis=1) / w.sum(axis=1)


class TestBandedRatiosAgainstReferences:
    @settings(max_examples=25, deadline=None)
    @given(
        p=st.floats(0.5, 1.0),
        r=st.floats(0.5, 0.95),
        n=st.integers(3, 60),
        k_count=st.sampled_from([1, 64, 128]),
    )
    # a reference that rounded its large logarithms missed this by 1.1e-12
    @example(p=0.7529297247773727, r=0.5, n=3, k_count=128)
    def test_bands_match_one_dense_window(self, p, r, n, k_count):
        pair = PQPair(p, p * r)
        ratios, edges = quadrature.batched_weight_ratios(
            pair, n, k_count, FunctionSpec.named("abs_t_minus_1")
        )
        assert (edges < 1e-15 * ratios).all()
        want = dense_weight_ratios(pair, n, k_count)
        assert np.allclose(ratios, want, rtol=1e-12, atol=0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        p=st.floats(0.5, 1.0),
        r=st.floats(0.5, 0.95),
        n=st.integers(3, 60),
        split=st.integers(1, 127),
    )
    def test_a_shorter_vector_starts_every_longer_one(self, p, r, n, split):
        pair, f = PQPair(p, p * r), FunctionSpec.named("abs_t_minus_1")
        whole, whole_edges = quadrature.batched_weight_ratios(pair, n, 128, f)
        head, head_edges = quadrature.batched_weight_ratios(pair, n, split, f)
        assert head.size == head_edges.size == split
        assert np.array_equal(head_edges, whole_edges[:split])
        # a row is a function of its own band alone, whatever shares its window
        assert np.array_equal(head, whole[:split])

    @pytest.mark.parametrize("k_count", [0, -3])
    def test_an_empty_row_range_is_refused(self, k_count):
        with pytest.raises(DomainError):
            quadrature.batched_weight_ratios(PQPair(0.9, 0.8), 5, k_count, FunctionSpec.named("e1"), 1)

    @pytest.mark.parametrize("pq", [(0.9, 0.8), (1.0, 0.9)])
    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_ratios_match_mpmath(self, pq, n):
        mp = pytest.importorskip("mpmath")
        specs = {"abs_t_minus_1": FunctionSpec.named("abs_t_minus_1"),
                 "e2": FunctionSpec.polynomial([0.0, 0.0, 1.0])}
        with mp.workdps(30):
            want = self.mpmath_ratios(mp, *pq, n, 16)
        for name, spec in specs.items():
            got, edges = quadrature.batched_weight_ratios(PQPair(*pq), n, 16, spec)
            assert (edges < 1e-15 * got).all()
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


@pytest.mark.parametrize(
    "call",
    [
        lambda: jackson_integral(PQPair(0.9, 0.8), lambda t: t, 0.0),
        lambda: beta_kernel(PQPair(0.9, 0.8), 2, 3)(0.0),
    ],
    ids=["jackson-endpoint-0", "beta-kernel-at-t-0"],
)
def test_an_argument_outside_the_domain_is_refused(call):
    with pytest.raises(DomainError):
        call()
