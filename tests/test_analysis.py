import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqbaskakov import (
    DomainError,
    EvalGrid,
    FunctionSpec,
    PQPair,
    ParameterSchedule,
    TruncationPolicy,
    baskakov_moment_closed,
    central_moment,
    convergence_run,
    interval_rate_bound,
    modulus_of_continuity,
    moments_closed,
    pointwise_bound_terms,
    second_modulus,
    weighted_sup_error,
)

from conftest import CLASSICAL, STRICT_PAIRS, fraction_moment, rel_err

E1 = FunctionSpec.named("e1")
E2 = FunctionSpec.named("e2")
KINK = FunctionSpec.named("abs_t_minus_1")
FIG1 = FunctionSpec.polynomial([2015.0, -12.0, 18.0])


class TestGridAndWeight:
    def test_grid_validation(self):
        with pytest.raises(DomainError):
            EvalGrid(-1.0, 2.0, 10)
        with pytest.raises(DomainError):
            EvalGrid(1.0, 1.0, 10)
        with pytest.raises(DomainError):
            EvalGrid(0.0, 1.0, 1)
        # a fractional count made array() raise TypeError
        for points in (2.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                EvalGrid(0.0, 5.0, points)
        grid = EvalGrid(0.0, 5.0, 11.0)
        assert type(grid.points) is int and grid.array().size == 11

    @pytest.mark.parametrize("start, stop", [(0.0, math.inf), (0.0, math.nan), (math.nan, 1.0)])
    def test_grid_ends_must_be_finite(self, start, stop):
        with pytest.raises(DomainError):
            EvalGrid(start, stop, 11)

    def test_grid_spacing(self):
        grid = EvalGrid(0.0, 10.0, 101)
        assert grid.spacing == pytest.approx(0.1)
        assert len(grid.array()) == 101


class TestModuli:
    def test_constant_has_zero_modulus(self):
        f = FunctionSpec.polynomial([7.5])
        assert modulus_of_continuity(f, 0.4, EvalGrid(0.0, 5.0, 501)) == 0.0

    def test_linear_modulus_is_delta(self):
        grid = EvalGrid(0.0, 10.0, 1001)
        assert modulus_of_continuity(E1, 0.3, grid) == pytest.approx(0.3, rel=1e-12)

    def test_square_modulus_refines_to_closed_form(self):
        # omega(t^2, delta) on [0, kappa] -> 2 kappa delta - delta^2
        kappa, delta = 3.0, 0.37
        want = 2.0 * kappa * delta - delta * delta
        coarse = modulus_of_continuity(E2, delta, EvalGrid(0.0, kappa, 31))
        fine = modulus_of_continuity(E2, delta, EvalGrid(0.0, kappa, 3001))
        assert abs(fine - want) < abs(coarse - want)
        assert fine == pytest.approx(want, rel=1e-2)

    def test_affine_second_modulus_vanishes(self):
        f = FunctionSpec.polynomial([2.0, -3.0])
        assert second_modulus(f, 0.5, EvalGrid(0.0, 4.0, 401)) == pytest.approx(0.0, abs=1e-12)

    def test_square_second_modulus(self):
        # second difference of t^2 with step h is exactly 2 h^2
        grid = EvalGrid(0.0, 2.0, 161)
        assert second_modulus(E2, 0.5, grid) == pytest.approx(0.5, rel=1e-12)

    def test_kink_second_modulus(self):
        # |t - 1| on [0, 2]: the kink doubles the one-sided slope jump
        grid = EvalGrid(0.0, 2.0, 161)
        assert second_modulus(KINK, 0.2, grid) == pytest.approx(0.4, rel=1e-12)

    @pytest.mark.parametrize("f", [E2, KINK], ids=["square", "kink"])
    def test_monotone_in_delta(self, f):
        grid = EvalGrid(0.0, 2.0, 801)
        values = [modulus_of_continuity(f, d, grid) for d in (0.1, 0.2, 0.4, 0.8)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v >= 0.0 for v in values)

    @pytest.mark.parametrize("f", [E2, KINK], ids=["square", "kink"])
    def test_subadditivity_surrogate(self, f):
        grid = EvalGrid(0.0, 2.0, 801)
        for delta in (0.1, 0.25):
            w1 = modulus_of_continuity(f, delta, grid)
            w2 = modulus_of_continuity(f, 2.0 * delta, grid)
            assert w2 <= 2.0 * w1 + 1e-12

    def test_vanishes_as_delta_shrinks(self):
        grid = EvalGrid(0.0, 2.0, 2001)
        values = [modulus_of_continuity(KINK, d, grid) for d in (0.4, 0.04, 0.004)]
        assert values[0] > values[1] > values[2]
        assert values[-1] < 0.01

    def test_resolution_limited_delta_warns(self):
        grid = EvalGrid(0.0, 1.0, 11)
        with pytest.warns(UserWarning):
            got = modulus_of_continuity(E2, 0.01, grid)
        assert got == 0.0

    def test_zero_delta_is_zero_without_warning(self):
        grid = EvalGrid(0.0, 1.0, 11)
        assert modulus_of_continuity(E2, 0.0, grid) == 0.0

    @pytest.mark.parametrize("modulus", [modulus_of_continuity, second_modulus])
    @pytest.mark.parametrize("delta", [math.nan, -0.1])
    def test_nan_or_negative_delta_is_refused(self, modulus, delta):
        with pytest.raises(DomainError):
            modulus(E2, delta, EvalGrid(0.0, 1.0, 11))


class TestPointwiseBoundTerms:
    def test_constant_function_gives_zero_omega(self):
        f = FunctionSpec.polynomial([42.0])
        terms = pointwise_bound_terms(PQPair(0.9, 0.8), 5, 1.0, f, EvalGrid(0.0, 5.0, 501))
        assert terms.omega_term == 0.0
        assert terms.omega2_arg > 0.0

    def test_classical_values_at_origin(self):
        # mu1(0) = 1/4 at n = 5; mu2(0) = 2/12
        terms = pointwise_bound_terms(CLASSICAL, 5, 0.0, E1, EvalGrid(0.0, 5.0, 2001))
        assert central_moment(CLASSICAL, 1, 5, 0.0) == pytest.approx(0.25, rel=1e-12)
        want = math.sqrt(1.0 / 6.0 + 1.0 / 16.0)
        assert terms.omega2_arg == pytest.approx(want, rel=1e-12)
        # for e1 the omega term equals |mu1| on a grid that resolves it
        assert terms.omega_term == pytest.approx(0.25, rel=1e-2)

    def test_argument_identity(self):
        pair = PQPair(0.9, 0.8)
        terms = pointwise_bound_terms(pair, 10, 1.0, E2, EvalGrid(0.0, 5.0, 501))
        mu1 = central_moment(pair, 1, 10, 1.0)
        mu2 = central_moment(pair, 2, 10, 1.0)
        assert terms.omega2_arg**2 == pytest.approx(mu2 + mu1 * mu1, rel=1e-10)


class TestIntervalRateBound:
    def test_constant_function_keeps_only_the_moment_term(self):
        f = FunctionSpec.polynomial([5.0])
        pair = PQPair(0.9, 0.8)
        kappa = 2.0
        grid = EvalGrid(0.0, 3.0, 301)
        bound = interval_rate_bound(pair, 6, f, kappa, grid)
        L = 6.0 * 5.0 * (1.0 + kappa**2) * (1.0 + kappa + kappa**2)
        mu2_max = max(central_moment(pair, 2, 6, float(x)) for x in grid.array() if x <= kappa)
        assert bound == pytest.approx(L * mu2_max, rel=1e-12)

    def test_dominates_measured_error_classical(self):
        kappa, n = 2.0, 10
        grid = EvalGrid(0.0, 3.0, 601)
        bound = interval_rate_bound(CLASSICAL, n, FunctionSpec.named("e2"), kappa, grid)
        xs = grid.array()
        xs = xs[xs <= kappa]
        measured = max(abs(moments_closed(CLASSICAL, 2, n, float(x)) - x * x) for x in xs)
        assert measured <= bound

    def test_decreasing_along_schedule(self):
        sched = ParameterSchedule.q_ratio()
        grid = EvalGrid(0.0, 4.0, 401)
        bounds = [interval_rate_bound(sched.pair_at(n), n, FIG1, 3.0, grid) for n in (10, 20, 50)]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_needs_growth_bound(self):
        cubic = FunctionSpec.polynomial([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(DomainError):
            interval_rate_bound(PQPair(0.9, 0.8), 6, cubic, 2.0, EvalGrid(0.0, 3.0, 301))

    def test_grid_must_cover_kappa_plus_one(self):
        with pytest.raises(DomainError):
            interval_rate_bound(PQPair(0.9, 0.8), 6, E2, 2.0, EvalGrid(0.0, 2.5, 251))

    @pytest.mark.parametrize(
        "f, kappa, grid",
        [
            (E2, math.nan, EvalGrid(0.0, 3.0, 301)),
            (E2, math.inf, EvalGrid(0.0, 3.0, 301)),
            (E2, 0.0, EvalGrid(0.0, 3.0, 301)),
            (E2, -1.0, EvalGrid(0.0, 3.0, 301)),
            (FunctionSpec.polynomial([0.0, 0.0]), 2.0, EvalGrid(0.0, 3.0, 301)),
            (lambda t: t * t, 2.0, EvalGrid(0.0, 3.0, 301)),
            (E2, 2.0, EvalGrid(0.5, 3.0, 251)),
        ],
        ids=["kappa-nan", "kappa-inf", "kappa-zero", "kappa-negative", "zero-target",
             "plain-callable", "grid-from-half"],
    )
    def test_refuses_inputs_outside_the_theorem(self, f, kappa, grid):
        with pytest.raises(DomainError):
            interval_rate_bound(PQPair(0.9, 0.8), 6, f, kappa, grid)


class TestWeightedSupError:
    def test_constant_target_is_exact(self):
        pair = ParameterSchedule.q_ratio().pair_at(10)
        err = weighted_sup_error(pair, 10, FunctionSpec.named("e0"), EvalGrid(0.0, 10.0, 101))
        assert err <= 1e-10

    def test_linear_target_matches_closed_form(self):
        sched = ParameterSchedule.q_ratio()
        n = 16
        pair = sched.pair_at(n)
        grid = EvalGrid(0.0, 10.0, 201)
        got = weighted_sup_error(pair, n, E1, grid)
        xs = grid.array()
        want = max(
            abs(central_moment(pair, 1, n, float(x))) / (1.0 + float(x) ** 2) for x in xs
        )
        assert rel_err(got, want) < 1e-9

    def test_quadratic_target_decreases_along_schedule(self):
        sched = ParameterSchedule.q_ratio()
        grid = EvalGrid(0.0, 10.0, 201)
        errs = [weighted_sup_error(sched.pair_at(n), n, E2, grid) for n in (5, 10, 20, 40)]
        assert errs[0] > errs[1] > errs[2] > errs[3]
        assert errs[-1] < 0.2

    def test_plain_callable_is_refused(self):
        pair = ParameterSchedule.q_ratio().pair_at(10)
        with pytest.raises(DomainError, match="FunctionSpec"):
            weighted_sup_error(pair, 10, lambda t: t, EvalGrid(0.0, 10.0, 11))

    def test_untrusted_cells_give_nan(self):
        # 8 terms leave the ladder's inner integrals unconverged, so every cell
        # is untrusted (curves.csv writes NA there) and no sup is reported.  The
        # sup over those cells is 0.3635; with converged cells it is 0.3933
        pair, grid = PQPair(0.9, 0.8), EvalGrid(0.0, 5.0, 6)
        starved = weighted_sup_error(pair, 10, KINK, grid, TruncationPolicy(max_terms=8))
        assert math.isnan(starved)
        assert weighted_sup_error(pair, 10, KINK, grid) == pytest.approx(0.39325, abs=1e-5)


def closed_weighted_e1_error(n):
    """sup over criterion 8's grid (201 points on [0, 10]) of |D_n(t, x) - x| / (1 + x^2)
    on q_ratio, exactly: at p = 1, [n] - [n-1] = q^{n-1}, so the closed first
    moment gives D_n(t, x) - x = (q + x q^{n-1}) / [n-1]."""
    q = Fraction(n, n + 1)
    n_minus_1 = sum(q**j for j in range(n - 1))
    xs = [Fraction(i, 20) for i in range(201)]
    return max((q + x * q ** (n - 1)) / (n_minus_1 * (1 + x * x)) for x in xs)


class TestCriterion8Explanation:
    """Why criterion 8 (n = 80 below 10% of n = 10) stays red for e1: along
    q_ratio the error is Theta(1/n) with n err rising, so err(8n)/err(n) > 1/8."""

    ORDERS = (10, 20, 40, 80)

    def test_n_times_the_e1_error_rises_below_its_limit(self):
        errs = {n: closed_weighted_e1_error(n) for n in self.ORDERS}
        assert float(errs[80] / errs[10]) == pytest.approx(0.13374, abs=5e-6)
        scaled = [float(n * errs[n]) for n in self.ORDERS]
        assert scaled == pytest.approx([1.50859, 1.56326, 1.59614, 1.61407], abs=5e-6)
        assert scaled == sorted(scaled)
        xs = np.linspace(0.0, 10.0, 201)
        limit = np.max((1.0 + xs / math.e) / ((1.0 - 1.0 / math.e) * (1.0 + xs**2)))
        assert limit == pytest.approx(1.63305, abs=5e-6)
        assert scaled[-1] < limit
        assert errs[80] / errs[10] > Fraction(1, 8)

    def test_the_operator_e1_error_is_the_closed_form(self):
        sched = ParameterSchedule.q_ratio()
        got = weighted_sup_error(sched.pair_at(80), 80, E1, EvalGrid(0.0, 10.0, 201))
        assert rel_err(got, float(closed_weighted_e1_error(80))) < 1e-12


RATE_ORDERS = [10**k for k in range(1, 7)]
RATE_GRID = EvalGrid(0.0, 5.0, 21)
RATE_SCHEDULES = {
    "q_ratio": ParameterSchedule.q_ratio(),
    "harmonic_decay": ParameterSchedule.harmonic_decay(0.5, 1.5),
    "fixed": ParameterSchedule.fixed(PQPair(0.9, 0.8)),
}
# n (1 - p_n) -> a and n (1 - q_n) -> b along each converging schedule:
# q_n = n / (n + 1) gives b = 1
RATE_LIMITS = {"q_ratio": (0.0, 1.0), "harmonic_decay": (0.5, 1.5)}


def exact_scaled_error(pair, n, m):
    """n sup_x |D_n(t^m, x) - x^m| / (1 + x^2) over RATE_GRID, m in {1, 2},
    from the printed closed moments at the float pair's binary values: in
    ``Fraction`` up to n = 100, and in 60-digit mpmath beyond, where one
    ``Fraction`` M2 takes 0.2 s at n = 1,000."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        number = Fraction if n <= 100 else mp.mpf
        p, q = number(pair.p), number(pair.q)
        xs = [number(x) for x in RATE_GRID.array().tolist()]
        return float(n * max(abs(fraction_moment(p, q, m, n, x) - x**m) / (1 + x * x) for x in xs))


def scaled_error_limit(a, b, m):
    """The limit of n sup_x |D_n(t^m, x) - x^m| / (1 + x^2) over RATE_GRID
    along a schedule with n (1 - p_n) -> a and n (1 - q_n) -> b > a.  With
    c = e^{a - b} = lim (q_n / p_n)^n, the closed moments expand to
        n (M1 - x)   -> ((b c - a) x + b - a) / (1 - c),
        n (M2 - x^2) -> 2 x ((b + b c - 2 a) x + 2 (b - a)) / (1 - c),
    which are positive on x > 0, and the sup over a fixed grid of functions
    that converge at each point is the sup of their limits."""
    c = math.exp(a - b)

    def limit(x):
        if m == 1:
            return ((b * c - a) * x + b - a) / (1 - c)
        return 2 * x * ((b + b * c - 2 * a) * x + 2 * (b - a)) / (1 - c)

    return max(limit(x) / (1 + x * x) for x in RATE_GRID.array().tolist())


class TestRatesAtScale:
    """The paper's direct results as n -> infinity, at orders 10 to 10^6 on
    [0, 5] x 21, where every polynomial takes the closed route."""

    @pytest.mark.parametrize("target", [E1, E2, FunctionSpec.polynomial([7.0, -2.0, 25.0])],
                             ids=["e1", "e2", "sweep-quadratic"])
    @pytest.mark.parametrize("schedule", sorted(RATE_SCHEDULES))
    def test_the_rate_bound_dominates_the_error_at_every_order(self, schedule, target):
        # criterion 9, with the sup error over the whole grid, not only over
        # the bound's window [0, kappa]
        sched = RATE_SCHEDULES[schedule]
        rows = convergence_run(sched, target, RATE_ORDERS, RATE_GRID)
        assert [r.n for r in rows if r.ok] == RATE_ORDERS
        for row in rows:
            assert row.sup_error <= interval_rate_bound(sched.pair_at(row.n), row.n, target, 2.0, RATE_GRID)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("schedule", sorted(RATE_LIMITS))
    def test_n_times_the_weighted_error_tends_to_its_limit(self, schedule, m):
        sched, limit = RATE_SCHEDULES[schedule], scaled_error_limit(*RATE_LIMITS[schedule], m)
        rows = convergence_run(sched, FunctionSpec.named(f"e{m}"), RATE_ORDERS, RATE_GRID)
        for row in rows:
            exact = exact_scaled_error(sched.pair_at(row.n), row.n, m)
            # a cell D_n(x) - x^m carries a few ulps of x^m <= 25, so n times
            # the error is off by up to 4.3e-16 n (measured)
            assert row.n * row.weighted_error == pytest.approx(exact, rel=1e-13, abs=row.n * 2e-15)
            # Theta(1/n): the gap to the limit is at most 16 / n (15.9 / n for
            # e2 at n = 10 on q_ratio)
            assert abs(exact - limit) * row.n <= 16.0

    def test_the_limits_of_the_q_ratio_grid(self):
        # README's 1.63305 is e1's limit on criterion 8's grid [0, 10] x 201
        assert scaled_error_limit(0.0, 1.0, 1) == pytest.approx(1.62585, abs=5e-6)
        assert scaled_error_limit(0.0, 1.0, 2) == pytest.approx(5.99349, abs=5e-6)

    def test_the_fixed_pair_saturates_at_n_1e5(self):
        # criterion 10 at n = 10^5: D_n(t, x) = M1(x) -> p x + q (p - q) / p,
        # reached here to rounding, so the weighted error stays at that
        # limit's instead of falling like 1 / n
        pair, n = PQPair(0.9, 0.8), 10**5
        p, q = pair.p, pair.q
        xs = RATE_GRID.array()
        limit = p * xs + q * (p - q) / p
        assert np.abs(moments_closed(pair, 1, n, xs) - limit).max() <= 4e-16 * np.abs(limit).max()
        (row,) = convergence_run(RATE_SCHEDULES["fixed"], E1, [n], RATE_GRID)
        saturated = np.max(np.abs(limit - xs) / (1.0 + xs**2))
        assert row.weighted_error == pytest.approx(saturated, rel=1e-14)
        assert row.weighted_error > 0.08


class TestSchedules:
    def test_q_ratio_pairs_and_limits(self):
        sched = ParameterSchedule.q_ratio()
        pair = sched.pair_at(10)
        assert pair.p == 1.0 and pair.q == pytest.approx(10.0 / 11.0)
        a, b = sched.limits()
        assert a == 1.0
        assert b == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert sched.converging

    def test_harmonic_decay_limits(self):
        sched = ParameterSchedule.harmonic_decay(0.5, 1.5)
        pair = sched.pair_at(20)
        assert pair.p == pytest.approx(1.0 - 0.5 / 20.0)
        assert pair.q == pytest.approx(1.0 - 1.5 / 20.0)
        a, b = sched.limits()
        assert a == pytest.approx(math.exp(-0.5))
        assert b == pytest.approx(math.exp(-1.5))

    def test_harmonic_decay_needs_alpha_below_beta(self):
        with pytest.raises(DomainError):
            ParameterSchedule.harmonic_decay(2.0, 1.0)

    def test_harmonic_decay_regime_exit_is_flagged(self):
        sched = ParameterSchedule.harmonic_decay(0.0, 5.0)
        with pytest.raises(Exception):
            sched.pair_at(4)

    def test_fixed_schedule_flags_non_convergence(self):
        sched = ParameterSchedule.fixed(PQPair(0.9, 0.8))
        assert not sched.converging
        assert sched.pair_at(99) == PQPair(0.9, 0.8)
        assert sched.limits() == (0.0, 0.0)  # p^n and q^n -> 0 for p, q < 1

    @pytest.mark.parametrize(
        "family, parameters",
        [("fixed", {}), ("harmonic_decay", {"alpha": 0.0}), ("bogus", {})],
        ids=["fixed-without-a-pair", "harmonic-decay-without-beta", "unknown-family"],
    )
    def test_an_incomplete_or_unknown_schedule_is_refused(self, family, parameters):
        with pytest.raises(DomainError):
            ParameterSchedule(family, **parameters)


class TestConvergenceRun:
    def test_constant_rows_are_exact(self):
        rows = convergence_run(
            ParameterSchedule.q_ratio(),
            FunctionSpec.named("e0"),
            [5, 10],
            EvalGrid(0.0, 5.0, 51),
        )
        assert all(r.ok for r in rows)
        assert all(r.sup_error <= 1e-10 for r in rows)

    def test_fixed_pair_saturates_instead_of_converging(self):
        rows = convergence_run(
            ParameterSchedule.fixed(PQPair(0.9, 0.8)),
            FIG1,
            [10, 20, 50, 100],
            EvalGrid(0.0, 5.0, 51),
        )
        sups = [r.sup_error for r in rows]
        # approach over moderate n, but the limit operator is not the identity:
        # the error stalls at a strictly positive level
        assert sups[0] > sups[1] > sups[2]
        assert sups[-1] > 10.0
        assert sups[2] == pytest.approx(sups[3], rel=0.05)

    def test_scheduled_run_decreases(self):
        rows = convergence_run(
            ParameterSchedule.q_ratio(),
            FIG1,
            [10, 20, 40, 80],
            EvalGrid(0.0, 10.0, 101),
        )
        sups = [r.weighted_error for r in rows]
        assert sups[0] > sups[1] > sups[2] > sups[3]

    def test_mu2_max_collapses_along_schedule(self):
        rows = convergence_run(
            ParameterSchedule.q_ratio(),
            E2,
            [10, 20, 50, 100],
            EvalGrid(0.0, 10.0, 101),
        )
        mu2 = [r.mu2_max for r in rows]
        assert mu2[0] > mu2[1] > mu2[2] > mu2[3]
        assert mu2[-1] < mu2[0] / 10.0

    def test_bad_row_is_marked_not_fatal(self):
        rows = convergence_run(
            ParameterSchedule.q_ratio(),
            E2,
            [2, 10],
            EvalGrid(0.0, 5.0, 21),
        )
        assert not rows[0].ok and math.isnan(rows[0].sup_error)
        assert rows[1].ok

    def test_a_failed_row_is_logged(self, caplog):
        convergence_run(ParameterSchedule.q_ratio(), E2, [2], EvalGrid(0.0, 5.0, 21))
        (record,) = caplog.records
        assert (record.name, record.levelname) == ("pqbaskakov.analysis", "WARNING")
        assert "n=2" in record.getMessage()

    def test_target_without_growth_bound_runs(self):
        # only weighted_sup_error demands C_f; the convergence table does not
        e3 = FunctionSpec.named("e3")
        with pytest.raises(DomainError):
            weighted_sup_error(PQPair(0.9, 0.8), 10, e3, EvalGrid(0.0, 5.0, 21))
        rows = convergence_run(ParameterSchedule.q_ratio(), e3, [10, 20], EvalGrid(0.0, 5.0, 21))
        assert all(r.ok and math.isfinite(r.weighted_error) for r in rows)

    def test_non_finite_operator_value_marks_row(self):
        # near p = q the band of row k = 0 is wider than the ladder's node cap,
        # so the samples are NaN
        rows = convergence_run(
            ParameterSchedule.fixed(PQPair(0.9, 0.89999)),
            KINK,
            [10, 20],
            EvalGrid(0.0, 5.0, 11),
        )
        assert [r.ok for r in rows] == [False, False]
        assert all(math.isnan(r.sup_error) and r.mu2_max > 0.0 for r in rows)


def _reference_rate_bound(pair, n, f, kappa, grid):
    """interval_rate_bound as a loop over the grid points x <= kappa, each
    with its own central moment and its own scan over step counts."""
    L = 6.0 * f.require_growth_bound() * (1.0 + kappa**2) * (1.0 + kappa + kappa**2)
    xs = grid.array()
    values = f.evaluate(xs)
    bound = 0.0
    for x in xs[xs <= kappa + 1e-12]:
        mu2 = central_moment(pair, 2, n, float(x))
        steps = min(int(math.floor(math.sqrt(L * mu2) / grid.spacing + 1e-12)), len(xs) - 1)
        omega = 0.0
        for s in range(1, steps + 1):
            omega = max(omega, float(np.abs(values[s:] - values[:-s]).max()))
        bound = max(bound, L * mu2 + (1.0 + 1.0 / math.sqrt(L)) * omega)
    return bound


# a strict pair with an order n > 2: a fixed pair, or the q_ratio pair at n
pair_and_order = st.tuples(
    st.sampled_from(STRICT_PAIRS + [None]), st.integers(3, 200)
).map(lambda drawn: (drawn[0] or ParameterSchedule.q_ratio().pair_at(drawn[1]), drawn[1]))


class TestWholeGridEvaluation:
    """The closed forms and the rate bound over a whole grid equal their
    point-by-point evaluation bit for bit."""

    @settings(deadline=None, max_examples=60)
    @given(
        pair_n=pair_and_order,
        xs=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40),
    )
    def test_closed_moments_equal_the_float_calls(self, pair_n, xs):
        pair, n = pair_n
        grid = np.array(xs)
        for closed in (moments_closed, baskakov_moment_closed):
            for m in (0, 1, 2):
                got = closed(pair, m, n, grid)
                assert got.shape == grid.shape and got is not grid
                assert all(g == closed(pair, m, n, x) for g, x in zip(got, xs))
                assert isinstance(closed(pair, m, n, xs[0]), float)
        for order in (1, 2):
            got = central_moment(pair, order, n, grid)
            assert got.shape == grid.shape
            assert all(g == central_moment(pair, order, n, x) for g, x in zip(got, xs))

    @settings(deadline=None, max_examples=40)
    @given(
        pair_n=pair_and_order,
        f=st.sampled_from([E2, KINK, FIG1]),
        stop=st.floats(2.0, 6.0),
        points=st.integers(3, 90),
        at=st.floats(0.0, 1.0),
        on_grid=st.booleans(),
    )
    def test_rate_bound_equals_the_per_point_loop(self, pair_n, f, stop, points, at, on_grid):
        pair, n = pair_n
        grid = EvalGrid(0.0, stop, points)
        xs = grid.array()
        # kappa > 0 a grid point, or halfway between two, with kappa + 1 <= stop
        j = 1 + int(at * (np.count_nonzero(xs + 1.0 <= stop) - 2))
        kappa = xs[j] if on_grid else (xs[j - 1] + xs[j]) / 2.0
        assert interval_rate_bound(pair, n, f, kappa, grid) == _reference_rate_bound(
            pair, n, f, kappa, grid
        )
