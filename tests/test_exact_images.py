"""The polynomial images of D_n and B_n against the exact oracle of
``exact_images``: its two forms agree, every cell of the closed route (the
default route of a polynomial target) is within 1e-14 of exact, and every
trusted cell of the row routes within its stated bound, each relative to
the size sum_d |c_d| U_d(x) of the terms of the exact value."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqbaskakov import FunctionSpec, PQPair, ParameterSchedule, baskakov, baskakov_apply, baskakov_beta_apply

from conftest import exact_number, fraction_moment
from exact_images import (
    as_fractions,
    combined_image,
    image_error,
    plain_taylor_image,
    recurrence_images,
    taylor_image,
    within_bound,
)

FAMILIES = {
    "0.9-0.8": lambda n: PQPair(0.9, 0.8),
    "0.95-0.9": lambda n: PQPair(0.95, 0.9),
    "q_ratio": ParameterSchedule.q_ratio().pair_at,
    "classical": lambda n: PQPair(1.0, 1.0),
}


def exact_pair(pair):
    return Fraction(pair.p), Fraction(pair.q)


@pytest.mark.parametrize("n", [6, 7, 12, 40, 200])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_the_taylor_sum_is_the_recurrence(family, n):
    p, q = exact_pair(FAMILIES[family](n))
    images = as_fractions(recurrence_images(p, q, n, 5))
    assert images == [taylor_image(p, q, n, m) for m in range(6)]
    # and U_1, U_2 are the printed first and second moments
    for x in (Fraction(0), Fraction(1, 3), Fraction(5, 2)):
        for m in (1, 2):
            assert sum(c * x**j for j, c in enumerate(images[m])) == fraction_moment(p, q, m, n, x)


strict_pairs = st.one_of(
    st.sampled_from([PQPair(0.9, 0.8), PQPair(0.9, 0.75), PQPair(0.95, 0.9)]),
    st.builds(lambda p, ratio: PQPair(p, p * ratio), st.floats(0.5, 1.0), st.floats(0.5, 0.999)),
)


@settings(deadline=None, max_examples=60)
# the benchmark's quadratic at the end of the range, on q_ratio and at a fixed pair
@example(pair=None, n=3000, coefficients=[7.0, -2.0, 25.0], xs=[0.0, 2.5, 5.0, 60.0])
@example(pair=PQPair(0.9, 0.8), n=3000, coefficients=[2015.0, -12.0, 18.0], xs=[0.0, 5.0, 60.0])
# a subnormal value: the nearest doubles to the exact 5.7e-311 are 2^-1074
# apart, 1.07e-14 of it, so one such step is allowed
@example(pair=None, n=616, coefficients=[0.0, 2.2250738585072014e-308], xs=[0.0])
# a subnormal target: its cell at x = 4 was 1.14 steps off while c u was
# rounded to the subnormal grid before Horner's rule multiplied it by x
@example(pair=None, n=3, coefficients=[0.0, 2.2250738585e-313], xs=[4.0])
@given(
    pair=st.one_of(st.none(), strict_pairs),  # None: the q_ratio schedule's pair at n
    n=st.integers(3, 3000),
    coefficients=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=5),
    xs=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=6),
)
def test_every_closed_cell_is_within_1e_14_of_exact(pair, n, coefficients, xs):
    pair = pair or ParameterSchedule.q_ratio().pair_at(n)
    coefficients = coefficients[:n]  # the operator needs n above the degree
    f = FunctionSpec.polynomial(coefficients)
    cells = baskakov_beta_apply(pair, f, n, np.array(xs))
    image = combined_image(coefficients, recurrence_images(*exact_pair(pair), n, len(coefficients) - 1))
    for cell, x in zip(cells, xs):
        assert cell.trusted
        assert within_bound(cell.value, image, x, 1e-14, 2.0**-1074), (x, cell.value)


@pytest.mark.parametrize(
    "pair, n",
    [(ParameterSchedule.q_ratio().pair_at(n), n) for n in (190, 1000, 3000)]
    + [(PQPair(0.9, 0.8), 100), (PQPair(0.999, 0.99), 400)],
    ids=["q_ratio-190", "q_ratio-1000", "q_ratio-3000", "0.9-0.8-100", "0.999-0.99-400"],
)
def test_every_image_coefficient_is_within_16_units_of_roundoff(pair, n):
    """u_{m,j} of ``_image_coefficients`` for m <= 4 against the printed
    recurrence in integers: |got - exact| <= 16 u exact, u = 2^-53 (every
    exact coefficient is positive), compared exactly by cross-multiplying."""
    numerators, steps = recurrence_images(*exact_pair(pair), n, 4)
    for m, (got, exact) in enumerate(zip(baskakov._image_coefficients(pair, n, 4), numerators)):
        den = math.prod(steps[:m])
        assert len(got) == len(exact) == m + 1
        for j, (value, a) in enumerate(zip(got, exact)):
            g_num, g_den = value.as_integer_ratio()
            # |g_num / g_den - a / den| <= 16 * 2^-53 * a / den
            assert abs(g_num * den - a * g_den) * 2**53 <= 16 * a * g_den, (m, j, value)


@pytest.mark.parametrize("n", [1, 3, 12, 40])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_the_plain_taylor_sum_is_the_plain_operator(family, n):
    """B_n's images: 1, x and the closed second moment, and at a strict pair
    the moment recurrence <n> T_{m+1}(qx) = q x (1 + px) D_{p,q} T_m(x)
    + <n> q x T_m(qx) up to degree 4, exactly."""
    p, q = exact_pair(FAMILIES[family](n))
    images = [plain_taylor_image(p, q, n, m) for m in range(5)]
    assert images[:2] == [[1], [0, 1]]
    nn = exact_number(p, q, n)
    assert images[2] == [0, p ** (n - 1) / nn, exact_number(p, q, n + 1) / (q * nn)]
    if p == q:
        return
    for m in range(4):
        for x in (Fraction(1, 3), Fraction(5, 2)):
            def at(u, t):
                return sum(a * t**j for j, a in enumerate(u))

            derivative = (at(images[m], p * x) - at(images[m], q * x)) / ((p - q) * x)
            lhs = nn * at(images[m + 1], q * x)
            assert lhs == q * x * (1 + p * x) * derivative * p ** (n - 1) + nn * q * x * at(images[m], q * x)


# Degree 3 and 4 targets on the row routes, whose rows sum basis weights
# built in logs: their error grows with the row's length (with n and x).
# Worst seen at n <= 40, x <= 60: 1.9e-13 on q_ratio and 6.6e-14 at a
# fixed strict pair, on every route; 8.9e-12 on the classical corner, whose
# rows at x = 60 run to thousands of terms.
ROW_ROUTES = {
    "analytic": (lambda pair, f, n, xs: baskakov_beta_apply(pair, f, n, xs, method="analytic"), taylor_image),
    "plain": (lambda pair, f, n, xs: baskakov_apply(pair, f, n, xs), plain_taylor_image),
    # the ladder's ratios of t^m are the Beta factors only at p = 1
    "quadrature": (lambda pair, f, n, xs: baskakov_beta_apply(pair, f, n, xs, method="quadrature"),
                   taylor_image),
}
QUARTICS = ((0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0, 1.0), (7.0, -2.0, 25.0, 0.5, -0.01))


@pytest.mark.parametrize("n", [5, 40])
@pytest.mark.parametrize(
    "route, family, bound",
    [("analytic", "0.95-0.9", 3e-13), ("analytic", "q_ratio", 3e-13), ("plain", "0.95-0.9", 3e-13),
     ("plain", "q_ratio", 3e-13), ("plain", "classical", 2e-11), ("quadrature", "q_ratio", 3e-13)],
)
def test_row_route_cells_of_degree_3_and_4_are_near_exact(route, family, bound, n):
    apply, image = ROW_ROUTES[route]
    pair = FAMILIES[family](n)
    images = [image(*exact_pair(pair), n, m) for m in range(5)]
    xs = np.array([0.0, 0.1, 1.0, 2.5, 10.0, 60.0])
    for coefficients in QUARTICS:
        cells = apply(pair, FunctionSpec.polynomial(coefficients), n, xs)
        # every cell is trusted but the classical corner's at x = 60
        assert all(cell.trusted for cell, x in zip(cells, xs) if family != "classical" or x <= 10.0)
        for cell, x in zip(cells, xs.tolist()):
            if cell.trusted:
                assert image_error(cell.value, images, coefficients, x) <= bound, (x, cell.value)
