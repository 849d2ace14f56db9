"""The polynomial images of D_n against the exact oracle of
``exact_images``: its two forms agree, and every cell of the closed route
(the default route of a polynomial target) is within 1e-14 of exact,
relative to the size sum_d |c_d| U_d(x) of the terms of the exact value."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqbaskakov import FunctionSpec, PQPair, ParameterSchedule, baskakov_beta_apply

from conftest import fraction_moment
from exact_images import as_fractions, combined_image, recurrence_images, relative_error, taylor_image

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
        assert relative_error(cell.value, image, x) <= 1e-14, (x, cell.value)
