from contextlib import contextmanager
from fractions import Fraction

import pytest

from pqbaskakov import PQPair

# strict pairs used throughout: two genuinely two-parameter ones plus the
# single-parameter special case p = 1
STRICT_PAIRS = [PQPair(0.9, 0.8), PQPair(0.95, 0.9), PQPair(1.0, 0.9)]
CLASSICAL = PQPair(1.0, 1.0)


def rel_err(got: float, want: float, floor: float = 1e-300) -> float:
    return abs(got - want) / max(abs(want), floor)


@pytest.fixture(params=STRICT_PAIRS, ids=lambda p: f"p{p.p}-q{p.q}")
def strict_pair(request):
    return request.param


def exact_number(p, q, k):
    """[k]_{p,q} in the arithmetic of p and q, in closed form, so that large k stays fast."""
    return k * p ** (k - 1) if p == q else (p**k - q**k) / (p - q)


def fraction_moment(p, q, m, n, x):
    """moments_closed from the printed formulas, in the arithmetic of p, q
    and x: exact for ``Fraction``, or mpmath's precision for ``mpf``."""
    nn, n1, n2 = (exact_number(p, q, n - j) for j in range(3))
    if m == 1:
        return (nn * x + p ** (n - 2) * q) / n1
    return (
        x * x * nn * (nn + p**n / q) / (q * n1 * n2)
        + x * nn * (p ** (n - 3) * q**2 + 2 * p ** (n - 2) * q + p ** (n - 1)) / (q * n1 * n2)
        + p ** (2 * n - 5) * q * exact_number(p, q, 2) / (n1 * n2)
    )


@contextmanager
def exact_numbers(n):
    """The number type of exact references at order n: ``Fraction`` up to
    n = 3,000, and beyond it mpmath at 60 digits, within the block, since
    Fraction powers of 0.9 at n = 10^5 are too slow."""
    if n <= 3000:
        yield Fraction
        return
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        yield mp.mpf
