"""Exact images U_m(x) = D_n(t^m, x) of the Beta-weighted operator (its
analytic route), as ascending coefficient lists of polynomials in x, by two
independent forms that share no code with the program or with each other.
Both take a rational pair p, q (``Fraction``, for a float pair its exact
binary values) with q < p, or the classical corner p = q = 1.

* ``taylor_image`` - the finite Taylor sum, in ``Fraction``; and
  ``plain_taylor_image``, the same sum for the plain operator B_n, whose
  sample is the node power node_k^m instead of the Beta ratio.  The basis
  weight is b_{n,k}(x) = c_k x^k / prod_{i<n+k} (1 + r^i x) with r = q/p and
  c_k = [n+k-1 choose k] p^{k + n(n-1)/2 - (n+k)(n+k-1)/2} q^{k(k-1)/2}, so
  b_{n,k}(x) = O(x^k), and U_m is a polynomial of degree m: its
  coefficients are its Taylor coefficients at 0, to which only k <= m add,
      [x^d] U_m = sum_{k<=d} c_k s_k [x^{d-k}] prod_{i<n+k} 1 / (1 + r^i x),
  with s_k = q^{2m} p^{m(n+k)} B(k+m+1, n-m) / B(k+1, n) the Beta ratio of
  t^m.  B_n(t^m, x) is a polynomial of degree m too: by the recurrence
  <n> T_{m+1}(qx) = q x (1 + px) D_{p,q} T_m(x) + <n> q x T_m(qx) of its
  moments T_m, from T_0 = 1.  The sum is finite, so nothing is truncated.  The series of the
  product is the complete homogeneous one,
      [x^e] prod_{i<N} 1 / (1 + r^i x) = (-1)^e prod_{i=1..e} (1 - r^{N+i-1}) / (1 - r^i).
* ``recurrence_images`` - the (p,q) moment recurrence in its printed form,
  U_0 = 1 and, in coefficients U_m = sum_j u_{m,j} x^j,
      q^{m-1+j} [n-m-1] u_{m+1,j} = p^{n-1} ([j] u_{m,j} + p [j-1] u_{m,j-1})
                                    + p^{n-2-m} [m+1] q^j u_{m,j} + [n] q^{j-1} u_{m,j-1},
  in integers: with p = P/D and q = Q/D, [j] = I_j / D^{j-1} for the integer
  I_j = (P^j - Q^j) / (P - Q), every term on the right carries D^{-(n+j-2)}
  and the left one D^{-(n+j-3)}, so U_m = V_m / D^m with V_m of integer data
  P and Q only.  Each U_m is kept as integer numerators over an integer
  denominator, and nothing is reduced: a gcd of numbers of 10^5 bits and
  more (from P^n at n in the thousands) would cost seconds.
"""

from __future__ import annotations

import math
from fractions import Fraction


def pq_int(p, q, j):
    """[j] = (p^j - q^j) / (p - q), and j p^{j-1} at p = q."""
    return j * p ** (j - 1) if p == q else (p**j - q**j) / (p - q)


def _numbers(p, q, lo, hi):
    """[lo] [lo+1] ... [hi-1]."""
    return math.prod((pq_int(p, q, j) for j in range(lo, hi)), start=Fraction(1))


def beta_ratio(p, q, n, k, m):
    """q^{2m} p^{m(n+k)} B(k+m+1, n-m) / B(k+1, n), with the second-kind
    B(a, b) = q^{1-a(a-1)/2} p^{-a(a+1)/2} [a-1]! [b-1]! / [a+b-1]!: the two
    [n+k]! cancel, and of the other factorials m factors [j] each are left."""
    def prefactor(a):
        return q ** (1 - a * (a - 1) // 2) / p ** (a * (a + 1) // 2)

    return (q ** (2 * m) * p ** (m * (n + k)) * prefactor(k + m + 1) / prefactor(k + 1)
            * _numbers(p, q, k + 1, k + m + 1) / _numbers(p, q, n - m, n))


def node(p, q, n, k):
    """The plain operator's node p^{n-1} [k] / (q^{k-1} [n])."""
    return p ** (n - 1) * pq_int(p, q, k) / (q ** (k - 1) * pq_int(p, q, n))


def taylor_image(p, q, n, m):
    """The ``Fraction`` coefficients of U_m, x^0 first, by the finite Taylor
    sum over k <= m; needs n > m."""
    return _taylor_sum(p, q, n, m, lambda k: beta_ratio(p, q, n, k, m))


def plain_taylor_image(p, q, n, m):
    """The ``Fraction`` coefficients of B_n(t^m, x), x^0 first: the finite
    Taylor sum with the node samples s_k = node_k^m; any n >= 1."""
    return _taylor_sum(p, q, n, m, lambda k: node(p, q, n, k) ** m)


def _taylor_sum(p, q, n, m, sample):
    """sum_k b_{n,k}(x) sample(k) as a polynomial of degree m in x, x^0
    first, from the terms k <= m of its Taylor sum at 0."""
    r = q / p

    def reciprocal_series(big, e):  # [x^e] prod_{i<big} 1 / (1 + r^i x)
        return (-1) ** e * _numbers(r / r, r, big, big + e) / _numbers(r / r, r, 1, e + 1)

    image = [Fraction(0)] * (m + 1)
    for k in range(m + 1):
        binomial = _numbers(p, q, n, n + k) / _numbers(p, q, 1, k + 1)
        exponent = k + n * (n - 1) // 2 - (n + k) * (n + k - 1) // 2
        weight = binomial * p**exponent * q ** (k * (k - 1) // 2) * sample(k)
        for d in range(k, m + 1):
            image[d] += weight * reciprocal_series(n + k, d - k)
    return image


def recurrence_images(p, q, n, degree):
    """U_0 .. U_degree by the printed recurrence, as (one list of integer
    numerators per U_m, x^0 first; the integer steps s_m, such that the
    denominator of U_m is prod_{i<m} s_i); needs n > degree."""
    p, q = Fraction(p), Fraction(q)
    scale = math.lcm(p.denominator, q.denominator)
    P, Q = int(p * scale), int(q * scale)

    # P^j and Q^j for the j the recurrence reads, each once: at large n they
    # are the costly part
    power = {j: (P**j, Q**j) for j in {*range(degree + 1), *range(n - degree - 1, n + 1)}}

    def number(j):  # I_j
        return j * P ** max(j - 1, 0) if P == Q else (power[j][0] - power[j][1]) // (P - Q)

    numbers = [number(j) for j in range(degree + 1)]
    big_n = number(n)
    images, steps = [[1]], []
    for m in range(degree):
        u = images[-1]
        # v_{m+1,j} = (a_j v_{m,j} + b_j v_{m,j-1}) / (Q^{m-1+j} I_{n-m-1}): over
        # the denominator of U_m times the step Q^{2m} I_{n-m-1} D, numerator j
        # gains Q^{m+1-j} (and U_{m+1} = V_{m+1} / D^{m+1}, one D more)
        new = []
        for j in range(m + 2):
            term = 0
            if j <= m:
                term += (power[n - 1][0] * numbers[j] + power[n - 2 - m][0] * numbers[m + 1] * Q**j) * u[j]
            if j:
                term += (power[n][0] * numbers[j - 1] + big_n * Q ** (j - 1)) * u[j - 1]
            new.append(term * Q ** (m + 1 - j))
        images.append(new)
        steps.append(Q ** (2 * m) * number(n - m - 1) * scale)
    return images, steps


def as_fractions(images):
    """The images of ``recurrence_images`` as lists of ``Fraction``
    coefficients."""
    numerators, steps = images
    dens = [math.prod(steps[:m]) for m in range(len(numerators))]
    return [[Fraction(a, den) for a in u] for u, den in zip(numerators, dens)]


def combined_image(coefficients, images):
    """sum_d c_d U_d and sum_d |c_d| U_d (the size of its terms on x >= 0,
    where every U_d is positive) for float coefficients c_d, from the images
    of ``recurrence_images`` to their degree or beyond, as (numerators of
    the one, numerators of the other, x^0 first; their integer denominator).
    Over c_den prod_{m<top} s_m, by Horner's rule in the steps s_m: U_d
    carries the steps from d on."""
    numerators, steps = images
    c = [Fraction(v) for v in coefficients]
    c_den = math.lcm(*(v.denominator for v in c))
    value, scale = [], []
    for d, (v, u) in enumerate(zip(c, numerators)):
        step = steps[d - 1] if d else 1
        value = [a * step for a in value] + [0]
        scale = [a * step for a in scale] + [0]
        for j, a in enumerate(u):
            value[j] += int(v * c_den) * a
            scale[j] += int(abs(v) * c_den) * a
    return value, scale, c_den * math.prod(steps[: len(c) - 1])


def image_error(got, images, coefficients, x):
    """|got - sum_d c_d U_d(x)| / sum_d |c_d| U_d(x) as a float, for images
    U_d given as ``Fraction`` coefficient lists (x^0 first, each positive on
    x >= 0), float coefficients c_d and a float x >= 0."""
    x = Fraction(x)
    values = [sum(a * x**j for j, a in enumerate(u)) for u in images]
    exact = sum(Fraction(c) * v for c, v in zip(coefficients, values))
    size = sum(abs(Fraction(c)) * v for c, v in zip(coefficients, values))
    error = abs(Fraction(got) - exact)
    return float(error / size) if size else float(error)  # 0 at a root of every U_d


def within_bound(got, image, x, rel, floor):
    """Whether |got - sum_d c_d U_d(x)| <= max(rel sum_d |c_d| U_d(x), floor),
    for the ``combined_image`` of the c_d, a float x >= 0 and floats rel and
    floor: exactly, in integers, with no division."""
    value, scale, den = image
    x_num, x_den = x.as_integer_ratio()
    top = len(value) - 1
    powers = [x_num**j * x_den ** (top - j) for j in range(top + 1)]
    g_num, g_den = float(got).as_integer_ratio()
    r_num, r_den = rel.as_integer_ratio()
    f_num, f_den = floor.as_integer_ratio()
    exact = sum(a * w for a, w in zip(value, powers))
    size = sum(a * w for a, w in zip(scale, powers))
    den *= x_den**top
    # error = |g_num den - exact g_den| / (den g_den), size / den
    error = abs(g_num * den - exact * g_den)
    return error * r_den <= r_num * size * g_den or error * f_den <= f_num * den * g_den
