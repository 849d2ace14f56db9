import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from pqbaskakov import DomainError, FunctionSpec

# points of every kind a caller may pass: ordinary, zero, huge, infinite and
# subnormal, positive and negative
POINTS = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, 5e-324, 1e-310]),
    st.floats(allow_nan=False),
)
COEFFICIENTS = st.lists(
    st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, 1e300, 5e-324])), min_size=1, max_size=6
)


class TestPolynomial:
    def test_evaluates_ascending_coefficients(self):
        f = FunctionSpec.polynomial([2015.0, -12.0, 18.0])
        assert f(0.0) == 2015.0
        assert f(1.0) == 2021.0
        np.testing.assert_allclose(f(np.array([0.0, 2.0])), [2015.0, 2063.0])

    @settings(max_examples=300, deadline=None)
    @given(coefficients=COEFFICIENTS, points=st.lists(POINTS, max_size=5), scalar=st.booleans())
    def test_horner_is_bitwise_polyval(self, coefficients, points, scalar):
        """Evaluation is polyval's own Horner loop: the same values, bit for
        bit (NaN included), and the same result type and shape."""
        x = points[0] if scalar and points else np.array(points)
        with np.errstate(all="ignore"):
            got = FunctionSpec.polynomial(coefficients).evaluate(x)
            want = polyval(np.asarray(x, dtype=float), coefficients)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_rejects_empty_coefficients(self):
        with pytest.raises(DomainError):
            FunctionSpec.polynomial([])

    def test_degree_ignores_trailing_zeros(self):
        assert FunctionSpec.polynomial([1.0, 2.0, 0.0]).degree == 1

    def test_default_growth_bound_for_quadratics(self):
        f = FunctionSpec.polynomial([2015.0, -12.0, 18.0])
        cf = f.default_growth_bound()
        assert cf == 2045.0
        xs = np.linspace(0.0, 100.0, 1001)
        assert np.all(np.abs(f(xs)) <= cf * (1.0 + xs**2) + 1e-9)

    def test_no_default_growth_bound_for_cubics(self):
        f = FunctionSpec.polynomial([0.0, 0.0, 0.0, 1.0])
        assert f.default_growth_bound() is None
        with pytest.raises(DomainError):
            f.require_growth_bound()

    def test_explicit_growth_bound_is_sampled(self):
        with pytest.raises(DomainError):
            FunctionSpec.polynomial([0.0, 0.0, 5.0], growth_bound_Cf=1.0)

    @pytest.mark.parametrize("cf", [np.nan, np.inf, 0.0, -1.0])
    def test_growth_bound_must_be_positive_and_finite(self, cf):
        with pytest.raises(DomainError):
            FunctionSpec.polynomial([1.0, 2.0], growth_bound_Cf=cf)
        with pytest.raises(DomainError):
            FunctionSpec.named("abs_t_minus_1", growth_bound_Cf=cf)


class TestDirectConstruction:
    """The dataclass checks itself, so a spec made without the classmethods
    is refused by the same DomainError."""

    def test_polynomial_without_coefficients(self):
        with pytest.raises(DomainError):
            FunctionSpec("polynomial")

    def test_polynomial_with_empty_coefficients(self):
        with pytest.raises(DomainError):
            FunctionSpec("polynomial", coefficients=())

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            FunctionSpec("named", name="nope")
        with pytest.raises(DomainError):
            FunctionSpec("named")

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            FunctionSpec("spline", coefficients=(1.0,))

    def test_coefficients_become_a_float_tuple(self):
        f = FunctionSpec("polynomial", coefficients=[1, 2])
        assert f.coefficients == (1.0, 2.0)
        assert f == FunctionSpec.polynomial([1.0, 2.0])

    @pytest.mark.parametrize(
        "name, cf", [("e0", 1.0), ("e1", 1.0), ("e2", 1.0), ("e3", None), ("abs_t_minus_1", 2.0)]
    )
    def test_a_named_spec_takes_the_registry_growth_bound(self, name, cf):
        direct = FunctionSpec("named", name=name)
        assert direct == FunctionSpec.named(name)
        assert direct.growth_bound_Cf == cf
        if cf is not None:
            assert direct.require_growth_bound() == cf

    def test_an_explicit_growth_bound_is_kept(self):
        direct = FunctionSpec("named", name="abs_t_minus_1", growth_bound_Cf=3.5)
        assert direct.growth_bound_Cf == 3.5
        assert direct == FunctionSpec.named("abs_t_minus_1", growth_bound_Cf=3.5)
        assert direct != FunctionSpec.named("abs_t_minus_1")


class TestNamed:
    def test_monomials_report_polynomial_form(self):
        assert FunctionSpec.named("e2").as_polynomial() == (0.0, 0.0, 1.0)
        assert FunctionSpec.named("e0").degree == 0

    def test_kink_function_is_not_polynomial(self):
        f = FunctionSpec.named("abs_t_minus_1")
        assert f.as_polynomial() is None
        assert f(0.0) == 1.0 and f(1.0) == 0.0 and f(3.0) == 2.0

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            FunctionSpec.named("nope")

    @pytest.mark.parametrize(
        "name, coefficients",
        [("e0", [1.0]), ("e1", [0.0, 1.0]), ("e2", [0.0, 0.0, 1.0]), ("e3", [0.0, 0.0, 0.0, 1.0])],
    )
    def test_monomial_is_bitwise_its_coefficient_polynomial(self, name, coefficients):
        named, poly = FunctionSpec.named(name), FunctionSpec.polynomial(coefficients)
        points = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-160, 3.0, 1e100, 1e200, 1e300,
                  np.inf, -np.inf, np.linspace(0.0, 10.0, 101), np.geomspace(5e-324, 1e308, 97)]
        with np.errstate(all="ignore"):
            for x in points:
                got, want = named(x), poly(x)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

