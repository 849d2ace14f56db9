import numpy as np
import pytest

from pqbaskakov import DomainError, FunctionSpec


class TestPolynomial:
    def test_evaluates_ascending_coefficients(self):
        f = FunctionSpec.polynomial([2015.0, -12.0, 18.0])
        assert f(0.0) == 2015.0
        assert f(1.0) == 2021.0
        np.testing.assert_allclose(f(np.array([0.0, 2.0])), [2015.0, 2063.0])

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

