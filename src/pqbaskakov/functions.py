"""Target-function descriptions used by the operators and experiments.

A ``FunctionSpec`` is a callable description of f: [0, inf) -> R.  Two
kinds exist: ``polynomial`` (ascending coefficients) and ``named`` (drawn
from a small registry).  The operators sample f at nodes that run off to
infinity, so every kind is defined on the whole half-line.
An optional growth bound C_f certifies |f(x)| <= C_f (1 + x^2); it is
required by the weighted-norm machinery and validated by sampling.

A polynomial is evaluated by Horner's rule, c_d, then c_{d-1} + v x, down
to c_0 + v x, in the same order and with the same result types as
``numpy.polynomial.polynomial.polyval``, so its values are bitwise polyval's
without loading ``numpy.polynomial``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import DomainError

__all__ = ["FunctionSpec", "NAMED_FUNCTIONS"]

ArrayLike = Union[float, np.ndarray]


def _abs_t_minus_1(t: ArrayLike) -> ArrayLike:
    return np.abs(np.asarray(t, dtype=float) - 1.0)


# name -> (callable, polynomial coefficients if the function is one, default C_f)
NAMED_FUNCTIONS: dict[str, tuple[Callable[[ArrayLike], ArrayLike], Optional[tuple[float, ...]], Optional[float]]] = {
    "e0": (lambda t: np.ones_like(np.asarray(t, dtype=float)), (1.0,), 1.0),
    "e1": (lambda t: np.asarray(t, dtype=float) + 0.0, (0.0, 1.0), 1.0),
    "e2": (lambda t: np.asarray(t, dtype=float) ** 2, (0.0, 0.0, 1.0), 1.0),
    "e3": (lambda t: np.asarray(t, dtype=float) ** 3, (0.0, 0.0, 0.0, 1.0), None),
    "abs_t_minus_1": (_abs_t_minus_1, None, 2.0),
}

_GROWTH_SAMPLE = np.concatenate([np.linspace(0.0, 10.0, 201), np.geomspace(10.0, 1e4, 40)])


@dataclass(frozen=True)
class FunctionSpec:
    """A target function: polynomial coefficients or a registry name."""

    kind: str
    coefficients: Optional[tuple[float, ...]] = None
    name: Optional[str] = None
    growth_bound_Cf: Optional[float] = field(default=None)

    @classmethod
    def polynomial(
        cls, coefficients: Sequence[float], growth_bound_Cf: Optional[float] = None
    ) -> "FunctionSpec":
        coeffs = tuple(float(c) for c in coefficients)
        if not coeffs:
            raise DomainError("polynomial coefficient list must be non-empty")
        return cls(kind="polynomial", coefficients=coeffs, growth_bound_Cf=growth_bound_Cf)

    @classmethod
    def named(cls, name: str, growth_bound_Cf: Optional[float] = None) -> "FunctionSpec":
        if name not in NAMED_FUNCTIONS:
            raise DomainError(
                f"unknown named function {name!r}; registered: {sorted(NAMED_FUNCTIONS)}"
            )
        if growth_bound_Cf is None:
            growth_bound_Cf = NAMED_FUNCTIONS[name][2]
        return cls(kind="named", name=name, growth_bound_Cf=growth_bound_Cf)

    def __post_init__(self) -> None:
        if self.kind not in ("polynomial", "named"):
            raise DomainError(f"unknown FunctionSpec kind {self.kind!r}")
        if self.growth_bound_Cf is not None:
            if self.growth_bound_Cf <= 0.0:
                raise DomainError("growth bound C_f must be positive")
            self._validate_growth_bound()

    def _validate_growth_bound(self) -> None:
        cf = self.growth_bound_Cf
        assert cf is not None
        fx = np.abs(self.evaluate(_GROWTH_SAMPLE))
        bound = cf * (1.0 + _GROWTH_SAMPLE**2)
        if np.any(fx > bound * (1.0 + 1e-12)):
            worst = float(_GROWTH_SAMPLE[np.argmax(fx - bound)])
            raise DomainError(
                f"growth bound C_f = {cf} violated by sampling near x = {worst:.6g}"
            )

    def evaluate(self, x: ArrayLike) -> ArrayLike:
        if self.kind == "polynomial":
            assert self.coefficients is not None
            x = np.asarray(x, dtype=float)
            *lower, top = self.coefficients
            value = top + x * 0
            for c in reversed(lower):
                value = c + value * x
            return value
        assert self.name is not None
        return NAMED_FUNCTIONS[self.name][0](x)

    def __call__(self, x: ArrayLike) -> ArrayLike:
        out = self.evaluate(x)
        if np.isscalar(x):
            return float(out)
        return out

    def as_polynomial(self) -> Optional[tuple[float, ...]]:
        """Ascending coefficients when the function is exactly a polynomial."""
        if self.kind == "polynomial":
            return self.coefficients
        assert self.name is not None
        return NAMED_FUNCTIONS[self.name][1]

    @property
    def degree(self) -> Optional[int]:
        coeffs = self.as_polynomial()
        if coeffs is None:
            return None
        return max((d for d, c in enumerate(coeffs) if c != 0.0), default=0)

    def default_growth_bound(self) -> Optional[float]:
        """C_f for polynomials of degree <= 2: sum of |coefficients| works since
        |c0| + |c1| x + |c2| x^2 <= (sum |c|)(1 + x^2) on x >= 0."""
        if self.growth_bound_Cf is not None:
            return self.growth_bound_Cf
        coeffs = self.as_polynomial()
        if coeffs is not None and (self.degree or 0) <= 2:
            return float(sum(abs(c) for c in coeffs))
        return None

    def require_growth_bound(self) -> float:
        cf = self.default_growth_bound()
        if cf is None:
            raise DomainError(
                "this operation needs a growth bound C_f with |f| <= C_f (1 + x^2); "
                "set growth_bound_Cf on the FunctionSpec"
            )
        return cf


def as_callable(f: Union[FunctionSpec, Callable[[ArrayLike], ArrayLike]]) -> Callable[[ArrayLike], ArrayLike]:
    """Accept either a FunctionSpec or a plain callable."""
    if isinstance(f, FunctionSpec):
        return f.evaluate
    if callable(f):
        return f
    raise DomainError(f"expected a FunctionSpec or callable, got {type(f)!r}")

