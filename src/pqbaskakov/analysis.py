"""Error analysis: moduli of continuity, rate bounds, weighted convergence.

The sups over x that appear in the bounds are discretized on uniform grids;
the discrete modulus is a lower bound of the true sup that converges under
grid refinement.  Keep at least ~20 grid steps per delta for the moduli.

Weighted approximation uses the fixed weight sigma(x) = 1 + x^2 (the only
weight of the polynomial-growth class, so not a parameter) and the norm
sup |f(x)| / sigma(x); convergence of the operator family to f in that
norm requires parameter sequences (p_n, q_n) -> (1, 1) with convergent
p_n^n and q_n^n, which ``ParameterSchedule`` encodes.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    DEFAULT_POLICY,
    DomainError,
    PQPair,
    RegimeError,
    TruncationPolicy,
    _check_nonneg_int,
)
from .baskakov import _cell_table, _moment_columns, baskakov_beta_apply, central_moment
from .functions import FunctionSpec, as_callable

__all__ = [
    "EvalGrid",
    "ParameterSchedule",
    "modulus_of_continuity",
    "second_modulus",
    "BoundTerms",
    "pointwise_bound_terms",
    "interval_rate_bound",
    "weighted_sup_error",
    "ConvergenceRow",
    "convergence_run",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvalGrid:
    """Uniform grid on [start, stop] with the given number of points."""

    start: float
    stop: float
    points: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.start < self.stop < math.inf:
            raise DomainError(
                f"grid needs 0 <= start < stop < inf, got [{self.start}, {self.stop}]"
            )
        points = _check_nonneg_int(self.points, "grid points")
        if points < 2:
            raise DomainError(f"grid needs at least 2 points, got {points}")
        object.__setattr__(self, "points", points)

    @property
    def spacing(self) -> float:
        return (self.stop - self.start) / (self.points - 1)

    def array(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class ParameterSchedule:
    """A rule n -> (p_n, q_n).

    Families:
      * ``fixed``          - constant pair; useful for figure reproduction,
                             but the operator family does NOT converge to f
                             when p < 1 stays fixed.
      * ``q_ratio``        - p_n = 1, q_n = n/(n+1); q_n^n -> 1/e.
      * ``harmonic_decay`` - p_n = 1 - alpha/n, q_n = 1 - beta/n with
                             0 <= alpha < beta; p_n^n -> e^-alpha, q_n^n -> e^-beta.
    """

    family: str
    p: Optional[float] = None
    q: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None

    @classmethod
    def fixed(cls, pair: PQPair) -> "ParameterSchedule":
        return cls(family="fixed", p=pair.p, q=pair.q)

    @classmethod
    def q_ratio(cls) -> "ParameterSchedule":
        return cls(family="q_ratio")

    @classmethod
    def harmonic_decay(cls, alpha: float, beta: float) -> "ParameterSchedule":
        return cls(family="harmonic_decay", alpha=float(alpha), beta=float(beta))

    def __post_init__(self) -> None:
        if self.family == "fixed":
            if self.p is None or self.q is None:
                raise DomainError("fixed schedule needs p and q")
            PQPair(self.p, self.q)
        elif self.family == "q_ratio":
            pass
        elif self.family == "harmonic_decay":
            if self.alpha is None or self.beta is None:
                raise DomainError("harmonic_decay schedule needs alpha and beta")
            if not (0.0 <= self.alpha < self.beta):
                raise DomainError(
                    f"harmonic_decay needs 0 <= alpha < beta, got alpha={self.alpha}, beta={self.beta}"
                )
        else:
            raise DomainError(f"unknown schedule family {self.family!r}")

    @property
    def converging(self) -> bool:
        """Whether p_n, q_n -> 1 (the regime where weighted convergence holds)."""
        if self.family == "fixed":
            return self.p == 1.0 and self.q == 1.0
        return True

    def limits(self) -> tuple[float, float]:
        """(lim p_n^n, lim q_n^n)."""
        if self.family == "q_ratio":
            return 1.0, math.exp(-1.0)
        if self.family == "harmonic_decay":
            return math.exp(-self.alpha), math.exp(-self.beta)
        return float(self.p == 1.0), float(self.q == 1.0)

    def pair_at(self, n: int) -> PQPair:
        if not n >= 1:
            raise DomainError(f"schedule index must satisfy n >= 1, got {n}")
        n = _check_nonneg_int(n, "schedule index n")
        if self.family == "fixed":
            return PQPair(self.p, self.q)
        if self.family == "q_ratio":
            return PQPair(1.0, n / (n + 1.0))
        q_n = 1.0 - self.beta / n
        if q_n <= 0.0:
            raise RegimeError(
                f"harmonic_decay schedule leaves the regime at n={n}: q_n = {q_n} <= 0"
            )
        return PQPair(1.0 - self.alpha / n, q_n)


def _max_steps(delta: float | np.ndarray, spacing: float, count: int) -> np.ndarray:
    """Whole grid steps within delta (a float or an array), capped at count - 1."""
    return np.minimum(np.floor(delta / spacing + 1e-12), count - 1).astype(int)


def _moduli(values: np.ndarray, steps: int, order: int) -> np.ndarray:
    """The discrete modulus of the given order at every step count 0..steps:
    the running max over s of the largest |difference| at s grid steps (0
    where no difference fits; a NaN difference is skipped)."""
    peaks = np.zeros(steps + 1)
    for s in range(1, min(steps, (len(values) - 1) // order) + 1):
        if order == 1:
            diff = values[s:] - values[:-s]
        else:
            diff = values[2 * s:] - 2.0 * values[s:-s] + values[:-2 * s]
        peaks[s] = np.abs(diff).max()
    return np.fmax.accumulate(peaks)


def _modulus(
    f: Union[FunctionSpec, callable], delta: float, grid: EvalGrid, order: int, name: str
) -> float:
    """The discrete modulus of the given order of f at delta on the grid."""
    if not delta >= 0.0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    if delta == 0.0:
        return 0.0
    if delta < grid.spacing:
        warnings.warn(
            f"delta = {delta:.3g} is below the grid spacing {grid.spacing:.3g}; "
            f"the {name} is resolution-limited and reported as 0",
            stacklevel=3,
        )
    values = np.asarray(as_callable(f)(grid.array()), dtype=float)
    steps = int(_max_steps(delta, grid.spacing, len(values)))
    return float(_moduli(values, steps, order)[steps])


def modulus_of_continuity(
    f: Union[FunctionSpec, callable], delta: float, grid: EvalGrid
) -> float:
    """Discrete omega(f, delta): sup over grid x and step h <= delta of |f(x+h) - f(x)|."""
    return _modulus(f, delta, grid, 1, "modulus")


def second_modulus(
    f: Union[FunctionSpec, callable], delta: float, grid: EvalGrid
) -> float:
    """Discrete omega_2(f, delta): sup of |f(x+2h) - 2 f(x+h) + f(x)|, h <= delta."""
    return _modulus(f, delta, grid, 2, "second modulus")


@dataclass(frozen=True)
class BoundTerms:
    """The two computable ingredients of the pointwise error bound:
    omega(f, |mu1|) and the argument sqrt(mu2 + mu1^2) of the second modulus.
    (The absolute constant multiplying the omega_2 term is not exhibited.)"""

    omega_term: float
    omega2_arg: float


def pointwise_bound_terms(
    pair: PQPair, n: int, x: float, f: Union[FunctionSpec, callable], grid: EvalGrid
) -> BoundTerms:
    mu1 = central_moment(pair, 1, n, x)
    mu2 = central_moment(pair, 2, n, x)
    omega = modulus_of_continuity(f, abs(mu1), grid)
    return BoundTerms(omega_term=omega, omega2_arg=math.sqrt(mu2 + mu1 * mu1))


def _rate_constant(f: FunctionSpec, kappa: float, grid: EvalGrid) -> float:
    """L = 6 C_f (1 + kappa^2)(1 + kappa + kappa^2) of ``interval_rate_bound``.

    The one check of the bound's inputs: 0 < kappa < inf, a ``FunctionSpec``
    with a growth bound C_f > 0 (1 / sqrt(L) enters the bound), and a grid
    that covers [0, kappa + 1] for the moduli.
    """
    if not 0.0 < kappa < math.inf:
        raise DomainError(f"the rate bound needs 0 < kappa < inf, got kappa = {kappa}")
    cf = f.default_growth_bound() if isinstance(f, FunctionSpec) else None
    if cf is None or not cf > 0.0:
        raise DomainError(
            f"the rate bound needs a FunctionSpec f with a growth bound C_f > 0, got C_f = {cf} "
            "(give f a growth bound, or use a nonzero polynomial of degree <= 2)"
        )
    if grid.start > 1e-12 or grid.stop < kappa + 1.0:
        raise DomainError(
            f"the rate bound needs a grid covering [0, {kappa + 1.0}] for the moduli, "
            f"got [{grid.start}, {grid.stop}]"
        )
    return 6.0 * cf * (1.0 + kappa**2) * (1.0 + kappa + kappa**2)


def _rate_window(xs: np.ndarray, kappa: float) -> np.ndarray:
    """The grid points x <= kappa of the rate bound, up to 1e-12 of rounding."""
    return xs[xs <= kappa + 1e-12]


def interval_rate_bound(
    pair: PQPair,
    n: int,
    f: FunctionSpec,
    kappa: float,
    grid: EvalGrid,
) -> float:
    """Computable rate bound over [0, kappa] for functions of quadratic growth.

    With L = 6 C_f (1 + kappa^2)(1 + kappa + kappa^2) and the modulus taken
    on [0, kappa + 1], each grid point x <= kappa contributes

        L mu2(x) + (1 + 1/sqrt(L)) omega(f, sqrt(L mu2(x)))

    and the maximum over x is returned, or NaN when mu2 is not finite on the
    whole window.  The moduli arguments both use delta = sqrt(L mu2(x)),
    the choice that closes the underlying proof.
    """
    L = _rate_constant(f, kappa, grid)
    mu2 = central_moment(pair, 2, n, _rate_window(grid.array(), kappa))  # refuses n <= 2
    return float(_rate_bounds(f, L, grid, mu2[None])[0])


def _rate_bounds(f: FunctionSpec, L: float, grid: EvalGrid, mu2: np.ndarray) -> np.ndarray:
    """The bound of ``interval_rate_bound``, with rate constant L, for each
    row of mu2, an (orders, window) block of each order's mu2 on the window
    (``_rate_window``).  f's grid values and one modulus table, built to the
    largest step count any order needs, serve every order: an entry of the
    table does not depend on how far it goes.  An order whose mu2 is not
    finite on the whole window (at a subnormal q) gets a NaN bound."""
    values = np.asarray(as_callable(f)(grid.array()), dtype=float)
    finite = np.isfinite(mu2).all(axis=1)
    mu2 = np.where(finite[:, None], mu2, 0.0)  # a NaN has no step count
    steps = _max_steps(np.sqrt(L * mu2), grid.spacing, len(values))
    omega = _moduli(values, int(steps.max(initial=0)), order=1)
    bounds = np.max(L * mu2 + (1.0 + 1.0 / math.sqrt(L)) * omega[steps], axis=1, initial=0.0)
    return np.where(finite, bounds, math.nan)


def _grid_errors(
    pair: PQPair, n: int, f: FunctionSpec, xs: np.ndarray, fv: np.ndarray, policy: TruncationPolicy
) -> tuple[np.ndarray, np.ndarray, bool]:
    """|D_n(f, x) - f(x)| at each grid point x, that error in the weight
    sigma(x) = 1 + x^2 of the polynomial-growth class, and whether every
    cell is trusted.  The row is one kernel pass, in a cell table on xs
    (the run's own when it is open on the same grid)."""
    with _cell_table(xs):
        cells = [baskakov_beta_apply(pair, f, n, float(x), policy) for x in xs]
    err = np.abs(np.array([cell.value for cell in cells]) - fv)
    return err, err / (1.0 + xs**2), all(cell.trusted for cell in cells)


def weighted_sup_error(
    pair: PQPair,
    n: int,
    f: FunctionSpec,
    grid: EvalGrid,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Discrete sup over the grid of |D_n(f, x) - f(x)| / (1 + x^2); NaN
    unless every operator value on the grid is trusted (as ConvergenceRow.ok).

    The grid should reach far enough right that the weighted error is
    decreasing at the edge; a non-decreasing edge is logged as a hint that
    the reported sup may be truncated.
    """
    if not isinstance(f, FunctionSpec):
        raise DomainError(f"the weighted sup error needs a FunctionSpec f with a growth bound C_f, got {f!r}")
    f.require_growth_bound()
    xs = grid.array()
    fv = np.asarray(as_callable(f)(xs), dtype=float)
    _, weighted, trusted = _grid_errors(pair, n, f, xs, fv, policy)
    if len(weighted) >= 2 and weighted[-1] > weighted[-2]:
        logger.info(
            "weighted error still increasing at the right edge (x = %.3g); "
            "extend the grid to trust the sup",
            xs[-1],
        )
    return float(weighted.max()) if trusted else math.nan


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    p_n: float
    q_n: float
    sup_error: float
    weighted_error: float
    mu2_max: float
    ok: bool = True


def convergence_run(
    schedule: ParameterSchedule,
    f: FunctionSpec,
    n_list: Sequence[int],
    grid: EvalGrid,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> list[ConvergenceRow]:
    """One row per n: measured errors plus the worst central second moment.

    A failing row is marked (NaN fields, ok=False) without aborting the run;
    a row built on an untrusted or non-finite operator value keeps its
    fields but is marked ok=False too.  The output order follows n_list.  A
    row whose n is not a whole number fails and keeps that n as given.
    """
    rows: list[list] = []  # each row's fields, in the order of ConvergenceRow's
    orders = {}  # row position -> (pair, n) of each row with values
    xs = grid.array()
    fv = np.asarray(as_callable(f)(xs), dtype=float)
    for n in n_list:
        pair = None
        try:
            order = _check_nonneg_int(n, "convergence order n")
            pair = schedule.pair_at(order)
            if order <= 2:
                raise DomainError(f"convergence rows need n > 2, got n={order}")
            err, weighted, ok = _grid_errors(pair, order, f, xs, fv, policy)
            orders[len(rows)] = (pair, order)
            rows.append([order, pair.p, pair.q, float(err.max()), float(weighted.max()), math.nan, ok])
        except (DomainError, RegimeError) as exc:
            logger.warning("convergence row n=%s failed: %s", n, exc)
            nan = float("nan")
            p_n, q_n = (nan, nan) if pair is None else (pair.p, pair.q)
            rows.append([n, p_n, q_n, nan, nan, nan, False])
    # every row with values takes its mu2_max (field 5) from one block
    mu2 = _moment_columns(list(orders.values()), xs, (3,))[0]
    for i, mu2_max in zip(orders, mu2.max(axis=1).tolist()):
        rows[i][5] = mu2_max
    return [ConvergenceRow(*fields) for fields in rows]
