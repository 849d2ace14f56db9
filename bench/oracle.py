"""Per-cell checks of the CSVs a workload writes.

Polynomial targets are checked against the closed first and second moments
of D_n, evaluated in exact rational arithmetic (``fractions.Fraction``) from
the pair as stored in the config: D_n(c0 + c1 t + c2 t^2, x) equals
c0 + c1 M1(x) + c2 M2(x), whatever route the program took to get there.
The moments are quadratics in x, so only their coefficients need exact
arithmetic; each is rounded once to a float.

The non-polynomial target |t - 1| has no closed form.  At every seed its
cells must be finite and non-negative, and at p = 1 they must lie between
|M1 - 1| (Jensen) and sqrt(M2 - 2 M1 + 1) (Cauchy-Schwarz).  At the default
seed they must also match the values recorded at the benchmark's first
commit (``reference/ladder_seed0.json``) to 1e-13 relative.

A cell is one value the program computed: a curves entry, one of the five
moments of a moments row, sup_error / weighted_error / mu2_max of a
convergence row, or mu2_max / rate_bound of a bound-report row.  ``NA``
cells count as failed but not as wrong; a value outside its tolerance is
wrong, and so is a broken file or an exit code that contradicts the NA
cells present.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Optional

from workloads import DEFAULT_SEED, Config

# Tolerances, fixed before measuring.  The worst errors of the program at
# commit 367fef2 over seeds 0-19 are 4.8e-13 (fixed-pair) and 1.6e-12
# (schedule-sweep), so 1e-10 leaves room for round-off while still catching
# a wrong factor or term.
CELL_RTOL = 1e-10
REFERENCE_RTOL = 1e-13
REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "ladder_seed0.json"


@lru_cache(maxsize=None)
def moment_coefficients(p: float, q: float, n: int) -> tuple[Fraction, ...]:
    """Exact (a1, b1, a2, b2, c2) with M1 = a1 x + b1 and M2 = a2 x^2 + b2 x + c2,
    the closed moments of D_n at the pair (p, q) with q < p; needs n > 2."""
    p, q = Fraction(p), Fraction(q)

    def number(k: int) -> Fraction:  # [k] = (p^k - q^k) / (p - q)
        return (p**k - q**k) / (p - q)

    nn, n1, n2 = number(n), number(n - 1), number(n - 2)
    a1 = nn / n1
    b1 = p ** (n - 2) * q / n1
    a2 = nn * (nn + p**n / q) / (q * n1 * n2)
    b2 = nn * (p ** (n - 3) * q**2 + 2 * p ** (n - 2) * q + p ** (n - 1)) / (q * n1 * n2)
    c2 = p ** (2 * n - 5) * q * (p + q) / (n1 * n2)
    return a1, b1, a2, b2, c2


@dataclass
class Moments:
    """Moments of D_n at one (pair, n) as quadratics in x whose coefficients
    are exact, each rounded once to a float."""

    p: float
    q: float
    n: int

    def __post_init__(self) -> None:
        a1, b1, a2, b2, c2 = moment_coefficients(self.p, self.q, self.n)
        exact = {
            "m1": (Fraction(0), a1, b1),
            "m2": (a2, b2, c2),
            "mu1": (Fraction(0), a1 - 1, b1),
            "mu2": (a2 - 2 * a1 + 1, b2 - 2 * b1, c2),
        }
        self.coefficients = {k: tuple(float(v) for v in c) for k, c in exact.items()}

    def at(self, x: float) -> dict[str, float]:
        return {k: (a * x + b) * x + c for k, (a, b, c) in self.coefficients.items()}


def grid(config: Config) -> list[float]:
    """The x grid exactly as numpy.linspace builds it."""
    start, stop, points = config.grid
    step = (stop - start) / (points - 1)
    return [i * step + start for i in range(points - 1)] + [stop]


@dataclass
class Tally:
    """Cells checked in one repetition."""

    attempted: int = 0
    na: int = 0
    wrong: int = 0
    worst: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def cell(self, text: str, checks: dict) -> None:
        """Count one cell; each check maps the value to (ok, relative error)."""
        self.attempted += 1
        if text == "NA":
            self.na += 1
            return
        value = _number(text)
        ok = math.isfinite(value)
        for name, check in checks.items():
            good, error = check(value) if math.isfinite(value) else (False, math.inf)
            self.worst[name] = max(self.worst.get(name, 0.0), error)
            ok = ok and good
        if not ok:
            self.wrong += 1
            if len(self.problems) < 5:
                self.problems.append(f"{'/'.join(checks)}: {text}")

    @classmethod
    def crashed(cls, cells: int, why: str) -> "Tally":
        """A run that crashed or left a missing or malformed file: every
        cell of the repetition counts as failed."""
        return cls(attempted=cells, wrong=cells, problems=[why])


class Checker:
    """Checks the outputs of one workload's configs; builds the oracle once."""

    def __init__(self, configs: list[Config], seed: int) -> None:
        self.configs = configs
        self.xs = [grid(c) for c in configs]
        self.moments = [
            {n: Moments(*c.pair_at(n), n) for n in c.n_list} for c in configs
        ]
        self.reference: Optional[dict] = None
        if seed == DEFAULT_SEED and any(c.named for c in configs):
            self.reference = json.loads(REFERENCE_FILE.read_text())

    def cells(self) -> int:
        """Cells per repetition (all of them count as failed when a run crashes)."""
        total = 0
        for c in self.configs:
            rows = len(c.n_list) * c.grid[2]
            total += rows * ("curves" in c.outputs) + 5 * rows * ("moments" in c.outputs)
            total += 3 * len(c.n_list) * ("convergence" in c.outputs)
            total += 2 * len(c.n_list) * ("bound-report" in c.outputs)
        return total

    def check(self, out: Path, codes: list[int]) -> Tally:
        tally = Tally()
        for i, config in enumerate(self.configs):
            before = tally.na
            for kind, method in (("curves", self._curves), ("moments", self._moments),
                                 ("convergence", self._convergence),
                                 ("bound-report", self._bound_report)):
                if kind not in config.outputs:
                    continue
                path = out / str(i) / (kind.replace("-", "_") + ".csv")
                try:
                    with open(path, encoding="utf-8", newline="") as handle:
                        rows = list(csv.DictReader(handle))
                    method(i, rows, tally)
                except (OSError, KeyError, ValueError, TypeError) as exc:
                    return Tally.crashed(self.cells(), f"{config.name}/{path.name}: {exc!r}")
            expected = 2 if tally.na > before else 0
            if codes[i] != expected:
                tally.problems.append(f"{config.name}: exit code {codes[i]}, expected {expected}")
        return tally

    # -- one method per output file -----------------------------------------

    def _target(self, config: Config, x: float, m: dict[str, float]) -> tuple[float, float]:
        """Oracle D_n(f, x) and its error scale for a polynomial target."""
        c = (config.coefficients + (0.0, 0.0, 0.0))[:3]
        value = c[0] + c[1] * m["m1"] + c[2] * m["m2"]
        return value, abs(c[0]) + abs(c[1]) * abs(m["m1"]) + abs(c[2]) * m["m2"]

    def _curves(self, i: int, rows: list[dict], tally: Tally) -> None:
        config, xs = self.configs[i], self.xs[i]
        if len(rows) != len(xs) or any(float(r["x"]) != x for r, x in zip(rows, xs)):
            raise ValueError("curves.csv x column differs from the grid")
        for n in config.n_list:
            column = f"D_n={n}"
            moments = self.moments[i][n]
            reference = self.reference[config.name][column] if self.reference else None
            for j, (row, x) in enumerate(zip(rows, xs)):
                m = moments.at(x)
                if config.coefficients is not None:
                    want, scale = self._target(config, x, m)
                    tally.cell(row[column], {"curves": lambda v: _within(v, want, scale)})
                    continue
                checks = {"ladder.bounds": lambda v: _ladder_bounds(config.pair_at(n), m, v)}
                if reference is not None:
                    ref = reference[j]
                    checks["ladder.reference"] = lambda v: _within(v, ref, abs(ref), REFERENCE_RTOL)
                tally.cell(row[column], checks)

    def _moments(self, i: int, rows: list[dict], tally: Tally) -> None:
        config, xs = self.configs[i], self.xs[i]
        expected = [(n, x) for n in config.n_list for x in xs]
        if len(rows) != len(expected):
            raise ValueError("moments.csv has the wrong number of rows")
        for row, (n, x) in zip(rows, expected):
            if int(row["n"]) != n or float(row["x"]) != x:
                raise ValueError(f"moments.csv row {row['n']},{row['x']} out of order")
            m = self.moments[i][n].at(x)
            m1, m2 = _number(row["M1"]), _number(row["M2"])
            scale1 = abs(m["m1"]) + x
            scale2 = m["m2"] + 2.0 * x * abs(m["m1"]) + x * x
            tally.cell(row["M0"], {"moments.M0": lambda v: _within(v, 1.0, 1.0)})
            tally.cell(row["M1"], {"moments.M1": lambda v: _within(v, m["m1"], abs(m["m1"]))})
            tally.cell(row["M2"], {"moments.M2": lambda v: _within(v, m["m2"], m["m2"])})
            # central moments against the oracle, and against the row's own
            # M1 and M2 through mu1 = M1 - x and mu2 = M2 - 2x M1 + x^2
            tally.cell(row["mu1"], {
                "moments.mu1": lambda v: _within(v, m["mu1"], scale1),
                "moments.mu1.identity": lambda v: _within(v, m1 - x, scale1),
            })
            tally.cell(row["mu2"], {
                "moments.mu2": lambda v: _within(v, m["mu2"], scale2),
                "moments.mu2.identity": lambda v: _within(v, m2 - 2.0 * x * m1 + x * x, scale2),
            })

    def _grid_maxima(self, i: int, n: int) -> dict[str, float]:
        """Oracle sup_error, weighted_error and mu2 maxima over the grid."""
        config = self.configs[i]
        c = (config.coefficients + (0.0, 0.0, 0.0))[:3]
        out = {"sup": 0.0, "weighted": 0.0, "scale": 0.0, "mu2": 0.0, "mu2_kappa": 0.0}
        for x in self.xs[i]:
            m = self.moments[i][n].at(x)
            want, scale = self._target(config, x, m)
            error = abs(want - (c[0] + c[1] * x + c[2] * x * x))
            out["sup"] = max(out["sup"], error)
            out["weighted"] = max(out["weighted"], error / (1.0 + x * x))
            out["scale"] = max(out["scale"], scale)
            out["mu2"] = max(out["mu2"], m["mu2"])
            if config.kappa is not None and x <= config.kappa:
                out["mu2_kappa"] = max(out["mu2_kappa"], m["mu2"])
        return out

    def _convergence(self, i: int, rows: list[dict], tally: Tally) -> None:
        config = self.configs[i]
        if [int(r["n"]) for r in rows] != list(config.n_list):
            raise ValueError("convergence.csv rows differ from n_list")
        for row in rows:
            n = int(row["n"])
            if (float(row["p_n"]), float(row["q_n"])) != config.pair_at(n):
                raise ValueError(f"convergence.csv pair at n={n} differs from the schedule")
            want = self._grid_maxima(i, n)
            tally.cell(row["sup_error"], {
                "convergence.sup": lambda v: _within(v, want["sup"], want["scale"])})
            tally.cell(row["weighted_error"], {
                "convergence.weighted": lambda v: _within(v, want["weighted"], want["scale"])})
            tally.cell(row["mu2_max"], {
                "convergence.mu2_max": lambda v: _within(v, want["mu2"], want["mu2"])})

    def _bound_report(self, i: int, rows: list[dict], tally: Tally) -> None:
        config = self.configs[i]
        kappa = config.kappa
        cf = float(sum(abs(c) for c in config.coefficients))
        big_l = 6.0 * cf * (1.0 + kappa**2) * (1.0 + kappa + kappa**2)
        f = [sum(c * x**d for d, c in enumerate(config.coefficients)) for x in self.xs[i]]
        # a modulus of continuity never exceeds the range of f, so
        # L mu2_max <= rate_bound <= L mu2_max + (1 + 1/sqrt(L)) (max f - min f)
        spread = (1.0 + 1.0 / math.sqrt(big_l)) * (max(f) - min(f))
        if [int(r["n"]) for r in rows] != list(config.n_list):
            raise ValueError("bound_report.csv rows differ from n_list")
        for row in rows:
            n = int(row["n"])
            if float(row["kappa"]) != kappa or not math.isclose(float(row["L"]), big_l, rel_tol=1e-15):
                raise ValueError(f"bound_report.csv kappa or L wrong at n={n}")
            mu2 = self._grid_maxima(i, n)["mu2_kappa"]
            low, high = big_l * mu2, big_l * mu2 + spread
            tally.cell(row["mu2_max"], {"bound.mu2_max": lambda v: _within(v, mu2, mu2)})
            tally.cell(row["rate_bound"], {
                "bound.rate_bound": lambda v: _outside(v, low, high, high)})


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _within(value: float, want: float, scale: float, tol: float = CELL_RTOL):
    error = abs(value - want) / scale
    return error <= tol, error


def _outside(value: float, low: float, high: float, scale: float) -> tuple[bool, float]:
    """How far value lies outside [low, high], relative to scale."""
    error = max(low - value, value - high, 0.0) / scale
    return error <= CELL_RTOL, error


def _ladder_bounds(pair: tuple[float, float], m: dict[str, float], value: float):
    """D_n(|t - 1|, x) >= 0; at p = 1 also |M1 - 1| <= value <= sqrt(M2 - 2 M1 + 1)."""
    if value < 0.0:
        return False, math.inf
    if pair[0] != 1.0:
        return True, 0.0
    upper = math.sqrt(max(m["m2"] - 2.0 * m["m1"] + 1.0, 0.0))
    return _outside(value, abs(m["m1"] - 1.0), upper, 1.0 + abs(m["m1"]))
