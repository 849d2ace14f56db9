"""Seeded experiment configs for the three benchmark workloads.

Each workload is a list of INI configs in the format ``pqbaskakov run``
reads.  Seed 0 reproduces the reference inputs exactly (for ``fixed-pair``
the built-in ``figure1`` and ``figure2`` demos); any other seed draws the
pair and the target coefficients from a narrow band around them.  The band
is kept narrow on purpose: every seed must ask for nearly the same amount of
work (the same basis-row doublings and ladder-window sizes), so that runs
with different seeds are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

DEFAULT_SEED = 0
NAMES = ("fixed-pair", "schedule-sweep", "ladder")


@dataclass(frozen=True)
class Config:
    """One experiment config, kept both as values (for the oracle) and as text."""

    name: str
    pair: Optional[tuple[float, float]]  # None for the q_ratio schedule
    coefficients: Optional[tuple[float, ...]]  # None for the named target
    named: Optional[str]
    n_list: tuple[int, ...]
    grid: tuple[float, float, int]
    outputs: tuple[str, ...]
    kappa: Optional[float] = None

    def pair_at(self, n: int) -> tuple[float, float]:
        # the q_ratio schedule: p_n = 1, q_n = n/(n+1), computed as the program does
        return self.pair if self.pair is not None else (1.0, n / (n + 1.0))

    def text(self) -> str:
        lines = []
        if self.pair is not None:
            lines += ["[pair]", f"p = {self.pair[0]!r}", f"q = {self.pair[1]!r}", ""]
        else:
            lines += ["[schedule]", "family = q_ratio", ""]
        lines.append("[function]")
        if self.coefficients is not None:
            lines.append("coefficients = " + ", ".join(repr(c) for c in self.coefficients))
        else:
            lines.append(f"named = {self.named}")
        lines += ["", "[run]", "n_list = " + ", ".join(str(n) for n in self.n_list)]
        lines.append("outputs = " + ", ".join(self.outputs))
        if self.kappa is not None:
            lines.append(f"kappa = {self.kappa!r}")
        start, stop, points = self.grid
        lines += ["", "[grid]", f"start = {start!r}", f"stop = {stop!r}", f"points = {points}"]
        lines += ["", "[output]", f"path = {self.name}_out", ""]
        return "\n".join(lines)

    def evals(self) -> int:
        """D_n(f, x) evaluations the config requests: curves cells plus
        convergence grid points."""
        cells = len(self.n_list) * self.grid[2]
        return cells * (("curves" in self.outputs) + ("convergence" in self.outputs))


def _jitter(rng: random.Random, value: float, half_width: float, digits: int) -> float:
    return round(value + rng.uniform(-half_width, half_width), digits)


def _scaled(rng: random.Random, coefficients: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(round(c * (1.0 + rng.uniform(-0.05, 0.05)), 4) for c in coefficients)


def build(workload: str, seed: int) -> list[Config]:
    """The configs of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    base = seed == DEFAULT_SEED
    if workload == "fixed-pair":
        demos = (("figure1", (0.9, 0.8), (2015.0, -12.0, 18.0)),
                 ("figure2", (0.9, 0.75), (7.0, -2.0, 25.0)))
        configs = []
        for name, (p, q), coefficients in demos:
            if not base:
                p, q = _jitter(rng, p, 0.001, 6), _jitter(rng, q, 0.001, 6)
                coefficients = _scaled(rng, coefficients)
            configs.append(Config(name, (p, q), coefficients, None, (10, 20, 50, 100),
                                  (0.0, 5.0, 101), ("curves", "moments")))
        return configs
    if workload == "schedule-sweep":
        coefficients = (7.0, -2.0, 25.0) if base else _scaled(rng, (7.0, -2.0, 25.0))
        # n >= 148 is kept on purpose: there the basis tail mass is round-off
        # above rel_tol and some curves cells come out NA (a known defect)
        return [Config("sweep", None, coefficients, None, tuple(range(10, 191, 6)),
                       (0.0, 5.0, 21), ("curves", "moments", "convergence", "bound-report"),
                       kappa=2.0)]
    if workload == "ladder":
        pair = (0.9, 0.8) if base else (_jitter(rng, 0.9, 0.001, 6), _jitter(rng, 0.8, 0.001, 6))
        stop = 5.0 if base else _jitter(rng, 5.0, 0.05, 4)
        return [
            Config("ladder_fixed", pair, None, "abs_t_minus_1", (10, 20), (0.0, 5.0, 101),
                   ("curves",)),
            Config("ladder_sched", None, None, "abs_t_minus_1", (20, 40), (0.0, stop, 11),
                   ("curves",)),
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(NAMES)}")
