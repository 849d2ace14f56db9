"""Per-layer tracing of the pqbaskakov call path, installed from outside.

Each boundary function is replaced, in the namespace where its callers look
it up, by a wrapper.  Span wrappers record (name, start, end, parent, size)
so that self time (duration minus the time covered by child spans) can be
computed afterwards; the three hottest helpers only get counters, because a
span per call would cost more than the work they do.  Spans stay in memory
and are reduced to metrics by ``Tracer.report`` at the end of the process.

The program's source is never edited.  A boundary that no longer exists
(renamed or removed by a refactor) is recorded as missing, and every metric
read from it is reported as absent (None) instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

# (span name, module, attribute path).  A function imported into several
# modules is wrapped in each namespace that calls it.
SPANS = (
    ("cli.config", "pqbaskakov.cli", "validate_config"),
    ("cli.curves", "pqbaskakov.cli", "_curves"),
    ("cli.moments", "pqbaskakov.cli", "_moments"),
    ("cli.convergence", "pqbaskakov.cli", "_convergence"),
    ("cli.bound_report", "pqbaskakov.cli", "_bound_report"),
    ("cli.write_csv", "pqbaskakov.cli", "_write_csv"),
    ("analysis.convergence_run", "pqbaskakov.cli", "convergence_run"),
    ("analysis.rate_bound", "pqbaskakov.cli", "interval_rate_bound"),
    ("baskakov.apply", "pqbaskakov.cli", "baskakov_beta_apply"),
    ("baskakov.apply", "pqbaskakov.analysis", "baskakov_beta_apply"),
    ("baskakov.moments", "pqbaskakov.cli", "moments_closed"),
    ("baskakov.moments", "pqbaskakov.cli", "central_moment"),
    ("baskakov.moments", "pqbaskakov.analysis", "central_moment"),
    ("baskakov.beta_factors", "pqbaskakov.baskakov", "_log_beta_ratio_factors"),
    ("baskakov.basis_row", "pqbaskakov.baskakov", "_log_basis_row"),
    ("quadrature.weight_ratios", "pqbaskakov.baskakov", "batched_weight_ratios"),
    ("core.log_fact", "pqbaskakov.baskakov", "_log_fact_table"),
    ("core.log_fact", "pqbaskakov.core", "_log_fact_table"),
    ("functions.evaluate", "pqbaskakov.functions", "FunctionSpec.evaluate"),
)

# Count-only boundaries.
COUNTERS = (
    ("quadrature.log_power_basis", "pqbaskakov.quadrature", "_LadderWindow.log_power_basis"),
    ("quadrature.window", "pqbaskakov.quadrature", "_LadderWindow"),
    ("core.log_pq_number", "pqbaskakov.core", "log_pq_number"),
)

# metric -> (unit, span or counter it is read from, statistic)
METRICS = {
    "core.log_fact.self_s": ("s", "core.log_fact", "self_s"),
    "core.log_pq_number.calls": ("count", "core.log_pq_number", "calls"),
    "functions.evaluate.calls": ("count", "functions.evaluate", "calls"),
    "functions.evaluate.points": ("count", "functions.evaluate", "size"),
    "quadrature.weight_ratios.calls": ("count", "quadrature.weight_ratios", "calls"),
    "quadrature.weight_ratios.self_s": ("s", "quadrature.weight_ratios", "self_s"),
    "quadrature.weight_ratios.distinct_ratio": ("ratio", "quadrature.weight_ratios", "distinct_ratio"),
    "quadrature.window.builds": ("count", "quadrature.window", "calls"),
    "quadrature.window.nodes": ("count", "quadrature.window", "size"),
    "quadrature.log_power_basis.calls": ("count", "quadrature.log_power_basis", "calls"),
    "baskakov.apply.calls": ("count", "baskakov.apply", "calls"),
    "baskakov.apply.ms_p50": ("ms", "baskakov.apply", "ms_p50"),
    "baskakov.apply.ms_p99": ("ms", "baskakov.apply", "ms_p99"),
    "baskakov.apply.self_s": ("s", "baskakov.apply", "self_s"),
    "baskakov.beta_factors.calls": ("count", "baskakov.beta_factors", "calls"),
    "baskakov.beta_factors.self_s": ("s", "baskakov.beta_factors", "self_s"),
    "baskakov.beta_factors.distinct_ratio": ("ratio", "baskakov.beta_factors", "distinct_ratio"),
    "baskakov.basis_row.calls": ("count", "baskakov.basis_row", "calls"),
    "baskakov.basis_row.self_s": ("s", "baskakov.basis_row", "self_s"),
    "baskakov.basis_row.useful_ratio": ("ratio", "baskakov.basis_row", "useful_ratio"),
    "baskakov.moments.self_s": ("s", "baskakov.moments", "self_s"),
    "baskakov.untrusted": ("count", "baskakov.apply", "untrusted"),
    "analysis.convergence_run.self_s": ("s", "analysis.convergence_run", "self_s"),
    "analysis.rate_bound.self_s": ("s", "analysis.rate_bound", "self_s"),
    "cli.config.s": ("s", "cli.config", "total_s"),
    "cli.curves.s": ("s", "cli.curves", "total_s"),
    "cli.moments.s": ("s", "cli.moments", "total_s"),
    "cli.convergence.s": ("s", "cli.convergence", "total_s"),
    "cli.bound_report.s": ("s", "cli.bound_report", "total_s"),
    "cli.write_csv.self_s": ("s", "cli.write_csv", "self_s"),
    "cli.write_csv.bytes": ("count", "cli.write_csv", "size"),
}

# Span fields.
NAME, START, END, PARENT, SIZE = range(5)


def _resolve(module: str, path: str) -> Optional[tuple[Any, str, Any]]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Collects spans and counts for one process; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.sizes: Counter = Counter()
        self.keys: defaultdict = defaultdict(set)
        self.untrusted = 0
        self.missing: list[str] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        targets = []
        for kind, table in (("count", COUNTERS), ("span", SPANS)):
            for name, module, path in table:
                found = _resolve(module, path)
                if found is None:
                    self.missing.append(f"{module}.{path}")
                    continue
                owner, attr, func = found
                wrap = self._counter if kind == "count" else self._span
                targets.append((owner, attr, wrap(name, func)))
        for owner, attr, wrapper in targets:
            setattr(owner, attr, wrapper)

    def _span(self, name: str, func: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        extra = _EXTRAS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = func(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if extra is not None:
                extra(self, record, args, result)
            return result

        return wrapper

    def _counter(self, name: str, func: Callable) -> Callable:
        counts = self.counts
        size = _COUNTER_SIZES.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            counts[name] += 1
            if size is not None:
                self.sizes[name] += size(result)
            return result

        return wrapper

    # -- reduction ----------------------------------------------------------

    def report(self) -> dict:
        """Per-layer metrics of this process (None where a boundary is missing),
        plus the list of missing boundaries."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        stats: defaultdict = defaultdict(lambda: defaultdict(float))
        durations: defaultdict = defaultdict(list)
        rows: defaultdict = defaultdict(lambda: [0, 0])  # apply span -> [last row, all rows]
        for index, span in enumerate(self.spans):
            name, duration = span[NAME], span[END] - span[START]
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - covered[index]
            entry["size"] += span[SIZE]
            durations[name].append(duration)
            if name == "baskakov.basis_row":
                group = rows[span[PARENT]]
                group[0] = span[SIZE]
                group[1] += span[SIZE]
        for name, calls in self.counts.items():
            stats[name]["calls"] = calls
            stats[name]["size"] = self.sizes[name]
        for name, keys in self.keys.items():
            stats[name]["distinct_ratio"] = _ratio(len(keys), stats[name]["calls"])
        apply_ms = sorted(1e3 * d for d in durations["baskakov.apply"])
        if apply_ms:
            stats["baskakov.apply"]["ms_p50"] = apply_ms[len(apply_ms) // 2]
            stats["baskakov.apply"]["ms_p99"] = apply_ms[math.ceil(0.99 * len(apply_ms)) - 1]
        stats["baskakov.apply"]["untrusted"] = self.untrusted
        stats["baskakov.basis_row"]["useful_ratio"] = _ratio(
            sum(last for last, _ in rows.values()), sum(total for _, total in rows.values())
        )

        absent = {name for name, module, path in SPANS + COUNTERS
                  if f"{module}.{path}" in self.missing}
        metrics = {}
        for metric, (unit, source, stat) in METRICS.items():
            value = None if source in absent else stats[source][stat]
            metrics[metric] = int(value) if value is not None and unit == "count" else value
        return {"metrics": metrics, "missing": self.missing}


def _record_points(tracer: Tracer, span: list, args: tuple, result: Any) -> None:
    x = args[1]
    span[SIZE] = getattr(x, "size", 1)


def _record_key(tracer: Tracer, span: list, args: tuple, result: Any) -> None:
    # (pair, n, k_count, f) for the ladder ratios, (pair, n, m, k_count) for
    # the Beta factors
    tracer.keys[span[NAME]].add(args[:4])


def _record_row_length(tracer: Tracer, span: list, args: tuple, result: Any) -> None:
    span[SIZE] = args[3]


def _record_trust(tracer: Tracer, span: list, args: tuple, result: Any) -> None:
    if not result.trusted:
        tracer.untrusted += 1


def _record_bytes(tracer: Tracer, span: list, args: tuple, result: Any) -> None:
    span[SIZE] = os.path.getsize(args[0])


_EXTRAS = {
    "functions.evaluate": _record_points,
    "quadrature.weight_ratios": _record_key,
    "baskakov.beta_factors": _record_key,
    "baskakov.basis_row": _record_row_length,
    "baskakov.apply": _record_trust,
    "cli.write_csv": _record_bytes,
}

_COUNTER_SIZES = {"quadrature.window": lambda window: window.i_hi - window.i_lo + 1}
