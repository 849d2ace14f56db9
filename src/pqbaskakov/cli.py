"""Experiment front end: config parsing, CSV emission, figure reproduction.

Configs are flat INI files (sections of ``key = value`` pairs), overridable
from the command line with ``--override section.key=value``.  Outputs are
UTF-8 CSV with LF line endings and shortest round-trip float formatting, so
repeated runs of the same config are byte-identical.

Exit codes: 0 full success, 1 configuration or I/O error, 2 partial
numerical failure (flagged cells serialized as NA).
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .analysis import (
    EvalGrid,
    ParameterSchedule,
    _rate_bounds,
    _rate_constant,
    _rate_window,
    convergence_run,
    interval_rate_bound,  # not called here; bench/layers.py traces it in this namespace
)
from .baskakov import (
    _cell_table,
    _moment_columns,
    baskakov_beta_apply,
    central_moment,
    moments_closed,
)
from .core import DEFAULT_POLICY, DomainError, PQPair, RegimeError, TruncationPolicy
from .functions import FunctionSpec

__all__ = ["ConfigurationError", "ExperimentConfig", "validate_config", "run_experiment"]

_OUTPUT_KINDS = ("curves", "moments", "convergence", "bound-report")  # in the order run writes
_DEFAULT_N_LIST = (10, 20, 50, 100)


class ConfigurationError(Exception):
    """Invalid experiment configuration; carries human-readable violations."""

    def __init__(self, messages: Sequence[str]):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


@dataclass(frozen=True)
class ExperimentConfig:
    schedule: ParameterSchedule
    function: FunctionSpec
    n_list: tuple[int, ...]
    grid: EvalGrid
    policy: TruncationPolicy
    outputs: tuple[str, ...]
    output_path: str
    kappa: float = 2.0


def _parse_numbers(convert: Callable[[str], float]) -> Callable[[str], tuple]:
    """A parser of comma- or space-separated numbers, each through convert."""
    return lambda text: tuple(convert(tok) for tok in text.replace(",", " ").split())


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _build_config(parser: configparser.ConfigParser) -> ExperimentConfig:
    problems: list[str] = []
    # schedule family -> (its float keys with defaults, ``...`` when required;
    # constructor).  A [pair] section is the ``fixed`` family.
    families = {
        "q_ratio": ((), ParameterSchedule.q_ratio),
        "harmonic_decay": ((("alpha", 0.0), ("beta", ...)), ParameterSchedule.harmonic_decay),
        "fixed": ((("p", ...), ("q", ...)), lambda p, q: ParameterSchedule.fixed(PQPair(p, q))),
    }
    # [function] key -> (value parser, constructor); a config gives exactly one
    targets = {
        "coefficients": (_parse_numbers(float), FunctionSpec.polynomial),
        "named": (str, FunctionSpec.named),
    }

    read: set[tuple[str, str]] = set()  # every (section, key) looked up

    def option(section, key, convert, default=...):
        """section.key through convert, or default when the key is absent.  A
        missing required key (no default) or an unparseable value is recorded
        and gives None."""
        read.add((section, key))
        if not parser.has_option(section, key):
            if default is ...:
                problems.append(f"[{section}] needs {key!r}")
                return None
            return default
        try:
            return convert(parser.get(section, key))
        except (ValueError, configparser.Error) as exc:
            problems.append(f"[{section}] {key} unparseable: {exc}")
            return None

    def build(section, make, *args):
        """make(*args); None when an argument is None (already recorded) or
        when make refuses the arguments (recorded here)."""
        if None in args:
            return None
        try:
            return make(*args)
        except RegimeError as exc:
            problems.append(f"[{section}] violates the regime 0 < q < p <= 1: {exc}")
        except ValueError as exc:
            problems.append(f"[{section}] invalid: {exc}")
        return None

    schedule = None
    sections = [name for name in ("pair", "schedule") if parser.has_section(name)]
    if len(sections) != 1:
        problems.append("give exactly one of a [pair] or a [schedule] section")
        read.update((name, key) for name in sections for key in parser.options(name))
    else:
        section = sections[0]
        family = "fixed" if section == "pair" else option(section, "family", str, "q_ratio")
        if family in families:
            keys, make = families[family]
            schedule = build(section, make, *(option(section, k, float, d) for k, d in keys))
        else:
            problems.append(f"[schedule] unknown family {family!r}")

    function = None
    growth = option("function", "growth_bound", float, None)
    read.update(("function", key) for key in targets)
    given = [key for key in targets if parser.has_option("function", key)]
    if not parser.has_section("function"):
        problems.append("missing [function] section")
    elif len(given) != 1:
        problems.append("[function] needs exactly one of 'coefficients' or 'named'")
    else:
        convert, make = targets[given[0]]
        value = option("function", given[0], convert)
        function = build("function", lambda v: make(v, growth_bound_Cf=growth), value)

    n_list = option("run", "n_list", _parse_numbers(int), _DEFAULT_N_LIST)
    if n_list == ():
        problems.append("[run] n_list must be non-empty")
    elif n_list and any(b <= a for a, b in zip(n_list, n_list[1:])):
        problems.append(f"[run] n_list must be strictly increasing, got {list(n_list)}")
    outputs = option("run", "outputs", _parse_names, ("curves",))
    for kind in outputs:
        if kind not in _OUTPUT_KINDS:
            problems.append(f"[run] unknown output {kind!r}; known: {_OUTPUT_KINDS}")
    kappa = option("run", "kappa", float, ExperimentConfig.kappa)

    # moments of order 2 (and the Beta-weighted operator itself for degree-2
    # targets) exist only for n > 2
    needs_second_order = {"moments", "convergence", "bound-report"} & set(outputs)
    if n_list and needs_second_order and min(n_list) <= 2:
        problems.append(
            f"outputs {sorted(needs_second_order)} need every n > 2 "
            f"(second-order moments are defined for n > 2), got n = {min(n_list)}"
        )
    # every listed n needs a pair, and a strict one for the Beta-weighted operator
    orders = n_list if schedule is not None and n_list else ()
    pairs = [build("run", schedule.pair_at, n) for n in orders]
    flat = [pair for pair in pairs if pair is not None and not pair.is_strict]
    strict_outputs = sorted({"curves", "convergence"} & set(outputs))
    if flat and strict_outputs:
        problems.append(
            f"outputs {strict_outputs} need 0 < q < p <= 1 (the Beta-weighted operator), "
            f"got p = q = {flat[0].p}"
        )

    grid = build(
        "grid",
        EvalGrid,
        option("grid", "start", float, 0.0),
        option("grid", "stop", float, 5.0),
        option("grid", "points", int, 101),
    )
    policy = build(
        "policy",
        TruncationPolicy,
        option("policy", "rel_tol", float, DEFAULT_POLICY.rel_tol),
        option("policy", "abs_tol", float, DEFAULT_POLICY.abs_tol),
        option("policy", "max_terms", int, DEFAULT_POLICY.max_terms),
    )
    output_path = option("output", "path", str, "out")

    # the bound report's inputs pass the one check the rate bound itself runs
    if "bound-report" in outputs:
        build("run", _rate_constant, function, kappa, grid)

    # a section or key that nothing above looked up is misspelt, or is one its
    # section does not take (a [schedule] key of another family); a [DEFAULT]
    # key is one problem, not one per section that inherits it
    defaults = parser.defaults()
    sections_read = {section for section, _ in read}
    keys_read = {key for _, key in read}
    for section in parser.sections():
        if section not in sections_read:
            problems.append(f"unknown section [{section}]")
            continue
        for key in parser.options(section):
            if key not in defaults and (section, key) not in read:
                problems.append(f"[{section}] unknown key {key!r}")
    problems += [f"[DEFAULT] unknown key {key!r}" for key in defaults if key not in keys_read]

    if problems:
        raise ConfigurationError(problems)
    return ExperimentConfig(
        schedule, function, n_list, grid, policy, outputs, output_path, kappa
    )


def validate_config(path: str | Path, overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigurationError with the
    full list of violations (parse failures include line information)."""
    parser = configparser.ConfigParser()
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError([f"config file not found: {path}"])
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigurationError([f"config parse failure: {exc}"]) from exc
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigurationError(
                [f"override {item!r} must look like section.key=value"]
            )
        key_part, value = item.split("=", 1)
        section, key = (part.strip() for part in key_part.split(".", 1))
        try:
            if not parser.has_section(section):
                parser.add_section(section)
            if value.strip() == "":
                parser.remove_option(section, key)
            else:
                parser.set(section, key, value.strip())
        except ValueError as exc:
            raise ConfigurationError([f"override {item!r} rejected: {exc}"]) from exc
    return _build_config(parser)


# ---------------------------------------------------------------------------
# Output writers.
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: Sequence[str], columns: Iterable[Sequence]) -> bool:
    """The one place where numbers become text, a column at a time.  A column
    holds only str or only numbers: str cells are written as they are, finite
    numbers as floats in shortest round-trip form, and NaN and +-inf as NA.
    Returns whether it wrote an NA."""
    texts, wrote_na = [], False
    for column in columns:
        if len(column) and isinstance(column[0], str):
            texts.append(column)
            continue
        values = np.asarray(column, dtype=float)
        cells = values.tolist()
        if np.isfinite(values).all():
            texts.append(map(repr, cells))
        else:
            wrote_na = True
            texts.append(repr(v) if math.isfinite(v) else "NA" for v in cells)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*texts))
    return wrote_na


def _curves(config: ExperimentConfig, out: Path) -> bool:
    xs, f, policy = config.grid.array(), config.function, config.policy
    columns = [xs, f.evaluate(xs)]
    for n in config.n_list:
        try:
            pair = config.schedule.pair_at(n)
            cells = [baskakov_beta_apply(pair, f, n, float(x), policy) for x in xs]
            columns.append([cell.value if cell.trusted else math.nan for cell in cells])
        except (DomainError, RegimeError):  # raised before any kernel work, alike by every cell
            columns.append([math.nan] * xs.size)
    header = ["x", "f"] + [f"D_n={n}" for n in config.n_list]
    return _write_csv(out / "curves.csv", header, columns)


def _moments(config: ExperimentConfig, out: Path) -> bool:
    xs = config.grid.array()
    labels, blocks = [], []  # rows are n-major: n as text, and per n M0, M1, M2, mu1, mu2
    for n in config.n_list:
        labels += [str(n)] * xs.size
        try:
            pair = config.schedule.pair_at(n)
            blocks.append([moments_closed(pair, 0, n, xs), *_moment_columns(pair, n, xs)])
        except (DomainError, RegimeError):  # an order without moments is a block of NA
            blocks.append([np.full(xs.size, math.nan)] * 5)
    columns = [labels, np.tile(xs, len(config.n_list)), *map(np.concatenate, zip(*blocks))]
    return _write_csv(out / "moments.csv", ["n", "x", "M0", "M1", "M2", "mu1", "mu2"], columns)


def _convergence(config: ExperimentConfig, out: Path) -> bool:
    rows = convergence_run(
        config.schedule, config.function, config.n_list, config.grid, config.policy
    )
    fields = ("p_n", "q_n", "sup_error", "weighted_error", "mu2_max")
    columns = [[str(r.n) for r in rows]] + [[getattr(r, name) for r in rows] for name in fields]
    _write_csv(out / "convergence.csv", ["n", *fields], columns)
    return any(not r.ok for r in rows)


def _bound_report(config: ExperimentConfig, out: Path) -> bool:
    f, kappa, grid = config.function, config.kappa, config.grid
    L = _rate_constant(f, kappa, grid)
    window = _rate_window(grid.array(), kappa)
    mu2s, partial = {}, False  # n -> mu2 on the window, for every order that has one
    for n in config.n_list:
        try:
            mu2s[n] = central_moment(config.schedule.pair_at(n), 2, n, window)
        except (DomainError, RegimeError):  # written as an NA row
            partial = True
    bounds = dict(zip(mu2s, _rate_bounds(f, L, grid, list(mu2s.values()))))
    rows = [
        (str(n), kappa, L, mu2s[n].max() if n in mu2s else math.nan, bounds.get(n, math.nan))
        for n in config.n_list
    ]
    _write_csv(out / "bound_report.csv", ["n", "kappa", "L", "mu2_max", "rate_bound"], zip(*rows))
    return partial


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot the operator curves emitted alongside this script.\"\"\"
import csv
from pathlib import Path

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open(Path(__file__).parent / "curves.csv")))
xs = [float(r["x"]) for r in rows]
plt.figure(figsize=(8, 5))
plt.plot(xs, [float(r["f"]) for r in rows], "k-", lw=2.0, label="f")
for key in rows[0]:
    if key.startswith("D_n="):
        ys = [float(r[key]) if r[key] != "NA" else float("nan") for r in rows]
        plt.plot(xs, ys, lw=1.2, label=key)
plt.xlabel("x")
plt.legend()
plt.tight_layout()
plt.savefig(Path(__file__).parent / "curves.png", dpi=150)
"""


def run_experiment(config: ExperimentConfig, out_dir: Optional[str | Path] = None) -> int:
    """Run all requested outputs; returns the process exit code (0/1/2)."""
    out = Path(out_dir) if out_dir is not None else Path(config.output_path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out}: {exc}", file=sys.stderr)
        return 1
    partial = False
    try:
        # curves and convergence ask for whole grid rows; a value that
        # overflows is written as NA, so numpy need not warn about it
        with _cell_table(config.grid.array()), np.errstate(over="ignore", invalid="ignore"):
            for kind, write in zip(_OUTPUT_KINDS, (_curves, _moments, _convergence, _bound_report)):
                if kind in config.outputs:
                    partial |= write(config, out)
        if "curves" in config.outputs:
            with open(out / "plot_curves.py", "w", encoding="utf-8", newline="\n") as handle:
                handle.write(_PLOT_SCRIPT)
    except OSError as exc:
        print(f"error: writing outputs failed: {exc}", file=sys.stderr)
        return 1
    return 2 if partial else 0


# ---------------------------------------------------------------------------
# Command line interface.
# ---------------------------------------------------------------------------


def _builtin_config_path(name: str) -> Path:
    ref = resources.files("pqbaskakov") / "configs" / f"{name}.cfg"
    with resources.as_file(ref) as concrete:
        return Path(concrete)


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse  # only the command line needs it, not a run through the API

    parser = argparse.ArgumentParser(
        prog="pqbaskakov",
        description="Evaluate (p,q)-Baskakov-Beta operators and run convergence experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="path to the experiment config file")
    run_p.add_argument("--out", default=None, help="output directory (overrides config)")
    run_p.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable)",
    )

    val_p = sub.add_parser("validate", help="validate a config and echo it")
    val_p.add_argument("config")
    val_p.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE")

    fig_p = sub.add_parser("figures", help="reproduce the built-in demo figures")
    fig_p.add_argument(
        "name",
        nargs="?",
        default=None,
        choices=["figure1", "figure2"],
        help="which figure to reproduce (default: both)",
    )
    fig_p.add_argument("--out", default=None, help="output directory")

    args = parser.parse_args(argv)

    if args.command in ("run", "validate"):
        try:
            config = validate_config(args.config, args.override)
        except ConfigurationError as exc:
            print("invalid configuration:", file=sys.stderr)
            for message in exc.messages:
                print(f"  - {message}", file=sys.stderr)
            return 1
        if args.command == "validate":
            print(f"config OK: {args.config}")
            print(f"  schedule      = {config.schedule}")
            print(f"  function      = {config.function}")
            print(f"  n_list        = {list(config.n_list)}")
            print(f"  grid          = [{config.grid.start}, {config.grid.stop}] "
                  f"x {config.grid.points}")
            print(f"  policy        = {config.policy}")
            print(f"  outputs       = {list(config.outputs)}")
            print(f"  output_path   = {config.output_path}")
            print(f"  kappa         = {config.kappa}")
            return 0
        return run_experiment(config, args.out)

    # figures
    names = [args.name] if args.name else ["figure1", "figure2"]
    code = 0
    for name in names:
        config = validate_config(_builtin_config_path(name))
        out = Path(args.out) / name if args.out else Path(config.output_path)
        status = run_experiment(config, out)
        print(f"{name}: wrote {out} (exit {status})")
        code = max(code, status)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
