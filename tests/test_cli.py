import csv
import dataclasses
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqbaskakov import (
    ConfigurationError,
    DomainError,
    EvalGrid,
    FunctionSpec,
    ParameterSchedule,
    PQPair,
    TruncationPolicy,
    central_moment,
    convergence_run,
    moments_closed,
    run_experiment,
    validate_config,
)
from pqbaskakov import NAMED_FUNCTIONS, analysis, baskakov, cli
from pqbaskakov.cli import ExperimentConfig, main

from conftest import exact_numbers, fraction_moment


FIGURE1_TEXT = """\
[pair]
p = 0.9
q = 0.8

[function]
coefficients = 2015, -12, 18

[run]
n_list = 5, 10
outputs = curves, moments

[grid]
start = 0
stop = 5
points = 21

[output]
path = out
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(FIGURE1_TEXT)
    return path


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestValidate:
    def test_small_config_validates(self, small_config):
        config = validate_config(small_config)
        assert config.n_list == (5, 10)
        assert config.grid.points == 21
        assert config.function.degree == 2

    def test_regime_violation_is_cited(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(FIGURE1_TEXT.replace("p = 0.9", "p = 0.8").replace("q = 0.8", "q = 0.9"))
        with pytest.raises(ConfigurationError) as err:
            validate_config(path)
        assert any("0 < q < p <= 1" in m for m in err.value.messages)

    def test_small_n_with_moments_is_cited(self, small_config):
        with pytest.raises(ConfigurationError) as err:
            validate_config(small_config, overrides=["run.n_list=2, 8"])
        assert any("n > 2" in m for m in err.value.messages)

    def test_decreasing_n_list_rejected(self, small_config):
        with pytest.raises(ConfigurationError):
            validate_config(small_config, overrides=["run.n_list=10, 5"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            validate_config(tmp_path / "nope.cfg")

    def test_parse_error_carries_line_info(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("[pair\np = 0.9\n")
        with pytest.raises(ConfigurationError) as err:
            validate_config(path)
        assert any("line" in m.lower() for m in err.value.messages)

    def test_unknown_output_rejected(self, small_config):
        with pytest.raises(ConfigurationError):
            validate_config(small_config, overrides=["run.outputs=doodles"])

    def test_validate_subcommand_exit_codes(self, small_config, tmp_path, capsys):
        assert main(["validate", str(small_config)]) == 0
        bad = tmp_path / "bad.cfg"
        bad.write_text(FIGURE1_TEXT.replace("q = 0.8", "q = 0.95"))
        assert main(["validate", str(bad)]) == 1

    def test_validate_echoes_every_field(self, small_config, capsys):
        overrides = ["policy.rel_tol=1e-10", "policy.max_terms=500", "run.kappa=1.5"]
        flags = [arg for override in overrides for arg in ("--override", override)]
        assert main(["validate", str(small_config), *flags]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line.split("=")[0].strip() for line in lines] == [
            field.name for field in dataclasses.fields(ExperimentConfig)
        ]
        assert "  policy        = TruncationPolicy(rel_tol=1e-10, abs_tol=1e-14, max_terms=500)" in lines
        assert lines[-1] == "  kappa         = 1.5"

    def test_an_infinite_tolerance_is_refused(self, small_config, capsys):
        # it parses as a float, but stops a ladder after 3 terms as converged
        assert main(["validate", str(small_config), "--override", "policy.rel_tol=inf"]) == 1
        err = capsys.readouterr().err
        assert "[policy] invalid" in err and "rel_tol" in err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("[function]\ncoefficients = 2015, -12, 18\n\n", "", "missing [function] section"),
            ("coefficients = 2015, -12, 18", "coefficients = 2015, -12, 18\nnamed = e2",
             "[function] needs exactly one of 'coefficients' or 'named'"),
            ("n_list = 5, 10", "n_list =", "[run] n_list must be non-empty"),
        ],
        ids=["no-function-section", "two-targets", "empty-n-list"],
    )
    def test_a_config_without_one_target_or_order_is_refused(self, tmp_path, old, new, message):
        path = tmp_path / "bad.cfg"
        path.write_text(FIGURE1_TEXT.replace(old, new))
        with pytest.raises(ConfigurationError) as err:
            validate_config(path)
        assert err.value.messages == [message]

    def test_an_override_without_a_section_is_refused(self, small_config):
        with pytest.raises(ConfigurationError) as err:
            validate_config(small_config, overrides=["runn_list=5, 10"])
        assert err.value.messages == ["override 'runn_list=5, 10' must look like section.key=value"]


class TestRun:
    def test_writes_expected_files(self, small_config, tmp_path):
        out = tmp_path / "results"
        config = validate_config(small_config)
        assert run_experiment(config, out) == 0
        assert (out / "curves.csv").is_file()
        assert (out / "moments.csv").is_file()
        assert (out / "plot_curves.py").is_file()

    def test_curves_header_and_values(self, small_config, tmp_path):
        out = tmp_path / "results"
        run_experiment(validate_config(small_config), out)
        with open(out / "curves.csv") as handle:
            header = handle.readline().strip()
        assert header == "x,f,D_n=5,D_n=10"
        pair = PQPair(0.9, 0.8)
        for row in read_csv(out / "curves.csv"):
            x = float(row["x"])
            assert float(row["f"]) == pytest.approx(18 * x * x - 12 * x + 2015, rel=1e-12)
            for n in (5, 10):
                want = (
                    18.0 * moments_closed(pair, 2, n, x)
                    - 12.0 * moments_closed(pair, 1, n, x)
                    + 2015.0
                )
                assert float(row[f"D_n={n}"]) == pytest.approx(want, rel=1e-8)

    def test_moments_roundtrip(self, small_config, tmp_path):
        out = tmp_path / "results"
        run_experiment(validate_config(small_config), out)
        pair = PQPair(0.9, 0.8)
        rows = read_csv(out / "moments.csv")
        assert rows, "moments.csv must not be empty"
        for row in rows:
            n, x = int(row["n"]), float(row["x"])
            assert row["M0"] == repr(moments_closed(pair, 0, n, x))
            assert row["M1"] == repr(moments_closed(pair, 1, n, x))
            assert row["M2"] == repr(moments_closed(pair, 2, n, x))
            assert row["mu1"] == repr(central_moment(pair, 1, n, x))
            assert row["mu2"] == repr(central_moment(pair, 2, n, x))

    def test_byte_stable_reruns(self, small_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        config = validate_config(small_config)
        run_experiment(config, out1)
        run_experiment(config, out2)
        for name in ("curves.csv", "moments.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_constant_function_columns_are_one(self, small_config, tmp_path):
        out = tmp_path / "results"
        config = validate_config(
            small_config,
            overrides=["function.coefficients=", "function.named=e0", "run.outputs=curves"],
        )
        run_experiment(config, out)
        for row in read_csv(out / "curves.csv"):
            for n in (5, 10):
                assert float(row[f"D_n={n}"]) == pytest.approx(1.0, abs=1e-10)

    def test_convergence_output(self, small_config, tmp_path):
        out = tmp_path / "results"
        config = validate_config(small_config, overrides=["run.outputs=convergence"])
        # fixed-pair convergence table
        run_experiment(config, out)
        rows = read_csv(out / "convergence.csv")
        assert [r["n"] for r in rows] == ["5", "10"]
        assert all(float(r["mu2_max"]) > 0 for r in rows)

    def test_schedule_config(self, tmp_path):
        path = tmp_path / "sched.cfg"
        path.write_text(
            """\
[schedule]
family = q_ratio

[function]
named = e2

[run]
n_list = 5, 10, 20
outputs = convergence

[grid]
start = 0
stop = 10
points = 41

[output]
path = out
"""
        )
        out = tmp_path / "results"
        assert run_experiment(validate_config(path), out) == 0
        rows = read_csv(out / "convergence.csv")
        sups = [float(r["weighted_error"]) for r in rows]
        assert sups[0] > sups[1] > sups[2]

    def test_bound_report(self, small_config, tmp_path):
        out = tmp_path / "results"
        config = validate_config(
            small_config,
            overrides=["run.outputs=bound-report", "run.kappa=2", "grid.stop=3"],
        )
        assert run_experiment(config, out) == 0
        rows = read_csv(out / "bound_report.csv")
        assert [r["n"] for r in rows] == ["5", "10"]
        assert all(float(r["rate_bound"]) > 0 for r in rows)

    def test_bound_report_column_reads_the_points_of_the_bound(self, small_config, tmp_path):
        # on [0, 2] x 21 the grid point at kappa = 0.7 is 0.7000000000000001;
        # the bound takes it, so mu2_max must too (at n = 10 the column read
        # 0.394, the moment at the point before, against 0.480 at this one)
        config = validate_config(
            small_config,
            overrides=["run.outputs=bound-report", "run.kappa=0.7", "grid.stop=2"],
        )
        xs = config.grid.array()
        assert xs[7] > 0.7
        assert run_experiment(config, tmp_path / "out") == 0
        rows = read_csv(tmp_path / "out" / "bound_report.csv")
        want = [
            repr(float(central_moment(config.schedule.pair_at(n), 2, n, xs[7])))
            for n in config.n_list
        ]
        assert [r["mu2_max"] for r in rows] == want

    def test_unwritable_output_is_exit_one(self, small_config, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        config = validate_config(small_config)
        assert run_experiment(config, blocker / "sub") == 1

    def test_partial_failure_is_exit_two(self, tmp_path):
        # a non-polynomial target forces ladder quadrature; a starved term
        # budget leaves the inner integrals unconverged, so cells go NA
        path = tmp_path / "starved.cfg"
        path.write_text(
            """\
[pair]
p = 0.9
q = 0.8

[function]
named = abs_t_minus_1

[run]
n_list = 5
outputs = curves

[grid]
start = 0
stop = 2
points = 5

[policy]
max_terms = 10

[output]
path = out
"""
        )
        out = tmp_path / "results"
        code = run_experiment(validate_config(path), out)
        assert code == 2
        rows = read_csv(out / "curves.csv")
        assert any(r["D_n=5"] == "NA" for r in rows)

    @pytest.mark.parametrize("kappa", [2.0, 2], ids=["float", "int"])
    def test_a_bound_report_row_that_raises_is_na(self, kappa, tmp_path):
        # validate_config refuses n = 2 for the bound report; a config built in
        # code reaches the row, whose bound raises DomainError.  An int kappa is
        # written as the float it stands for
        config = cli.ExperimentConfig(
            ParameterSchedule.fixed(PQPair(0.9, 0.8)), FunctionSpec.named("e1"), (2, 10),
            EvalGrid(0.0, 5.0, 21), TruncationPolicy(), ("bound-report",), "out", kappa,
        )
        assert run_experiment(config, tmp_path) == 2
        lines = (tmp_path / "bound_report.csv").read_text().splitlines()
        assert lines[0] == "n,kappa,L,mu2_max,rate_bound"
        assert lines[1] == "2,2.0,210.0,NA,NA"
        assert lines[2].startswith("10,2.0,210.0,") and "NA" not in lines[2]

    def test_a_curves_order_that_raises_is_an_na_column(self, tmp_path):
        # e3 grows faster than n = 3 allows, so every cell of D_n=3 raises
        path = tmp_path / "e3.cfg"
        path.write_text(
            FIGURE1_TEXT.replace("coefficients = 2015, -12, 18", "named = e3")
            .replace("n_list = 5, 10", "n_list = 3, 5")
            .replace("outputs = curves, moments", "outputs = curves")
            .replace("stop = 5", "stop = 2")
            .replace("points = 21", "points = 3")
        )
        out = tmp_path / "results"
        assert run_experiment(validate_config(path), out) == 2
        rows = read_csv(out / "curves.csv")
        assert [r["x"] for r in rows] == ["0.0", "1.0", "2.0"]
        assert [r["D_n=3"] for r in rows] == ["NA"] * 3
        assert all(r["D_n=5"] != "NA" for r in rows)

    def test_a_failed_csv_write_is_exit_one(self, small_config, tmp_path, capsys):
        (tmp_path / "curves.csv").mkdir()
        assert run_experiment(validate_config(small_config), tmp_path) == 1
        assert "writing outputs failed" in capsys.readouterr().err

    def test_run_command_writes_the_bytes_of_run_experiment(self, tmp_path):
        path = str(cli._builtin_config_path("figure1"))
        overrides = ["run.n_list=10,20", "grid.points=11"]
        flags = [arg for override in overrides for arg in ("--override", override)]
        assert main(["run", path, *flags, "--out", str(tmp_path / "main")]) == 0
        assert run_experiment(validate_config(path, overrides), tmp_path / "direct") == 0
        names = sorted(file.name for file in (tmp_path / "main").iterdir())
        assert names == sorted(file.name for file in (tmp_path / "direct").iterdir())
        assert {"curves.csv", "moments.csv"} <= set(names)
        for name in names:
            assert (tmp_path / "main" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()


class TestFiguresCommand:
    def test_figures_writes_both_demos(self, tmp_path):
        assert main(["figures", "--out", str(tmp_path)]) == 0
        for name in ("figure1", "figure2"):
            assert (tmp_path / name / "curves.csv").is_file()
            assert (tmp_path / name / "moments.csv").is_file()

    def test_figure1_matches_closed_forms(self, tmp_path):
        assert main(["figures", "figure1", "--out", str(tmp_path)]) == 0
        pair = PQPair(0.9, 0.8)
        rows = read_csv(tmp_path / "figure1" / "curves.csv")
        assert len(rows) == 101
        for row in rows[:: 10]:
            x = float(row["x"])
            for n in (10, 20, 50, 100):
                want = (
                    18.0 * moments_closed(pair, 2, n, x)
                    - 12.0 * moments_closed(pair, 1, n, x)
                    + 2015.0
                )
                assert float(row[f"D_n={n}"]) == pytest.approx(want, rel=1e-8)


LADDER_TEXT = """\
[pair]
p = 0.9
q = 0.8

[function]
named = abs_t_minus_1

[run]
n_list = 5, 8
outputs = curves

[grid]
start = 0
stop = 3
points = 7

[output]
path = out
"""


def test_curves_do_not_depend_on_the_sample_caches(tmp_path, monkeypatch):
    # the run's cell table is the one cache of operator work: the curves it
    # serves equal those of cold 1-point calls made outside every table
    path = tmp_path / "ladder.cfg"
    path.write_text(LADDER_TEXT)
    config = validate_config(path)
    assert run_experiment(config, tmp_path / "shared") == 0

    apply = cli.baskakov_beta_apply

    def cold_apply(*args, **kwargs):
        token = baskakov._RUN_CELLS.set(None)
        try:
            return apply(*args, **kwargs)
        finally:
            baskakov._RUN_CELLS.reset(token)

    monkeypatch.setattr(cli, "baskakov_beta_apply", cold_apply)
    assert run_experiment(config, tmp_path / "cold") == 0
    shared = (tmp_path / "shared" / "curves.csv").read_bytes()
    assert shared == (tmp_path / "cold" / "curves.csv").read_bytes()


# the ladder config starved to 8 outer terms: every cell with x >= 1 is truncated
TRUNCATED = ["run.n_list=10, 20", "grid.stop=5", "grid.points=6", "policy.max_terms=8"]


def test_a_convergence_row_on_truncated_cells_is_not_ok(tmp_path):
    path = tmp_path / "ladder.cfg"
    path.write_text(LADDER_TEXT)
    config = validate_config(path, [*TRUNCATED, "run.outputs=convergence"])
    rows = convergence_run(config.schedule, config.function, config.n_list, config.grid, config.policy)
    # the errors are still measured and written, but the rows are flagged
    assert [round(r.sup_error, 2) for r in rows] == [3.98, 4.0]
    assert [r.ok for r in rows] == [False, False]
    for outputs in ("convergence", "curves"):
        config = validate_config(path, [*TRUNCATED, f"run.outputs={outputs}"])
        assert run_experiment(config, tmp_path / outputs) == 2


def _config(tmp_path, head, run):
    path = tmp_path / "exp.cfg"
    path.write_text(
        f"{head}\n[function]\nnamed = e2\n\n[run]\n{run}\n\n"
        "[grid]\nstart = 0\nstop = 3\npoints = 7\n"
    )
    return path


# each config below parses, but asks run for an operator or an order it cannot evaluate
REFUSED = {
    "classical-corner": ("[pair]\np = 1\nq = 1", "n_list = 5, 10\noutputs = curves"),
    "degenerate-line": ("[pair]\np = 0.9\nq = 0.9", "n_list = 5, 10\noutputs = convergence"),
    "n-zero": ("[pair]\np = 0.9\nq = 0.8", "n_list = 0\noutputs = curves"),
    "n-negative": ("[pair]\np = 0.9\nq = 0.8", "n_list = -3, 5\noutputs = curves"),
    "harmonic-exit": (
        "[schedule]\nfamily = harmonic_decay\nbeta = 5",
        "n_list = 3, 10\noutputs = curves, moments",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_validate_refuses_what_run_cannot_finish(case, tmp_path, capsys):
    path = _config(tmp_path, *REFUSED[case])
    with pytest.raises(ConfigurationError) as err:
        validate_config(path)
    assert len(err.value.messages) == 1
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


# each override below gives a config that parses, but whose bound report or
# grid run cannot finish; the grid of _config is [0, 3] and kappa defaults to 2
REFUSED_INPUTS = {
    "kappa-nan": ["run.kappa=nan"],
    "kappa-zero": ["run.kappa=0"],
    "kappa-negative": ["run.kappa=-1"],
    "grid-from-half": ["grid.start=0.5"],
    "zero-target": ["function.named=", "function.coefficients=0"],
    "grid-to-inf": ["grid.stop=inf", "run.outputs=curves"],
    "growth-bound-inf": ["function.growth_bound=inf"],
    "growth-bound-nan": ["function.growth_bound=nan"],
}


@pytest.mark.parametrize("case", sorted(REFUSED_INPUTS))
def test_validate_refuses_bound_report_and_grid_inputs(case, tmp_path):
    path = _config(tmp_path, "[pair]\np = 0.9\nq = 0.8", "n_list = 5, 10\noutputs = bound-report")
    overrides = REFUSED_INPUTS[case]
    with pytest.raises(ConfigurationError) as err:
        validate_config(path, overrides)
    assert len(err.value.messages) == 1
    flags = [arg for item in overrides for arg in ("--override", item)]
    assert main(["run", str(path), "--out", str(tmp_path / "out"), *flags]) == 1
    assert not (tmp_path / "out").exists()


def test_each_refused_order_is_its_own_message(tmp_path):
    path = _config(tmp_path, "[pair]\np = 0.9\nq = 0.8", "n_list = -3, 0, 5\noutputs = curves")
    with pytest.raises(ConfigurationError) as err:
        validate_config(path)
    assert len(err.value.messages) == 2
    assert all("n >= 1" in m for m in err.value.messages)


def test_non_strict_pair_runs_moments(tmp_path):
    path = _config(tmp_path, "[pair]\np = 1\nq = 1", "n_list = 5, 10\noutputs = moments")
    assert run_experiment(validate_config(path), tmp_path / "out") == 0


@pytest.mark.parametrize(
    "head, override",
    [
        ("[pair]\np = 0.9", "run.outputs=curves"),
        ("[pair]\np = 0.9\nq = 0.8", "function.growth_bound=lots"),
        ("[pair]\np = 0.9\nq = 0.8", "grid.points=many"),
        ("[pair]\np = 0.9\nq = 0.8", "run.plot_script=maybe"),
        ("[schedule]\nfamily = harmonic_decay", "run.outputs=curves"),
        ("[schedule]\nfamily = linear", "run.outputs=curves"),
        ("[pair]\np = 0.9\nq = 0.8\n[output]\npath = 50%out", "run.outputs=curves"),
        ("[pair]\np = 0.9\nq = 0.8", "output.path=50%out"),
        ("[pair]\np = 0.9\nq = 0.8", "DEFAULT.kappa=3"),
    ],
    ids=[
        "missing-q", "growth-bound", "grid-points", "plot-script", "missing-beta", "family",
        "path-interpolation", "override-interpolation", "override-default-section",
    ],
)
def test_bad_keys_are_configuration_errors(head, override, tmp_path):
    path = _config(tmp_path, head, "n_list = 5, 10")
    with pytest.raises(ConfigurationError) as err:
        validate_config(path, overrides=[override])
    assert len(err.value.messages) == 1


def test_pair_section_is_the_fixed_schedule(tmp_path, small_config):
    fixed = tmp_path / "fixed.cfg"
    fixed.write_text(FIGURE1_TEXT.replace("[pair]", "[schedule]\nfamily = fixed"))
    assert validate_config(fixed) == validate_config(small_config)


def test_nan_convergence_row_is_exit_two(tmp_path):
    # near p = q the first ladder band is over the node cap, which leaves the
    # operator values NaN at every x
    path = tmp_path / "near_degenerate.cfg"
    path.write_text(
        LADDER_TEXT.replace("q = 0.8", "q = 0.89999")
        .replace("n_list = 5, 8", "n_list = 10, 20")
        .replace("outputs = curves", "outputs = convergence")
    )
    out = tmp_path / "results"
    assert run_experiment(validate_config(path), out) == 2
    rows = read_csv(out / "convergence.csv")
    assert [r["sup_error"] for r in rows] == ["NA", "NA"]


def test_misspelt_key_and_section_are_refused(tmp_path, capsys):
    # a typo must not fall back to the default n_list and grid
    path = tmp_path / "typo.cfg"
    path.write_text(
        "[pair]\np = 0.9\nq = 0.8\n\n[function]\nnamed = e2\n\n"
        "[run]\nn_lst = 5\noutputs = curves\n\n[grd]\npoints = 7\n"
    )
    with pytest.raises(ConfigurationError) as err:
        validate_config(path)
    assert err.value.messages == ["[run] unknown key 'n_lst'", "unknown section [grd]"]
    assert main(["validate", str(path)]) == 1
    assert "config OK" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "head, override",
    [
        ("[schedule]\nfamily = q_ratio\nalpha = 0.5", "run.outputs=curves"),
        ("[schedule]\nfamily = harmonic_decay\nbeta = 2\np = 0.9", "run.outputs=curves"),
        ("[DEFAULT]\nn_lst = 5\n[pair]\np = 0.9\nq = 0.8", "run.outputs=curves"),
        ("[pair]\np = 0.9\nq = 0.8", "policy.max_term=50"),
    ],
    ids=["q-ratio-alpha", "harmonic-p", "default-section-once", "policy-typo"],
)
def test_each_unread_key_is_one_message(head, override, tmp_path):
    path = _config(tmp_path, head, "n_list = 5, 10")
    with pytest.raises(ConfigurationError) as err:
        validate_config(path, overrides=[override])
    assert len(err.value.messages) == 1
    assert "unknown key" in err.value.messages[0]


def test_both_schedule_sections_is_one_message(tmp_path):
    path = _config(tmp_path, "[pair]\np = 0.9\nq = 0.8\n[schedule]\nfamily = q_ratio", "n_list = 5")
    with pytest.raises(ConfigurationError) as err:
        validate_config(path)
    assert err.value.messages == ["give exactly one of a [pair] or a [schedule] section"]


_EVALUATING = pytest.mark.parametrize(
    "text, overrides, route",
    [
        (FIGURE1_TEXT, [], "closed"),
        (LADDER_TEXT, [], "quadrature"),
        # NA cells: the starved budget leaves the ladder unconverged
        (LADDER_TEXT, ["policy.max_terms=10"], "quadrature"),
    ],
    ids=["analytic", "quadrature", "starved"],
)


def _counting_cells(monkeypatch, route):
    """Replace the grid evaluations of baskakov (the row-sum kernel and the
    closed route of polynomials) by ones that record the (n, x) cells of
    each of their calls, and refuse any route but route."""
    apply, samples, closed = baskakov._apply, baskakov._samples, baskakov._closed
    calls = []

    def counting(pair, n, f, name, xs, policy):
        calls.append([(n, x) for x in xs.tolist()])
        return apply(pair, n, f, name, xs, policy)

    def sampling(pair, n, f, name, k_count, *, lfact):
        assert name == route
        return samples(pair, n, f, name, k_count, lfact=lfact)

    def counting_closed(pair, n, f, xs):
        assert route == "closed"
        calls.append([(n, x) for x in xs.tolist()])
        return closed(pair, n, f, xs)

    monkeypatch.setattr(baskakov, "_apply", counting)
    monkeypatch.setattr(baskakov, "_samples", sampling)
    monkeypatch.setattr(baskakov, "_closed", counting_closed)
    return calls


@_EVALUATING
@pytest.mark.parametrize("outputs", ["curves", "convergence", "curves, convergence"])
def test_a_run_evaluates_each_grid_row_once(text, overrides, route, outputs, tmp_path, monkeypatch):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    config = validate_config(path, [*overrides, f"run.outputs={outputs}"])
    calls = _counting_cells(monkeypatch, route)
    assert run_experiment(config, tmp_path / "out") in (0, 2)
    # one evaluation of each grid row, and so of each cell
    xs = config.grid.array().tolist()
    assert calls == [[(n, x) for x in xs] for n in config.n_list]
    assert baskakov._RUN_CELLS.get() is None  # dropped when the run ends


@_EVALUATING
def test_a_shared_run_writes_the_bytes_of_single_runs(text, overrides, route, tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(text)

    def run(outputs, out):
        config = validate_config(path, [*overrides, f"run.outputs={outputs}"])
        return run_experiment(config, tmp_path / out)

    singles = (run("curves", "curves"), run("convergence", "convergence"))
    assert run("curves, convergence", "shared") == max(singles)
    for name, single in (("curves.csv", "curves"), ("convergence.csv", "convergence")):
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / single / name).read_bytes()
    assert baskakov._RUN_CELLS.get() is None


def test_outputs_without_operator_cells_evaluate_none(small_config, tmp_path, monkeypatch):
    calls = _counting_cells(monkeypatch, "closed")
    config = validate_config(small_config, ["run.outputs=moments, bound-report", "grid.stop=3"])
    assert run_experiment(config, tmp_path / "out") == 0
    assert calls == []
    assert baskakov._RUN_CELLS.get() is None


def test_python_dash_m_runs_the_command_line(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pqbaskakov", "validate", str(cli._builtin_config_path("figure1"))],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("config OK:")
    assert proc.stderr == ""


def test_large_orders_write_exact_moments_and_a_positive_bound(tmp_path):
    """At (0.9, 0.8) the powers p^n of the printed moments sink below the
    smallest double from n = 3,558 on, where M2 at x = 2.5 was written as
    5.0 and mu2 as 0.0, and the bound report failed on an IndexError."""
    path = str(cli._builtin_config_path("figure1"))
    overrides = ["run.n_list=10, 3558, 100000", "run.outputs=moments, bound-report"]
    flags = [arg for override in overrides for arg in ("--override", override)]
    assert main(["run", path, *flags, "--out", str(tmp_path)]) == 0
    moments = read_csv(tmp_path / "moments.csv")
    bounds = read_csv(tmp_path / "bound_report.csv")
    assert all("NA" not in row.values() for row in moments + bounds)
    [row] = [row for row in moments if row["n"] == "3558" and row["x"] == "2.5"]
    with exact_numbers(3558) as exact:
        want = fraction_moment(exact(0.9), exact(0.8), 2, 3558, exact(2.5))
        assert abs(exact(float(row["M2"])) - want) / want < 1e-15
    assert [row["n"] for row in bounds] == ["10", "3558", "100000"]
    assert all(float(row["mu2_max"]) > 0.0 and float(row["rate_bound"]) > 0.0 for row in bounds)


def test_a_run_whose_cells_overflow_prints_nothing(tmp_path):
    """Cells at x near 1e300 overflow and are NA; the run exits 2 and numpy
    writes no warning to standard error."""
    path = tmp_path / "huge.cfg"
    path.write_text(
        "[pair]\np = 0.9\nq = 0.8\n\n[function]\nnamed = abs_t_minus_1\n\n"
        "[run]\nn_list = 10\noutputs = curves\n\n"
        "[grid]\nstart = 0\nstop = 1e300\npoints = 3\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pqbaskakov", "run", str(path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == ""
    rows = read_csv(tmp_path / "out" / "curves.csv")
    assert [row["D_n=10"] for row in rows][1:] == ["NA", "NA"]


def test_a_polynomial_run_whose_values_overflow_writes_na(tmp_path):
    """At x = 5e299 and 1e300 the target 18 x^2 - 12 x + 2015, the operator
    cell and the second moments M2 and mu2 overflow; each is written as NA,
    the run exits 2 and numpy writes no warning to standard error."""
    path = tmp_path / "huge.cfg"
    path.write_text(FIGURE1_TEXT.replace("n_list = 5, 10", "n_list = 10")
                    .replace("stop = 5\npoints = 21", "stop = 1e300\npoints = 3"))
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pqbaskakov", "run", str(path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == ""
    for name, overflowing in (("curves.csv", {"f", "D_n=10"}), ("moments.csv", {"M2", "mu2"})):
        rows = read_csv(tmp_path / "out" / name)
        assert len(rows) == 3
        for row in rows:
            na = {key for key, value in row.items() if value == "NA"}
            assert na == (overflowing if float(row["x"]) > 0.0 else set())
            numbers = [value for key, value in row.items() if key not in na | {"n"}]
            assert all(math.isfinite(float(value)) for value in numbers)


def test_importing_the_cli_does_not_load_argparse():
    """A run through the API does not pay for argparse: main imports it."""
    src = Path(cli.__file__).resolve().parents[1]
    script = "import sys\nimport pqbaskakov.cli\nprint('argparse' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_a_polynomial_run_does_not_load_numpy_polynomial(small_config, tmp_path):
    """Polynomials are evaluated without numpy.polynomial, whose import
    would cost a run several milliseconds; a fresh process shows it."""
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from pqbaskakov import run_experiment, validate_config\n"
        f"config = validate_config({str(small_config)!r}, "
        "['run.outputs=curves, moments, convergence, bound-report'])\n"
        f"assert run_experiment(config, {str(tmp_path / 'out')!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert (tmp_path / "out" / "convergence.csv").exists()


_SCHEDULES = st.one_of(
    st.sampled_from([(0.9, 0.8), (1.0, 1.0), (0.9, 0.9), (0.9, 0.89999), (1.0, 0.9), (0.8, 0.9)])
    .map(lambda pq: f"[pair]\np = {pq[0]!r}\nq = {pq[1]!r}"),
    st.just("[schedule]\nfamily = q_ratio"),
    st.tuples(st.sampled_from([0.0, 0.5]), st.sampled_from([1.0, 5.0]))
    .map(lambda ab: f"[schedule]\nfamily = harmonic_decay\nalpha = {ab[0]!r}\nbeta = {ab[1]!r}"),
)
_TARGETS = st.one_of(
    st.lists(st.sampled_from([0.0, 1.0, -2.5, 18.0]), min_size=1, max_size=4)
    .map(lambda cs: "coefficients = " + ", ".join(map(repr, cs))),
    st.integers(1, 4).map(lambda size: "coefficients = " + ", ".join(["0"] * size)),
    st.sampled_from(sorted(NAMED_FUNCTIONS)).map(lambda name: f"named = {name}"),
)


# two bound reports run cannot finish, so validate must refuse them: a NaN
# kappa, and a zero target, whose C_f = 0 would enter the bound as 1 / sqrt(L)
_BOUND_REPORT = dict(
    schedule="[pair]\np = 0.9\nq = 0.8", n_list=[5, 10], outputs={"bound-report"},
    grid=(0.0, 3.0, 7), max_terms=10000,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@example(target="named = e2", kappa=math.nan, **_BOUND_REPORT)
@example(target="coefficients = 0", kappa=2.0, **_BOUND_REPORT)
@given(
    schedule=_SCHEDULES,
    target=_TARGETS,
    # mostly orders every output takes, sometimes one that some outputs refuse
    n_list=st.tuples(
        st.lists(st.sampled_from([-3, 0, 1, 2]), max_size=1),
        st.lists(st.sampled_from([3, 5, 10, 20]), min_size=1, max_size=3, unique=True),
    ).map(lambda parts: sorted(parts[0] + parts[1])),
    outputs=st.sets(st.sampled_from(cli._OUTPUT_KINDS), min_size=1),
    kappa=st.sampled_from([math.nan, -1.0, 0.0, 0.5, 2.0]),
    grid=st.tuples(
        st.sampled_from([0.0, 0.5]), st.sampled_from([1.0, 3.0, 5.0, math.inf]), st.integers(2, 11)
    ),
    max_terms=st.sampled_from([1, 40, 10000]),
)
def test_a_config_is_refused_or_runs_to_the_end(
    schedule, target, n_list, outputs, kappa, grid, max_terms
):
    """validate refuses the config, or run finishes it with exit 0 or 2."""
    text = (
        f"{schedule}\n[function]\n{target}\n[run]\n"
        f"n_list = {', '.join(map(str, n_list))}\noutputs = {', '.join(sorted(outputs))}\n"
        f"kappa = {kappa!r}\n[grid]\nstart = {grid[0]!r}\nstop = {grid[1]!r}\npoints = {grid[2]}\n"
        f"[policy]\nmax_terms = {max_terms}\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_text(text)
        try:
            config = validate_config(path)
        except ConfigurationError:
            return
        assert run_experiment(config, Path(tmp) / "out") in (0, 2)


class TestWriteCsv:
    """cli._write_csv turns whole columns into text; each cell must read as
    the per-cell rule: a str as it is, NaN and +-inf as NA, any other number
    as repr(float(v)).  It returns whether it wrote an NA."""

    def test_exact_text(self, tmp_path):
        path = tmp_path / "t.csv"
        assert cli._write_csv(path, ["n", "a", "b", "c", "d"], [
            ["3", "10", "x y"],
            np.array([math.nan, math.inf, -math.inf]),
            [-0.0, 5e-324, 1.7976931348623157e308],
            (0.1, 2, np.float64(1.0) / 3.0),
            [1.5, math.nan, -2.0],
        ])
        assert path.read_bytes() == (
            b"n,a,b,c,d\n"
            b"3,NA,-0.0,0.1,1.5\n"
            b"10,NA,5e-324,2.0,NA\n"
            b"x y,NA,1.7976931348623157e+308,0.3333333333333333,-2.0\n"
        )
        assert not cli._write_csv(path, ["n", "b"], [["3", "10"], [-0.0, 1.7976931348623157e308]])
        assert path.read_bytes() == b"n,b\n3,-0.0\n10,1.7976931348623157e+308\n"

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(0, 12).flatmap(
            lambda size: st.lists(st.lists(st.floats(), min_size=size, max_size=size), min_size=1, max_size=4)
        ),
        kinds=st.lists(st.sampled_from(["ndarray", "list", "tuple", "numpy scalars"]), min_size=4, max_size=4),
    )
    def test_each_cell_follows_the_per_cell_rule(self, rows, kinds):
        as_kind = {
            "ndarray": np.array,
            "list": list,
            "tuple": tuple,
            "numpy scalars": lambda values: [np.float64(v) for v in values],
        }
        columns = [[str(i) for i in range(len(rows[0]))]]
        columns += [as_kind[kind](values) for kind, values in zip(kinds, rows)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            wrote_na = cli._write_csv(path, [f"c{j}" for j in range(len(columns))], columns)
            text = path.read_text(encoding="utf-8")
        want = [",".join(f"c{j}" for j in range(len(columns)))]
        for i, label in enumerate(columns[0]):
            cells = (repr(float(v)) if math.isfinite(v) else "NA" for v in (values[i] for values in rows))
            want.append(",".join([label, *cells]))
        assert text == "".join(line + "\n" for line in want)
        assert wrote_na == ("NA" in text)


def test_moments_rows_are_n_major(tmp_path):
    # a q_ratio schedule, so each n block has its own pair
    path = _config(tmp_path, "[schedule]\nfamily = q_ratio", "n_list = 3, 5, 10\noutputs = moments")
    config = validate_config(path)
    assert run_experiment(config, tmp_path / "out") == 0
    rows = read_csv(tmp_path / "out" / "moments.csv")
    xs = config.grid.array()
    want = []
    for n in config.n_list:
        pair = config.schedule.pair_at(n)
        quantities = {f"M{m}": moments_closed(pair, m, n, xs) for m in (0, 1, 2)}
        quantities.update({f"mu{m}": central_moment(pair, m, n, xs) for m in (1, 2)})
        for i, x in enumerate(xs):
            cells = {name: repr(float(values[i])) for name, values in quantities.items()}
            want.append({"n": str(n), "x": repr(float(x)), **cells})
    assert len(rows) == len(config.n_list) * xs.size
    assert rows == want


POLY = FunctionSpec.polynomial([7.0, -2.0, 25.0])
OUTPUT_FILES = {"curves": "curves.csv", "moments": "moments.csv",
                "convergence": "convergence.csv", "bound-report": "bound_report.csv"}


def _code_config(schedule, n_list, outputs):
    """A config built in code, so not checked by validate_config."""
    grid = EvalGrid(0.0, 5.0, 21)
    return cli.ExperimentConfig(schedule, POLY, n_list, grid, TruncationPolicy(), outputs, "out")


class TestAnOrderWithoutValuesIsNA:
    """Every writer writes an order it cannot evaluate as NA cells and the
    run exits 2, as the convergence writer does: here a schedule that
    leaves the regime at n = 3 (RegimeError), and an order n = 2 that has
    no second moments (DomainError)."""

    CONFIGS = {
        "leaves-regime": (ParameterSchedule.harmonic_decay(0.5, 5.0), (3, 10)),
        "n-is-2": (ParameterSchedule.fixed(PQPair(0.9, 0.8)), (2, 10)),
    }
    VALUES = {"moments": ("M0", "M1", "M2", "mu1", "mu2"),
              "convergence": ("sup_error", "weighted_error", "mu2_max"),
              "bound-report": ("mu2_max", "rate_bound")}

    def cells(self, rows, output, n):
        if output == "curves":
            return [row[f"D_n={n}"] for row in rows]
        return [row[name] for row in rows if row["n"] == str(n) for name in self.VALUES[output]]

    @pytest.mark.parametrize("output", sorted(OUTPUT_FILES))
    @pytest.mark.parametrize("case", sorted(CONFIGS))
    def test_na_cells_and_exit_two(self, case, output, tmp_path):
        schedule, (bad, good) = self.CONFIGS[case]
        assert run_experiment(_code_config(schedule, (bad, good), (output,)), tmp_path) == 2
        rows = read_csv(tmp_path / OUTPUT_FILES[output])
        assert set(self.cells(rows, output, bad)) == {"NA"}
        assert "NA" not in self.cells(rows, output, good)


@pytest.mark.parametrize(
    "schedule, n_list",
    [(ParameterSchedule.fixed(PQPair(0.9, 0.8)), (2, 5, 10)),
     (ParameterSchedule.q_ratio(), (3, 10, 40, 190)),
     (ParameterSchedule.harmonic_decay(0.5, 1.5), (3, 10, 100))],
    ids=["fixed", "q_ratio", "harmonic_decay"],
)
def test_moments_and_bound_report_cells_are_those_of_the_entries(schedule, n_list, tmp_path):
    # each cell is the text of the public entry at its own (pair, n, x); an
    # order n = 2 has no second moments, and all its cells are NA
    config = _code_config(schedule, n_list, ("moments", "bound-report"))
    assert run_experiment(config, tmp_path) == (2 if 2 in n_list else 0)
    xs, kappa = config.grid.array(), config.kappa

    def text(entry, *args):
        try:
            return repr(float(entry(*args)))
        except DomainError:
            return "NA"

    for row in read_csv(tmp_path / "moments.csv"):
        n, x = int(row["n"]), float(row["x"])
        pair = schedule.pair_at(n)
        want = {f"M{m}": text(moments_closed, pair, m, n, x) for m in (0, 1, 2)}
        want.update({f"mu{m}": text(central_moment, pair, m, n, x) for m in (1, 2)})
        if n <= 2:
            want = dict.fromkeys(want, "NA")
        assert {name: row[name] for name in want} == want
    window = xs[xs <= kappa + 1e-12]
    for row in read_csv(tmp_path / "bound_report.csv"):
        n = int(row["n"])
        pair = schedule.pair_at(n)
        assert row["rate_bound"] == text(
            cli.interval_rate_bound, pair, n, config.function, kappa, config.grid
        )
        assert row["mu2_max"] == text(lambda: central_moment(pair, 2, n, window).max())


class TestWorkOncePerRun:
    N_LIST = (3, 10, 40, 100)

    def counting(self, monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_moments_make_one_numerator_pass_per_order(self, monkeypatch, tmp_path):
        calls = self.counting(monkeypatch, baskakov, "_moment_numerators")
        config = _code_config(ParameterSchedule.q_ratio(), self.N_LIST, ("moments",))
        assert run_experiment(config, tmp_path) == 0
        assert [n for _, n in calls] == list(self.N_LIST)

    def test_a_bound_report_builds_one_modulus_table(self, monkeypatch, tmp_path):
        calls = self.counting(monkeypatch, analysis, "_moduli")
        config = _code_config(ParameterSchedule.q_ratio(), self.N_LIST, ("bound-report",))
        assert run_experiment(config, tmp_path) == 0
        assert len(calls) == 1
