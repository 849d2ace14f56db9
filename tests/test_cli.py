import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqbaskakov import (
    ConfigurationError,
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
from pqbaskakov import NAMED_FUNCTIONS, baskakov, cli
from pqbaskakov.cli import main


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

    def test_an_infinite_tolerance_is_refused(self, small_config, capsys):
        # it parses as a float, but stops a ladder after 3 terms as converged
        assert main(["validate", str(small_config), "--override", "policy.rel_tol=inf"]) == 1
        err = capsys.readouterr().err
        assert "[policy] invalid" in err and "rel_tol" in err


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
        (FIGURE1_TEXT, [], "analytic"),
        (LADDER_TEXT, [], "quadrature"),
        # NA cells: the starved budget leaves the ladder unconverged
        (LADDER_TEXT, ["policy.max_terms=10"], "quadrature"),
    ],
    ids=["analytic", "quadrature", "starved"],
)


def _counting_cells(monkeypatch, route):
    """Replace the kernel of baskakov by one that records the (n, x) cells
    of each of its calls, and its sample builders by ones that refuse any
    route but route."""
    apply, builder = baskakov._apply, baskakov._sample_builder
    calls = []

    def counting(pair, n, xs, policy, samples):
        calls.append([(n, x) for x in xs.tolist()])
        return apply(pair, n, xs, policy, samples)

    def sampling(pair, n, f, name):
        assert name == route
        return builder(pair, n, f, name)

    monkeypatch.setattr(baskakov, "_apply", counting)
    monkeypatch.setattr(baskakov, "_sample_builder", sampling)
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
    calls = _counting_cells(monkeypatch, "analytic")
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
