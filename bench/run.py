"""Benchmark of the pqbaskakov experiment CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fixed-pair|schedule-sweep|ladder
                         [--seed N] [--seconds S] [--trace 0|1]

Writes the workload's configs for the seed, then runs repetitions in a
closed loop with one client until S seconds have passed: each repetition is
a fresh single-threaded process (``child.py``) that imports the package from
``src/``, validates the configs and runs them, because CLI users pay the
import and the cold caches on every invocation.  Every output cell of every
repetition is checked by ``oracle.py``, and all repetitions must write
byte-identical outputs.

The times reported are scaled to a reference machine speed.  A shared
host can change speed by tens of percent over seconds to minutes, far
more than a regression worth catching, so each repetition's
set-up and run times are divided by the speed-probe times ``child.py``
measures next to them (a fixed piece of work that does not depend on the
program) and multiplied by the probes' time at the reference speed.  The
unscaled medians are printed as well and kept in the result copy.

With ``--trace 0`` the end-to-end metrics are reported (no wrappers are
installed).  With ``--trace 1`` traced and untraced repetitions alternate and
the per-layer metrics of ``layers.py`` are reported, with the tracing
overhead.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.  A
copy of the result with the run record (commit, versions, CPU, thread
settings, all samples) is written to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIME_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Seconds the probes of child.py take at the reference speed: about their
# time on 2 vCPUs of an "Intel(R) Xeon(R) Processor" host in a quiet phase.
PYTHON_PROBE_REF_S = 0.04
NUMPY_PROBE_REF_S = 0.035
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "evals_per_s": "1/s",
                    "peak_rss_mb": "MiB", "ok_fraction": "ratio"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    src = ROOT / "src"
    if not (src / "pqbaskakov" / "cli.py").is_file():
        print(f"error: no pqbaskakov sources under {src}", file=sys.stderr)
        return 2

    configs = workloads.build(args.workload, args.seed)
    checker = oracle.Checker(configs, args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    paths = []
    for config in configs:
        path = work / "configs" / f"{config.name}.cfg"
        path.write_text(config.text(), encoding="utf-8")
        paths.append(str(path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    env.update({name: "1" for name in THREAD_VARS})

    reps: list[dict] = []
    try:
        while True:
            traced = bool(args.trace) and sum(r["traced"] for r in reps) * 2 < len(reps)
            left = TIME_LIMIT_S - (time.perf_counter() - started)
            if left <= 0:
                break
            reps.append(_repetition(work, len(reps), paths, env, traced, checker, left))
            done = time.perf_counter() - started >= args.seconds
            if done and (not args.trace or any(r["traced"] for r in reps)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = _summarize(args, configs, checker, reps, env)
    for line in result.pop("lines"):
        print(line)
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _repetition(work: Path, index: int, paths: list[str], env: dict, traced: bool,
                checker: oracle.Checker, timeout: float) -> dict:
    """One fresh-process repetition, checked; its outputs are deleted afterwards."""
    out = work / f"rep{index}"
    command = [sys.executable, str(BENCH / "child.py"), "--out", str(out)]
    command += ["--trace"] * traced + paths
    rep = {"traced": traced}
    try:
        proc = subprocess.run(command, env=env, cwd=work, capture_output=True, text=True,
                              timeout=timeout)
        rep.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
        rep["crashed"] = repr(exc)[-600:]
        rep["tally"] = oracle.Tally.crashed(checker.cells(), rep["crashed"])
        return rep
    rep["tally"] = checker.check(out, rep["codes"])
    digest = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    rep["digest"] = digest.hexdigest()
    shutil.rmtree(out, ignore_errors=True)
    return rep


def _scaled(rep: dict) -> dict:
    """A repetition's set-up and run times at the reference speed.  Set-up
    is scaled by the interpreter probes around it; the run, which mixes
    interpreter and array work, by the interpreter probes around it plus the
    array probe after it."""
    before_setup, before_run, after_run = rep["python_probe_s"]
    setup_speed = PYTHON_PROBE_REF_S / ((before_setup + before_run) / 2)
    run_speed = (PYTHON_PROBE_REF_S + NUMPY_PROBE_REF_S) / (
        (before_run + after_run) / 2 + rep["numpy_probe_s"])
    return {"setup_s": rep["setup_s"] * setup_speed, "wall_s": rep["wall_s"] * run_speed}


def _quantiles(values: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    out = {"n": len(ordered), "median": statistics.median(ordered)}
    if len(ordered) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(ordered, n=4)
    if len(ordered) > 10:
        out[f"p{100 * (len(ordered) - 10) // len(ordered)}"] = ordered[-11]
    return out


def _summarize(args, configs, checker, reps, env) -> dict:
    evals = sum(c.evals() for c in configs)
    attempted = sum(r["tally"].attempted for r in reps)
    failed = sum(r["tally"].na + r["tally"].wrong for r in reps)
    problems = [p for r in reps for p in r["tally"].problems]
    if len({r["digest"] for r in reps if "digest" in r}) > 1:
        problems.append("outputs differ between repetitions")
    plain = [r for r in reps if not r["traced"] and "crashed" not in r]
    traced = [r for r in reps if r["traced"] and "crashed" not in r]
    samples = {key: [_scaled(r)[key] for r in plain] for key in ("setup_s", "wall_s")}
    samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in plain]
    unscaled = {key: [r[key] for r in plain] for key in ("setup_s", "wall_s")}
    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
             f"{len(reps)} repetitions ({len(traced)} traced), "
             f"{attempted} cells, {failed} failed"]

    if not plain or (args.trace and not traced):
        problems.append("no repetition finished")
        metrics = {}
    elif args.trace:
        metrics = _layer_metrics(traced, plain, evals, problems, lines)
        for name, item in metrics.items():
            lines.append(f"  {name:42s} {_fmt(item['value']):>14s} {item['unit']}")
    else:
        wall = statistics.median(samples["wall_s"])
        values = {
            "setup_s": statistics.median(samples["setup_s"]),
            "wall_s": wall,
            "evals_per_s": evals / wall,
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
            "ok_fraction": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        for name, item in metrics.items():
            spread = _quantiles(samples[name]) if name in samples else {}
            detail = ", ".join(f"{k} {_fmt(v)}" for k, v in spread.items() if k != "median")
            lines.append(f"  {name:14s} {_fmt(item['value']):>14s} {item['unit']:6s} {detail}")
        lines.append(f"  {'fail_fraction':14s} {_fmt(failed / attempted):>14s} ratio  "
                     f"(NA or wrong cells / cells attempted)")
        lines.append("  unscaled medians: " + ", ".join(
            f"{key} {_fmt(statistics.median(values))} s" for key, values in unscaled.items()))

    worst: dict[str, float] = {}
    for r in reps:
        for check, error in r["tally"].worst.items():
            worst[check] = max(worst.get(check, 0.0), error)
    lines.append("  worst relative error per check: "
                 + ", ".join(f"{k} {v:.2g}" for k, v in sorted(worst.items())))
    correct = bool(plain) and not problems
    if problems:
        lines.append("  PROBLEMS: " + "; ".join(problems[:10]))
    record = _record(plain[0]["numpy"] if plain else "unknown", env)
    lines.append("  record: " + json.dumps(record))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
            "lines": lines, "record": record, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "samples": samples,
            "unscaled_samples": unscaled, "worst_error": worst,
            "problems": problems,
            "traced_wall_s": [_scaled(r)["wall_s"] for r in traced]}


def _layer_metrics(traced, plain, evals, problems, lines) -> dict:
    """Per-layer metrics: counts and ratios must repeat exactly across traced
    repetitions; times are medians.  A metric whose boundary is missing, or
    that an incomplete trace would get wrong, is reported as absent (None)."""
    reports = [r["trace"]["metrics"] for r in traced]
    missing = sorted({name for r in traced for name in r["trace"]["missing"]})
    absent = {m for r in reports for m, v in r.items() if v is None}
    if missing:
        lines.append("  boundaries not found: " + ", ".join(missing))
    calls = reports[0]["baskakov.apply.calls"]
    if calls is not None and calls != evals:
        # every D_n evaluation should pass through a wrapped boundary
        absent.update(m for m in layers.METRICS if m.startswith("baskakov.apply."))
        lines.append(f"  trace incomplete: baskakov.apply.calls {calls} != {evals} evaluations")
    metrics = {}
    for name, (unit, _source, _stat) in layers.METRICS.items():
        values = [r[name] for r in reports]
        if name in absent:
            value = None
        elif unit in ("count", "ratio"):
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced repetitions: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    untraced = statistics.median(_scaled(r)["wall_s"] for r in plain)
    overhead = statistics.median(_scaled(r)["wall_s"] for r in traced) / untraced - 1.0
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics


def _fmt(value) -> str:
    if value is None:
        return "absent"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def _record(numpy_version: str, env: dict) -> dict:
    """Where and with what a result was measured."""
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "threads": {name: env.get(name) for name in THREAD_VARS},
    }


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    raise SystemExit(main())
