"""One repetition of a benchmark workload, in its own fresh process.

Usage: python3 bench/child.py --out DIR [--trace] CONFIG...

Runs the CLI path (``validate_config`` then ``run_experiment``) on each
config, writing config i's outputs to DIR/<i>, and prints one JSON line:
set-up time, run time, the speed-probe times, exit codes, peak RSS and the
numpy version.  With ``--trace`` the layer wrappers of ``layers.py`` are
installed right after the import and their report is added to the line.
Without it nothing in the program is touched.

The speed probes time a fixed piece of work that does not depend on the
program: interpreter work before the set-up, after it and after the run,
and array work after the run (never before it, so that numpy's first calls
are still paid by the program).  The host this runs on changes speed by
tens of percent over seconds to minutes; ``run.py`` divides each
repetition's times by the probes taken next to them.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import time
from pathlib import Path


def python_probe() -> float:
    """Seconds that a fixed loop of interpreter work takes."""
    start = time.perf_counter()
    total = 0.0
    table = {}
    for i in range(160_000):
        total += math.sqrt(i) * 0.5
        table[i & 1023] = total
    sorted(table.values())
    return time.perf_counter() - start


def numpy_probe(np) -> float:
    """Seconds that a fixed loop of array work takes."""
    start = time.perf_counter()
    # 1 MiB per array, about the size of the program's larger arrays
    x = np.linspace(0.5, 20.0, 1 << 17)
    for _ in range(8):
        y = np.log(x) * 0.5
        np.exp(-y).cumsum()
        np.logaddexp(y, x).sum()
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("configs", nargs="+")
    args = parser.parse_args()

    before_setup = python_probe()
    start = time.perf_counter()
    from pqbaskakov import cli

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    configs = [cli.validate_config(path) for path in args.configs]
    setup_s = time.perf_counter() - start
    before_run = python_probe()

    wall_s = 0.0
    codes = []
    for i, config in enumerate(configs):
        begin = time.perf_counter()
        codes.append(cli.run_experiment(config, Path(args.out) / str(i)))
        wall_s += time.perf_counter() - begin

    # ru_maxrss is in KiB on Linux; read before the probes allocate anything
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy

    result = {
        "numpy": numpy.__version__,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "python_probe_s": [before_setup, before_run, python_probe()],
        "numpy_probe_s": numpy_probe(numpy),
        "codes": codes,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
