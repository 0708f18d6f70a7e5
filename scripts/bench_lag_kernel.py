"""Time the lag pass per residual series, for blocks of 1, 8 and 64 series, on one or more source trees.

For each n in {200, 500, 2000}, each largest lag M in {10, 30} and each block
size R in {1, 8, 64}, correlates R residual series of length n (standard
normal draws, seeds 1000..) the way the tree's Monte Carlo engine does: the
four kinds rho_11, rho_22, rho_12 and rho_21 over lags 0..M, through
``LagCorrelations.stack`` where the tree has it (one stacked pass for the
block), else through one ``LagCorrelations`` per series (one pass per series).
The timed call includes building the kernels. A cell reports the best of
REPEAT such calls divided by R, in microseconds per series.

Each ``--tree LABEL=SRC`` loads the package found in SRC under its own module
name (``bench_garch_fit._load``); the trees' calls alternate, one call per tree
in turn, so a host whose speed drifts slows every tree alike. The default is
one tree, ``change`` from this checkout's ``src``. Each tree's row replaces the
row of the same label in ``--out`` (default ``BENCH_lag_kernel.json`` at the
repository root); with two or more rows, ``speedups`` holds the per-cell ratio
of the first row's time to the last row's (below 1 is a slowdown) and is
printed.

Usage: python scripts/bench_lag_kernel.py [--tree LABEL=SRC ...] [--out FILE]
"""

from __future__ import annotations

import os

# One BLAS thread, as the benchmark in bench/run.py pins it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_garch_fit import _commit, _load, _tree  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIZES = (200, 500, 2000)
MAX_LAGS = (10, 30)
BLOCKS = (1, 8, 64)
REPEAT = 15
KINDS = ((1, 1), (2, 2), (1, 2), (2, 1))


def _pass_call(pkg, series: list, max_lag: int):
    """A zero-argument callable correlating ``series`` at largest lag ``max_lag`` as the package's engine does."""
    kernel = pkg.LagCorrelations
    stack = getattr(kernel, "stack", None)

    def call():
        kernels = stack(series, max_lag) if stack is not None else [kernel(s, max_lag) for s in series]
        for k in kernels:
            for i, j in KINDS:
                k.rho(i, j, max_lag)

    return call


def measure(trees: dict) -> dict:
    """One row per tree label: a cell per (n, M, block), timed with the trees' calls interleaved."""
    packages = {label: _load(label, src) for label, src in trees.items()}
    cells = {label: [] for label in trees}
    for n in SIZES:
        for max_lag in MAX_LAGS:
            for size in BLOCKS:
                draws = [np.random.default_rng(1000 + k).standard_normal(n) for k in range(size)]
                calls = [
                    _pass_call(pkg, [pkg.make_residual_series(z) for z in draws], max_lag) for pkg in packages.values()
                ]
                best = [float("inf")] * len(calls)
                for _ in range(REPEAT):
                    for k, call in enumerate(calls):
                        start = time.perf_counter()
                        call()
                        best[k] = min(best[k], time.perf_counter() - start)
                for label, seconds in zip(packages, best):
                    cells[label].append(
                        {"n": n, "max_lag": max_lag, "block": size, "us_per_series": round(1e6 * seconds / size, 2)}
                    )
                print(
                    f"n={n} M={max_lag} R={size}: "
                    + ", ".join(f"{label} {cells[label][-1]['us_per_series']} us/series" for label in trees)
                )
    host = {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    method = (
        f"best of {REPEAT} block calls (kernels built, four kinds at lags 0..M) divided by the block size, "
        f"the trees' calls alternating; standard normal series, seeds 1000..; one BLAS thread; "
        f"trees measured together: {', '.join(trees)}"
    )
    return {
        label: {"label": label, "commit": _commit(src), "host": host, "method": method, "cells": cells[label]}
        for label, src in trees.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=_tree, action="append", help="LABEL=SRC, repeatable")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_lag_kernel.json")
    args = parser.parse_args(argv)
    trees = dict(args.tree or [("change", ROOT / "src")])
    new_rows = measure(trees)
    rows = json.loads(args.out.read_text(encoding="utf-8"))["rows"] if args.out.exists() else []
    rows = [r for r in rows if r["label"] not in new_rows] + list(new_rows.values())
    speedups = []
    if len(rows) > 1:
        first, last = rows[0], rows[-1]
        for old, new in zip(first["cells"], last["cells"]):
            ratio = round(old["us_per_series"] / new["us_per_series"], 2)
            speedups.append({"n": new["n"], "max_lag": new["max_lag"], "block": new["block"], "ratio": ratio})
            print(f"n={new['n']} M={new['max_lag']} R={new['block']}: {first['label']} -> {last['label']} {ratio:.2f}x")
    payload = {"layer": "residuals.lag_kernel", "rows": rows, "speedups": speedups}
    args.out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
