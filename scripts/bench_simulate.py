"""Time the simulators per path, for blocks of 1, 8 and 64 replicates, on one or more source trees.

For each model of ``MODELS`` (the four GARCH orders of
``scripts/bench_garch_fit.py``, the ar_arch workload's AR(1)-ARCH(2), the
ar_null workload's AR(1) and the battery workload's TAR), each n in
{200, 500, 2000} (default burn-in, 500) and each block size R in {1, 8, 64},
simulates the paths of R seeds the way the tree's Monte Carlo engine does: one
``_simulate_block`` call where the tree has it, else one ``_simulate`` call
per seed (the engine's unvalidated per-path call before blocks). A cell
reports the best of REPEAT such calls divided by R, in ms per path.

Each ``--tree LABEL=SRC`` loads the package found in SRC under its own module
name (``bench_garch_fit._load``); the trees' calls alternate, one call per tree
in turn, so a host whose speed drifts slows every tree alike. The default is
one tree, ``change`` from this checkout's ``src``. Each tree's row replaces the
row of the same label in ``--out`` (default ``BENCH_simulate.json`` at the
repository root); with two or more rows, ``speedups`` holds the per-cell ratio
of the first row's time to the last row's (below 1 is a slowdown) and is
printed.

Usage: python scripts/bench_simulate.py [--tree LABEL=SRC ...] [--out FILE]
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
from bench_garch_fit import MODELS as GARCH_MODELS  # noqa: E402
from bench_garch_fit import _commit, _load, _tree  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIZES = (200, 500, 2000)
BLOCKS = (1, 8, 64)
REPEAT = 3
# Model name: a function of the loaded package giving the model.
MODELS = {
    **{f"garch_{b}{a}": (lambda pkg, p=params: pkg.Garch(**p)) for (b, a), params in GARCH_MODELS.items()},
    "ar_arch": lambda pkg: pkg.ArmaGarch(arma=pkg.Arma(phi=(0.2,)), garch=pkg.Garch(omega=0.2, alpha=(0.2, 0.2))),
    "ar1": lambda pkg: pkg.Arma(phi=(0.1,)),
    "tar": lambda pkg: pkg.Tar(phi1_lower=-1.5, phi1_upper=0.5),
}


def _block_call(pkg, spec, n: int, seeds: list):
    """A zero-argument callable simulating the paths of ``seeds`` as the package's engine does."""
    block = getattr(pkg.models, "_simulate_block", None)
    if block is not None:
        return lambda: block(spec, n, seeds)
    return lambda: [pkg.models._simulate(spec, n, seed) for seed in seeds]


def measure(trees: dict) -> dict:
    """One row per tree label: a cell per (model, n, block), timed with the trees' calls interleaved."""
    packages = {label: _load(label, src) for label, src in trees.items()}
    cells = {label: [] for label in trees}
    for name, model in MODELS.items():
        for n in SIZES:
            for size in BLOCKS:
                seeds = [1000 + k for k in range(size)]
                calls = [_block_call(pkg, pkg.ModelSpec(model=model(pkg)), n, seeds) for pkg in packages.values()]
                best = [float("inf")] * len(calls)
                for _ in range(REPEAT):
                    for k, call in enumerate(calls):
                        start = time.perf_counter()
                        call()
                        best[k] = min(best[k], time.perf_counter() - start)
                for label, seconds in zip(packages, best):
                    cells[label].append({"model": name, "n": n, "block": size, "ms_per_path": round(1e3 * seconds / size, 4)})
                print(f"{name} n={n} R={size}: " + ", ".join(f"{label} {cells[label][-1]['ms_per_path']} ms/path" for label in trees))
    host = {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    method = (
        f"best of {REPEAT} block calls divided by the block size, the trees' calls alternating; seeds 1000..; "
        f"default burn-in; one BLAS thread; trees measured together: {', '.join(trees)}"
    )
    return {
        label: {"label": label, "commit": _commit(src), "host": host, "method": method, "cells": cells[label]}
        for label, src in trees.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=_tree, action="append", help="LABEL=SRC, repeatable")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_simulate.json")
    args = parser.parse_args(argv)
    trees = dict(args.tree or [("change", ROOT / "src")])
    new_rows = measure(trees)
    rows = json.loads(args.out.read_text(encoding="utf-8"))["rows"] if args.out.exists() else []
    rows = [r for r in rows if r["label"] not in new_rows] + list(new_rows.values())
    speedups = []
    if len(rows) > 1:
        first, last = rows[0], rows[-1]
        for old, new in zip(first["cells"], last["cells"]):
            ratio = round(old["ms_per_path"] / new["ms_per_path"], 2)
            speedups.append({"model": new["model"], "n": new["n"], "block": new["block"], "ratio": ratio})
            print(f"{new['model']} n={new['n']} R={new['block']}: {first['label']} -> {last['label']} {ratio:.2f}x")
    payload = {"layer": "models.simulate", "rows": rows, "speedups": speedups}
    args.out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
