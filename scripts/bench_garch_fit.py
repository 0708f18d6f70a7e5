"""Time the GARCH QMLE fitter per fit, layer by layer, on one or more source trees.

For each order (b, a) in (1,0), (2,0), (1,1), (2,1) and each n in
{200, 500, 2000}, simulates SERIES seeded series of the matching GARCH model
(``MODELS``, those of ``tests/test_golden_garch.py``) and times
``fit_garch_qmle`` on each, best of 5 calls. A cell reports the mean over the series of those best
times, the mean ``iterations`` and the mean log-likelihood.

Each ``--tree LABEL=SRC`` loads the package found in SRC under its own module
name, so several trees (say a parent commit's checkout and this one) run in
one process. Their calls alternate, one call per tree in turn, so a host whose
speed drifts from second to second slows every tree alike. Every tree fits
the series its own simulator draws. The default is one tree, ``change`` from
this checkout's ``src``. Each tree's row replaces the row of the same label in
``--out`` (default ``BENCH_garch_qmle.json`` at the repository root), keeping
the others; with two or more rows the per-cell speed-up of the last row over
the first is printed.

Usage: python scripts/bench_garch_fit.py [--tree LABEL=SRC ...] [--out FILE]
"""

from __future__ import annotations

import os

# One BLAS thread, as the benchmark in bench/run.py pins it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SIZES = (200, 500, 2000)
SERIES = 3
REPEAT = 5
# GARCH(b, a) parameters by order, as in tests/test_golden_garch.py.
MODELS = {
    (1, 0): {"omega": 0.2, "alpha": (0.4,)},
    (2, 0): {"omega": 0.2, "alpha": (0.2, 0.2)},
    (1, 1): {"omega": 0.1, "alpha": (0.1,), "beta": (0.8,)},
    (2, 1): {"omega": 0.1, "alpha": (0.1, 0.1), "beta": (0.6,)},
}


def _load(label: str, src: Path):
    """The ``portmanteau`` package under ``src``, imported as its own module ``_bench_<label>``."""
    name = f"_bench_{label}"
    package = src / "portmanteau"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _commit(src: Path) -> str:
    out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=src, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def _best_of(calls: list) -> list:
    """Best wall time of REPEAT calls of each zero-argument callable, the callables taking turns."""
    best = [float("inf")] * len(calls)
    for _ in range(REPEAT):
        for k, call in enumerate(calls):
            start = time.perf_counter()
            call()
            best[k] = min(best[k], time.perf_counter() - start)
    return best


def measure(trees: dict) -> dict:
    """One row per tree label: a cell per (order, n), timed with the trees' calls interleaved."""
    packages = {label: _load(label, src) for label, src in trees.items()}
    cells = {label: [] for label in trees}
    for (b, a), params in MODELS.items():
        for n in SIZES:
            times = {label: [] for label in trees}
            fits = {label: [] for label in trees}
            for seed in range(SERIES):
                calls = []
                for label, pkg in packages.items():
                    z = pkg.simulate(pkg.ModelSpec(model=pkg.Garch(**params), burn_in=200), n, seed)
                    fits[label].append(pkg.fit_garch_qmle(z, b, a))
                    calls.append(lambda pkg=pkg, z=z: pkg.fit_garch_qmle(z, b, a))
                for label, best in zip(packages, _best_of(calls)):
                    times[label].append(best)
            for label in trees:
                cells[label].append(
                    {
                        "order": f"{b},{a}",
                        "n": n,
                        "ms_per_fit": round(1e3 * float(np.mean(times[label])), 3),
                        "iterations": float(np.mean([fit.iterations for fit in fits[label]])),
                        "loglik_mean": float(np.mean([fit.loglik for fit in fits[label]])),
                    }
                )
            print(f"GARCH({b},{a}) n={n}: " + ", ".join(f"{label} {cells[label][-1]['ms_per_fit']} ms/fit" for label in trees))
    host = {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    method = (
        f"best of {REPEAT} calls per series, the trees' calls alternating; mean over seeds 0..{SERIES - 1}; "
        f"burn-in 200; one BLAS thread; trees measured together: {', '.join(trees)}"
    )
    return {
        label: {"label": label, "commit": _commit(src), "host": host, "method": method, "cells": cells[label]}
        for label, src in trees.items()
    }


def _tree(text: str) -> tuple:
    label, sep, src = text.partition("=")
    if not sep or not label or not src:
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC, got {text!r}")
    return label, Path(src).resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=_tree, action="append", help="LABEL=SRC, repeatable")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_garch_qmle.json")
    args = parser.parse_args(argv)
    trees = dict(args.tree or [("change", ROOT / "src")])
    new_rows = measure(trees)
    rows = json.loads(args.out.read_text(encoding="utf-8"))["rows"] if args.out.exists() else []
    rows = [r for r in rows if r["label"] not in new_rows] + list(new_rows.values())
    args.out.write_text(json.dumps({"layer": "fitting.fit_garch_qmle", "rows": rows}, indent=1) + "\n", encoding="utf-8")
    if len(rows) > 1:
        first, last = rows[0], rows[-1]
        for old, new in zip(first["cells"], last["cells"]):
            ratio = old["ms_per_fit"] / new["ms_per_fit"]
            print(f"GARCH({new['order']}) n={new['n']}: {first['label']} -> {last['label']} {ratio:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
