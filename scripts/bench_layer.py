"""Time one layer of the pipeline per call, on one or more source trees, and write ``BENCH_<LAYER>.json``.

LAYER names a row of ``LAYERS``; every n is in SIZES and every block size R in
BLOCKS:

- ``simulate``: for each model of ``MODELS`` (the four GARCH orders of
  ``GARCH_MODELS``, the ar_arch workload's AR(1)-ARCH(2), the ar_null
  workload's AR(1) and the battery workload's TAR) at the default burn-in,
  one ``_simulate_block`` call on R seeds 1000..; ``ms_per_path`` is its time
  divided by R.
- ``lag_kernel``: for each largest lag M in MAX_LAGS, the four kinds rho_11,
  rho_22, rho_12 and rho_21 at lags 0..M of R standard normal residual series
  (seeds 1000..) through ``LagCorrelations.stack``, kernels built in the call;
  ``us_per_series`` is its time divided by R.
- ``garch_qmle``: for each order (b, a) of ``GARCH_MODELS`` (those of
  ``tests/test_golden_garch.py``), ``fit_garch_qmle`` on each of seeds
  0..SERIES-1 of the matching GARCH model at burn-in 200: ``ms_per_fit`` is
  the mean of their times, with the mean ``iterations`` and log-likelihood.
  ``block_ms_per_row`` times one ``fit_garch_block`` call on the first R of
  those seeds, per row.
- ``statistics``: for each design of ``DESIGNS`` (the ar_null workload's
  AR(1) with Cm at m = 10, the battery workload's TAR with its 18 statistics
  at m = 10 and 30), R paths at the default burn-in (seeds 1000..),
  simulated outside the timing, then the engine's steps from paths to
  reports: the AR(1) fit of every row (``montecarlo._fit_rows``), the lag
  kernels of the fits (``montecarlo._lag_kernels``) and every fit's reports
  (``montecarlo.evaluate_fit``); ``us_per_series`` is its time divided by R.
  A block of one is the lone path of ``portmanteau test``.

Each time is the best of the layer's ``repeat`` calls. Each ``--tree
LABEL=SRC`` loads the package found in SRC under its own module name, so
several trees (say a parent commit's checkout and this one) run in one
process. Their calls alternate, one call per tree in turn, so a host whose
speed drifts slows every tree alike; each tree times inputs its own package
builds. The default is one tree, ``change`` from this checkout's ``src``. Each
tree's row replaces the row of the same label in ``--out`` (default
``BENCH_<LAYER>.json`` at the repository root), keeping the others; with two
or more rows, ``speedups`` holds per cell the ratio of the first row's times to
the last row's (below 1 is a slowdown), and is printed.

Usage: python scripts/bench_layer.py LAYER [--tree LABEL=SRC ...] [--out FILE]
"""

from __future__ import annotations

import os

# One BLAS thread, as the benchmark in bench/run.py pins it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import itertools
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SIZES = (200, 500, 2000)
BLOCKS = (1, 8, 64)
MAX_LAGS = (10, 30)
SERIES = 3
KINDS = ((1, 1), (2, 2), (1, 2), (2, 1))
# GARCH(b, a) parameters by order, as in tests/test_golden_garch.py.
GARCH_MODELS = {
    (1, 0): {"omega": 0.2, "alpha": (0.4,)},
    (2, 0): {"omega": 0.2, "alpha": (0.2, 0.2)},
    (1, 1): {"omega": 0.1, "alpha": (0.1,), "beta": (0.8,)},
    (2, 1): {"omega": 0.1, "alpha": (0.1, 0.1), "beta": (0.6,)},
}
# Model name: a function of the loaded package giving the model.
MODELS = {
    **{f"garch_{b}{a}": (lambda pkg, p=params: pkg.Garch(**p)) for (b, a), params in GARCH_MODELS.items()},
    "ar_arch": lambda pkg: pkg.ArmaGarch(arma=pkg.Arma(phi=(0.2,)), garch=pkg.Garch(omega=0.2, alpha=(0.2, 0.2))),
    "ar1": lambda pkg: pkg.Arma(phi=(0.1,)),
    "tar": lambda pkg: pkg.Tar(phi1_lower=-1.5, phi1_upper=0.5),
}

# Design name: (model of MODELS, statistics, lag orders); no statistics means the battery's 18.
DESIGNS = {
    "ar_null": ("ar1", ("Cm",), (10,)),
    "battery": ("tar", (), (10, 30)),
}


def _simulate_cell(pkg, model: str, n: int, block: int):
    spec = pkg.ModelSpec(model=MODELS[model](pkg))
    seeds = [1000 + k for k in range(block)]
    return (
        [lambda: pkg.models._simulate_block(spec, n, seeds)],
        lambda best: {"ms_per_path": round(1e3 * best[0] / block, 4)},
    )


def _lag_kernel_cell(pkg, n: int, max_lag: int, block: int):
    series = [pkg.make_residual_series(np.random.default_rng(1000 + k).standard_normal(n)) for k in range(block)]

    def call():
        for kernel in pkg.LagCorrelations.stack(series, max_lag):
            for i, j in KINDS:
                kernel.rho(i, j, max_lag)

    return [call], lambda best: {"us_per_series": round(1e6 * best[0] / block, 2)}


def _garch_qmle_cell(pkg, order: str, n: int):
    b, a = (int(part) for part in order.split(","))
    spec = pkg.ModelSpec(model=pkg.Garch(**GARCH_MODELS[b, a]), burn_in=200)
    rows = np.array([pkg.simulate(spec, n, seed) for seed in range(max(SERIES, *BLOCKS))])
    fits = [pkg.fit_garch_qmle(z, b, a) for z in rows[:SERIES]]
    calls = [lambda z=z: pkg.fit_garch_qmle(z, b, a) for z in rows[:SERIES]]
    calls += [lambda part=rows[:size]: pkg.fitting.fit_garch_block(part, b, a) for size in BLOCKS]

    def fields(best: list) -> dict:
        return {
            "ms_per_fit": round(1e3 * float(np.mean(best[:SERIES])), 3),
            "iterations": float(np.mean([fit.iterations for fit in fits])),
            "loglik_mean": float(np.mean([fit.loglik for fit in fits])),
            "block_ms_per_row": {str(size): round(1e3 * t / size, 3) for size, t in zip(BLOCKS, best[SERIES:])},
        }

    return calls, fields


def _statistics_cell(pkg, design: str, n: int, block: int):
    model, names, m_list = DESIGNS[design]
    names = names or [name for name in pkg.ALL_STATISTICS if name not in ("Lb", "Lbw")]
    spec = pkg.ModelSpec(model=MODELS[model](pkg))
    paths, _ = pkg.models._simulate_block(spec, n, [1000 + k for k in range(block)])
    fitter = pkg.FitterSpec(kind="ar", p=1, intercept=False)
    engine = pkg.montecarlo

    def call():
        fits = [fit for fit in engine._fit_rows(paths, fitter) if isinstance(fit, pkg.FitResult)]
        for fit, kernel in engine._lag_kernels(fits, max(m_list)):
            engine.evaluate_fit(fit, names, m_list, kernel)

    return [call], lambda best: {"us_per_series": round(1e6 * best[0] / block, 2)}


class Layer(NamedTuple):
    name: str  # the output's ``layer``
    axes: Callable  # () -> {key: values}: the cells are their product, in this order
    cell: Callable  # (pkg, **keys) -> (zero-argument calls to time, best times -> the cell's other fields)
    timed: dict  # speed-up entry: the cell field whose ratio it holds
    repeat: int
    method: str


LAYERS = {
    "simulate": Layer(
        "models.simulate",
        lambda: {"model": MODELS, "n": SIZES, "block": BLOCKS},
        _simulate_cell,
        {"ratio": "ms_per_path"},
        3,
        "ms_per_path: a block call divided by the block size; seeds 1000..; default burn-in",
    ),
    "lag_kernel": Layer(
        "residuals.lag_kernel",
        lambda: {"n": SIZES, "max_lag": MAX_LAGS, "block": BLOCKS},
        _lag_kernel_cell,
        {"ratio": "us_per_series"},
        15,
        "us_per_series: a block call (kernels built, four kinds at lags 0..M) divided by the block size; "
        "standard normal series, seeds 1000..",
    ),
    "garch_qmle": Layer(
        "fitting.fit_garch_qmle",
        lambda: {"order": [f"{b},{a}" for b, a in GARCH_MODELS], "n": SIZES},
        _garch_qmle_cell,
        {"ratio": "ms_per_fit", "block_ratio": "block_ms_per_row"},
        5,
        f"ms_per_fit: mean over seeds 0..{SERIES - 1} of a lone fit; block_ms_per_row: a block of the first R "
        "seeds, per row; burn-in 200",
    ),
    "statistics": Layer(
        "montecarlo.statistics",
        lambda: {"design": DESIGNS, "n": SIZES, "block": BLOCKS},
        _statistics_cell,
        {"ratio": "us_per_series"},
        25,
        "us_per_series: AR(1) fits, lag kernels and reports of a block of paths divided by the block size; "
        "paths simulated outside the timing, seeds 1000..; default burn-in",
    ),
}


def _load(label: str, src: Path):
    """The ``portmanteau`` package under ``src``, imported as its own module ``_bench_<label>``."""
    name = f"_bench_{label}"
    for stale in [key for key in sys.modules if key.partition(".")[0] == name]:
        del sys.modules[stale]  # an earlier load's submodules would not bind to the new package
    package = src / "portmanteau"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _tree(text: str) -> tuple:
    label, sep, src = text.partition("=")
    if not sep or not label or not src:
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC, got {text!r}")
    return label, Path(src).resolve()


def _commit(src: Path) -> str:
    out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=src, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def _best_of(calls: list, repeat: int) -> list:
    """Best wall time of ``repeat`` calls of each zero-argument callable, the callables taking turns."""
    best = [float("inf")] * len(calls)
    for _ in range(repeat):
        for k, call in enumerate(calls):
            start = time.perf_counter()
            call()
            best[k] = min(best[k], time.perf_counter() - start)
    return best


def measure(layer: Layer, trees: dict) -> dict:
    """One row per tree label: a cell per point of the layer's grid, the trees' calls interleaved."""
    packages = {label: _load(label, src) for label, src in trees.items()}
    axes = layer.axes()
    cells = {label: [] for label in trees}
    for point in itertools.product(*axes.values()):
        keys = dict(zip(axes, point))
        work = [layer.cell(pkg, **keys) for pkg in packages.values()]
        # Call k of every tree in turn, then call k + 1: times[j::len(trees)] are tree j's.
        times = _best_of([call for calls in zip(*(calls for calls, _ in work)) for call in calls], layer.repeat)
        for j, (label, (_, fields)) in enumerate(zip(trees, work)):
            cells[label].append({**keys, **fields(times[j :: len(trees)])})
        field = next(iter(layer.timed.values()))
        print(f"{_where(keys)}: " + ", ".join(f"{label} {field} {cells[label][-1][field]}" for label in trees))
    host = {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    method = (
        f"best of {layer.repeat} calls, the trees' calls alternating; {layer.method}; "
        f"one BLAS thread; trees measured together: {', '.join(trees)}"
    )
    return {
        label: {"label": label, "commit": _commit(src), "host": host, "method": method, "cells": cells[label]}
        for label, src in trees.items()
    }


def _where(keys: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in keys.items())


def _ratio(old, new):
    """old / new to two decimals, entry by entry for a dict."""
    if isinstance(new, dict):
        return {key: _ratio(old[key], value) for key, value in new.items()}
    return round(old / new, 2)


def speedups(layer: Layer, first: dict, last: dict) -> list:
    """Per cell, its grid keys and the ratio of each timed field of the first row to the last row's."""
    out = []
    for old, new in zip(first["cells"], last["cells"]):
        keys = {key: new[key] for key in layer.axes()}
        ratios = {name: _ratio(old[field], new[field]) for name, field in layer.timed.items()}
        out.append({**keys, **ratios})
        pair = f"{first['label']} -> {last['label']}"
        print(f"{_where(keys)}: {pair} " + ", ".join(f"{name} {ratio}" for name, ratio in ratios.items()))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("layer", choices=LAYERS)
    parser.add_argument("--tree", type=_tree, action="append", help="LABEL=SRC, repeatable")
    parser.add_argument("--out", type=Path, help="default: BENCH_<LAYER>.json at the repository root")
    args = parser.parse_args(argv)
    layer = LAYERS[args.layer]
    out = args.out or ROOT / f"BENCH_{args.layer}.json"
    trees = dict(args.tree or [("change", ROOT / "src")])
    new_rows = measure(layer, trees)
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"] if out.exists() else []
    rows = [r for r in rows if r["label"] not in new_rows] + list(new_rows.values())
    payload = {"layer": layer.name, "rows": rows, "speedups": speedups(layer, rows[0], rows[-1]) if rows[1:] else []}
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
