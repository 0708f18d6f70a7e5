"""Time one layer of the pipeline per call, on one or more source trees, and write ``BENCH_<LAYER>.json``.

LAYER names a row of ``LAYERS``; every n is in SIZES and every block size R in
BLOCKS:

- ``simulate``: for each model of ``MODELS`` (the four GARCH orders of
  ``GARCH_MODELS``, the ar_arch workload's AR(1)-ARCH(2), the ar_null
  workload's AR(1) and the battery workload's TAR) at the default burn-in,
  one ``_simulate_block`` call on R seeds 1000..; ``ms_per_path`` is its time
  divided by R, and ``sha256`` the digest of the paths' bytes, so that trees
  which give the same bits show the same digest.
- ``lag_kernel``: for each largest lag M in MAX_LAGS, the four kinds rho_11,
  rho_22, rho_12 and rho_21 at lags 0..M of R standard normal residual series
  (seeds 1000..) through ``LagCorrelations.stack``, kernels built in the call;
  ``us_per_series`` is its time divided by R.
- ``logdet``: for each family of ``FAMILIES`` (the D family D11, D22, Dt11
  and Dt22, whose Toeplitz log-determinants the kernel reads from its
  Durbin-Levinson runs, and Cm, whose block log-determinant is a Cholesky
  factor per row) and each m in MAX_LAGS, the kernels of R standard normal
  residual series (seeds 1000..) through ``LagCorrelations.stack`` at largest
  lag m, built in the call, and each kernel's reports of the family at m
  through ``evaluate_statistics``; ``us_per_series`` is its time divided by R.
  The lag pass is in each time; the ``lag_kernel`` layer times it alone.
- ``garch_qmle``: for each order (b, a) of ``GARCH_MODELS`` (those of
  ``tests/test_golden_garch.py``), ``fit_garch_qmle`` on each of seeds
  0..SERIES-1 of the matching GARCH model at burn-in 200: ``ms_per_fit`` is
  the mean of their times, with the mean ``iterations`` and log-likelihood.
  ``block_ms_per_row`` times one ``fit_garch_block`` call on the first R of
  those seeds, per row. One more order per workload of ``WORKLOADS`` that
  fits a GARCH (the ar_arch workload's AR(1)-ARCH(1) fit on its AR(1)-ARCH(2)
  model), named after the workload: the same fields, at each n, for the
  workload's fitter (``montecarlo._fit_rows``) on its model's paths at
  burn-in 200, a lone fit being the block of one.
- ``arma_css``: the same fields for each order (p, q) of ``ARMA_MODELS``
  (three of ``tests/test_arma_css_floor.py``) and ``fit_arma_css``, the
  block being the engine's ``montecarlo._fit_rows`` with an ARMA(p, q)
  fitter.
- ``ar_ls``: for each least-squares fit of ``AR_FITS`` (the ar_null
  workload's AR(1) without intercept and AR(4) with intercept), one
  ``fit_ar_block`` call on R paths of the ar_null workload's AR(1) model at
  the default burn-in (seeds 1000..), simulated outside the timing;
  ``us_per_series`` is its time divided by R.
- ``statistics``: for each design of ``DESIGNS`` (the ar_null workload's
  AR(1) with Cm at m = 10, the battery workload's TAR with its 18 statistics
  at m = 10 and 30), R paths at the default burn-in (seeds 1000..),
  simulated outside the timing, then the engine's steps from paths to
  reports: the AR(1) fit of every row (``montecarlo._fit_rows``), the lag
  kernels of the fits (``montecarlo._lag_kernels``) and every fit's reports
  (``montecarlo.evaluate_fit``); ``us_per_series`` is its time divided by R.
  A block of one is the lone path of ``portmanteau test``.
- ``startup``: for each workload of ``WORKLOADS`` (bench/run.py's three, their
  configs and replicates per call read from its own ``WORKLOADS``), a fresh
  interpreter on the tree's ``src`` runs one command: ``setup`` is the
  benchmark's import-and-validate of the workload's config, ``mc`` is
  ``portmanteau mc`` on one worker for one call of the benchmark's size, and
  ``test`` is ``portmanteau test --fit ar:1`` at the workload's lag orders on
  a CSV of one path of the workload's model at its largest n. ``s`` is the
  interpreter's own time from before the import to the command's end, and
  ``peak_rss_mb`` its peak resident memory.
- ``mc_call``: for each workload of ``WORKLOADS``, ``portmanteau mc`` on one
  worker for the first ``repeat`` calls of bench/run.py's timed loop at
  ``--seed 4242`` (master seeds ``batch_seed(4242, i)``), each as the
  benchmark makes it: an in-process ``cli.main`` call, after one warm-up
  call, writing its result files over the last call's in a temporary
  directory. Each seed's call is timed on its own; ``ms_per_call`` is the
  median of their best times, so calls slower or faster than the first
  count alike.

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
import contextlib
import functools
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import platform
import subprocess
import sys
import tempfile
import time
from datetime import date, timedelta
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
# ARMA(p, q) parameters by order, as in tests/test_arma_css_floor.py.
ARMA_MODELS = {
    (1, 1): {"phi": (0.6,), "theta": (0.3,)},
    (2, 1): {"phi": (0.5, -0.3), "theta": (0.4,)},
    (0, 2): {"theta": (0.5, -0.3)},
}
# Model name: a function of the loaded package giving the model.
MODELS = {
    **{f"garch_{b}{a}": (lambda pkg, p=params: pkg.Garch(**p)) for (b, a), params in GARCH_MODELS.items()},
    "ar_arch": lambda pkg: pkg.ArmaGarch(arma=pkg.Arma(phi=(0.2,)), garch=pkg.Garch(omega=0.2, alpha=(0.2, 0.2))),
    "ar1": lambda pkg: pkg.Arma(phi=(0.1,)),
    "tar": lambda pkg: pkg.Tar(phi1_lower=-1.5, phi1_upper=0.5),
}
# Least-squares AR fit name: (order p, intercept).
AR_FITS = {"ar1": (1, False), "ar4_mean": (4, True)}

# Family name: the statistics the logdet layer evaluates together.
FAMILIES = {"D": ("D11", "D22", "Dt11", "Dt22"), "Cm": ("Cm",)}
# Design name: (model of MODELS, statistics, lag orders); no statistics means the battery's 18.
DESIGNS = {
    "ar_null": ("ar1", ("Cm",), (10,)),
    "battery": ("tar", (), (10, 30)),
}


def _module(name: str, path: Path, **spec_options):
    """The Python file ``path`` imported as the module ``name``."""
    spec = importlib.util.spec_from_file_location(name, path, **spec_options)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# bench/run.py, imported only to read its workloads; it imports bench/replay.py as ``replay``.
sys.path.insert(0, str(ROOT / "bench"))
_BENCH = _module("_bench_run", ROOT / "bench" / "run.py")
# Workload name: the mc config of one call of the benchmark's timed loop, at master seed 4242.
WORKLOADS = {name: _BENCH.experiment_config(w, w.batch, 4242) for name, w in _BENCH.WORKLOADS.items()}
# A fresh interpreter's start-up run: the command's code, timed from before the package's import.
# Peak memory is the interpreter's own VmHWM (Linux): getrusage's maxrss would include the forking parent's.
STARTUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
{}
seconds = time.perf_counter() - t0
with open("/proc/self/status") as status:
    print(seconds, next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024)
sys.exit(code)
"""
_CLI = "from portmanteau.cli import main\ncode = main(sys.argv[1:])"
COMMANDS = {
    "setup": (
        "import portmanteau\nfrom portmanteau.montecarlo import experiment_from_dict\n"
        "experiment_from_dict(json.loads(sys.argv[1]))\ncode = 0"
    ),
    "mc": _CLI,
    "test": _CLI,
}


def _simulate_cell(pkg, model: str, n: int, block: int):
    spec = pkg.ModelSpec(model=MODELS[model](pkg))
    seeds = [1000 + k for k in range(block)]
    paths, _ = pkg.models._simulate_block(spec, n, seeds)
    digest = hashlib.sha256(paths.tobytes()).hexdigest()
    return (
        [lambda: pkg.models._simulate_block(spec, n, seeds)],
        lambda best: {"ms_per_path": round(1e3 * best[0] / block, 4), "sha256": digest},
    )


def _lag_kernel_cell(pkg, n: int, max_lag: int, block: int):
    series = [pkg.make_residual_series(np.random.default_rng(1000 + k).standard_normal(n)) for k in range(block)]

    def call():
        for kernel in pkg.LagCorrelations.stack(series, max_lag):
            for i, j in KINDS:
                kernel.rho(i, j, max_lag)

    return [call], lambda best: {"us_per_series": round(1e6 * best[0] / block, 2)}


def _logdet_cell(pkg, family: str, n: int, m: int, block: int):
    series = [pkg.make_residual_series(np.random.default_rng(1000 + k).standard_normal(n)) for k in range(block)]

    def call():
        for kernel in pkg.LagCorrelations.stack(series, m):
            pkg.evaluate_statistics(FAMILIES[family], kernel.series, m, correlations=kernel)

    return [call], lambda best: {"us_per_series": round(1e6 * best[0] / block, 2)}


def _fit_cell(pkg, model, n: int, fit_lone: Callable, fit_block: Callable):
    """Lone fits of seeds 0..SERIES-1 of ``model`` at burn-in 200, then a block fit of the first R seeds per R."""
    spec = pkg.ModelSpec(model=model, burn_in=200)
    rows = np.array([pkg.simulate(spec, n, seed) for seed in range(max(SERIES, *BLOCKS))])
    fits = [fit_lone(z) for z in rows[:SERIES]]
    calls = [lambda z=z: fit_lone(z) for z in rows[:SERIES]]
    calls += [lambda part=rows[:size]: fit_block(part) for size in BLOCKS]

    def fields(best: list) -> dict:
        return {
            "ms_per_fit": round(1e3 * float(np.mean(best[:SERIES])), 3),
            "iterations": float(np.mean([fit.iterations for fit in fits])),
            "loglik_mean": float(np.mean([fit.loglik for fit in fits])),
            "block_ms_per_row": {str(size): round(1e3 * t / size, 3) for size, t in zip(BLOCKS, best[SERIES:])},
        }

    return calls, fields


def _garch_qmle_cell(pkg, order: str, n: int):
    if order in WORKLOADS:
        exp = pkg.experiment_from_dict(WORKLOADS[order])
        fit_rows = pkg.montecarlo._fit_rows
        return _fit_cell(
            pkg, exp.generator.model, n, lambda z: fit_rows(z[None], exp.fitter)[0],
            lambda rows: fit_rows(rows, exp.fitter),
        )
    b, a = (int(part) for part in order.split(","))
    return _fit_cell(
        pkg, pkg.Garch(**GARCH_MODELS[b, a]), n, lambda z: pkg.fit_garch_qmle(z, b, a),
        lambda rows: pkg.fitting.fit_garch_block(rows, b, a),
    )


def _arma_css_cell(pkg, order: str, n: int):
    p, q = (int(part) for part in order.split(","))
    fitter = pkg.FitterSpec(kind="arma", p=p, q=q)
    return _fit_cell(
        pkg, pkg.Arma(**ARMA_MODELS[p, q]), n, lambda z: pkg.fit_arma_css(z, p, q),
        lambda rows: list(pkg.montecarlo._fit_rows(rows, fitter)),
    )


def _ar_ls_cell(pkg, fit: str, n: int, block: int):
    p, intercept = AR_FITS[fit]
    paths, _ = pkg.models._simulate_block(pkg.ModelSpec(model=MODELS["ar1"](pkg)), n, [1000 + k for k in range(block)])
    return (
        [lambda: pkg.fitting.fit_ar_block(paths, p, intercept=intercept)],
        lambda best: {"us_per_series": round(1e6 * best[0] / block, 2)},
    )


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


def _startup_cell(pkg, command: str, workload: str):
    config = WORKLOADS[workload]
    path = pkg.simulate(pkg.spec_from_dict(config["generator"]), max(config["n"]), config["master_seed"])
    rows = [f"{date(2000, 1, 1) + timedelta(k)},{value!r}\n" for k, value in enumerate(path.tolist())]
    csv_text = "date,return\n" + "".join(rows)
    env = dict(os.environ, PYTHONPATH=str(Path(pkg.__file__).resolve().parent.parent))
    runs = []

    def call():
        with tempfile.TemporaryDirectory() as tmp:
            args = {
                "setup": [json.dumps(config)],
                "mc": ["mc", "--config", json.dumps(config), "--workers", "1", "--out", f"{tmp}/mc"],
                "test": ["test", f"{tmp}/returns.csv", "--fit", "ar:1", "--lags", ",".join(map(str, config["m"]))],
            }[command]
            Path(tmp, "returns.csv").write_text(csv_text, encoding="utf-8")
            code = STARTUP_CODE.format(COMMANDS[command])
            out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
        if out.returncode:
            raise RuntimeError(f"{command} on {workload} exited with {out.returncode}: {out.stderr.strip()}")
        runs.append([float(value) for value in out.stdout.split()[-2:]])

    def fields(best: list) -> dict:
        seconds, rss = zip(*runs)
        return {"s": round(min(seconds), 3), "peak_rss_mb": round(max(rss), 1)}

    return [call], fields


def _mc_call_cell(pkg, workload: str):
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    tmp = tempfile.TemporaryDirectory()
    # The master seeds of the first calls of bench/run.py's timed loop at --seed 4242, one call each.
    seeds = [_BENCH.batch_seed(4242, i) for i in range(LAYERS["mc_call"].repeat)]
    configs = [json.dumps({**WORKLOADS[workload], "master_seed": seed}) for seed in seeds]

    def call(config: str):
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["mc", "--config", config, "--workers", "1", "--out", f"{tmp.name}/mc"])
        if code:
            raise RuntimeError(f"mc on {workload} exited with {code}")

    call(configs[0])

    def fields(best: list) -> dict:
        tmp.cleanup()
        return {"ms_per_call": round(1e3 * float(np.median(best)), 3)}

    return [functools.partial(call, config) for config in configs], fields


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
        15,
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
    "logdet": Layer(
        "diagnostics.logdet",
        lambda: {"family": FAMILIES, "n": SIZES, "m": MAX_LAGS, "block": BLOCKS},
        _logdet_cell,
        {"ratio": "us_per_series"},
        15,
        "us_per_series: a block call (kernels built at largest lag m, the lag pass included, and the family's "
        "reports at m through evaluate_statistics) divided by the block size; standard normal series, seeds 1000..",
    ),
    "garch_qmle": Layer(
        "fitting.fit_garch_qmle",
        lambda: {
            "order": [f"{b},{a}" for b, a in GARCH_MODELS]
            + [name for name, config in WORKLOADS.items() if config["fitter"]["kind"] in ("garch", "ar_garch")],
            "n": SIZES,
        },
        _garch_qmle_cell,
        {"ratio": "ms_per_fit", "block_ratio": "block_ms_per_row"},
        5,
        f"ms_per_fit: mean over seeds 0..{SERIES - 1} of a lone fit; block_ms_per_row: a block of the first R "
        "seeds, per row; burn-in 200; an order named after a workload is its fitter on its model's paths",
    ),
    "arma_css": Layer(
        "fitting.fit_arma_css",
        lambda: {"order": [f"{p},{q}" for p, q in ARMA_MODELS], "n": SIZES},
        _arma_css_cell,
        {"ratio": "ms_per_fit", "block_ratio": "block_ms_per_row"},
        3,
        f"ms_per_fit: mean over seeds 0..{SERIES - 1} of a lone fit; block_ms_per_row: montecarlo._fit_rows on "
        "the first R seeds, per row; burn-in 200",
    ),
    "ar_ls": Layer(
        "fitting.fit_ar_block",
        lambda: {"fit": AR_FITS, "n": SIZES, "block": BLOCKS},
        _ar_ls_cell,
        {"ratio": "us_per_series"},
        15,
        "us_per_series: a fit_ar_block call divided by the block size; the ar_null model's paths, simulated "
        "outside the timing, seeds 1000..; default burn-in",
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
    "startup": Layer(
        "startup",
        lambda: {"command": COMMANDS, "workload": WORKLOADS},
        _startup_cell,
        {"ratio": "s", "rss_ratio": "peak_rss_mb"},
        9,
        "s: the best of a fresh interpreter's own times from before the package's import to the command's end "
        "(not the best call's wall); peak_rss_mb: the largest peak resident memory of those interpreters; "
        "mc on one worker, master seed 4242; the test CSV is seed 4242 of the workload's model",
    ),
    "mc_call": Layer(
        "cli.mc_call",
        lambda: {"workload": WORKLOADS},
        _mc_call_cell,
        {"ratio": "ms_per_call"},
        15,
        "ms_per_call: the median over master seeds batch_seed(4242, i), i below the number of calls (the first "
        "calls of bench/run.py --seed 4242), of each seed's best in-process portmanteau mc call on one worker, "
        "after a warm-up call, as bench/run.py makes it (its config and replicates per call), result files "
        "rewritten in a temporary directory",
    ),
}


def _load(label: str, src: Path):
    """The ``portmanteau`` package under ``src``, imported as its own module ``_bench_<label>``."""
    name = f"_bench_{label}"
    for stale in [key for key in sys.modules if key.partition(".")[0] == name]:
        del sys.modules[stale]  # an earlier load's submodules would not bind to the new package
    package = src / "portmanteau"
    return _module(name, package / "__init__.py", submodule_search_locations=[str(package)])


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
