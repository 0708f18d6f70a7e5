"""Monte Carlo benchmark of the portmanteau package.

    python3 bench/run.py --workload ar_null --seed 1 --seconds 30 --trace 0

Each workload is one canonical size/power experiment, run in-process through
``portmanteau.cli.main(["mc", ...])`` exactly as a user runs ``portmanteau mc``.
The loop is closed and batch: one caller submits an ``mc`` call of a fixed
number of replicates, waits for its table, and submits the next, until
``--seconds`` have passed. Every call gets its own master seed, derived from
``--seed`` and the call's index, so a seed fixes the inputs.

With ``--trace 0`` the run reports the end-to-end metrics: the replicates per
second that nine in ten mc calls reach (the 10th percentile of per-call
rates), set-up time (median over fresh interpreters that import the package
and validate the workload config) and peak resident memory of the process and
its pool children. Every timed call runs on one process, and each runs enough
replicates that its fixed cost (config parsing and result files) is at most
about 2% of the call: 300 replicates on ar_null, 24 on battery, 8 on ar_arch,
0.2-0.4 s each. In 30 s that makes 70 to 160 calls, so the percentile has 7
to 16 calls beyond it. On a shared host the speed of the same work swings by
a quarter from second to second, in CPU time as much as in wall time, and the
share of fast seconds changes from minute to minute. The contended speed that
the slowest tenth of calls reach varies least between runs; the median and
the 90th percentile are printed alongside.

With ``--trace 1`` it replays each untraced call's replicates right after the
call, with a span around every layer call (see ``replay.py``), until
``--seconds`` have passed, then times each statistic and kernel on the
workload's own residuals (Lb on ar_arch fits, the only ones with conditional
variances), and reports the per-layer metrics. The traced ar_arch run makes
its calls on the process pool, 240 replicates each on ``nproc`` workers (at
least two), so that ``montecarlo.parallel_efficiency`` measures the pool path
that ``mc`` takes by default. Pool calls are kept out of the timed loop: each
pays about 0.2 s to start the pool, and two processes on a small shared host
time the scheduler as much as the program.

Either way the tables are checked against the workload's gates, and the last
line of standard output is one JSON object with ``correct``, ``attempted``
(replicate fits attempted), ``failed`` (fit failures) and ``metrics``. Run
details, spans and gate outcomes are written under ``.bench_out/``. The exit
code is 1, with no result line, when the package sources are missing, and 1,
after the result line, when a gate fails.

Limits: timings come from wall clocks on whatever machine runs this, often a
small shared one, and drift between back-to-back runs; no hardware counters
or system-wide tracing are used. BLAS is pinned to one thread below so pool
children inherit the setting, and a fixed numpy loop is timed as context for
the machine's speed, never as a metric.
"""

from __future__ import annotations

import os

# Before numpy is imported here or in any pool child, which inherits this.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if not (SRC / "portmanteau" / "__init__.py").is_file():
    sys.exit(f"bench: the package sources are missing ({SRC / 'portmanteau'}); run from a checkout")
sys.path.insert(0, str(SRC))

import numpy as np
import scipy

from portmanteau import cli
from portmanteau.diagnostics import ALL_STATISTICS
from portmanteau.montecarlo import McTable, experiment_from_dict

import replay

LEVELS = [0.01, 0.05, 0.10]
NPROC = len(os.sched_getaffinity(0))
# The process pool's size wherever the pool path is run: at least two, so that
# it is a pool even on one core.
POOL_WORKERS = max(2, NPROC)
SETUP_RUNS = 5
OUTPUT_REPEATS = 100
# Statistics timed alone on every workload's own residuals: the battery's 18.
# Lb, the only fitted-variance statistic a workload runs, is timed on ar_arch
# fits (see per_layer_metrics).
STATS_BATTERY = [s for s in ALL_STATISTICS if s not in ("Lb", "Lbw")]


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # experiment config without replications and master_seed
    batch: int  # replicates per mc call of the timed loop, on one process
    gates: Callable[["Table"], list]  # -> [(name, passed, detail)]
    check_invariance: bool = False  # gate: serial and pool tables are identical
    # When set, the traced run makes its calls on the process pool, of this
    # many replicates each.
    trace_pool_batch: int | None = None

    def calls(self, trace: bool) -> tuple[int, int]:
        """(workers, replicates) of each mc call of a timed or traced run."""
        if trace and self.trace_pool_batch:
            return POOL_WORKERS, self.trace_pool_batch
        return 1, self.batch


@dataclass
class Table:
    """Rejection counts summed over a run's mc calls, keyed like McTable.cells."""

    counts: dict
    replications: int


# Reference size of Cm at 5% on the ar_null design: 4655 rejections in 80000
# replicates (master_seed 20050971, n=500, m=10). The gamma null is an
# approximation, so the size is about 0.058, not 0.05.
AR_NULL_REF_REJECTIONS = 4655
AR_NULL_REF_REPLICATIONS = 80000


def _gates_ar_null(table: Table) -> list:
    # A 4-sigma band around the reference, with the standard errors of the
    # run and of the reference combined: at a full run's ~3e4 replicates it
    # is about +-0.006, so it excludes 0.05.
    ref = AR_NULL_REF_REJECTIONS / AR_NULL_REF_REPLICATIONS
    freq = table.counts[("Cm", 500, 10, 0.05)] / table.replications
    half = 4.0 * math.sqrt(ref * (1.0 - ref) * (1.0 / table.replications + 1.0 / AR_NULL_REF_REPLICATIONS))
    lo, hi = ref - half, ref + half
    return [("ar_null.cm_size_5pct", lo <= freq <= hi, f"Cm size {freq:.4f} in [{lo:.4f}, {hi:.4f}]")]


def _gates_battery(table: Table) -> list:
    cm = table.counts[("Cm", 100, 10, 0.05)] / table.replications
    dt = table.counts[("Dt22", 100, 10, 0.05)] / table.replications
    return [
        ("battery.cm_power", cm >= 0.99, f"Cm power {cm:.4f} >= 0.99 at n=100, m=10, 5%"),
        ("battery.dt22_power", dt <= 0.2, f"Dt22 power {dt:.4f} <= 0.2 at n=100, m=10, 5%"),
    ]


def _no_gates(table: Table) -> list:
    # The criterion 5 reference power (0.937) fails by design and is not a
    # gate; ar_arch is checked for worker invariance instead (check_invariance).
    return []

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ar_null",
            config={
                "generator": {"model": {"kind": "arma", "phi": [0.1]}},
                "fitter": {"kind": "ar", "p": 1, "intercept": False},
                "n": [500],
                "m": [10],
                "statistics": ["Cm"],
            },
            batch=300,
            gates=_gates_ar_null,
        ),
        Workload(
            name="battery",
            config={
                "generator": {
                    "model": {
                        "kind": "tar",
                        "phi0_lower": 0.0,
                        "phi1_lower": -1.5,
                        "phi0_upper": 0.0,
                        "phi1_upper": 0.5,
                        "c": 0.0,
                    }
                },
                "fitter": {"kind": "ar", "p": 1, "intercept": False},
                "n": [100, 500],
                "m": [10, 30],
                "statistics": STATS_BATTERY,
            },
            batch=24,
            gates=_gates_battery,
        ),
        Workload(
            name="ar_arch",
            config={
                "generator": {
                    "model": {
                        "kind": "arma_garch",
                        "arma": {"kind": "arma", "phi": [0.2]},
                        "garch": {"kind": "garch", "omega": 0.2, "alpha": [0.2, 0.2]},
                    }
                },
                "fitter": {"kind": "ar_garch", "p": 1, "b": 1, "a": 0, "intercept": False},
                "n": [200],
                "m": [6],
                "statistics": ["Cm", "Lb"],
            },
            batch=8,
            gates=_no_gates,
            check_invariance=True,
            trace_pool_batch=240,
        ),
    )
}

INVARIANCE_PREFIX = 8  # ar_arch replicates compared at workers=1 and on the pool


def batch_seed(seed: int, index: int) -> int:
    """Master seed of the index-th mc call of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def experiment_config(w: Workload, replications: int, master_seed: int) -> dict:
    return {"schema": 1, **w.config, "levels": LEVELS, "replications": replications, "master_seed": master_seed}


# ---------------------------------------------------------------------------
# Untraced end-to-end run
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    config: dict
    workers: int
    wall: float  # the whole mc call
    elapsed: float  # run_experiment alone, as the call's result file reports it
    counts: dict
    fit_failures: int
    degenerate: int


def run_mc(config: dict, workers: int, prefix: Path) -> float:
    """One ``portmanteau mc`` call; returns its wall time."""
    log = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(log):
        code = cli.main(["mc", "--config", json.dumps(config), "--workers", str(workers), "--out", str(prefix)])
    wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"portmanteau mc exited with {code}: {log.getvalue().strip()}")
    return wall


def read_result(prefix: Path) -> dict:
    with open(f"{prefix}.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    reps = payload["replications"]
    payload["counts"] = {
        (c["statistic"], c["n"], c["m"], c["level"]): round(c["frequency"] * reps) for c in payload["cells"]
    }
    return payload


def run_batches(
    w: Workload,
    seed: int,
    seconds: float,
    workers: int,
    replications: int,
    after: Callable[[Batch], None] | None = None,
) -> list[Batch]:
    """mc calls until ``seconds`` have passed (at least one); ``after`` runs
    on each call's batch before the next call starts."""
    prefix = OUT / "mc" / w.name
    prefix.parent.mkdir(parents=True, exist_ok=True)
    batches = []
    deadline = time.perf_counter() + seconds
    while not batches or time.perf_counter() < deadline:
        config = experiment_config(w, replications, batch_seed(seed, len(batches)))
        wall = run_mc(config, workers, prefix)
        result = read_result(prefix)
        if result["replications"] != replications:
            raise RuntimeError(f"mc reported {result['replications']} replications, asked for {replications}")
        batch = Batch(
            config, workers, wall, result["elapsed"], result["counts"], result["fit_failures"], result["degenerate_count"]
        )
        batches.append(batch)
        if after is not None:
            after(batch)
    return batches


def summed_table(batches: list[Batch]) -> Table:
    counts: dict = {}
    for b in batches:
        for key, c in b.counts.items():
            counts[key] = counts.get(key, 0) + c
    return Table(counts, sum(b.config["replications"] for b in batches))


def worker_invariance(w: Workload, seed: int) -> tuple:
    """The table of a replicate prefix must be bitwise identical serially and
    on a pool of at least two processes, even on a single-core machine."""
    config = experiment_config(w, INVARIANCE_PREFIX, batch_seed(seed, 0))
    tables = []
    for workers in (1, POOL_WORKERS):
        prefix = OUT / "invariance" / f"{w.name}-w{workers}"
        prefix.parent.mkdir(parents=True, exist_ok=True)
        run_mc(config, workers, prefix)
        tables.append(Path(f"{prefix}.csv").read_bytes())
    return (
        f"{w.name}.worker_invariance",
        tables[0] == tables[1],
        f"{INVARIANCE_PREFIX}-replicate table identical at workers=1 and workers={POOL_WORKERS}",
    )


SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import portmanteau
from portmanteau.montecarlo import experiment_from_dict
experiment_from_dict(json.loads(sys.argv[1]))
print(time.perf_counter() - t0)
"""


def setup_times(config: dict, runs: int) -> list[float]:
    """Import-and-validate time in fresh interpreters; the first, unreported
    run writes bytecode and warms the file cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(runs + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, json.dumps(config)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times[1:]


def peak_rss_mb() -> float:
    """Max resident set of this process and of every child waited for (Linux: KiB)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def outcome_fractions(w: Workload, batches: list[Batch]) -> tuple[int, int, float, float]:
    """(fits attempted, fit failures, failure fraction, degenerate fraction)."""
    attempted = sum(b.config["replications"] for b in batches) * len(w.config["n"])
    failures = sum(b.fit_failures for b in batches)
    evaluations = (attempted - failures) * len(w.config["m"]) * len(w.config["statistics"])
    degenerate = sum(b.degenerate for b in batches)
    return attempted, failures, failures / attempted, degenerate / max(evaluations, 1)


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def chunk_tasks(exp, workers: int) -> list:
    """The replicate chunks ``run_experiment`` hands its pool."""
    workers = max(1, min(workers, exp.replications))
    bounds = np.linspace(0, exp.replications, workers + 1, dtype=int)
    return [(exp, int(bounds[i]), int(bounds[i + 1])) for i in range(workers) if bounds[i] < bounds[i + 1]]


def new_trace() -> dict:
    return {"spans": [], "iterations": [], "flags": [], "mismatch": 0, "wall": 0.0}


def replay_batch(b: Batch, traced: dict) -> None:
    """Replay one batch with spans, in the same chunks and worker count, and
    add its spans, fits, mismatched cells and pool wall time to ``traced``."""
    exp = experiment_from_dict(b.config)
    tasks = chunk_tasks(exp, b.workers)
    t0 = time.perf_counter()
    if len(tasks) == 1:
        parts = [replay.replay_chunk(*tasks[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            parts = list(pool.map(replay.replay_task, tasks))
    traced["wall"] += time.perf_counter() - t0
    counts = sum(p["counts"] for p in parts)
    for si, name in enumerate(exp.statistics):
        for ni, n in enumerate(exp.n_list):
            for mi, m in enumerate(exp.m_list):
                for li, level in enumerate(exp.levels):
                    if counts[si, ni, mi, li] != b.counts[(name, n, m, level)]:
                        traced["mismatch"] += 1
    spans = traced["spans"]
    for p in parts:
        offset = len(spans)
        spans.extend((s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1, s[4]) for s in p["spans"])
        traced["iterations"].extend(p["iterations"])
        traced["flags"].extend(p["flags"])


def write_spans(path: Path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start,end,parent,replicate\n")
        for name, start, end, parent, rep in spans:
            fh.write(f"{name},{start!r},{end!r},{parent},{rep}\n")


def output_timings(w: Workload, batch: Batch) -> tuple[np.ndarray, int]:
    """Time the three result files ``mc`` writes, from one batch's table."""
    exp = experiment_from_dict(batch.config)
    reps = exp.replications
    table = McTable(
        cells={key: float(c) / reps for key, c in batch.counts.items()},
        replications=reps,
        degenerate_count=batch.degenerate,
        fit_failures=batch.fit_failures,
    )
    base = OUT / "output" / w.name
    base.parent.mkdir(parents=True, exist_ok=True)
    paths = [Path(f"{base}.csv"), Path(f"{base}.json"), Path(f"{base}_curves.csv")]
    times = []
    for _ in range(OUTPUT_REPEATS):
        t0 = time.perf_counter()
        table.to_csv(paths[0])
        table.to_json(paths[1])
        cli._write_curves(table, exp, paths[2])
        times.append(time.perf_counter() - t0)
    return np.asarray(times), sum(p.stat().st_size for p in paths)


def _timing(metrics: dict, stem: str, seconds: np.ndarray) -> None:
    unit = stem.rsplit("_", 1)[1]
    scale = {"ms": 1e3, "us": 1e6}[unit]
    values = seconds * scale
    metrics[f"{stem}.p50"] = (float(np.percentile(values, 50)), unit)
    metrics[f"{stem}.p90"] = (float(np.percentile(values, 90)), unit)
    metrics[f"{stem}.n"] = (int(values.size), "count")


def per_layer_metrics(w: Workload, batches: list[Batch], traced: dict) -> dict:
    spans = traced["spans"]
    metrics: dict = {}
    replicate_time = replay.durations(spans, replay.REPLICATE)
    _timing(metrics, "montecarlo.replicate_ms", replicate_time)
    _timing(metrics, "montecarlo.self_ms", replay.self_times(spans, replay.REPLICATE))
    _timing(metrics, "montecarlo.replicate_seed_us", replay.durations(spans, "montecarlo.replicate_seed"))
    # Busy time over pool capacity, both from the traced replay of the same chunks.
    capacity = batches[0].workers * traced["wall"]
    metrics["montecarlo.parallel_efficiency"] = (float(replicate_time.sum()) / capacity, "ratio")
    _, _, failure_fraction, degenerate_fraction = outcome_fractions(w, batches)
    metrics["montecarlo.fit_failure_fraction"] = (failure_fraction, "ratio")
    metrics["montecarlo.degenerate_fraction"] = (degenerate_fraction, "ratio")
    _timing(metrics, "models.simulate_ms", replay.durations(spans, "models.simulate"))
    _timing(metrics, "fitting.fit_ms", replay.durations(spans, "fitting.fit"))
    fits = max(len(traced["iterations"]), 1)
    metrics["fitting.iterations_per_fit"] = (sum(traced["iterations"]) / fits, "iterations")
    metrics["fitting.flagged_fraction"] = (sum(1 for f in traced["flags"] if f) / fits, "ratio")
    for flag in ("non_convergence", "boundary_estimate"):
        metrics[f"fitting.flag.{flag}"] = (sum(flag in f for f in traced["flags"]), "count")
    _timing(metrics, "diagnostics.evaluate_ms", replay.durations(spans, "diagnostics.evaluate"))

    exp = experiment_from_dict(batches[0].config)
    m = max(exp.m_list)
    fits = replay.kernel_fits(exp, max(exp.n_list))
    samples = {**replay.statistic_pass(fits, m, STATS_BATTERY), **replay.layer_pass(fits, m)}
    # Lb needs fitted conditional variances, which only ar_arch's fitter
    # gives; every workload times it on that design's fits.
    if "Lb" not in exp.statistics:
        exp = experiment_from_dict(experiment_config(WORKLOADS["ar_arch"], 1, exp.master_seed))
        m = max(exp.m_list)
        fits = replay.kernel_fits(exp, max(exp.n_list))
    samples.update(replay.statistic_pass(fits, m, ("Lb",)))
    for stem in sorted(samples):
        _timing(metrics, stem, samples[stem])

    output_times, output_bytes = output_timings(w, batches[0])
    _timing(metrics, "cli.output_ms", output_times)
    metrics["cli.output_bytes"] = (output_bytes, "bytes")
    # Traced over untraced replicates/s on the same replicates, each replayed
    # right after its call: the untraced time is run_experiment's own, without
    # config parsing and result files.
    metrics["trace.overhead_ratio"] = (sum(b.elapsed for b in batches) / traced["wall"], "ratio")
    metrics["trace.replay_mismatch_cells"] = (traced["mismatch"], "count")
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def calibration_ms() -> float:
    """Median time of a fixed 256x256 matmul loop: machine speed, context only."""
    a = np.random.default_rng(0).standard_normal((256, 256))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(20):
            a @ a
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def run_context() -> dict:
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "calibration_matmul_ms": calibration_ms(),
        "limits": "wall-clock timings on a possibly shared machine; no hardware counters; no system-wide tracing",
    }


def run_workload(
    w: Workload, seed: int, seconds: float, trace: bool, replications: int | None = None, setup_runs: int = SETUP_RUNS
) -> dict:
    """Run one workload; returns the result record (see the module docstring).

    ``replications`` overrides the workload's replicates per mc call and
    ``setup_runs`` the number of timed fresh interpreters; both exist for the
    smoke test's tiny runs.
    """
    OUT.mkdir(exist_ok=True)
    workers, batch = w.calls(trace)
    replications = replications or batch
    context = run_context()
    # A traced run replays each call right after it, so that both passes of
    # the same replicates see the machine in the same state.
    traced = new_trace()
    after = (lambda b: replay_batch(b, traced)) if trace else None
    batches = run_batches(w, seed, seconds, workers, replications, after)
    table = summed_table(batches)
    gates = list(w.gates(table))
    if w.check_invariance:
        gates.append(worker_invariance(w, seed))
    attempted, failed, failure_fraction, degenerate_fraction = outcome_fractions(w, batches)
    if trace:
        write_spans(OUT / f"{w.name}-seed{seed}-spans.csv", traced["spans"])
        metrics = per_layer_metrics(w, batches, traced)
        summary = {}
    else:
        rates = [b.config["replications"] / b.wall for b in batches]
        rss = peak_rss_mb()
        setup = setup_times(experiment_config(w, replications, batch_seed(seed, 0)), setup_runs)
        metrics = {
            "replicates_per_s.p10": (float(np.percentile(rates, 10)), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        summary = {
            "fit_failure_fraction": (failure_fraction, "ratio"),
            "degenerate_fraction": (degenerate_fraction, "ratio"),
            "mc_calls": (len(batches), "count"),
            "replicates_per_s": (statistics.median(rates), "1/s"),
            "replicates_per_s.p90": (float(np.percentile(rates, 90)), "1/s"),
        }
    record = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "context": context,
        "replications": table.replications,
        "cells": sorted([*key, c] for key, c in table.counts.items()),
        "gates": [{"name": g[0], "passed": bool(g[1]), "detail": g[2]} for g in gates],
        "summary": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        "result": {
            "correct": all(g[1] for g in gates),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }
    with open(OUT / f"{w.name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for key, value in record["context"].items():
        print(f"context.{key} = {value}")
    for gate in record["gates"]:
        print(f"gate {gate['name']}: {'PASS' if gate['passed'] else 'FAIL'} - {gate['detail']}")
    for name, m in {**record["summary"], **record["result"]["metrics"]}.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
