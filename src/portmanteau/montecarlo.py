"""Seeded, parallel replication engine for size and power tables.

Each replicate owns a seed derived from the master seed and its index, so the
result of an experiment is independent of the worker count and of scheduling:
per-cell rejection counts are integers and their summation order cannot change
the table.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .diagnostics import ALL_STATISTICS, evaluate_statistics
from .errors import ConfigError, EmptySample, InvalidSpec, PortmanteauError
from .fitting import (
    FitResult,
    fit_ar,
    fit_ar_garch,
    fit_arma_css,
    fit_garch_qmle,
    select_ar_order_aic,
)
from .models import Arma, ArmaGarch, Garch, ModelSpec, _simulate, spec_from_dict, spec_to_dict
from .residuals import LagCorrelations, make_residual_series

CONFIG_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class FitterSpec:
    """How each simulated series is fitted before testing.

    kind:
      "none"     no fit; the raw series is treated as the residuals
      "true"     the generator's own family and orders
      "ar"       AR(p) by least squares
      "arma"     ARMA(p, q) by conditional sum of squares
      "ar_aic"   AR(p), p = 1..p_max chosen by AIC
      "garch"    GARCH(b, a) by QMLE on the raw series
      "ar_garch" AR(p) then GARCH(b, a) on the mean residuals

    ``intercept`` controls whether AR-family fits estimate a constant. Null
    calibration studies of mean-zero generators should set it to False: the
    gamma null of the block log-determinant statistic assumes the mean was not
    estimated, and exact in-sample demeaning visibly shifts its lag-0
    component.
    """

    kind: str = "true"
    p: int = 1
    q: int = 0
    p_max: int = 4
    b: int = 1
    a: int = 0
    intercept: bool = True

    def validate(self) -> None:
        if self.kind not in ("none", "true", "ar", "arma", "ar_aic", "garch", "ar_garch"):
            raise InvalidSpec(f"unknown fitter kind {self.kind!r}")

    def resolve(self, generator: ModelSpec | None) -> FitterSpec:
        """The concrete fitter: "true" becomes the generator's own family and orders."""
        if self.kind != "true":
            return self
        if generator is None:
            raise InvalidSpec("true-model fitting needs the generator spec")
        resolved = _true_fitter_for(generator)
        return FitterSpec(
            kind=resolved.kind, p=resolved.p, q=resolved.q, p_max=resolved.p_max,
            b=resolved.b, a=resolved.a, intercept=self.intercept,
        )

    def lost_rows(self, generator: ModelSpec | None) -> int:
        """Rows the fit drops from the front of the series (the most it can drop, for ar_aic)."""
        fitter = self.resolve(generator)
        if fitter.kind in ("ar", "arma", "ar_garch"):
            return fitter.p
        if fitter.kind == "ar_aic":
            return fitter.p_max
        return 0


@dataclass(frozen=True)
class Experiment:
    """One size/power study: generator, fitter, grid and replication count."""

    generator: ModelSpec
    fitter: FitterSpec
    n_list: tuple
    m_list: tuple
    levels: tuple
    replications: int
    statistics: tuple
    master_seed: int = 0

    def validate(self) -> None:
        self.generator.validate()
        self.fitter.validate()
        if self.replications < 1:
            raise InvalidSpec("need at least one replication")
        if not self.n_list or not self.m_list or not self.levels or not self.statistics:
            raise InvalidSpec("n_list, m_list, levels and statistics must be non-empty")
        # the statistics see the fit's residuals, which can be shorter than n
        n_resid = min(self.n_list) - self.fitter.lost_rows(self.generator)
        if max(self.m_list) >= n_resid / 2:
            raise InvalidSpec(f"every m must be below half the shortest residual series ({n_resid} values)")
        for name in self.statistics:
            if name not in ALL_STATISTICS:
                raise InvalidSpec(f"unknown statistic {name!r}")
        for level in self.levels:
            if not 0.0 < level < 1.0:
                raise InvalidSpec(f"levels must lie strictly in (0, 1), got {level}")


@dataclass
class McTable:
    """Rejection frequencies keyed by (statistic, n, m, level).

    Frequencies are rejections/replications exactly; replicates whose fit
    failed contribute no rejections and are reported via ``fit_failures``.
    ``degenerate_count`` counts statistic evaluations that hit a degenerate
    sample (those carry p = 0 and therefore reject at every level).
    """

    cells: dict
    replications: int
    degenerate_count: int = 0
    fit_failures: int = 0
    elapsed: float = 0.0

    def frequency(self, statistic: str, n: int, m: int, level: float) -> float:
        return self.cells[(statistic, int(n), int(m), float(level))]

    def standard_error(self, statistic: str, n: int, m: int, level: float) -> float:
        f = self.frequency(statistic, n, m, level)
        return float(np.sqrt(f * (1.0 - f) / self.replications))

    def rows(self) -> list[tuple]:
        out = sorted(self.cells.items())
        return [(s, n, m, level, freq) for (s, n, m, level), freq in out]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["statistic", "n", "m", "level", "frequency"])
            for row in self.rows():
                writer.writerow([row[0], row[1], row[2], repr(float(row[3])), repr(float(row[4]))])

    def to_json(self, path) -> None:
        payload = {
            "replications": self.replications,
            "degenerate_count": self.degenerate_count,
            "fit_failures": self.fit_failures,
            "elapsed": self.elapsed,
            "cells": [
                {"statistic": s, "n": n, "m": m, "level": level, "frequency": freq}
                for s, n, m, level, freq in self.rows()
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)

    @staticmethod
    def from_csv(path) -> "McTable":
        cells = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                key = (row["statistic"], int(row["n"]), int(row["m"]), float(row["level"]))
                cells[key] = float(row["frequency"])
        return McTable(cells=cells, replications=0)


def replicate_seed(master_seed: int, replicate: int) -> int:
    """Derive the simulator seed of one replicate from the master seed."""
    ss = np.random.SeedSequence(entropy=master_seed & (2**64 - 1), spawn_key=(replicate,))
    return int(ss.generate_state(1, np.uint64)[0])


def rejection_frequency(p_values, level: float) -> float:
    """Fraction of p-values strictly below the level."""
    p = np.asarray(p_values, dtype=float)
    if p.size == 0:
        raise EmptySample("cannot compute a rejection frequency from no p-values")
    return float(np.count_nonzero(p < level)) / p.size


def _true_fitter_for(spec: ModelSpec) -> FitterSpec:
    model = spec.model
    if isinstance(model, Arma):
        if model.q == 0:
            return FitterSpec(kind="ar", p=model.p)
        return FitterSpec(kind="arma", p=model.p, q=model.q)
    if isinstance(model, Garch):
        return FitterSpec(kind="garch", b=model.b, a=model.a)
    if isinstance(model, ArmaGarch):
        if model.arma.q != 0:
            raise InvalidSpec("true-model fitting of ARMA-GARCH supports AR mean parts only")
        return FitterSpec(kind="ar_garch", p=model.arma.p, b=model.garch.b, a=model.garch.a)
    raise InvalidSpec(f"no true-model fitter for generator {type(model).__name__}")


def fit_series(z: np.ndarray, fitter: FitterSpec, generator: ModelSpec | None = None) -> FitResult:
    """Apply a fitter to one simulated series."""
    fitter = fitter.resolve(generator)
    if fitter.kind == "none":
        resid = make_residual_series(z)
        return FitResult(
            kind="ar",
            order=(0, 0),
            params={"mu": 0.0, "phi": (), "sigma2": float(np.mean(z * z))},
            residuals=resid,
            loglik=float("nan"),
            aic=float("nan"),
            converged=True,
            iterations=0,
        )
    if fitter.kind == "ar":
        return fit_ar(z, fitter.p, intercept=fitter.intercept)
    if fitter.kind == "arma":
        return fit_arma_css(z, fitter.p, fitter.q)
    if fitter.kind == "ar_aic":
        return select_ar_order_aic(z, fitter.p_max, intercept=fitter.intercept)
    if fitter.kind == "garch":
        return fit_garch_qmle(z, fitter.b, fitter.a)
    if fitter.kind == "ar_garch":
        return fit_ar_garch(z, fitter.p, fitter.b, fitter.a, intercept=fitter.intercept)
    raise InvalidSpec(f"unknown fitter kind {fitter.kind!r}")


def _conditional_variance(fit: FitResult) -> np.ndarray | None:
    if fit.conditional_sd is None:
        return None
    return fit.conditional_sd * fit.conditional_sd


def _run_replicates(exp: Experiment, start: int, stop: int) -> tuple[np.ndarray, int, int]:
    """Rejection counts for replicates [start, stop); the deterministic kernel.

    ``exp`` must already be validated: the generator spec is not checked again
    for each replicate. Each fit's residuals are correlated once, at the
    largest m, and every m reads that one lag kernel.
    """
    stats = list(exp.statistics)
    n_list = list(exp.n_list)
    m_list = list(exp.m_list)
    max_m = max(m_list)
    levels = np.asarray(exp.levels, dtype=float)
    counts = np.zeros((len(stats), len(n_list), len(m_list), len(levels)), dtype=np.int64)
    degenerate = 0
    failures = 0
    for rep in range(start, stop):
        seed = replicate_seed(exp.master_seed, rep)
        for ni, n in enumerate(n_list):
            z = _simulate(exp.generator, n, seed)
            try:
                fit = fit_series(z, exp.fitter, exp.generator)
            except PortmanteauError:
                failures += 1
                continue
            sigma2 = _conditional_variance(fit)
            correlations = LagCorrelations(fit.residuals, max_m)
            for mi, m in enumerate(m_list):
                reports = evaluate_statistics(
                    stats,
                    fit.residuals,
                    m,
                    order_correction=fit.order_correction,
                    garch_eps=fit.garch_eps,
                    garch_sigma2=sigma2,
                    garch_orders=fit.garch_orders,
                    correlations=correlations,
                )
                for si, name in enumerate(stats):
                    report = reports[name]
                    if report.degenerate:
                        degenerate += 1
                    counts[si, ni, mi] += report.p_value < levels
    return counts, degenerate, failures


def _chunk_worker(args) -> tuple[np.ndarray, int, int]:
    exp, start, stop = args
    return _run_replicates(exp, start, stop)


def run_experiment(exp: Experiment, workers: int | None = None, log=None) -> McTable:
    """Run the experiment, splitting replicates over a process pool.

    The resulting table is bitwise identical for any worker count because each
    replicate is seeded independently and only integer counts are merged.
    """
    exp.validate()
    t0 = time.perf_counter()
    reps = exp.replications
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, reps))
    if log:
        log(f"running {reps} replicates on {workers} worker(s)")
    if workers == 1:
        counts, degenerate, failures = _run_replicates(exp, 0, reps)
    else:
        bounds = np.linspace(0, reps, workers + 1, dtype=int)
        tasks = [(exp, int(bounds[i]), int(bounds[i + 1])) for i in range(workers) if bounds[i] < bounds[i + 1]]
        counts = None
        degenerate = 0
        failures = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part, deg, fail in pool.map(_chunk_worker, tasks):
                counts = part if counts is None else counts + part
                degenerate += deg
                failures += fail
    cells = {}
    for si, name in enumerate(exp.statistics):
        for ni, n in enumerate(exp.n_list):
            for mi, m in enumerate(exp.m_list):
                for li, level in enumerate(exp.levels):
                    cells[(name, int(n), int(m), float(level))] = float(counts[si, ni, mi, li]) / reps
    elapsed = time.perf_counter() - t0
    if log:
        log(f"done in {elapsed:.1f}s ({failures} fit failures, {degenerate} degenerate evaluations)")
    return McTable(
        cells=cells,
        replications=reps,
        degenerate_count=int(degenerate),
        fit_failures=int(failures),
        elapsed=elapsed,
    )


# ---------------------------------------------------------------------------
# Experiment JSON configuration
# ---------------------------------------------------------------------------

_EXPERIMENT_KEYS = {
    "schema",
    "generator",
    "fitter",
    "n",
    "m",
    "levels",
    "replications",
    "statistics",
    "master_seed",
}
_FITTER_KEYS = {"kind", "p", "q", "p_max", "b", "a", "intercept"}


def experiment_from_dict(d: dict) -> Experiment:
    if not isinstance(d, dict):
        raise ConfigError("experiment config must be a JSON object")
    unknown = set(d) - _EXPERIMENT_KEYS
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in experiment config")
    if d.get("schema") != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"experiment config must declare \"schema\": {CONFIG_SCHEMA_VERSION}")
    for key in ("generator", "fitter", "n", "m", "replications", "statistics"):
        if key not in d:
            raise ConfigError(f"experiment config is missing {key!r}")
    fd = d["fitter"]
    unknown = set(fd) - _FITTER_KEYS
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in fitter")
    fitter = FitterSpec(
        kind=fd.get("kind", "true"),
        p=int(fd.get("p", 1)),
        q=int(fd.get("q", 0)),
        p_max=int(fd.get("p_max", 4)),
        b=int(fd.get("b", 1)),
        a=int(fd.get("a", 0)),
        intercept=bool(fd.get("intercept", True)),
    )
    exp = Experiment(
        generator=spec_from_dict(d["generator"]),
        fitter=fitter,
        n_list=tuple(int(n) for n in d["n"]),
        m_list=tuple(int(m) for m in d["m"]),
        levels=tuple(float(x) for x in d.get("levels", (0.01, 0.05, 0.10))),
        replications=int(d["replications"]),
        statistics=tuple(d["statistics"]),
        master_seed=int(d.get("master_seed", 0)),
    )
    exp.validate()
    return exp


def experiment_to_dict(exp: Experiment) -> dict:
    return {
        "schema": CONFIG_SCHEMA_VERSION,
        "generator": spec_to_dict(exp.generator),
        "fitter": {
            "kind": exp.fitter.kind,
            "p": exp.fitter.p,
            "q": exp.fitter.q,
            "p_max": exp.fitter.p_max,
            "b": exp.fitter.b,
            "a": exp.fitter.a,
            "intercept": exp.fitter.intercept,
        },
        "n": list(exp.n_list),
        "m": list(exp.m_list),
        "levels": list(exp.levels),
        "replications": exp.replications,
        "statistics": list(exp.statistics),
        "master_seed": exp.master_seed,
    }
