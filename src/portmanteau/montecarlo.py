"""Seeded, parallel replication engine for size and power tables.

Each replicate owns a seed derived from the master seed and its index, so the
result of an experiment is independent of the worker count and of scheduling:
per-cell rejection counts are integers and their summation order cannot change
the table.

Each fitter kind is one row of ``_FITTERS``, which every use of the kind reads.
``check_statistics`` is the one check of a request's statistics and lag orders,
and ``evaluate_fit`` the one step from a fit to its statistics; the ``test``
command shares both.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .corrmat import _check_order
from .diagnostics import ALL_STATISTICS, TestReport, evaluate_statistics, null_distribution
from .errors import ConfigError, EmptySample, InvalidOrder, InvalidSpec, LagTooLarge, NonPositiveDf, PortmanteauError
from .fitting import (
    FitResult, fit_ar, fit_ar_garch, fit_ar_garch_block, fit_arma_css, fit_garch_block, fit_garch_qmle,
    select_ar_order_aic,
)
from .models import (
    _MIN_LENGTH, Arma, ArmaGarch, Garch, ModelSpec, _convert, _from_dict, _simulate_block, _to_dict, spec_from_dict,
)
from .residuals import LagCorrelations

CONFIG_SCHEMA_VERSION = 1
# Replicates simulated and fitted together, as the rows of one block: at most
# _BLOCK rows, and at most _BLOCK_VALUES simulated values (rows x (burn-in +
# the largest n)), so every n <= 2000 at the default burn-in of 500 keeps 64
# rows and a block's memory does not grow with n.
_BLOCK = 64
_BLOCK_VALUES = 64 * 2500


@dataclass(frozen=True)
class FitterSpec:
    """How each simulated series is fitted before testing.

    kind:
      "none"     AR(0) without intercept: the raw series is the residuals
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
        """Reject a fitter that would fail every replicate; the fitters keep their own checks."""
        if self.kind != "true" and self.kind not in _FITTERS:
            raise InvalidSpec(f"unknown fitter kind {self.kind!r}")
        if min(self.p, self.q, self.b, self.a) < 0:
            raise InvalidSpec("fitter orders p, q, b and a must be non-negative")
        if self.kind != "true" and _FITTERS[self.kind].variances and self.b + self.a == 0:
            raise InvalidSpec(f"a {self.kind} fit needs b + a >= 1")
        if self.kind == "ar_aic" and self.p_max < 1:
            raise InvalidSpec("an ar_aic fit needs p_max >= 1")

    def resolve(self, generator: ModelSpec | None) -> FitterSpec:
        """The concrete fitter: "true" becomes the generator's own family and orders."""
        if self.kind != "true":
            return self
        if generator is None:
            raise InvalidSpec("true-model fitting needs the generator spec")
        return replace(_true_fitter_for(generator), intercept=self.intercept)


@dataclass(frozen=True)
class _Fitter:
    """One fitter kind: its fitting call, the rows it drops from the front of
    the series, the largest order correction its fits carry, whether it
    accepts a series of n values (the fitter's own length check), whether
    its fits carry the conditional variances the Lb family needs, and its
    call on an (R, n) stack of series, if it has one (see ``_fit_rows``)."""

    fit: Callable[[np.ndarray, FitterSpec], FitResult]
    lost_rows: Callable[[FitterSpec], int]
    max_correction: Callable[[FitterSpec], int]
    accepts: Callable[[FitterSpec, int], bool]
    variances: bool = False
    fit_block: Callable[[np.ndarray, FitterSpec], list] | None = None


# kind: _Fitter(fit, lost_rows, max_correction, accepts[, variances, fit_block])
_FITTERS = {
    "none": _Fitter(lambda z, f: fit_ar(z, 0, intercept=False), lambda f: 0, lambda f: 0, lambda f, n: True),
    "ar": _Fitter(
        lambda z, f: fit_ar(z, f.p, intercept=f.intercept), lambda f: f.p, lambda f: f.p, lambda f, n: n > 10 * f.p
    ),
    "arma": _Fitter(
        lambda z, f: fit_arma_css(z, f.p, f.q), lambda f: f.p, lambda f: f.p + f.q,
        lambda f, n: n > 10 * max(f.p, f.q, 1),
    ),
    "ar_aic": _Fitter(
        lambda z, f: select_ar_order_aic(z, f.p_max, intercept=f.intercept), lambda f: f.p_max, lambda f: f.p_max,
        lambda f, n: n > 10 * f.p_max,
    ),
    "garch": _Fitter(
        lambda z, f: fit_garch_qmle(z, f.b, f.a), lambda f: 0, lambda f: 0, lambda f, n: n > 10 * (f.b + f.a), True,
        lambda zs, f: fit_garch_block(zs, f.b, f.a),
    ),
    "ar_garch": _Fitter(
        lambda z, f: fit_ar_garch(z, f.p, f.b, f.a, intercept=f.intercept), lambda f: f.p, lambda f: f.p,
        lambda f, n: n > 10 * f.p and n - f.p > 10 * (f.b + f.a), True,
        lambda zs, f: fit_ar_garch_block(zs, f.p, f.b, f.a, intercept=f.intercept),
    ),
}


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
        """Reject an experiment that cannot run, before its first replicate."""
        self.generator.validate()
        fitter = self.fitter.resolve(self.generator)
        fitter.validate()
        if self.replications < 1:
            raise InvalidSpec("need at least one replication")
        if not self.n_list or not self.levels:
            raise InvalidSpec("n_list and levels must be non-empty")
        if min(self.n_list) < _MIN_LENGTH:
            raise InvalidSpec(f"every n must be at least {_MIN_LENGTH}, got {min(self.n_list)}")
        for level in self.levels:
            if not 0.0 < level < 1.0:
                raise InvalidSpec(f"levels must lie strictly in (0, 1), got {level}")
        check_statistics(fitter, self.statistics, self.m_list, self.n_list)


@dataclass
class McTable:
    """Rejection frequencies keyed by (statistic, n, m, level).

    Frequencies are rejections/replications exactly; replicates whose
    simulated path overflowed or whose fit failed contribute no rejections
    and are counted apart, in ``simulation_failures`` and ``fit_failures``.
    ``degenerate_count`` counts statistic evaluations that hit a degenerate
    sample (those carry p = 0 and therefore reject at every level).
    """

    cells: dict
    replications: int
    degenerate_count: int = 0
    fit_failures: int = 0
    elapsed: float = 0.0
    simulation_failures: int = 0

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
            "simulation_failures": self.simulation_failures,
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
    return _FITTERS[fitter.kind].fit(z, fitter)


def _fit_rows(rows: np.ndarray, fitter: FitterSpec):
    """Yield a resolved fitter's fit of each row of an (R, n) stack of series.

    Item r is row r's :class:`FitResult` or the :class:`PortmanteauError`
    that stopped its fit, each what the row gives alone: a kind with a
    ``fit_block`` fits the stack at once, the others fit a row as it is asked for.
    """
    kind = _FITTERS[fitter.kind]
    if kind.fit_block is not None:
        yield from kind.fit_block(rows, fitter)
        return
    for z in rows:
        try:
            fit = kind.fit(z, fitter)
        except PortmanteauError as exc:
            fit = exc
        yield fit


def _block_rows(exp: Experiment) -> int:
    """Rows of one block of ``exp``: at most ``_BLOCK``, and at most ``_BLOCK_VALUES`` simulated values."""
    return max(1, min(_BLOCK, _BLOCK_VALUES // (exp.generator.burn_in + max(exp.n_list))))


def check_statistics(fitter: FitterSpec, statistics, m_list, n_list) -> None:
    """Raise :class:`InvalidSpec` unless every statistic can be tested at every m.

    ``fitter`` is resolved and validated. Every m must satisfy 1 <= m < n/2 on
    the shortest residual series the fitter can leave, and every statistic
    needs a null distribution at every m under the largest order correction
    the fitter's fits can carry, the worst case of every null. A fitter that
    rejects every n is exempt from the null check: all its fits fail, and
    none is tested.
    """
    if not statistics or not m_list:
        raise InvalidSpec("the statistics and the lag orders m must be non-empty")
    kind = _FITTERS[fitter.kind]
    for name in statistics:
        if name not in ALL_STATISTICS:
            raise InvalidSpec(f"unknown statistic {name!r}; choose from {', '.join(ALL_STATISTICS)}")
        if name in ("Lb", "Lbw") and not kind.variances:
            raise InvalidSpec(f"{name} requires a fit with conditional variances (garch or ar_garch)")
    n_resid = min(n_list) - kind.lost_rows(fitter)
    for m in m_list:
        try:
            _check_order(n_resid, m)
        except LagTooLarge as exc:
            raise InvalidSpec(f"{exc}, the shortest residual series") from None
    if not any(kind.accepts(fitter, n) for n in n_list):
        return
    garch_orders = (fitter.b, fitter.a) if kind.variances else (0, 0)
    for name in statistics:
        for m in m_list:
            try:
                null_distribution(name, m, kind.max_correction(fitter), garch_orders)
            except (NonPositiveDf, InvalidOrder) as exc:
                raise InvalidSpec(f"{name} has no null distribution at m = {m}: {exc}") from None


def evaluate_fit(
    fit: FitResult, statistics, m_list, correlations: LagCorrelations | None = None
) -> list[dict[str, TestReport]]:
    """The reports of ``statistics`` on one fit, one dict per lag order in ``m_list``.

    The residuals are correlated once, at the largest m, and every m reads
    that one lag kernel: ``correlations`` when given (a kernel of the fit's
    residuals at a largest lag >= max(m_list), such as a row of
    ``_lag_kernels``), else a kernel of its own. The Lb family reads the
    fit's conditional variances.
    """
    sigma2 = None if fit.conditional_sd is None else fit.conditional_sd * fit.conditional_sd
    if correlations is None:
        correlations = LagCorrelations(fit.residuals, max(m_list))
    return [
        evaluate_statistics(
            statistics, fit.residuals, m, order_correction=fit.order_correction, garch_eps=fit.garch_eps,
            garch_sigma2=sigma2, garch_orders=fit.garch_orders, correlations=correlations,
        )
        for m in m_list
    ]


def _lag_kernels(fits: list[FitResult], max_lag: int):
    """Yield each fit with its lag kernel, the fits of one residual length sharing one lag pass.

    Fits of different lengths (``ar_aic`` orders) fall in separate groups; each
    row's kernel is bit for bit the kernel its fit gives alone.
    """
    groups: dict[int, list[FitResult]] = {}
    for fit in fits:
        groups.setdefault(fit.residuals.n, []).append(fit)
    for group in groups.values():
        yield from zip(group, LagCorrelations.stack([fit.residuals for fit in group], max_lag))


def _run_replicates(exp: Experiment, start: int, stop: int) -> tuple[np.ndarray, int, int, int]:
    """(rejection counts, degenerate evaluations, simulation failures, fit
    failures) for replicates [start, stop); the deterministic kernel.

    Consecutive replicates are simulated ``_block_rows`` at a time, each n as
    one block of paths whose row r is, bit for bit, the path of replicate r's
    seed alone; then every finite row is fitted (``_fit_rows``, each fit what
    its row gives alone), the fits of each residual length are correlated in
    one lag pass (``_lag_kernels``) and each fit is tested. So the counts,
    integer sums, depend neither on the block size nor on how [start, stop)
    is split.

    ``exp`` must already be validated: the generator spec is not checked again
    for each replicate.
    """
    stats = list(exp.statistics)
    levels = np.asarray(exp.levels, dtype=float)
    counts = np.zeros((len(stats), len(exp.n_list), len(exp.m_list), len(levels)), dtype=np.int64)
    degenerate = 0
    sim_failures = 0
    failures = 0
    fitter = exp.fitter.resolve(exp.generator)
    rows = _block_rows(exp)
    for first in range(start, stop, rows):
        seeds = [replicate_seed(exp.master_seed, rep) for rep in range(first, min(first + rows, stop))]
        for ni, n in enumerate(exp.n_list):
            paths, finite = _simulate_block(exp.generator, n, seeds)
            sim_failures += int(np.count_nonzero(~finite))
            fits = [fit for fit in _fit_rows(paths[finite], fitter) if not isinstance(fit, PortmanteauError)]
            failures += int(np.count_nonzero(finite)) - len(fits)
            for fit, correlations in _lag_kernels(fits, max(exp.m_list)):
                for mi, reports in enumerate(evaluate_fit(fit, stats, exp.m_list, correlations)):
                    for si, name in enumerate(stats):
                        report = reports[name]
                        degenerate += report.degenerate
                        counts[si, ni, mi] += report.p_value < levels
    return counts, degenerate, sim_failures, failures


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
    bounds = [int(b) for b in np.linspace(0, reps, workers + 1, dtype=int)]
    chunks = ([exp] * workers, bounds[:-1], bounds[1:])
    if workers == 1:
        parts = list(map(_run_replicates, *chunks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_replicates, *chunks))
    counts = sum(part[0] for part in parts)
    degenerate, sim_failures, failures = (sum(part[k] for part in parts) for k in (1, 2, 3))
    cells = {}
    for si, name in enumerate(exp.statistics):
        for ni, n in enumerate(exp.n_list):
            for mi, m in enumerate(exp.m_list):
                for li, level in enumerate(exp.levels):
                    cells[(name, int(n), int(m), float(level))] = float(counts[si, ni, mi, li]) / reps
    elapsed = time.perf_counter() - t0
    if log:
        log(
            f"done in {elapsed:.1f}s ({sim_failures} simulation failures, {failures} fit failures, "
            f"{degenerate} degenerate evaluations)"
        )
    return McTable(
        cells=cells,
        replications=reps,
        degenerate_count=int(degenerate),
        fit_failures=int(failures),
        elapsed=elapsed,
        simulation_failures=int(sim_failures),
    )


# ---------------------------------------------------------------------------
# Experiment JSON configuration
# ---------------------------------------------------------------------------

_EXPERIMENT_KEYS = {"schema", "generator", "fitter", "n", "m", "levels", "replications", "statistics", "master_seed"}


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
    generator = spec_from_dict(d["generator"])
    fitter = _from_dict(FitterSpec, d["fitter"], "fitter")
    exp = Experiment(
        generator=generator,
        fitter=fitter,
        n_list=_config_value(d, "n", 0, array=True),
        m_list=_config_value(d, "m", 0, array=True),
        levels=_config_value(d, "levels", 0.0, array=True, default=[0.01, 0.05, 0.10]),
        replications=_config_value(d, "replications", 0),
        statistics=_config_value(d, "statistics", "", array=True),
        master_seed=_config_value(d, "master_seed", 0, default=Experiment.master_seed),
    )
    exp.validate()
    return exp


def _config_value(d: dict, key: str, like, array: bool = False, default=None):
    """Experiment config key ``key`` as a value of ``like``'s type, or with ``array``
    a JSON array of them as a tuple; ``default`` when the key is absent."""
    value = d.get(key, default)
    try:
        if not array:
            return _convert(like, value)
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a JSON array, got {type(value).__name__}")
        return tuple(_convert(like, x) for x in value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"experiment config key {key!r}: {exc}") from None


def experiment_to_dict(exp: Experiment) -> dict:
    return {
        "schema": CONFIG_SCHEMA_VERSION,
        "generator": _to_dict(exp.generator),
        "fitter": _to_dict(exp.fitter),
        "n": list(exp.n_list),
        "m": list(exp.m_list),
        "levels": list(exp.levels),
        "replications": exp.replications,
        "statistics": list(exp.statistics),
        "master_seed": exp.master_seed,
    }
