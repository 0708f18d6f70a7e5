"""Seeded, parallel replication engine for size and power tables.

Each replicate owns a seed derived from the master seed and its index, so the
result of an experiment is independent of the worker count and of scheduling:
per-cell rejection counts are integers and their summation order cannot change
the table.

Each fitter kind is one row of ``_FITTERS``, which every use of the kind reads.
``check_statistics`` is the one check of a request's statistics and lag orders,
and ``evaluate_fit`` the one step from a fit to its statistics; the ``test``
command shares both. An experiment config is read and written by the models'
codec (``_from_dict``/``_to_dict``), which converts each value by its field's
type annotation, as it does for every spec: ``experiment_from_dict`` adds only
the ``"schema"`` check and one validation.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .corrmat import _check_order
from .diagnostics import _ROWS, ALL_STATISTICS, TestReport, evaluate_lags, null_distribution
from .errors import ConfigError, EmptySample, InvalidOrder, InvalidSpec, LagTooLarge, NonPositiveDf, PortmanteauError
from .fitting import (
    FitResult, fit_ar_block, fit_ar_garch_block, fit_arma_block, fit_garch_block, select_ar_order_aic_block,
)
from .models import _MIN_LENGTH, Arma, ArmaGarch, Garch, ModelSpec, _from_dict, _simulate_block, _to_dict
from .residuals import LagCorrelations, _lone

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
    accepts a series of n values (the fitter's own length check), and whether
    its fits carry the conditional variances the Lb family needs. The fitting
    call takes an (R, n) stack of series and returns one entry per row: the
    row's :class:`FitResult` or the :class:`PortmanteauError` that stopped its
    fit, each what the row gives alone."""

    fit: Callable[[np.ndarray, FitterSpec], list]
    lost_rows: Callable[[FitterSpec], int]
    max_correction: Callable[[FitterSpec], int]
    accepts: Callable[[FitterSpec, int], bool]
    variances: bool = False


# kind: _Fitter(block fit of an (R, n) stack, lost_rows, max_correction, accepts[, variances])
_FITTERS = {
    "none": _Fitter(lambda zs, f: fit_ar_block(zs, 0, intercept=False), lambda f: 0, lambda f: 0, lambda f, n: True),
    "ar": _Fitter(
        lambda zs, f: fit_ar_block(zs, f.p, intercept=f.intercept), lambda f: f.p, lambda f: f.p,
        lambda f, n: n > 10 * f.p,
    ),
    "arma": _Fitter(
        lambda zs, f: fit_arma_block(zs, f.p, f.q), lambda f: f.p, lambda f: f.p + f.q,
        lambda f, n: n > 10 * max(f.p, f.q, 1),
    ),
    "ar_aic": _Fitter(
        lambda zs, f: select_ar_order_aic_block(zs, f.p_max, intercept=f.intercept), lambda f: f.p_max,
        lambda f: f.p_max, lambda f, n: n > 10 * f.p_max,
    ),
    "garch": _Fitter(
        lambda zs, f: fit_garch_block(zs, f.b, f.a), lambda f: 0, lambda f: 0, lambda f, n: n > 10 * (f.b + f.a), True,
    ),
    "ar_garch": _Fitter(
        lambda zs, f: fit_ar_garch_block(zs, f.p, f.b, f.a, intercept=f.intercept), lambda f: f.p,
        lambda f: f.p, lambda f, n: n > 10 * f.p and n - f.p > 10 * (f.b + f.a), True,
    ),
}


@dataclass(frozen=True)
class Experiment:
    """One size/power study: generator, fitter, grid and replication count.

    Its config keys are the field names, but ``"n"`` and ``"m"`` for
    ``n_list`` and ``m_list``; a config without ``levels`` or ``master_seed``
    takes the default here.
    """

    generator: ModelSpec
    fitter: FitterSpec
    n_list: tuple[int, ...] = field(metadata={"key": "n"})
    m_list: tuple[int, ...] = field(metadata={"key": "m"})
    levels: tuple[float, ...] = field(default=(0.01, 0.05, 0.10), kw_only=True)
    replications: int
    statistics: tuple[str, ...]
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
        for what, values in (("n_list", self.n_list), ("levels", self.levels)):
            if len(set(values)) < len(values):
                raise InvalidSpec(f"{what} repeats a value: {list(values)}")
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
        if self.replications < 1:
            raise EmptySample("no replication count to divide by: a table read from CSV holds only frequencies")
        f = self.frequency(statistic, n, m, level)
        return float(np.sqrt(f * (1.0 - f) / self.replications))

    def rows(self) -> list[tuple]:
        out = sorted(self.cells.items())
        return [(s, n, m, level, freq) for (s, n, m, level), freq in out]

    def to_csv(self, path) -> None:
        rows = [[s, n, m, repr(float(level)), repr(float(freq))] for s, n, m, level, freq in self.rows()]
        write_text(path, csv_text([["statistic", "n", "m", "level", "frequency"], *rows]))

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
        # One write of the whole text: json.dump would write it in small chunks.
        write_text(path, json.dumps(payload, indent=2))

    @staticmethod
    def from_csv(path) -> "McTable":
        cells = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                key = (row["statistic"], int(row["n"]), int(row["m"]), float(row["level"]))
                cells[key] = float(row["frequency"])
        return McTable(cells=cells, replications=0)


def csv_text(rows) -> str:
    """The rows as CSV text, each line ended by csv's "\\r\\n"."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` in UTF-8: a new file is created, an existing one rewritten in place.

    The file is opened without truncation and cut at the text's end. On ext4,
    emptying a file that holds data makes its close start writeback: a 3 KB
    rewrite took 61 us that way against 11 us in place.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


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
    """Apply a fitter to one simulated series: its kind's block call on a block of one."""
    fitter = fitter.resolve(generator)
    return _lone(_FITTERS[fitter.kind].fit(np.asarray(z, dtype=float)[None], fitter))


def _fit_rows(rows: np.ndarray, fitter: FitterSpec) -> list:
    """A resolved fitter's fit of each row of an (R, n) stack of series: its kind's block call.

    Entry r is row r's :class:`FitResult` or the :class:`PortmanteauError`
    that stopped its fit, each what the row gives alone.
    """
    return _FITTERS[fitter.kind].fit(rows, fitter)


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
    none is tested. Neither list may repeat a value, as the table keeps one
    cell per value.
    """
    if not statistics or not m_list:
        raise InvalidSpec("the statistics and the lag orders m must be non-empty")
    for what, values in (("statistics", statistics), ("lag orders m", m_list)):
        if len(set(values)) < len(values):
            raise InvalidSpec(f"the {what} repeat a value: {list(values)}")
    kind = _FITTERS[fitter.kind]
    for name in statistics:
        if name not in ALL_STATISTICS:
            raise InvalidSpec(f"unknown statistic {name!r}; choose from {', '.join(ALL_STATISTICS)}")
        if _ROWS[name].source == "variance" and not kind.variances:
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
    """The reports of ``statistics`` on one fit, one dict per lag order in ``m_list``: ``evaluate_lags`` on its fields.

    The residuals are correlated once, at the largest m, and every m reads
    that one lag kernel: ``correlations`` when given (a kernel of the fit's
    residuals at a largest lag >= max(m_list), such as a row of
    ``_lag_kernels``), else a kernel of its own. The Lb family reads the
    fit's conditional variances, through one ``garch_standardized_sq_acfs``
    call at the largest m, made at its first read and sliced for every m.
    """
    sigma2 = None if fit.conditional_sd is None else fit.conditional_sd * fit.conditional_sd
    return evaluate_lags(
        statistics, fit.residuals, m_list, fit.order_correction, fit.garch_eps, sigma2, fit.garch_orders, correlations
    )


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

    Consecutive replicates are simulated ``_block_rows`` at a time, once, at
    the largest n: row r is, bit for bit, the path of replicate r's seed
    alone, and each n reads its first n values, which are that seed's path
    of n values. A row counts as finite at n when its first n values are.
    Then every finite row is fitted (``_fit_rows``, each fit what its row
    gives alone), the fits of each residual length are correlated in one lag
    pass (``_lag_kernels``) and each fit is tested. So the counts, integer
    sums, depend neither on the block size nor on how [start, stop) is split.

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
        block, _ = _simulate_block(exp.generator, max(exp.n_list), seeds)
        for ni, n in enumerate(exp.n_list):
            finite = np.isfinite(block[:, :n]).all(axis=1)
            sim_failures += int(np.count_nonzero(~finite))
            fits = [fit for fit in _fit_rows(block[finite, :n], fitter) if not isinstance(fit, PortmanteauError)]
            failures += int(np.count_nonzero(finite)) - len(fits)
            for fit, correlations in _lag_kernels(fits, max(exp.m_list)):
                for mi, reports in enumerate(evaluate_fit(fit, stats, exp.m_list, correlations)):
                    for si, name in enumerate(stats):
                        report = reports[name]
                        degenerate += report.degenerate
                        counts[si, ni, mi] += report.p_value < levels
    return counts, degenerate, sim_failures, failures


def _available_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, where the platform has one), at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def run_experiment(exp: Experiment, workers: int | None = None, log=None) -> McTable:
    """Run the experiment, splitting replicates over a process pool.

    The resulting table is bitwise identical for any worker count because each
    replicate is seeded independently and only integer counts are merged.
    ``workers=None`` starts one worker per CPU the process may run on; a
    count below 1 raises :class:`InvalidSpec` before any replicate runs.
    """
    exp.validate()
    if workers is not None and workers < 1:
        raise InvalidSpec(f"need at least one worker, got {workers}")
    t0 = time.perf_counter()
    reps = exp.replications
    if workers is None:
        workers = _available_cpus()
    workers = min(workers, reps)
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

def experiment_from_dict(d: dict) -> Experiment:
    """The validated experiment of a config: ``"schema"`` plus the fields ``_from_dict`` reads.

    The schema is a number equal to ``CONFIG_SCHEMA_VERSION``; ``true``, which
    Python counts equal to 1, is no number, as ``_convert`` has it.
    """
    schema = d.get("schema") if isinstance(d, dict) else None
    if isinstance(schema, bool) or schema != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"experiment config must be a JSON object declaring \"schema\": {CONFIG_SCHEMA_VERSION}")
    exp = _from_dict(Experiment, {key: value for key, value in d.items() if key != "schema"}, "experiment config")
    exp.validate()
    return exp


def experiment_to_dict(exp: Experiment) -> dict:
    return {"schema": CONFIG_SCHEMA_VERSION, **_to_dict(exp)}
