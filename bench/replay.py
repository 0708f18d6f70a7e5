"""Traced replay of Monte Carlo replicates and the per-kernel timing pass.

The replay walks each replicate in the order ``_run_replicates`` does
(``replicate_seed`` -> ``simulate`` -> ``fit_series`` -> ``evaluate_statistics``
for each m) through the package's public functions, with a span around each
call. Spans live in memory as tuples ``(name, start, end, parent, replicate)``
where ``parent`` indexes the enclosing span in the same list (-1 for a root);
the caller writes them out when the run ends.
"""

from __future__ import annotations

import time

import numpy as np

from portmanteau.corrmat import build_block, build_toeplitz, logdet_pd
from portmanteau.diagnostics import cm_statistic, cm_test, evaluate_statistics
from portmanteau.errors import PortmanteauError
from portmanteau.models import simulate
from portmanteau.montecarlo import Experiment, fit_series, replicate_seed
from portmanteau.residuals import correlogram, cross_corr_sequence, durbin_levinson, make_residual_series

clock = time.perf_counter

REPLICATE = "montecarlo.replicate"


def replay_chunk(exp: Experiment, start: int, stop: int) -> dict:
    """Traced replay of replicates [start, stop) of one experiment.

    Returns the spans, the rejection counts (same layout as
    ``_run_replicates``) and the iteration count and flags of every fit.
    """
    stats = list(exp.statistics)
    levels = np.asarray(exp.levels, dtype=float)
    counts = np.zeros((len(stats), len(exp.n_list), len(exp.m_list), len(levels)), dtype=np.int64)
    spans = []
    iterations = []
    flags = []
    for rep in range(start, stop):
        root = len(spans)
        spans.append(None)
        t_rep = clock()
        t0 = clock()
        seed = replicate_seed(exp.master_seed, rep)
        spans.append(("montecarlo.replicate_seed", t0, clock(), root, rep))
        for ni, n in enumerate(exp.n_list):
            t0 = clock()
            z = simulate(exp.generator, n, seed)
            spans.append(("models.simulate", t0, clock(), root, rep))
            t0 = clock()
            try:
                fit = fit_series(z, exp.fitter, exp.generator)
            except PortmanteauError:
                spans.append(("fitting.fit", t0, clock(), root, rep))
                continue
            spans.append(("fitting.fit", t0, clock(), root, rep))
            iterations.append(fit.iterations)
            flags.append(fit.flags)
            sigma2 = None if fit.conditional_sd is None else fit.conditional_sd * fit.conditional_sd
            for mi, m in enumerate(exp.m_list):
                t0 = clock()
                reports = evaluate_statistics(
                    stats,
                    fit.residuals,
                    m,
                    order_correction=fit.order_correction,
                    garch_eps=fit.garch_eps,
                    garch_sigma2=sigma2,
                    garch_orders=fit.garch_orders,
                )
                spans.append(("diagnostics.evaluate", t0, clock(), root, rep))
                for si, name in enumerate(stats):
                    counts[si, ni, mi] += reports[name].p_value < levels
        spans[root] = (REPLICATE, t_rep, clock(), -1, rep)
    return {
        "spans": spans,
        "counts": counts,
        "iterations": iterations,
        "flags": flags,
    }


def replay_task(args) -> dict:
    """Pool entry point: ``args`` is ``(experiment, start, stop)``."""
    return replay_chunk(*args)


def durations(spans, name: str) -> np.ndarray:
    return np.array([end - start for span_name, start, end, _, _ in spans if span_name == name])


def self_times(spans, name: str) -> np.ndarray:
    """Duration of each ``name`` span minus the time its direct children cover.

    Children of one span run one after another, so their durations add up
    without overlap.
    """
    child_time = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return np.array(
        [end - start - child_time.get(i, 0.0) for i, (span_name, start, end, _, _) in enumerate(spans) if span_name == name]
    )


# ---------------------------------------------------------------------------
# Kernel pass
# ---------------------------------------------------------------------------

KERNEL_SERIES = 16  # residual series taken from the workload's first replicates
KERNEL_REPEATS = 8  # timed samples per kernel and series: 128 in all, so p90 has 12 beyond it
KERNEL_INNER = 2  # calls per timed sample; the sample is their mean


def kernel_fits(exp: Experiment, n: int) -> list:
    """Fits of the first replicates at sample size n, as the workload makes them."""
    fits = []
    rep = 0
    while len(fits) < KERNEL_SERIES and rep < 4 * KERNEL_SERIES:
        z = simulate(exp.generator, n, replicate_seed(exp.master_seed, rep))
        rep += 1
        try:
            fits.append(fit_series(z, exp.fitter, exp.generator))
        except PortmanteauError:
            continue
    return fits


def _time_call(fn) -> float:
    t0 = clock()
    for _ in range(KERNEL_INNER):
        fn()
    return (clock() - t0) / KERNEL_INNER


def _sampler():
    samples: dict[str, list] = {}

    def add(key, fn):
        samples.setdefault(key, []).extend(_time_call(fn) for _ in range(KERNEL_REPEATS))

    return samples, add


def statistic_pass(fits, m: int, statistics) -> dict:
    """Per-call times in seconds of each statistic alone, keyed by metric stem.

    Each statistic goes through ``evaluate_statistics`` with the inputs a
    replicate gives it. The Li-Mak statistics need fitted conditional
    variances, so a fit without them raises, as it does in the package.
    """
    samples, add = _sampler()
    for fit in fits:
        sigma2 = None if fit.conditional_sd is None else fit.conditional_sd * fit.conditional_sd
        for name in statistics:
            add(
                f"diagnostics.stat.{name}_us",
                lambda: evaluate_statistics(
                    (name,),
                    fit.residuals,
                    m,
                    order_correction=fit.order_correction,
                    garch_eps=fit.garch_eps,
                    garch_sigma2=sigma2,
                    garch_orders=fit.garch_orders,
                ),
            )
    return {key: np.asarray(vals) for key, vals in samples.items()}


def layer_pass(fits, m: int) -> dict:
    """Per-call times in seconds of the correlation and Cm kernels, keyed by metric stem."""
    samples, add = _sampler()
    for fit in fits:
        series = fit.residuals
        add("diagnostics.cm_statistic_us", lambda: cm_statistic(series, m))
        add("diagnostics.cm_test_us", lambda: cm_test(series, m, fit.order_correction))
        block = build_block(series, m)
        add("corrmat.build_block_us", lambda: build_block(series, m))
        add("corrmat.build_toeplitz_us", lambda: build_toeplitz(series, 2, 2, m, standardized=True))
        add("corrmat.logdet_pd_us", lambda: logdet_pd(block))
        add("residuals.make_residual_series_us", lambda: make_residual_series(series.values))
        add("residuals.cross_corr_sequence_us", lambda: cross_corr_sequence(series, 1, 2, m))
        rho = correlogram(series, 1, 1, m).values
        add("residuals.durbin_levinson_us", lambda: durbin_levinson(rho))
    return {key: np.asarray(vals) for key, vals in samples.items()}
