"""Bit-exact golden snapshot of the statistic battery.

The snapshot in ``golden_battery.json`` pins, bit for bit, the statistic, the
p-value and the degenerate flag of all 18 correlation-based statistics (every
statistic but the fitted-variance Lb family) on seeded AR(1)-fitted residuals
of a TAR and of an AR(1) generator at n in {100, 500} and m in {10, 30}, on
two hand-made series whose standardized Toeplitz matrices are not positive
definite (so the degenerate path is pinned too), and one seeded Monte Carlo
table of the whole battery. Any change to the order of the floating-point
operations behind the correlations, the partial autocorrelations, the
log-determinants or the p-values shows up here as a mismatch; a change that
is meant to move the numerics must say so and regenerate the file with

    PYTHONPATH=src python tests/test_golden_battery.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from portmanteau import (
    ALL_STATISTICS,
    Arma,
    Experiment,
    FitterSpec,
    ModelSpec,
    Tar,
    box_pierce,
    cm_test,
    correlogram,
    evaluate_statistics,
    fit_ar,
    ljung_box,
    make_residual_series,
    monti,
    pena_d,
    pena_dtilde,
    run_experiment,
    simulate,
    weighted_m,
    weighted_q,
)

GOLDEN = Path(__file__).with_name("golden_battery.json")

STATISTICS = tuple(s for s in ALL_STATISTICS if s not in ("Lb", "Lbw"))
MODELS = {
    "tar": Tar(phi1_lower=-1.5, phi1_upper=0.5),
    "ar1": Arma(phi=(0.1,)),
}


def _alternating(n: int, rng) -> np.ndarray:
    """e_t = (-1)^t plus small noise: Dt11's standardized matrix is not positive definite."""
    return (-1.0) ** np.arange(n) + 0.05 * rng.standard_normal(n)


def _two_level(n: int, rng) -> np.ndarray:
    """Random signs on magnitudes 2, 1, 2, 1, ...: Dt22's standardized matrix is not positive definite."""
    return np.where(rng.random(n) < 0.5, -1.0, 1.0) * (1.5 + 0.5 * (-1.0) ** np.arange(n))


HAND_MADE = {"alternating": _alternating, "two_level": _two_level}
SOURCES = (*MODELS, *HAND_MADE)
N_LIST = (100, 500)
M_LIST = (10, 30)
SEEDS = range(6)

# Each statistic through its own public function, as a caller outside the
# battery would compute it.
PUBLIC = {
    "Cm": lambda s, m, c: cm_test(s, m, c),
    "Q_BP": lambda s, m, c: box_pierce(correlogram(s, 1, 1, m), s.n, m, c),
    "Q11": lambda s, m, c: ljung_box(correlogram(s, 1, 1, m), s.n, m, c),
    "Q22": lambda s, m, c: ljung_box(correlogram(s, 2, 2, m), s.n, m),
    "Q12": lambda s, m, c: ljung_box(correlogram(s, 1, 2, m), s.n, m),
    "Q21": lambda s, m, c: ljung_box(correlogram(s, 2, 1, m), s.n, m),
    "Qt12": lambda s, m, c: box_pierce(correlogram(s, 1, 2, m), s.n, m),
    "Qt21": lambda s, m, c: box_pierce(correlogram(s, 2, 1, m), s.n, m),
    "D11": lambda s, m, c: pena_d(s, m, c, which="residual"),
    "D22": lambda s, m, c: pena_d(s, m, which="squared"),
    "Dt11": lambda s, m, c: pena_dtilde(s, m, c, which="residual"),
    "Dt22": lambda s, m, c: pena_dtilde(s, m, which="squared"),
    "M11": lambda s, m, c: monti(s, m, c, which="residual"),
    "M22": lambda s, m, c: monti(s, m, which="squared"),
    "Qw11": lambda s, m, c: weighted_q(s, m, c, which="residual"),
    "Qw22": lambda s, m, c: weighted_q(s, m, which="squared"),
    "Mw11": lambda s, m, c: weighted_m(s, m, c, which="residual"),
    "Mw22": lambda s, m, c: weighted_m(s, m, which="squared"),
}


def _record(report) -> list:
    return [report.statistic.hex(), report.p_value.hex(), report.degenerate]


def _residuals(source: str, n: int, seed: int):
    """(residual series, order correction) of one seeded source."""
    if source in HAND_MADE:
        return make_residual_series(HAND_MADE[source](n, np.random.default_rng(seed))), 0
    fit = fit_ar(simulate(ModelSpec(model=MODELS[source]), n, seed), 1, intercept=False)
    return fit.residuals, fit.order_correction


def _battery_records(source: str, n: int) -> dict:
    out = {}
    for seed in SEEDS:
        series, correction = _residuals(source, n, seed)
        for m in M_LIST:
            reports = evaluate_statistics(STATISTICS, series, m, order_correction=correction)
            out[f"{seed},{m}"] = {name: _record(reports[name]) for name in STATISTICS}
    return out


def _table_record() -> dict:
    exp = Experiment(
        generator=ModelSpec(model=MODELS["tar"]),
        fitter=FitterSpec(kind="ar", p=1, intercept=False),
        n_list=N_LIST,
        m_list=M_LIST,
        levels=(0.01, 0.05, 0.10),
        replications=40,
        statistics=STATISTICS,
        master_seed=20050971,
    )
    table = run_experiment(exp, workers=1)
    return {
        "cells": [[s, n, m, level, freq.hex()] for s, n, m, level, freq in table.rows()],
        "degenerate_count": table.degenerate_count,
        "fit_failures": table.fit_failures,
    }


def _compute() -> dict:
    return {
        "battery": {f"{source},{n}": _battery_records(source, n) for source in SOURCES for n in N_LIST},
        "table": _table_record(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("n", N_LIST)
def test_battery_bit_exact(golden, source, n):
    assert _battery_records(source, n) == golden["battery"][f"{source},{n}"]


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("n", N_LIST)
def test_public_functions_bit_exact(golden, source, n):
    expected = golden["battery"][f"{source},{n}"]
    for seed in SEEDS:
        series, correction = _residuals(source, n, seed)
        for m in M_LIST:
            for name in STATISTICS:
                report = PUBLIC[name](series, m, correction)
                assert _record(report) == expected[f"{seed},{m}"][name], f"{name}, seed {seed}, m={m}"


def test_battery_table_bit_exact(golden):
    assert _table_record() == golden["table"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_compute(), indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
