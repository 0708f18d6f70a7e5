"""Bit-exact golden snapshot of the GARCH simulate/fit/test path.

The snapshot in ``golden_garch.json`` pins seeded outputs of the GARCH
simulator, the GARCH QMLE fitter, the Li-Mak statistics and one small
AR-GARCH Monte Carlo table, bit for bit. Any change to the order of the
floating-point operations on this path shows up here as a mismatch; a change
that is meant to move the numerics must say so and regenerate the file with

    PYTHONPATH=src python tests/test_golden_garch.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from portmanteau import (
    Arma,
    ArmaGarch,
    Experiment,
    FitterSpec,
    Garch,
    ModelSpec,
    fit_garch_qmle,
    li_mak,
    run_experiment,
    simulate,
)

GOLDEN = Path(__file__).with_name("golden_garch.json")

FIT_N = 200
FIT_SEEDS = range(25)
FIT_MODELS = {
    "1,0": Garch(omega=0.2, alpha=(0.4,)),
    "2,0": Garch(omega=0.2, alpha=(0.2, 0.2)),
    "1,1": Garch(omega=0.1, alpha=(0.1,), beta=(0.8,)),
    "2,1": Garch(omega=0.1, alpha=(0.1, 0.1), beta=(0.6,)),
}
AR_ARCH = ArmaGarch(arma=Arma(phi=(0.2,)), garch=Garch(omega=0.2, alpha=(0.2, 0.2)))
SIM_MODELS = {
    "arch2": FIT_MODELS["2,0"],
    "garch21": FIT_MODELS["2,1"],
    "ar_arch": AR_ARCH,
}
SIM_N = 500
SIM_SEEDS = range(10)


def _sha1(values: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def _hexes(values) -> list:
    return [float(v).hex() for v in values]


def _fit_record(model: Garch, seed: int) -> dict:
    z = simulate(ModelSpec(model=model, burn_in=200), FIT_N, seed)
    fit = fit_garch_qmle(z, model.b, model.a)
    sigma2 = fit.conditional_sd * fit.conditional_sd
    return {
        "loglik": fit.loglik.hex(),
        "omega": fit.params["omega"].hex(),
        "alpha": _hexes(fit.params["alpha"]),
        "beta": _hexes(fit.params["beta"]),
        "iterations": fit.iterations,
        "converged": fit.converged,
        "flags": list(fit.flags),
        "residuals_sha1": _sha1(fit.residuals.values),
        "sd_sha1": _sha1(fit.conditional_sd),
        "li_mak": [
            li_mak(z, sigma2, m, model.b, model.a, weighted=w).statistic.hex()
            for m in (6, 10)
            for w in (False, True)
        ],
    }


def _sim_record(model, seed: int) -> str:
    return _sha1(simulate(ModelSpec(model=model), SIM_N, seed))


def _table_record() -> dict:
    exp = Experiment(
        generator=ModelSpec(model=AR_ARCH, burn_in=200),
        fitter=FitterSpec(kind="ar_garch", p=1, b=1, a=0, intercept=False),
        n_list=(200,),
        m_list=(6,),
        levels=(0.01, 0.05, 0.10),
        replications=24,
        statistics=("Cm", "Q22", "Lb", "Lbw"),
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
        "fits": {order: [_fit_record(model, s) for s in FIT_SEEDS] for order, model in FIT_MODELS.items()},
        "simulate": {name: [_sim_record(model, s) for s in SIM_SEEDS] for name, model in SIM_MODELS.items()},
        "table": _table_record(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("order", sorted(FIT_MODELS))
def test_fit_garch_qmle_bit_exact(golden, order):
    model = FIT_MODELS[order]
    for seed, expected in zip(FIT_SEEDS, golden["fits"][order]):
        assert _fit_record(model, seed) == expected, f"GARCH({order}) fit, seed {seed}"


@pytest.mark.parametrize("name", sorted(SIM_MODELS))
def test_simulate_bit_exact(golden, name):
    model = SIM_MODELS[name]
    assert [_sim_record(model, s) for s in SIM_SEEDS] == golden["simulate"][name]


def test_ar_garch_table_bit_exact(golden):
    assert _table_record() == golden["table"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_compute(), indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
