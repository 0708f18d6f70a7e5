"""The GARCH QMLE must never fit the golden series worse than the fitter it replaced.

``garch_loglik_floor.json`` holds the log-likelihood and the flags of each of
the 100 golden fits (4 orders x 25 seeds, n = 200) as the multi-start
Nelder-Mead fitter left them. The file is a fixed record of that fitter and is
never regenerated: a new optimizer may move the bits, but every refit must
reach a log-likelihood at least the floor's less 1e-6, and must not gain a
``non_convergence`` or ``boundary_estimate`` flag.
"""

import json
from pathlib import Path

import pytest

from portmanteau import ModelSpec, fit_garch_qmle, simulate
from test_golden_garch import FIT_MODELS, FIT_N, FIT_SEEDS

FLOOR = json.loads(Path(__file__).with_name("garch_loglik_floor.json").read_text(encoding="utf-8"))
TOLERANCE = 1e-6
WATCHED_FLAGS = {"non_convergence", "boundary_estimate"}


@pytest.mark.parametrize("order", sorted(FIT_MODELS))
def test_refit_dominates_floor(order):
    model = FIT_MODELS[order]
    records = FLOOR[order]
    assert len(records) == len(FIT_SEEDS)
    for seed, record in zip(FIT_SEEDS, records):
        z = simulate(ModelSpec(model=model, burn_in=200), FIT_N, seed)
        fit = fit_garch_qmle(z, model.b, model.a)
        floor = float.fromhex(record["loglik"])
        assert fit.loglik >= floor - TOLERANCE, f"GARCH({order}) seed {seed}: {fit.loglik!r} < floor {floor!r}"
        gained = (set(fit.flags) - set(record["flags"])) & WATCHED_FLAGS
        assert not gained, f"GARCH({order}) seed {seed} gained {sorted(gained)}"
