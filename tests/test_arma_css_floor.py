"""The ARMA CSS fitter must never fit these series worse than the fitter it replaced.

``arma_css_floor.json`` holds, for each of the 300 fits below (6 orders x 25
seeds x n in {200, 500}, burn-in 200), the innovation variance sigma^2 (as
``float.hex``) and the flags that the scipy Nelder-Mead fitter left. It was
captured once, on the commit before the BFGS fitter replaced it, by simulating
each ``ModelSpec(model=FIT_MODELS[order], burn_in=200)`` path of length n at
each seed with ``simulate`` and recording ``fit_arma_css(z, p, q)``'s
``params["sigma2"].hex()`` and ``list(flags)``, keyed "p,q" then n. The file
is a fixed record of that fitter and is never regenerated: a new optimizer may
move the bits, but no refit may leave a conditional sum of squares above the
floor's by more than 1e-9 relative, and none may gain a flag.
"""

import json
from pathlib import Path

import pytest

from portmanteau import Arma, ModelSpec, fit_arma_css, simulate

FLOOR = json.loads(Path(__file__).with_name("arma_css_floor.json").read_text(encoding="utf-8"))
TOLERANCE = 1e-9
FIT_SIZES = (200, 500)
FIT_SEEDS = range(25)
FIT_MODELS = {
    "1,0": Arma(phi=(0.5,)),
    "0,1": Arma(theta=(-0.5,)),
    "1,1": Arma(phi=(0.6,), theta=(0.3,)),
    "2,1": Arma(phi=(0.5, -0.3), theta=(0.4,)),
    "1,2": Arma(phi=(0.4,), theta=(0.3, 0.2)),
    "0,2": Arma(theta=(0.5, -0.3)),
}


@pytest.mark.parametrize("n", FIT_SIZES)
@pytest.mark.parametrize("order", sorted(FIT_MODELS))
def test_refit_dominates_floor(order, n):
    model = FIT_MODELS[order]
    records = FLOOR[order][str(n)]
    assert len(records) == len(FIT_SEEDS)
    for seed, record in zip(FIT_SEEDS, records):
        z = simulate(ModelSpec(model=model, burn_in=200), n, seed)
        fit = fit_arma_css(z, model.p, model.q)
        floor = float.fromhex(record["sigma2"])
        sigma2 = fit.params["sigma2"]
        assert sigma2 <= floor * (1.0 + TOLERANCE), f"ARMA({order}) n={n} seed {seed}: {sigma2!r} > floor {floor!r}"
        gained = set(fit.flags) - set(record["flags"])
        assert not gained, f"ARMA({order}) n={n} seed {seed} gained {sorted(gained)}"
