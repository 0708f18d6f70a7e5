"""Block GARCH fits: each row of a block fit is the fit its series gives alone, bit for bit.

The engine fits a block of replicates at once, so its tables depend on
neither the block size nor the chunk split only because of this property.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from portmanteau import Arma, ArmaGarch, Garch, ModelSpec, fit_ar_garch, fit_garch_qmle
from portmanteau.errors import NonFinite, SingularDesign
from portmanteau.fitting import fit_ar_garch_block, fit_garch_block
from portmanteau.models import _simulate_block
from test_golden_garch import FIT_MODELS

AR_ARCH = ArmaGarch(arma=Arma(phi=(0.2,)), garch=Garch(omega=0.2, alpha=(0.2, 0.2)))
# name: (generator, lone fit, block fit), the four golden orders and the ar_arch fit
CASES = {
    **{
        f"garch_{order}": (model, lambda z, m=model: fit_garch_qmle(z, m.b, m.a),
                           lambda zs, m=model: fit_garch_block(zs, m.b, m.a))
        for order, model in FIT_MODELS.items()
    },
    "ar_garch": (AR_ARCH, lambda z: fit_ar_garch(z, 1, 1, 0, intercept=False),
                 lambda zs: fit_ar_garch_block(zs, 1, 1, 0, intercept=False)),
}


def _assert_same_fit(block, lone):
    assert (block.kind, block.order, block.params, block.flags) == (lone.kind, lone.order, lone.params, lone.flags)
    assert (block.loglik, block.aic, block.converged, block.iterations) == (
        lone.loglik, lone.aic, lone.converged, lone.iterations
    )
    for name in ("conditional_sd", "garch_eps"):
        assert getattr(block, name).tobytes() == getattr(lone, name).tobytes()
    assert block.residuals.values.tobytes() == lone.residuals.values.tobytes()


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=2, deadline=None)
@given(size=st.integers(1, 70), base=st.integers(0, 2**64 - 1), n=st.integers(60, 120))
@example(size=70, base=2**64 - 1, n=60)
def test_each_row_is_its_lone_fit(case, size, base, n):
    model, fit_lone, fit_block = CASES[case]
    seeds = [(base + 7919 * k) % 2**64 for k in range(size)]
    paths, finite = _simulate_block(ModelSpec(model=model, burn_in=50), n, seeds)
    assert finite.all()
    fits = fit_block(paths)
    assert len(fits) == size
    for z, fit in zip(paths, fits):
        _assert_same_fit(fit, fit_lone(z))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_failing_row_fails_alone_and_as_it_does_alone(case):
    model, fit_lone, fit_block = CASES[case]
    paths, _ = _simulate_block(ModelSpec(model=model, burn_in=50), 100, [3, 4, 5])
    rows = np.array([paths[0], np.zeros(100), paths[1] * 1e160, paths[2]])
    fits = fit_block(rows)
    assert [type(fit) for fit in fits[1:3]] == [SingularDesign, NonFinite]
    for z, fit in zip(rows, fits):
        if isinstance(fit, Exception):
            with pytest.raises(type(fit)):
                fit_lone(z)
        else:
            _assert_same_fit(fit, fit_lone(z))
