"""The chunked GARCH variance scan against the step-by-step recursion it replaced.

``models.Garch._paths`` resolves the variance recursion, which is linear in
s^2, in chunks of ``models._CHUNK`` steps. ``reference.garch_paths`` takes it
one time step at a time, as the simulator did before. Both draw the same
innovations, and every sum in the scan is of non-negative terms, so the two
paths agree to a few ulps: each value within a relative 1e-13, across the
tested orders, innovation laws, lengths at a chunk edge and burn-ins.

Chunk edges sit at fixed steps from t = 0, so the path of n values is the
prefix of a longer one wherever the innovation draws are (normal and
Student-t: one draw of the path's length).
"""

import numpy as np
import pytest

from portmanteau import Arma, ArmaGarch, Garch, Innovation, ModelSpec, simulate
from portmanteau.models import _CHUNK, _simulate_block
from portmanteau.reference import garch_paths

ORDERS = {
    "garch_10": Garch(omega=0.2, alpha=(0.4,)),
    "garch_20": Garch(omega=0.2, alpha=(0.2, 0.2)),
    "garch_11": Garch(omega=0.1, alpha=(0.1,), beta=(0.8,)),
    "garch_21": Garch(omega=0.1, alpha=(0.1, 0.1), beta=(0.6,)),
    "garch_12": Garch(omega=0.1, alpha=(0.1,), beta=(0.5, 0.3)),
    "persistent_11": Garch(omega=0.01, alpha=(0.02,), beta=(0.979,)),
    # More lags than _CHUNK: the scan takes chunks of k steps, so a chunk's entry values lie in the chunk before it.
    "arch_40": Garch(omega=0.1, alpha=(0.02,) * 40),
}
LAWS = ("normal", "student_t", "skew_normal")
SEEDS = [3, 2**63 + 5, 2**64 - 1]
TOLERANCE = 1e-13


@pytest.mark.parametrize("burn_in", [0, 500])
@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2000])
@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("order", sorted(ORDERS))
def test_scan_matches_the_step_by_step_recursion(order, law, n, burn_in):
    model, innovation = ORDERS[order], Innovation(law=law)
    paths, finite = _simulate_block(ModelSpec(model=model, innovation=innovation, burn_in=burn_in), n, SEEDS)
    rngs = [np.random.default_rng(np.random.SeedSequence(seed)) for seed in SEEDS]
    expected = garch_paths(model, innovation, rngs, burn_in + n)[:, burn_in:]
    assert finite.all()
    assert np.all(np.abs(paths - expected) <= TOLERANCE * np.abs(expected))


@pytest.mark.parametrize("law", ["normal", "student_t"])
@pytest.mark.parametrize(
    "model",
    [*ORDERS.values(), ArmaGarch(arma=Arma(phi=(0.2,)), garch=Garch(omega=0.2, alpha=(0.2, 0.2)))],
    ids=[*ORDERS, "ar_arch"],
)
def test_a_shorter_path_is_a_prefix_of_a_longer_one(model, law):
    spec = ModelSpec(model=model, innovation=Innovation(law=law))
    for seed in range(4):
        assert simulate(spec, 100, seed).tobytes() == simulate(spec, 500, seed)[:100].tobytes()


def test_no_arch_or_garch_lag_is_constant_variance():
    spec = ModelSpec(model=Garch(omega=0.3), burn_in=20)
    rng = np.random.default_rng(np.random.SeedSequence(4))
    xi = rng.standard_normal(20 + 50)[20:]
    assert simulate(spec, 50, 4).tobytes() == (np.sqrt(0.3) * xi).tobytes()
