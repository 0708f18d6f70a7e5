"""Block simulation: each row of a block of paths is the path its seed gives alone, bit for bit.

The engine simulates a block of replicates at once, so its tables depend on
neither the block size nor the chunk split only because of this property.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from portmanteau import Arma, ArmaGarch, Bilinear, Garch, Innovation, ModelSpec, Sqar, Star, Tar, simulate
from portmanteau.errors import NonFinite
from portmanteau.models import _simulate_block

FAMILIES = {
    "arma_21": Arma(phi=(0.5, -0.2), theta=(0.3,), mu=0.4),
    "garch_10": Garch(omega=0.2, alpha=(0.4,)),
    "garch_20": Garch(omega=0.2, alpha=(0.2, 0.2)),
    "garch_11": Garch(omega=0.1, alpha=(0.1,), beta=(0.8,)),
    "garch_21": Garch(omega=0.1, alpha=(0.1, 0.1), beta=(0.6,)),
    "arma_garch": ArmaGarch(arma=Arma(phi=(0.2,)), garch=Garch(omega=0.2, alpha=(0.2, 0.2))),
    "tar": Tar(phi0_lower=0.3, phi1_lower=-1.5, phi0_upper=-0.2, phi1_upper=0.5, c=0.1),
    "star": Star(lower_coeff=-0.5, upper_coeff=0.9),
    "sqar": Sqar(latent_phi=0.6),
    **{f"bilinear_{k}": Bilinear(model_id=k) for k in range(1, 9)},
}
LAWS = ("normal", "student_t", "skew_normal")


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=2, deadline=None)
@given(size=st.integers(1, 70), base=st.integers(0, 2**64 - 1), n=st.integers(10, 30))
@example(size=70, base=2**64 - 1, n=30)
def test_each_row_is_its_seeds_lone_path(family, law, size, base, n):
    spec = ModelSpec(model=FAMILIES[family], innovation=Innovation(law=law), burn_in=10)
    seeds = [(base + 7919 * k) % 2**64 for k in range(size)]
    paths, finite = _simulate_block(spec, n, seeds)
    assert paths.shape == (size, n)
    assert finite.all()
    for seed, row in zip(seeds, paths):
        alone, _ = _simulate_block(spec, n, [seed])
        assert row.tobytes() == alone[0].tobytes()


def test_an_overflowing_row_flags_only_itself():
    # With both coefficients 5, z_t = 5 z_{t-1} + e_t overflows near step 443: of these seeds, only 1 by n = 443.
    spec = ModelSpec(model=Star(lower_coeff=5.0, upper_coeff=5.0), burn_in=0)
    seeds = [0, 1, 2, 7]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        paths, finite = _simulate_block(spec, 443, seeds)
        assert finite.tolist() == [True, False, True, True]
        with pytest.raises(NonFinite):
            simulate(spec, 443, 1)
        for seed, row in zip(seeds, paths):
            if seed != 1:
                assert row.tobytes() == simulate(spec, 443, seed).tobytes()
    assert not np.isfinite(paths[1]).all()
