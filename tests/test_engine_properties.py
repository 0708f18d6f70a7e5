"""Property tests of the replication engine: chunk-split determinism and the no-fit fitter."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from portmanteau import Arma, ArmaGarch, Experiment, FitterSpec, Garch, ModelSpec, Tar, fit_series
from portmanteau.montecarlo import _run_replicates

REPLICATIONS = 12

EXPERIMENTS = {
    kind: Experiment(
        generator=generator,
        fitter=FitterSpec(kind=kind, p=1, intercept=False),
        n_list=(40, 60),
        m_list=(3, 6),
        levels=(0.05, 0.10),
        replications=REPLICATIONS,
        statistics=("Cm", "Q11", "Q22", "M22", "Dt22"),
        master_seed=4242,
    )
    for kind, generator in (
        ("none", ModelSpec(model=Tar(phi1_lower=-0.9, phi1_upper=0.5), burn_in=50)),
        ("ar", ModelSpec(model=Tar(phi1_lower=-0.9, phi1_upper=0.5), burn_in=50)),
        ("true", ModelSpec(model=Arma(phi=(0.4, -0.2)), burn_in=50)),
        (
            "ar_garch",
            ModelSpec(model=ArmaGarch(arma=Arma(phi=(0.2,)), garch=Garch(omega=0.2, alpha=(0.2, 0.2))), burn_in=50),
        ),
    )
}
for _exp in EXPERIMENTS.values():
    _exp.validate()
WHOLE = {kind: _run_replicates(exp, 0, REPLICATIONS) for kind, exp in EXPERIMENTS.items()}


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(sorted(EXPERIMENTS)), split=st.integers(0, REPLICATIONS))
def test_any_chunk_split_adds_up_to_the_whole_run(kind, split):
    exp = EXPERIMENTS[kind]
    head = _run_replicates(exp, 0, split)
    tail = _run_replicates(exp, split, REPLICATIONS)
    counts, *counters = WHOLE[kind]
    np.testing.assert_array_equal(head[0] + tail[0], counts)
    assert [h + t for h, t in zip(head[1:], tail[1:])] == counters


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 400), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_none_fit_passes_the_series_through(seed, n, scale):
    z = np.random.default_rng(seed).standard_normal(n) * scale
    fit = fit_series(z, FitterSpec(kind="none"))
    assert fit.residuals.values.tobytes() == z.tobytes()
    assert fit.order_correction == 0
    assert fit.conditional_sd is None
