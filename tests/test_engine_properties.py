"""Property tests of the replication engine: chunk-split determinism, blocks
against replicates run one by one, and the no-fit fitter."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from portmanteau import Arma, ArmaGarch, Experiment, FitterSpec, Garch, ModelSpec, Tar, fit_series, montecarlo, simulate
from portmanteau.errors import PortmanteauError, SingularDesign
from portmanteau.montecarlo import _run_replicates, evaluate_fit, replicate_seed

REPLICATIONS = 12

# The ar_aic fits of one block pick AR(1) or AR(2), so a block's residual
# series come in two lengths and are correlated as two groups.
EXPERIMENTS = {
    kind: Experiment(
        generator=generator,
        fitter=FitterSpec(kind=kind, p=1, p_max=2, intercept=False),
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
        ("ar_aic", ModelSpec(model=Arma(phi=(0.4, -0.2)), burn_in=50)),
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


def _one_by_one(exp: Experiment, stop: int) -> tuple:
    """(counts, degenerate, simulation failures, fit failures) of replicates
    [0, stop), each simulated, fitted and tested alone."""
    stats = list(exp.statistics)
    levels = np.asarray(exp.levels, dtype=float)
    counts = np.zeros((len(stats), len(exp.n_list), len(exp.m_list), len(levels)), dtype=np.int64)
    degenerate = failures = 0
    for rep in range(stop):
        seed = replicate_seed(exp.master_seed, rep)
        for ni, n in enumerate(exp.n_list):
            try:
                fit = fit_series(simulate(exp.generator, n, seed), exp.fitter, exp.generator)
            except PortmanteauError:
                failures += 1
                continue
            for mi, reports in enumerate(evaluate_fit(fit, stats, exp.m_list)):
                for si, name in enumerate(stats):
                    degenerate += reports[name].degenerate
                    counts[si, ni, mi] += reports[name].p_value < levels
    return counts, degenerate, 0, failures


def test_blocks_with_uneven_residual_lengths_match_replicates_one_by_one():
    exp = EXPERIMENTS["ar_aic"]
    seeds = [replicate_seed(exp.master_seed, rep) for rep in range(REPLICATIONS)]
    assert len({fit_series(simulate(exp.generator, 40, seed), exp.fitter).residuals.n for seed in seeds}) > 1
    counts, *counters = _one_by_one(exp, REPLICATIONS)
    np.testing.assert_array_equal(WHOLE["ar_aic"][0], counts)
    assert list(WHOLE["ar_aic"][1:]) == counters


def test_block_with_failing_fits_matches_replicates_one_by_one(monkeypatch):
    exp = EXPERIMENTS["ar_aic"]
    fitter = montecarlo._FITTERS["ar_aic"]

    def fit_unless_first_value_negative(rows, spec):
        return [
            SingularDesign("first value negative") if z[0] < 0.0 else fit for z, fit in zip(rows, fitter.fit(rows, spec))
        ]

    monkeypatch.setitem(montecarlo._FITTERS, "ar_aic", replace(fitter, fit=fit_unless_first_value_negative))
    whole = _run_replicates(exp, 0, REPLICATIONS)
    counts, *counters = _one_by_one(exp, REPLICATIONS)
    assert 0 < whole[3] < REPLICATIONS * len(exp.n_list)
    np.testing.assert_array_equal(whole[0], counts)
    assert list(whole[1:]) == counters


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 400), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_none_fit_passes_the_series_through(seed, n, scale):
    z = np.random.default_rng(seed).standard_normal(n) * scale
    fit = fit_series(z, FitterSpec(kind="none"))
    assert fit.residuals.values.tobytes() == z.tobytes()
    assert fit.order_correction == 0
    assert fit.conditional_sd is None
