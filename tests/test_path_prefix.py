"""One seeded path per replicate: a path of n values is the prefix of a longer one.

(spec, seed) fixes one path, and ``simulate(spec, n, seed)`` is its first n
values after the burn-in, under every model and innovation law. The engine
relies on it: ``montecarlo._run_replicates`` simulates each block of replicates
once, at the largest n, and every n reads the first n values of each row.
"""

import pytest

from portmanteau import (
    Arma, ArmaGarch, Bilinear, Experiment, FitterSpec, Garch, Innovation, ModelSpec, Sqar, Star, Tar, run_experiment,
    simulate,
)
from portmanteau import models, montecarlo

MODELS = {
    "arma_21": Arma(phi=(0.5, -0.2), theta=(0.3,), mu=0.4),
    "garch_11": Garch(omega=0.1, alpha=(0.1,), beta=(0.8,)),
    "arma_garch": ArmaGarch(arma=Arma(phi=(0.2,)), garch=Garch(omega=0.2, alpha=(0.2, 0.2))),
    "tar": Tar(phi0_lower=0.3, phi1_lower=-1.5, phi0_upper=-0.2, phi1_upper=0.5, c=0.1),
    "star": Star(lower_coeff=-0.5, upper_coeff=0.9),
    "sqar": Sqar(latent_phi=0.6),
    **{f"bilinear_{k}": Bilinear(model_id=k) for k in range(1, 9)},
}
LAWS = ("normal", "student_t", "skew_normal")


@pytest.mark.parametrize("burn_in", [0, 500])
@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("model", sorted(MODELS))
def test_a_shorter_path_is_the_prefix_of_a_longer_one(model, law, burn_in):
    spec = ModelSpec(model=MODELS[model], innovation=Innovation(law=law), burn_in=burn_in)
    for seed in (0, 1, 2**64 - 1):
        assert simulate(spec, 100, seed).tobytes() == simulate(spec, 500, seed)[:100].tobytes()


def _experiment(generator: ModelSpec, n_list, replications: int = 16) -> Experiment:
    return Experiment(
        generator=generator,
        fitter=FitterSpec(kind="ar", p=1, intercept=False),
        n_list=n_list,
        m_list=(5, 10),
        replications=replications,
        statistics=("Cm", "Q11", "Q22"),
        master_seed=11,
    )


def test_each_block_is_simulated_once_at_the_largest_n(monkeypatch):
    lengths = []

    def counted(spec, n, seeds):
        lengths.append(n)
        return models._simulate_block(spec, n, seeds)

    monkeypatch.setattr(montecarlo, "_simulate_block", counted)
    monkeypatch.setattr(montecarlo, "_BLOCK", 2)
    exp = _experiment(ModelSpec(model=Arma(phi=(0.3,))), (100, 500), replications=5)
    montecarlo._run_replicates(exp, 0, 5)
    assert lengths == [500, 500, 500]


GENERATORS = {
    "sqar": ModelSpec(model=Sqar(latent_phi=0.6)),
    "skew_normal": ModelSpec(model=Arma(phi=(0.3,)), innovation=Innovation(law="skew_normal")),
}


@pytest.mark.parametrize("generator", GENERATORS.values(), ids=GENERATORS)
def test_a_table_over_two_n_is_the_tables_of_each_n(generator):
    both = run_experiment(_experiment(generator, (100, 500)), workers=1)
    alone = [run_experiment(_experiment(generator, (n,)), workers=1) for n in (100, 500)]
    assert both.cells == {**alone[0].cells, **alone[1].cells}
    for counter in ("degenerate_count", "fit_failures", "simulation_failures"):
        assert getattr(both, counter) == sum(getattr(table, counter) for table in alone)
