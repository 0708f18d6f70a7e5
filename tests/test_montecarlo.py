"""Replication engine: determinism, counting semantics, configuration."""

import numpy as np
import pytest

from portmanteau import (
    Arma,
    Experiment,
    FitterSpec,
    Garch,
    McTable,
    ModelSpec,
    Star,
    experiment_from_dict,
    experiment_to_dict,
    rejection_frequency,
    replicate_seed,
    run_experiment,
)
from portmanteau.errors import ConfigError, EmptySample, InvalidSpec


def _small_experiment(**overrides):
    base = dict(
        generator=ModelSpec(model=Arma(phi=(0.1,)), burn_in=100),
        fitter=FitterSpec(kind="ar", p=1, intercept=False),
        n_list=(60,),
        m_list=(4, 8),
        levels=(0.05, 0.10),
        replications=200,
        statistics=("Cm", "Q11", "Q12"),
        master_seed=99,
    )
    base.update(overrides)
    return Experiment(**base)


class TestRejectionFrequency:
    def test_examples(self):
        assert rejection_frequency([0.01, 0.2, 0.03], 0.05) == pytest.approx(2.0 / 3.0)
        assert rejection_frequency([1.0, 1.0], 0.05) == 0.0

    def test_strictly_below(self):
        assert rejection_frequency([0.05], 0.05) == 0.0

    def test_empty(self):
        with pytest.raises(EmptySample):
            rejection_frequency([], 0.05)


class TestReplicateSeed:
    def test_deterministic_and_distinct(self):
        a = replicate_seed(123, 0)
        assert a == replicate_seed(123, 0)
        assert a != replicate_seed(123, 1)
        assert a != replicate_seed(124, 0)

    def test_negative_master_seed_ok(self):
        assert replicate_seed(-5, 3) == replicate_seed(-5, 3)


class TestRunExperiment:
    def test_worker_count_invariance(self):
        exp = _small_experiment()
        t1 = run_experiment(exp, workers=1)
        t2 = run_experiment(exp, workers=2)
        t3 = run_experiment(exp, workers=3)
        assert t1.cells == t2.cells == t3.cells
        assert t1.degenerate_count == t2.degenerate_count == t3.degenerate_count
        assert t1.fit_failures == t2.fit_failures == t3.fit_failures

    def test_single_replication_gives_indicators(self):
        exp = _small_experiment(replications=1)
        table = run_experiment(exp, workers=1)
        assert set(table.cells.values()) <= {0.0, 1.0}

    def test_frequencies_are_count_ratios(self):
        exp = _small_experiment(replications=50)
        table = run_experiment(exp, workers=1)
        for freq in table.cells.values():
            assert freq == pytest.approx(round(freq * 50) / 50.0, abs=1e-12)

    def test_null_sizes_reasonable(self):
        exp = _small_experiment(replications=400, m_list=(6,))
        table = run_experiment(exp, workers=2)
        for stat in exp.statistics:
            f = table.frequency(stat, 60, 6, 0.05)
            assert f < 0.15

    def test_fit_failures_excluded_but_counted(self):
        # AR(5) on n=40 violates the n > 10p contract in every replicate
        exp = _small_experiment(
            fitter=FitterSpec(kind="ar", p=5), n_list=(40,), m_list=(4,), replications=20
        )
        table = run_experiment(exp, workers=1)
        assert table.fit_failures == 20
        assert all(v == 0.0 for v in table.cells.values())

    # the explosive path stays finite, but its squares overflow
    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_overflow_is_a_fit_failure_not_a_rejection(self):
        exp = _small_experiment(
            generator=ModelSpec(model=Star(lower_coeff=1.5, upper_coeff=1.5)),
            fitter=FitterSpec(kind="none"),
            n_list=(100,),
            m_list=(5,),
            replications=10,
            statistics=("Cm",),
        )
        table = run_experiment(exp, workers=1)
        assert table.fit_failures == 10
        assert table.frequency("Cm", 100, 5, 0.05) == 0.0

    def test_monotone_in_level(self):
        exp = _small_experiment(replications=300, levels=(0.01, 0.05, 0.10, 0.5))
        table = run_experiment(exp, workers=2)
        for stat in exp.statistics:
            for m in exp.m_list:
                freqs = [table.frequency(stat, 60, m, lv) for lv in exp.levels]
                assert freqs == sorted(freqs)

    def test_true_fitter_resolution_garch(self):
        exp = _small_experiment(
            generator=ModelSpec(model=Garch(omega=0.2, alpha=(0.2,)), burn_in=100),
            fitter=FitterSpec(kind="true"),
            n_list=(100,),
            m_list=(5,),
            replications=30,
            statistics=("Cm", "Lb", "Lbw"),
        )
        table = run_experiment(exp, workers=1)
        assert len(table.cells) == 3 * 1 * 1 * 2


class TestValidation:
    def test_m_versus_n(self):
        with pytest.raises(InvalidSpec):
            _small_experiment(m_list=(30,)).validate()

    def test_m_versus_residual_length(self):
        # AR(2) residuals of an n=40 series have 38 values, so m=19 cannot run
        with pytest.raises(InvalidSpec):
            _small_experiment(fitter=FitterSpec(kind="ar", p=2), n_list=(40,), m_list=(19,)).validate()
        with pytest.raises(InvalidSpec):
            _small_experiment(fitter=FitterSpec(kind="ar_aic", p_max=4), n_list=(40,), m_list=(18,)).validate()
        with pytest.raises(InvalidSpec):
            _small_experiment(
                generator=ModelSpec(model=Arma(phi=(0.3, 0.2)), burn_in=100),
                fitter=FitterSpec(kind="true"),
                n_list=(40,),
                m_list=(19,),
            ).validate()
        _small_experiment(fitter=FitterSpec(kind="ar", p=2), n_list=(40,), m_list=(18,)).validate()
        _small_experiment(fitter=FitterSpec(kind="ar_aic", p_max=4), n_list=(40,), m_list=(17,)).validate()
        _small_experiment(fitter=FitterSpec(kind="none"), n_list=(40,), m_list=(19,)).validate()

    def test_unknown_statistic(self):
        with pytest.raises(InvalidSpec):
            _small_experiment(statistics=("Cm", "Zz")).validate()

    def test_bad_level(self):
        with pytest.raises(InvalidSpec):
            _small_experiment(levels=(0.0,)).validate()

    def test_bad_fitter(self):
        with pytest.raises(InvalidSpec):
            _small_experiment(fitter=FitterSpec(kind="ols")).validate()


class TestTableSerialization:
    def test_csv_round_trip(self, tmp_path):
        exp = _small_experiment(replications=40)
        table = run_experiment(exp, workers=1)
        path = tmp_path / "table.csv"
        table.to_csv(path)
        again = McTable.from_csv(path)
        assert again.cells == table.cells

    def test_json_payload(self, tmp_path):
        import json

        exp = _small_experiment(replications=40)
        table = run_experiment(exp, workers=1)
        path = tmp_path / "table.json"
        table.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["replications"] == 40
        cells = {
            (c["statistic"], c["n"], c["m"], c["level"]): c["frequency"] for c in payload["cells"]
        }
        assert cells == table.cells

    def test_standard_error(self):
        table = McTable(cells={("Cm", 100, 10, 0.05): 0.04}, replications=1000)
        assert table.standard_error("Cm", 100, 10, 0.05) == pytest.approx(
            np.sqrt(0.04 * 0.96 / 1000)
        )


class TestExperimentConfig:
    def test_round_trip(self):
        exp = _small_experiment()
        again = experiment_from_dict(experiment_to_dict(exp))
        assert again == exp

    def test_unknown_keys_rejected(self):
        d = experiment_to_dict(_small_experiment())
        d["extra"] = True
        with pytest.raises(ConfigError):
            experiment_from_dict(d)
        d = experiment_to_dict(_small_experiment())
        d["fitter"]["extra"] = 1
        with pytest.raises(ConfigError):
            experiment_from_dict(d)

    def test_schema_required(self):
        d = experiment_to_dict(_small_experiment())
        del d["schema"]
        with pytest.raises(ConfigError):
            experiment_from_dict(d)
        d = experiment_to_dict(_small_experiment())
        d["schema"] = 2
        with pytest.raises(ConfigError):
            experiment_from_dict(d)

    def test_missing_required_key(self):
        d = experiment_to_dict(_small_experiment())
        del d["replications"]
        with pytest.raises(ConfigError):
            experiment_from_dict(d)
