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
from portmanteau import montecarlo
from portmanteau.montecarlo import _block_rows


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

    def test_default_workers_follow_the_cpu_affinity(self, monkeypatch):
        # One CPU in the mask: the run stays in this process, whatever os.cpu_count() says.
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
        logs = []
        exp = _small_experiment(replications=4)
        assert run_experiment(exp, log=logs.append).cells == run_experiment(exp, workers=1).cells
        assert "on 1 worker(s)" in logs[0]

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

    def test_simulation_overflow_is_counted_not_raised(self, tmp_path):
        import json
        import warnings

        exp = _small_experiment(
            generator=ModelSpec(model=Star(lower_coeff=5.0, upper_coeff=5.0)),
            fitter=FitterSpec(kind="none"),
            n_list=(100,),
            m_list=(5,),
            replications=6,
            statistics=("Cm",),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            table = run_experiment(exp, workers=1)
        assert table.simulation_failures == 6
        assert table.fit_failures == 0
        assert table.frequency("Cm", 100, 5, 0.05) == 0.0
        assert run_experiment(exp, workers=2).simulation_failures == 6
        table.to_json(tmp_path / "table.json")
        assert json.loads((tmp_path / "table.json").read_text())["simulation_failures"] == 6

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

    def test_block_rows_follow_the_value_budget(self):
        # 64 rows up to n = 2000 at the default burn-in of 500, then rows x (500 + max n) <= 64 x 2500.
        generator = ModelSpec(model=Garch(omega=0.2, alpha=(0.2, 0.2)))
        assert _block_rows(_small_experiment(generator=generator, n_list=(100, 2000))) == 64
        assert _block_rows(_small_experiment(generator=generator, n_list=(2001,))) == 63
        assert _block_rows(_small_experiment(generator=generator, n_list=(200, 50000))) == 3
        assert _block_rows(_small_experiment(generator=generator, n_list=(10**7,))) == 1


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

    def test_n_below_simulator_minimum(self):
        # m = 1 fits the residual length, but the simulator cannot make 8 values
        with pytest.raises(InvalidSpec):
            _small_experiment(n_list=(8,), m_list=(1,)).validate()
        _small_experiment(n_list=(10,), m_list=(1,)).validate()

    def test_unknown_statistic(self):
        with pytest.raises(InvalidSpec):
            _small_experiment(statistics=("Cm", "Zz")).validate()

    def test_bad_level(self):
        with pytest.raises(InvalidSpec):
            _small_experiment(levels=(0.0,)).validate()

    def test_bad_fitter(self):
        with pytest.raises(InvalidSpec):
            _small_experiment(fitter=FitterSpec(kind="ols")).validate()


    @pytest.mark.parametrize(
        "fitter",
        [
            FitterSpec(kind="ar", p=-1),
            FitterSpec(kind="arma", p=1, q=-1),
            FitterSpec(kind="garch", b=0, a=0),
            FitterSpec(kind="ar_garch", p=1, b=0, a=0),
            FitterSpec(kind="garch", b=-1, a=2),
            FitterSpec(kind="ar_aic", p_max=0),
        ],
    )
    def test_fitter_that_fails_every_replicate(self, fitter):
        with pytest.raises(InvalidSpec):
            fitter.validate()
        with pytest.raises(InvalidSpec):
            _small_experiment(fitter=fitter).validate()

    def test_fitter_orders_accepted(self):
        FitterSpec(kind="ar", p=0).validate()
        FitterSpec(kind="garch", b=0, a=1).validate()
        FitterSpec(kind="ar_aic", p_max=1).validate()

    def test_true_fitter_resolved_before_validation(self):
        with pytest.raises(InvalidSpec):
            _small_experiment(generator=ModelSpec(model=Garch()), fitter=FitterSpec(kind="true")).validate()

    def test_resolve_keeps_intercept(self):
        generator = ModelSpec(model=Arma(phi=(0.3, 0.1)))
        resolved = FitterSpec(kind="true", intercept=False).resolve(generator)
        assert resolved == FitterSpec(kind="ar", p=2, intercept=False)


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

    def test_fitter_keys_optional_with_constructor_defaults(self):
        d = experiment_to_dict(_small_experiment())
        d["fitter"] = {"kind": "arma"}
        assert experiment_from_dict(d).fitter == FitterSpec(kind="arma")
        d["fitter"] = {}
        assert experiment_from_dict(d).fitter == FitterSpec()

    def test_written_keys_in_field_order(self):
        d = experiment_to_dict(_small_experiment())
        assert list(d["fitter"]) == ["kind", "p", "q", "p_max", "b", "a", "intercept"]
        assert list(d["generator"]) == ["model", "innovation", "burn_in"]
        assert list(d["generator"]["model"]) == ["kind", "phi", "theta", "mu"]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n", 100),
            ("m", [4, "x"]),
            ("levels", 0.05),
            ("replications", "many"),
            ("statistics", 3),
            ("master_seed", [1]),
        ],
    )
    def test_malformed_values_are_config_errors(self, key, value):
        d = experiment_to_dict(_small_experiment())
        d[key] = value
        with pytest.raises(ConfigError):
            experiment_from_dict(d)


# Configs whose fits succeed but whose statistic has no null at some m: each
# used to abort at replicate 0 with a null-distribution error.
NO_NULL_CONFIGS = {
    "ar2_m1_Q11": dict(fitter=FitterSpec(kind="ar", p=2), m_list=(1,), statistics=("Q11",)),
    "arma44_m1_Cm": dict(fitter=FitterSpec(kind="arma", p=4, q=4), m_list=(1,), statistics=("Cm",)),
    "ar2_m1_Dt11": dict(fitter=FitterSpec(kind="ar", p=2), m_list=(1,), statistics=("Dt11",)),
    "ar1_m1_Qw11": dict(fitter=FitterSpec(kind="ar", p=1), m_list=(1,), statistics=("Qw11",)),
    "ar_Lb": dict(fitter=FitterSpec(kind="ar", p=1), m_list=(4,), statistics=("Cm", "Lb")),
    "ar_aic_worst_order": dict(fitter=FitterSpec(kind="ar_aic", p_max=4), m_list=(4, 8), statistics=("Q11",)),
    "garch_Lb_m_equals_b": dict(
        generator=ModelSpec(model=Garch(omega=0.2, alpha=(0.2, 0.1))),
        fitter=FitterSpec(kind="true"),
        m_list=(2,),
        statistics=("Lb",),
    ),
}


class TestNullCheck:
    @pytest.mark.parametrize("overrides", NO_NULL_CONFIGS.values(), ids=NO_NULL_CONFIGS)
    def test_rejected_before_the_first_replicate(self, overrides):
        exp = _small_experiment(n_list=(200,), **overrides)
        with pytest.raises(InvalidSpec, match="null distribution|conditional variances"):
            exp.validate()
        with pytest.raises(InvalidSpec):
            run_experiment(exp, workers=1)

    def test_worst_case_correction_still_runs(self):
        # criterion 6's design: an AIC order up to 4 leaves Cm a null at m = 7
        _small_experiment(
            fitter=FitterSpec(kind="ar_aic", p_max=4), n_list=(100,), m_list=(7,), statistics=("Cm", "Q22")
        ).validate()
        _small_experiment(fitter=FitterSpec(kind="ar", p=2), m_list=(8,), statistics=("Q11", "Qw11", "Dt11")).validate()

    def test_fitter_that_rejects_every_n_is_not_checked(self):
        # AR(5) needs n > 50; its replicates are counted fit failures and never tested
        exp = _small_experiment(fitter=FitterSpec(kind="ar", p=5), n_list=(40,), m_list=(4,), replications=3)
        exp.validate()
        assert run_experiment(exp, workers=1).fit_failures == 3
        with pytest.raises(InvalidSpec):
            _small_experiment(fitter=FitterSpec(kind="ar", p=5), n_list=(40, 60), m_list=(4,)).validate()


class TestExperimentArrays:
    @pytest.mark.parametrize("key, value", [("n", "100"), ("m", "8"), ("levels", "0.05"), ("statistics", "Cm")])
    def test_a_string_is_not_an_array(self, key, value):
        d = experiment_to_dict(_small_experiment())
        d[key] = value
        with pytest.raises(ConfigError, match=f"'{key}'.*JSON array"):
            experiment_from_dict(d)

    @pytest.mark.parametrize("key, value", [("n", [100.5]), ("m", [True]), ("replications", 2.5)])
    def test_integers_are_not_rounded(self, key, value):
        d = experiment_to_dict(_small_experiment())
        d[key] = value
        with pytest.raises(ConfigError, match=f"'{key}'"):
            experiment_from_dict(d)

    def test_integral_floats_and_tuples_read(self):
        d = experiment_to_dict(_small_experiment())
        d["n"], d["replications"], d["levels"] = [60.0], 10.0, (0.05, 0.1)
        exp = experiment_from_dict(d)
        assert exp.n_list == (60,) and type(exp.n_list[0]) is int
        assert exp.replications == 10 and exp.levels == (0.05, 0.1)

