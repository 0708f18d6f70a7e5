"""Command-line surface: ingestion, subcommands, exit codes, round trips."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from portmanteau import ALL_STATISTICS
from portmanteau.cli import main, parse_fit_spec, read_returns_csv
from portmanteau.errors import ConfigError, CsvFormatError


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


ARMA_SPEC = json.dumps(
    {"model": {"kind": "arma", "phi": [0.1], "theta": [], "mu": 0.0}}
)
GARCH_SPEC = json.dumps(
    {"model": {"kind": "garch", "omega": 0.2, "alpha": [0.2, 0.1], "beta": []}}
)


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestReadReturnsCsv:
    def test_return_mode(self, tmp_path):
        path = _write(tmp_path / "r.csv", "date,return\n2020-01-01,0.5\n2020-01-02,-0.25\n")
        values = read_returns_csv(path)
        assert np.allclose(values, [0.5, -0.25])

    def test_price_mode_log_returns(self, tmp_path):
        path = _write(tmp_path / "p.csv", "date,price\n2020-01-01,100\n2020-01-02,110\n2020-01-03,99\n")
        values = read_returns_csv(path)
        assert np.allclose(values, [np.log(1.1), np.log(99 / 110)])

    def test_negative_price_rejected_with_line(self, tmp_path):
        path = _write(tmp_path / "p.csv", "date,price\n2020-01-01,100\n2020-01-02,-5\n")
        with pytest.raises(CsvFormatError) as exc:
            read_returns_csv(path)
        assert exc.value.line == 3

    def test_bad_date(self, tmp_path):
        path = _write(tmp_path / "p.csv", "date,return\n2020-01-01,0.5\nnot-a-date,0.2\n")
        with pytest.raises(CsvFormatError) as exc:
            read_returns_csv(path)
        assert exc.value.line == 3

    def test_non_increasing_dates(self, tmp_path):
        path = _write(tmp_path / "p.csv", "date,return\n2020-01-02,0.5\n2020-01-01,0.2\n")
        with pytest.raises(CsvFormatError) as exc:
            read_returns_csv(path)
        assert exc.value.line == 3

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path / "p.csv", "time,value\n2020-01-01,0.5\n")
        with pytest.raises(CsvFormatError) as exc:
            read_returns_csv(path)
        assert exc.value.line == 1

    def test_bad_number(self, tmp_path):
        path = _write(tmp_path / "p.csv", "date,return\n2020-01-01,abc\n")
        with pytest.raises(CsvFormatError) as exc:
            read_returns_csv(path)
        assert exc.value.line == 2


class TestParseFitSpec:
    def test_forms(self):
        assert parse_fit_spec("none").kind == "none"
        assert parse_fit_spec("ar:2") == parse_fit_spec("AR:2")
        assert parse_fit_spec("ar:2").p == 2
        assert parse_fit_spec("ar:aic").kind == "ar_aic"
        arma = parse_fit_spec("arma:2,1")
        assert (arma.p, arma.q) == (2, 1)
        arch = parse_fit_spec("arch:3")
        assert (arch.kind, arch.b, arch.a) == ("garch", 3, 0)
        garch = parse_fit_spec("garch:1,1")
        assert (garch.b, garch.a) == (1, 1)
        combo = parse_fit_spec("ar:1+garch:1,1")
        assert (combo.kind, combo.p, combo.b, combo.a) == ("ar_garch", 1, 1, 1)

    def test_rejects_garbage(self):
        for bad in ("ar", "ar:x", "arma:1", "garch:1", "arch:1+ar:1", "ols:2"):
            with pytest.raises(ConfigError):
                parse_fit_spec(bad)


class TestSimulateCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code, _, _ = _run(
            ["simulate", "--model", ARMA_SPEC, "--n", "50", "--seed", "3", "--out", str(out)], capsys
        )
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["date", "return"]
        assert len(rows) == 51

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        monkeypatch.setenv("PORTMANTEAU_SEED", "777")
        _run(["simulate", "--model", ARMA_SPEC, "--n", "30", "--seed", "1", "--out", str(a)], capsys)
        _run(["simulate", "--model", ARMA_SPEC, "--n", "30", "--seed", "2", "--out", str(b)], capsys)
        assert a.read_text() == b.read_text()

    def test_overflowing_model_exit_2(self, tmp_path, capsys):
        spec = json.dumps({"model": {"kind": "star", "lower_coeff": 5.0, "upper_coeff": 5.0}})
        out = tmp_path / "sim.csv"
        code, _, err = _run(["simulate", "--model", spec, "--n", "100", "--out", str(out)], capsys)
        assert code == 2
        assert "overflowed" in err
        assert not out.exists()

    def test_model_file_path(self, tmp_path, capsys):
        spec_path = _write(tmp_path / "model.json", ARMA_SPEC)
        out = tmp_path / "sim.csv"
        code, _, _ = _run(
            ["simulate", "--model", spec_path, "--n", "20", "--seed", "0", "--out", str(out)], capsys
        )
        assert code == 0


class TestTestCommand:
    def _simulate_to(self, tmp_path, capsys, spec=ARMA_SPEC, n=300, seed=5):
        out = tmp_path / "data.csv"
        code, _, _ = _run(
            ["simulate", "--model", spec, "--n", str(n), "--seed", str(seed), "--out", str(out)],
            capsys,
        )
        assert code == 0
        return str(out)

    def test_round_trip_null_behavior(self, tmp_path, capsys):
        data = self._simulate_to(tmp_path, capsys)
        code, out, _ = _run(
            ["test", data, "--fit", "ar:1", "--lags", "10", "--stats", "Cm,Q12,Q22", "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {r["statistic"] for r in rows} == {"Cm", "Q12", "Q22"}
        for r in rows:
            assert float(r["p_value"]) > 0.01

    def test_no_fit_null_pvalues(self, tmp_path, capsys):
        data = self._simulate_to(tmp_path, capsys, n=400, seed=11)
        code, out, _ = _run(["test", data, "--fit", "none", "--lags", "10"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows
        for r in rows:
            assert float(r["p_value"]) > 0.05

    def test_garch_fit_table_shape(self, tmp_path, capsys):
        data = self._simulate_to(tmp_path, capsys, spec=GARCH_SPEC, n=400, seed=6)
        code, out, _ = _run(["test", data, "--fit", "arch:2", "--lags", "5,10"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        names = {r["statistic"] for r in rows}
        assert names == {"Cm", "Q12", "Dt22", "Q22", "Qw22", "Mw22", "Lb", "Lbw"}
        assert {int(r["m"]) for r in rows} == {5, 10}
        assert len(rows) == 16

    def test_csv_json_equivalence(self, tmp_path, capsys):
        data = self._simulate_to(tmp_path, capsys)
        code, out_csv, _ = _run(["test", data, "--fit", "ar:1", "--lags", "6", "--stats", "Cm,Q11"], capsys)
        assert code == 0
        code, out_json, _ = _run(
            ["test", data, "--fit", "ar:1", "--lags", "6", "--stats", "Cm,Q11", "--format", "json"],
            capsys,
        )
        assert code == 0
        from_csv = {
            (r["statistic"], int(r["m"])): (float(r["value"]), float(r["p_value"]))
            for r in csv.DictReader(io.StringIO(out_csv))
        }
        from_json = {
            (r["statistic"], r["m"]): (r["value"], r["p_value"]) for r in json.loads(out_json)
        }
        assert from_csv == from_json

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        path = _write(tmp_path / "bad.csv", "date,price\n2020-01-01,100\n2020-01-02,-5\n")
        code, _, err = _run(["test", path, "--lags", "5"], capsys)
        assert code == 2
        assert "line 3" in err

    def test_fit_failure_exit_3(self, tmp_path, capsys):
        rows = "\n".join(f"2020-01-{d:02d},1.0" for d in range(1, 21))
        path = _write(tmp_path / "const.csv", "date,return\n" + rows + "\n")
        code, _, _ = _run(["test", path, "--fit", "ar:1", "--lags", "3"], capsys)
        assert code == 3

    def test_unknown_statistic_exit_2(self, tmp_path, capsys):
        data = self._simulate_to(tmp_path, capsys)
        code, _, _ = _run(["test", data, "--stats", "Nope", "--lags", "5"], capsys)
        assert code == 2

    def test_lags_share_one_kernel_byte_identically(self, tmp_path, capsys):
        data = self._simulate_to(tmp_path, capsys, spec=GARCH_SPEC, n=400, seed=6)
        stats = ",".join(ALL_STATISTICS)
        outputs = []
        for lags in ("5,10", "5", "10"):
            code, out, _ = _run(["test", data, "--fit", "arch:2", "--lags", lags, "--stats", stats], capsys)
            assert code == 0
            outputs.append(out.splitlines())
        both, five, ten = outputs
        assert both == five + ten[1:]

    def test_lags_checked_against_residual_length(self, tmp_path, capsys):
        # an AR(1) fit of 200 values leaves 199 residuals, so m must stay below 99.5
        data = self._simulate_to(tmp_path, capsys, n=200)
        code, out, _ = _run(["test", data, "--fit", "ar:1", "--lags", "99", "--stats", "Q11,Q12,M11"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 4
        for lags in ("150", "100", "5,100", "0", "-1"):
            code, out, err = _run(["test", data, "--fit", "ar:1", "--lags", lags, "--stats", "Q11,Q12,M11"], capsys)
            assert code == 2, lags
            assert out == ""
            assert "1 <= m < n/2" in err

    def test_non_integer_lags_exit_2(self, tmp_path, capsys):
        data = self._simulate_to(tmp_path, capsys)
        code, _, err = _run(["test", data, "--lags", "5,x"], capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_li_mak_without_variance_fit_rejected(self, tmp_path, capsys):
        data = self._simulate_to(tmp_path, capsys)
        code, _, _ = _run(["test", data, "--fit", "ar:1", "--stats", "Lb", "--lags", "5"], capsys)
        assert code == 2

    @pytest.mark.parametrize("fit, stat", [("ar:2", "Q11"), ("ar:1", "Qw11"), ("arma:1,1", "Dt11")])
    def test_statistic_without_null_exit_2(self, fit, stat, tmp_path, capsys):
        # m = 1 leaves these nulls no degrees of freedom or weight mass after the fit's order correction
        data = self._simulate_to(tmp_path, capsys)
        code, out, err = _run(["test", data, "--fit", fit, "--lags", "1", "--stats", stat], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "null distribution" in err
        code, out, _ = _run(["test", data, "--fit", fit, "--lags", "8", "--stats", stat], capsys)
        assert code == 0 and out.count(stat) == 1


class TestMcCommand:
    def test_end_to_end(self, tmp_path, capsys):
        config = {
            "schema": 1,
            "generator": {"model": {"kind": "arma", "phi": [0.1], "theta": [], "mu": 0.0}, "burn_in": 100},
            "fitter": {"kind": "ar", "p": 1, "intercept": False},
            "n": [60],
            "m": [5],
            "levels": [0.05, 0.10],
            "replications": 60,
            "statistics": ["Cm", "Q12"],
            "master_seed": 5,
        }
        cfg = _write(tmp_path / "exp.json", json.dumps(config))
        out = tmp_path / "result"
        code, _, _ = _run(["mc", "--config", cfg, "--workers", "2", "--out", str(out)], capsys)
        assert code == 0
        table_rows = list(csv.DictReader(open(str(out) + ".csv")))
        assert len(table_rows) == 2 * 1 * 1 * 2
        payload = json.loads(open(str(out) + ".json").read())
        assert payload["replications"] == 60
        curve_rows = list(csv.DictReader(open(str(out) + "_curves.csv")))
        assert {r["statistic"] for r in curve_rows} == {"Cm", "Q12"}
        # CSV and JSON report identical frequencies
        from_csv = {
            (r["statistic"], r["n"], r["m"], r["level"]): float(r["frequency"]) for r in table_rows
        }
        from_json = {
            (c["statistic"], str(c["n"]), str(c["m"]), repr(c["level"])): c["frequency"]
            for c in payload["cells"]
        }
        assert set(from_csv.values()) == set(from_json.values())

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path / "exp.json", json.dumps({"schema": 1, "bogus": True}))
        code, _, _ = _run(["mc", "--config", cfg, "--out", str(tmp_path / "x")], capsys)
        assert code == 2

    def test_m_beyond_residual_length_exit_2(self, tmp_path, capsys):
        config = {
            "schema": 1,
            "generator": {"model": {"kind": "arma", "phi": [0.1], "theta": [], "mu": 0.0}, "burn_in": 100},
            "fitter": {"kind": "ar", "p": 2},
            "n": [40],
            "m": [19],
            "replications": 5,
            "statistics": ["Cm"],
        }
        cfg = _write(tmp_path / "exp.json", json.dumps(config))
        code, _, err = _run(["mc", "--config", cfg, "--out", str(tmp_path / "x")], capsys)
        assert code == 2
        assert "residual" in err
        assert "running" not in err
        assert not (tmp_path / "x.csv").exists()


_GARCH = {"kind": "garch", "omega": 0.2, "alpha": [0.2], "beta": []}


def _experiment(fitter=None, generator=None, **overrides):
    config = {
        "schema": 1,
        "generator": generator or {"model": {"kind": "arma", "phi": [0.1]}},
        "fitter": fitter or {"kind": "ar", "p": 1},
        "n": [100],
        "m": [5],
        "replications": 5,
        "statistics": ["Cm"],
    }
    config.update(overrides)
    return json.dumps(config)


MALFORMED_MODELS = {
    "arma_garch_arma_is_garch": {"model": {"kind": "arma_garch", "arma": _GARCH, "garch": _GARCH}},
    "string_float": {"model": {"kind": "tar", "c": "abc"}},
    "string_in_tuple": {"model": {"kind": "arma", "phi": ["x"]}},
    "bool_float": {"model": {"kind": "arma", "mu": True}},
    "bool_in_tuple": {"model": {"kind": "arma", "phi": [True]}},
    "numeric_string_float": {"model": {"kind": "garch", "omega": "0.5"}},
    "scalar_tuple": {"model": {"kind": "arma", "phi": 0.5}},
    "model_not_an_object": {"model": "arma"},
    "innovation_not_an_object": {"model": {"kind": "arma"}, "innovation": "normal"},
    "unknown_law": {"model": {"kind": "arma"}, "innovation": {"law": "cauchy"}},
    "student_t_df_2": {"model": {"kind": "arma"}, "innovation": {"law": "student_t", "df": 2}},
}

MALFORMED_EXPERIMENTS = {
    "scalar_n": _experiment(n=100),
    "string_replications": _experiment(replications="many"),
    "string_fitter_order": _experiment(fitter={"kind": "ar", "p": "x"}),
    "fitter_not_an_object": _experiment(fitter="ar"),
    "unknown_law": _experiment(
        generator={"model": {"kind": "arma"}, "innovation": {"law": "cauchy"}}, fitter={"kind": "none"}
    ),
    "garch_fit_no_orders": _experiment(fitter={"kind": "garch", "b": 0, "a": 0}),
    "ar_garch_fit_no_orders": _experiment(fitter={"kind": "ar_garch", "b": 0, "a": 0}),
    "negative_ar_order": _experiment(fitter={"kind": "ar", "p": -1}),
    "negative_arch_order": _experiment(fitter={"kind": "garch", "b": -1, "a": 2}),
    "ar_aic_no_orders": _experiment(fitter={"kind": "ar_aic", "p_max": 0}),
    "true_fit_of_garch_without_orders": _experiment(
        generator={"model": {"kind": "garch"}}, fitter={"kind": "true"}
    ),
    "Q11_without_null_after_ar2": _experiment(fitter={"kind": "ar", "p": 2}, m=[1], statistics=["Q11"]),
    "Cm_without_null_after_arma44": _experiment(fitter={"kind": "arma", "p": 4, "q": 4}, m=[1]),
    "Lb_after_ar_fit": _experiment(statistics=["Cm", "Lb"]),
    "lossy_bool": _experiment(fitter={"kind": "ar", "intercept": "false"}),
    "lossy_int": _experiment(fitter={"kind": "ar", "p": 1.9}),
    "m_zero_triangular": _experiment(m=[0], statistics=["Qw11"]),
}

# fit specs that parse but that no fitter accepts
MALFORMED_FIT_SPECS = ("ar:-1", "arch:0", "garch:0,0", "arma:-1,0", "ar:1+arch:0")


def _returns_csv(tmp_path, capsys):
    out = tmp_path / "returns.csv"
    code, _, _ = _run(["simulate", "--model", ARMA_SPEC, "--n", "100", "--out", str(out)], capsys)
    assert code == 0
    return str(out)


class TestMalformedConfigs:
    """A config that cannot run exits 2 with one error line and no traceback, before any replicate."""

    def _check(self, argv, capsys):
        code, _, err = _run(argv, capsys)
        assert code == 2
        assert err.count("error:") == 1
        assert err.startswith("error:")
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("spec", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS)
    def test_simulate(self, spec, tmp_path, capsys):
        out = tmp_path / "z.csv"
        self._check(["simulate", "--model", json.dumps(spec), "--n", "50", "--out", str(out)], capsys)
        assert not out.exists()

    @pytest.mark.parametrize("config", MALFORMED_EXPERIMENTS.values(), ids=MALFORMED_EXPERIMENTS)
    def test_mc(self, config, tmp_path, capsys):
        err = self._check(["mc", "--config", config, "--workers", "1", "--out", str(tmp_path / "x")], capsys)
        assert "running" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("fit", MALFORMED_FIT_SPECS)
    @pytest.mark.parametrize("command", ["fit", "test"])
    def test_fit_spec(self, command, fit, tmp_path, capsys):
        self._check([command, _returns_csv(tmp_path, capsys), "--fit", fit], capsys)

    def test_empty_statistic_list(self, tmp_path, capsys):
        code, out, err = _run(["test", _returns_csv(tmp_path, capsys), "--stats", ","], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("error:") == 1
        assert "Traceback" not in err


class TestFitCommand:
    def test_fit_reports_estimates(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        _run(["simulate", "--model", ARMA_SPEC, "--n", "500", "--seed", "9", "--out", str(out)], capsys)
        code, text, _ = _run(["fit", str(out), "--fit", "ar:1"], capsys)
        assert code == 0
        payload = json.loads(text)
        assert payload["kind"] == "ar"
        assert abs(payload["params"]["phi"][0] - 0.1) < 0.2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "portmanteau.cli", "--help"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout

