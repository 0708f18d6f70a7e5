"""The exit rule of ``scripts/compare_reports.py``'s ``compare``, on synthetic reports."""

import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_reports.py"
KEY = ("ar_arch", 200, 0, 6, "Lb")


@pytest.fixture
def script(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # restored after the test; loading bench_layer sets them
    monkeypatch.syspath_prepend(str(SCRIPT.parent))  # the script imports bench_layer from its own directory
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(**changes):
    fields = {
        "name": "Lb", "m": 6, "statistic": 3.25, "p_value": 0.5171, "dist": ("chi2", 5), "order_correction": 1,
        "degenerate": False,
    }
    return SimpleNamespace(**{**fields, **changes})


def _status(script, new, key=KEY):
    """``compare`` of a parent holding one report at ``KEY`` with a change holding ``new`` at ``key``."""
    return script.compare({"parent": {KEY: script._bits(_report())}, "change": {key: script._bits(new)}})


def test_identical_reports_pass(script, capsys):
    assert _status(script, _report()) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"


def test_identical_degenerate_reports_pass(script):
    degenerate = {"parent": {KEY: script._bits(_report(statistic=math.nan, p_value=0.0, degenerate=True))}}
    degenerate["change"] = dict(degenerate["parent"])
    assert script.compare(degenerate) == 0


@pytest.mark.parametrize(
    "changes",
    [
        {"statistic": math.nextafter(3.25, 4.0)},
        {"p_value": math.nextafter(0.5171, 1.0)},
        {"dist": ("chi2", 4)},
        {"dist": ("gamma", 2.5, 2.0)},
        {"order_correction": 2},
        {"degenerate": True},
        {"statistic": math.nan},
    ],
    ids=["statistic_bit", "p_value_bit", "df", "dist_kind", "order_correction", "degenerate", "nan_statistic"],
)
def test_any_field_that_differs_fails(script, changes, capsys):
    assert _status(script, _report(**changes)) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("FAIL")


def test_a_report_missing_or_extra_fails(script):
    assert _status(script, _report(), key=(*KEY[:4], "Lbw")) == 1


def test_no_reports_fails(script):
    assert script.compare({"parent": {}, "change": {}}) == 1


def test_differences_are_summed_per_statistic(script, capsys):
    keys = [(*KEY[:4], name) for name in ("D22", "Q11")] + [(*KEY[:3], 10, "D22")]
    parent = {key: script._bits(_report(name=key[4])) for key in keys}
    change = dict(parent)
    change[keys[0]] = script._bits(_report(name="D22", statistic=3.25 * (1 + 2e-9), p_value=0.5171 * (1 - 4e-12)))
    change[keys[2]] = script._bits(_report(name="D22", statistic=math.nan, p_value=0.0, degenerate=True))
    assert script.compare({"parent": parent, "change": change}) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "change against parent: 3 reports, 2 differ, 0 missing, 0 extra"
    assert out[1] == (
        "  D22: 2 differ, 1 degenerate flags changed; the others' statistic by at most 2e-09 and p-value by at most "
        "4e-12, relative"
    )
    assert out[-1].startswith("FAIL")
