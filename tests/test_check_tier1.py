"""The tier-1 verdict script's parsing and decision rule, on synthetic reports."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_tier1.py"
_spec = importlib.util.spec_from_file_location("check_tier1", SCRIPT)
check_tier1 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_tier1)

CRIT5 = "tests.test_acceptance::test_criterion_5_ar_arch_power"

REPORT = """<?xml version="1.0" encoding="utf-8"?>
<testsuites><testsuite name="pytest" errors="1" failures="1" skipped="1" tests="5">
<testcase classname="tests.test_acceptance" name="test_criterion_5_ar_arch_power"><failure message="x"/></testcase>
<testcase classname="tests.test_corrmat.TestBuildBlock" name="test_block_symmetric"/>
<testcase classname="tests.test_models" name="test_a"><skipped message="s"/></testcase>
<testcase classname="" name="tests.test_broken"><error message="collection failure"/></testcase>
<testcase classname="tests.test_models" name="test_b"/>
</testsuite></testsuites>
"""


def test_outcomes_parses_each_case(tmp_path):
    report = tmp_path / "r.xml"
    report.write_text(REPORT, encoding="utf-8")
    assert check_tier1.outcomes(report) == {
        CRIT5: "failed",
        "tests.test_corrmat.TestBuildBlock::test_block_symmetric": "passed",
        "tests.test_models::test_a": "skipped",
        "tests.test_broken": "error",
        "tests.test_models::test_b": "passed",
    }


def test_verdict():
    ok = {CRIT5: "failed", "tests.test_models::test_b": "passed"}
    assert check_tier1.verdict(ok)[0]
    assert not check_tier1.verdict({**ok, "tests.test_models::test_a": "skipped"})[0]
    assert not check_tier1.verdict({**ok, "tests.test_broken": "error"})[0]
    assert not check_tier1.verdict({**ok, "tests.test_models::test_c": "failed"})[0]
    assert not check_tier1.verdict({**ok, CRIT5: "passed"})[0]
    assert not check_tier1.verdict({})[0]
