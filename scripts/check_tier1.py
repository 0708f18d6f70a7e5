"""One-command verdict on the tier-1 test suite.

Runs the tier-1 command from ROADMAP.md,

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

with a JUnit XML report added, and exits 0 only when every collected test ran
(no collection error, no error, no skip) and the only failure is
``test_criterion_5_ar_arch_power``, which fails by design (see README.md). A
passing criterion 5 also exits 1: it means its check or its data changed.
Nothing is deselected. Extra arguments are passed on to pytest.

Usage: python scripts/check_tier1.py [pytest args...]
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_FAILURES = {"tests.test_acceptance::test_criterion_5_ar_arch_power"}


def _test_id(case: ET.Element) -> str:
    classname = case.get("classname", "")
    name = case.get("name", "")
    return f"{classname}::{name}" if classname else name


def outcomes(report: Path) -> dict[str, str]:
    """Outcome of each test case in a JUnit XML report: passed, failed, error or skipped."""
    out = {}
    for case in ET.parse(report).getroot().iter("testcase"):
        status = "passed"
        for child in case:
            if child.tag in ("failure", "error", "skipped"):
                status = {"failure": "failed"}.get(child.tag, child.tag)
                break
        out[_test_id(case)] = status
    return out


def verdict(results: dict[str, str]) -> tuple[bool, list[str]]:
    """(ok, lines): ok only if every test ran and the failures are exactly EXPECTED_FAILURES."""
    failed = {t for t, s in results.items() if s == "failed"}
    not_run = sorted(t for t, s in results.items() if s in ("error", "skipped"))
    lines = [f"{len(results)} collected, {sum(s == 'passed' for s in results.values())} passed, "
             f"{len(failed)} failed, {len(not_run)} errored or skipped"]
    lines += [f"did not run: {t} ({results[t]})" for t in not_run]
    lines += [f"unexpected failure: {t}" for t in sorted(failed - EXPECTED_FAILURES)]
    lines += [f"expected failure did not fail: {t}" for t in sorted(EXPECTED_FAILURES - failed)]
    ok = bool(results) and not not_run and failed == EXPECTED_FAILURES
    return ok, lines


def main(argv: list[str]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", f"--junitxml={report}", *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, check=False)
        if not report.is_file():
            print(f"check_tier1: pytest wrote no report (exit {proc.returncode})")
            return 1
        ok, lines = verdict(outcomes(report))
    for line in lines:
        print(f"check_tier1: {line}")
    print(f"check_tier1: {'OK' if ok else 'NOT OK'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
