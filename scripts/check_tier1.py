"""One-command verdict on the tier-1 test suite.

Runs the tier-1 command from ROADMAP.md,

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

with a JUnit XML report added, and exits 0 only when every collected test ran
(no collection error, no error, no skip) and the only failure is
``test_criterion_5_ar_arch_power``, which fails by design (see README.md). A
passing criterion 5 also exits 1: it means its check or its data changed.
Nothing is deselected. Extra arguments are passed on to pytest. It also prints
the suite's wall time and its five slowest tests, as the report records them.
A run of the whole suite (no extra arguments) writes them to
``BENCH_tier1.json`` at the repository root, with each test file's summed time
and the collected, passed and failed counts, so the suite time has a record.

Usage: python scripts/check_tier1.py [pytest args...]
"""

from __future__ import annotations

import itertools
import json
import os
import platform
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


def timings(report: Path) -> tuple[float, list[tuple[float, str]]]:
    """(the suite's time, its five slowest tests as (seconds, id), slowest first) from a JUnit XML report."""
    root = ET.parse(report).getroot()
    total = sum(float(suite.get("time", 0.0)) for suite in root.iter("testsuite"))
    cases = sorted(((float(case.get("time", 0.0)), _test_id(case)) for case in root.iter("testcase")), reverse=True)
    return total, cases[:5]


def _test_file(case: ET.Element) -> str:
    """The path of a test case's file, from its dotted module path: the class names start upper case."""
    parts = (case.get("classname") or case.get("name", "")).split(".")
    return "/".join(itertools.takewhile(lambda part: not part[:1].isupper(), parts)) + ".py"


def file_times(report: Path) -> dict[str, float]:
    """Each test file's summed test time in seconds, slowest first, from a JUnit XML report."""
    sums: dict[str, float] = {}
    for case in ET.parse(report).getroot().iter("testcase"):
        path = _test_file(case)
        sums[path] = sums.get(path, 0.0) + float(case.get("time", 0.0))
    return dict(sorted(sums.items(), key=lambda item: (-item[1], item[0])))


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
        results = outcomes(report)
        ok, lines = verdict(results)
        total, slowest = timings(report)
        files = file_times(report)
    if not argv:
        counts = {status: sum(s == status for s in results.values()) for status in ("passed", "failed")}
        record = {
            "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
            "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
            "suite_s": round(total, 3),
            "collected": len(results),
            **counts,
            "slowest": [{"test": test, "s": round(seconds, 3)} for seconds, test in slowest],
            "files_s": {path: round(seconds, 3) for path, seconds in files.items()},
        }
        (ROOT / "BENCH_tier1.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    lines.append(f"suite time {total:.1f} s")
    lines += [f"slow: {seconds:.2f} s {test}" for seconds, test in slowest]
    for line in lines:
        print(f"check_tier1: {line}")
    print(f"check_tier1: {'OK' if ok else 'NOT OK'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
