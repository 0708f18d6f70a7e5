"""Evaluate the benchmark designs on two or more source trees and compare every report bit for bit.

For each workload of ``WORKLOADS`` in ``scripts/bench_layer.py`` (bench/run.py's
ar_null, battery and ar_arch configs, read as they are), each tree simulates
the first ``REPLICATES`` (32) replicate seeds of the config's master seed at
each n of the config (``models._simulate_block``), fits the finite paths with
the config's fitter (``montecarlo._fit_rows``), correlates the fits
(``montecarlo._lag_kernels``) and evaluates them (``montecarlo.evaluate_fit``).
Every statistic the fitter admits is evaluated at every m of ``M_LIST`` that
``montecarlo.check_statistics`` accepts for that n: m < n_resid/2 on the
residual series the fitter leaves, and a null under the fitter's largest
order correction. So the ar_arch fits take all twenty statistics, Lb and Lbw
included. The lag orders a fit takes with the same statistics go through one
``evaluate_fit`` call. Each ``--tree LABEL=SRC`` loads the package found in
SRC under its own module name (``bench_layer._load``).

Every later tree is compared with the first, report by report: the statistic
and p-value bits, ``dist``, ``order_correction`` and ``degenerate``, and the
set of reports itself. For each statistic with a differing report it prints
how many differ, the worst relative change of the statistic and of the
p-value, and how many degenerate flags changed, so a change meant to move
bits shows by how much. Prints PASS and exits 0 only when every report
matches, else prints the first mismatches and FAIL and exits 1.

Usage: python scripts/compare_reports.py --tree parent=OTHER/src --tree change=src
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_layer import WORKLOADS, _load, _tree  # noqa: E402

M_LIST = (1, 6, 10, 30)
REPLICATES = 32
SHOWN = 10


def _bits(report) -> tuple:
    """What a report holds, floats as their hex or repr, so that equal tuples mean equal bits."""
    return (
        report.name, report.m, report.statistic.hex(), report.p_value.hex(), repr(report.dist),
        report.order_correction, report.degenerate,
    )


def _admitted(pkg, fitter, n: int) -> dict:
    """{statistics: lag orders} of the (statistic, m) pairs ``check_statistics`` accepts at n, grouped by m."""
    groups: dict[tuple, list] = {}
    for m in M_LIST:
        names = []
        for name in pkg.ALL_STATISTICS:
            try:
                pkg.montecarlo.check_statistics(fitter, (name,), (m,), (n,))
            except pkg.errors.InvalidSpec:
                continue
            names.append(name)
        if names:
            groups.setdefault(tuple(names), []).append(m)
    return groups


def evaluate(pkg, replicates: int) -> dict:
    """{(workload, n, replicate, m, statistic): report bits} of one tree's package."""
    out = {}
    for workload, config in WORKLOADS.items():
        exp = pkg.experiment_from_dict(config)
        fitter = exp.fitter.resolve(exp.generator)
        seeds = [pkg.montecarlo.replicate_seed(exp.master_seed, rep) for rep in range(replicates)]
        for n in exp.n_list:
            paths, finite = pkg.models._simulate_block(exp.generator, n, seeds)
            reps = [rep for rep in range(replicates) if finite[rep]]
            fits = pkg.montecarlo._fit_rows(paths[finite], fitter)
            tested = [(rep, fit) for rep, fit in zip(reps, fits) if not isinstance(fit, pkg.errors.PortmanteauError)]
            rep_of = {id(fit): rep for rep, fit in tested}
            groups = _admitted(pkg, fitter, n)
            for fit, kernel in pkg.montecarlo._lag_kernels([fit for _, fit in tested], max(M_LIST)):
                for names, m_list in groups.items():
                    for m, reports in zip(m_list, pkg.montecarlo.evaluate_fit(fit, names, m_list, kernel)):
                        for name, report in reports.items():
                            out[workload, n, rep_of[id(fit)], m, name] = _bits(report)
    return out


def _relative(old: str, new: str) -> float:
    """|new - old| / |old| of two floats given as hex.

    Equal bits, NaN included, give 0; an old 0 or a value that is not finite gives inf.
    """
    if old == new:
        return 0.0
    a, b = float.fromhex(old), float.fromhex(new)
    return abs(b - a) / abs(a) if a and math.isfinite(a) and math.isfinite(b) else math.inf


def _by_statistic(base: dict, other: dict, differ: list) -> None:
    """Print, per statistic with a differing report, how many differ and how many changed their degenerate flag.

    The worst relative changes of the statistic and the p-value are over the reports whose flag held.
    """
    changes: dict[str, list] = {}
    for key in differ:
        old, new = base[key], other[key]
        changes.setdefault(old[0], []).append((old[6] != new[6], _relative(old[2], new[2]), _relative(old[3], new[3])))
    for name, rows in sorted(changes.items()):
        kept = [row for row in rows if not row[0]]
        statistic = max((row[1] for row in kept), default=0.0)
        p_value = max((row[2] for row in kept), default=0.0)
        print(
            f"  {name}: {len(rows)} differ, {len(rows) - len(kept)} degenerate flags changed; "
            f"the others' statistic by at most {statistic:.2g} and p-value by at most {p_value:.2g}, relative"
        )


def compare(reports: dict) -> int:
    """Print each later tree's report mismatches against the first tree, then PASS or FAIL; the exit status."""
    labels = list(reports)
    base = reports[labels[0]]
    status = 0
    for label in labels[1:]:
        other = reports[label]
        missing = sorted(set(base) - set(other))
        extra = sorted(set(other) - set(base))
        differ = sorted(key for key in set(base) & set(other) if base[key] != other[key])
        print(
            f"{label} against {labels[0]}: {len(base)} reports, {len(differ)} differ, "
            f"{len(missing)} missing, {len(extra)} extra"
        )
        _by_statistic(base, other, differ)
        for key in differ[:SHOWN]:
            print(f"  {key}: {base[key]} != {other[key]}")
        for what, keys in (("missing", missing), ("extra", extra)):
            for key in keys[:SHOWN]:
                print(f"  {what}: {key}")
        if differ or missing or extra or not base:
            status = 1
    print("PASS" if status == 0 else "FAIL: a report differs, or the trees evaluated different reports")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=_tree, action="append", required=True, help="LABEL=SRC, repeatable")
    args = parser.parse_args(argv)
    trees = dict(args.tree)
    if len(trees) < 2:
        parser.error("give at least two --tree LABEL=SRC")
    return compare({label: evaluate(_load(label, src), REPLICATES) for label, src in trees.items()})


if __name__ == "__main__":
    sys.exit(main())
