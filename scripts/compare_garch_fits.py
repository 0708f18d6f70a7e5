"""Refit the GARCH QMLE corpus on two or more source trees and compare the fits.

The corpus is seeds 0..99 of the four GARCH orders of
``scripts/bench_garch_fit.py`` (those of ``tests/test_golden_garch.py``) at
n in {200, 500}, burn-in 200: 800 series. The first tree simulates each series
once and every tree fits that same series, so a difference is the fitter's.
Each ``--tree LABEL=SRC`` loads the package found in SRC under its own module
name (``bench_garch_fit._load``).

For each later tree against the first, prints per order the worst
log-likelihood loss (first tree's log-likelihood less this tree's, over the
series), the ``non_convergence`` and ``boundary_estimate`` flags gained and
lost (each gain with its series and log-likelihood change), and each tree's
mean ``iterations`` per fit. Each tree that has ``fit_garch_block`` also
refits every order's series in blocks of ``BLOCK``, and each block row must
be its lone fit bit for bit. Exits 1 if any fit loses more than 1e-6 nats or
gains a flag, or if a block row differs from its lone fit, else 0.

Usage: python scripts/compare_garch_fits.py --tree parent=OTHER/src --tree change=src
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_garch_fit import MODELS, _load, _tree  # noqa: E402

SEEDS = range(100)
SIZES = (200, 500)
BLOCK = 8
BURN_IN = 200
TOLERANCE = 1e-6
WATCHED_FLAGS = {"non_convergence", "boundary_estimate"}


def _bits(fit) -> tuple:
    """Everything a fit holds, floats as bytes."""
    arrays = (fit.residuals.values, fit.conditional_sd, fit.garch_eps)
    scalars = (repr(fit.params), fit.loglik.hex(), fit.iterations, fit.converged, fit.flags)
    return (*scalars, *(v.tobytes() for v in arrays))


def refit(trees: dict) -> tuple[dict, dict]:
    """The fits and the block check of each tree, every tree fitting the first tree's series.

    The fits are {label: {(b, a): [FitResult per (n, seed)]}}; the check is
    {label: {(b, a): number of block rows unlike their lone fit}}, for the
    trees with ``fit_garch_block`` only.
    """
    packages = {label: _load(label, src) for label, src in trees.items()}
    reference = next(iter(packages.values()))
    fits = {label: {} for label in packages}
    mismatches = {label: {} for label, pkg in packages.items() if hasattr(pkg.fitting, "fit_garch_block")}
    for (b, a), params in MODELS.items():
        spec = reference.ModelSpec(model=reference.Garch(**params), burn_in=BURN_IN)
        for n in SIZES:
            series = [reference.simulate(spec, n, seed) for seed in SEEDS]
            for label, pkg in packages.items():
                lone = [pkg.fit_garch_qmle(z, b, a) for z in series]
                fits[label].setdefault((b, a), []).extend(lone)
                if label in mismatches:
                    rows = []
                    for k in range(0, len(series), BLOCK):
                        rows += pkg.fitting.fit_garch_block(np.array(series[k : k + BLOCK]), b, a)
                    mismatches[label][b, a] = mismatches[label].get((b, a), 0) + sum(
                        _bits(row) != _bits(fit) for row, fit in zip(rows, lone)
                    )
    return fits, mismatches


def compare(fits: dict, mismatches: dict) -> int:
    """Print the per-order comparison of each later tree with the first, and the block checks; the exit status."""
    labels = list(fits)
    base = labels[0]
    status = 0
    series = [(n, seed) for n in SIZES for seed in SEEDS]
    for label in labels[1:]:
        print(f"{label} against {base} ({len(SEEDS)} seeds x n in {SIZES} per order)")
        for order, new_fits in fits[label].items():
            old_fits = fits[base][order]
            worst = max(old.loglik - new.loglik for old, new in zip(old_fits, new_fits))
            gains = [
                (where, sorted((set(new.flags) - set(old.flags)) & WATCHED_FLAGS), new.loglik - old.loglik)
                for where, old, new in zip(series, old_fits, new_fits)
            ]
            gains = [gain for gain in gains if gain[1]]
            lost = sum(len((set(old.flags) - set(new.flags)) & WATCHED_FLAGS) for old, new in zip(old_fits, new_fits))
            iterations = {lab: np.mean([fit.iterations for fit in fits[lab][order]]) for lab in (base, label)}
            print(
                f"  GARCH({order[0]},{order[1]}): worst loss {worst:.3g} nats, "
                f"flags gained {sum(len(flags) for _, flags, _ in gains)} lost {lost}, "
                f"mean iterations {base} {iterations[base]:.1f} {label} {iterations[label]:.1f}"
            )
            for (n, seed), flags, change in gains:
                print(f"    n={n} seed {seed} gained {', '.join(flags)} with log-likelihood change {change:+.3g}")
            if worst > TOLERANCE or gains:
                status = 1
    for label, orders in mismatches.items():
        for order, count in orders.items():
            print(
                f"{label} GARCH({order[0]},{order[1]}) in blocks of {BLOCK}: "
                f"{count} of {len(series)} rows differ from their lone fit"
            )
            if count:
                status = 1
    failure = f"FAIL: a fit lost more than {TOLERANCE} nats or gained a flag, or a block row differs"
    print("PASS" if status == 0 else failure)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=_tree, action="append", required=True, help="LABEL=SRC, repeatable")
    args = parser.parse_args(argv)
    trees = dict(args.tree)
    if len(trees) < 2:
        parser.error("give at least two --tree LABEL=SRC")
    return compare(*refit(trees))


if __name__ == "__main__":
    sys.exit(main())
