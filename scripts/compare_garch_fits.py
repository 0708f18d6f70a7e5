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
lost, and each tree's mean ``iterations`` per fit. Exits 1 if any fit loses
more than 1e-6 nats or gains a flag, else 0.

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
BURN_IN = 200
TOLERANCE = 1e-6
WATCHED_FLAGS = {"non_convergence", "boundary_estimate"}


def refit(trees: dict) -> dict:
    """{label: {(b, a): [FitResult per (n, seed)]}}, every tree fitting the first tree's series."""
    packages = {label: _load(label, src) for label, src in trees.items()}
    reference = next(iter(packages.values()))
    fits = {label: {} for label in packages}
    for (b, a), params in MODELS.items():
        spec = reference.ModelSpec(model=reference.Garch(**params), burn_in=BURN_IN)
        series = [reference.simulate(spec, n, seed) for n in SIZES for seed in SEEDS]
        for label, pkg in packages.items():
            fits[label][b, a] = [pkg.fit_garch_qmle(z, b, a) for z in series]
    return fits


def compare(fits: dict) -> int:
    """Print the per-order comparison of each later tree with the first; the exit status."""
    labels = list(fits)
    base = labels[0]
    status = 0
    for label in labels[1:]:
        print(f"{label} against {base} ({len(SEEDS)} seeds x n in {SIZES} per order)")
        for order, new_fits in fits[label].items():
            old_fits = fits[base][order]
            worst = max(old.loglik - new.loglik for old, new in zip(old_fits, new_fits))
            gained = sum(len((set(new.flags) - set(old.flags)) & WATCHED_FLAGS) for old, new in zip(old_fits, new_fits))
            lost = sum(len((set(old.flags) - set(new.flags)) & WATCHED_FLAGS) for old, new in zip(old_fits, new_fits))
            iterations = {lab: np.mean([fit.iterations for fit in fits[lab][order]]) for lab in (base, label)}
            print(
                f"  GARCH({order[0]},{order[1]}): worst loss {worst:.3g} nats, flags gained {gained} lost {lost}, "
                f"mean iterations {base} {iterations[base]:.1f} {label} {iterations[label]:.1f}"
            )
            if worst > TOLERANCE or gained:
                status = 1
    print("PASS" if status == 0 else f"FAIL: a fit lost more than {TOLERANCE} nats or gained a flag")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=_tree, action="append", required=True, help="LABEL=SRC, repeatable")
    args = parser.parse_args(argv)
    trees = dict(args.tree)
    if len(trees) < 2:
        parser.error("give at least two --tree LABEL=SRC")
    return compare(refit(trees))


if __name__ == "__main__":
    sys.exit(main())
