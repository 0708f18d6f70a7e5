"""The exit rule of ``scripts/compare_garch_fits.py``'s ``compare``, on synthetic fits."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_garch_fits.py"
ORDER = (1, 1)


@pytest.fixture
def script(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # restored after the test; loading bench_layer sets them
    monkeypatch.syspath_prepend(str(SCRIPT.parent))  # the script imports bench_layer from its own directory
    spec = importlib.util.spec_from_file_location("compare_garch_fits", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fit(loglik, *flags):
    return SimpleNamespace(loglik=loglik, flags=flags, iterations=5)


def _status(script, new, mismatch=0):
    """``compare`` of a parent whose three fits have log-likelihood -100, unflagged, with ``new``."""
    fits = {"parent": {ORDER: [_fit(-100.0)] * 3}, "change": {ORDER: [_fit(-100.0), _fit(-100.0), new]}}
    return script.compare(fits, {"parent": {ORDER: 0}, "change": {ORDER: mismatch}})


def test_identical_fits_pass(script):
    assert _status(script, _fit(-100.0)) == 0


def test_boundary_gained_at_a_higher_likelihood_passes(script, capsys):
    assert _status(script, _fit(-99.789, "boundary_estimate")) == 0
    assert "gained boundary_estimate with log-likelihood change +0.211" in capsys.readouterr().out


@pytest.mark.parametrize("change", [0.0, 1e-7, -1e-7])
def test_boundary_gained_without_a_rise_above_the_tolerance_fails(script, change):
    assert _status(script, _fit(-100.0 + change, "boundary_estimate")) == 1


@pytest.mark.parametrize("flags", [("non_convergence",), ("non_convergence", "boundary_estimate")])
def test_non_convergence_gained_fails_even_with_a_rise(script, flags):
    assert _status(script, _fit(-99.0, *flags)) == 1


def test_a_loss_above_the_tolerance_fails(script):
    assert _status(script, _fit(-100.0 - 2e-6)) == 1
    assert _status(script, _fit(-100.0 - 5e-7)) == 0


def test_a_block_row_unlike_its_lone_fit_fails(script):
    assert _status(script, _fit(-100.0), mismatch=1) == 1
