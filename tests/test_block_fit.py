"""Block fits: each row of a block fit is the fit its series gives alone, bit for bit.

This covers the GARCH fits, the least-squares AR fits (with the AIC order
choice), the ARMA CSS fits and the stacked residual series every fit ends in.

The engine fits a block of replicates at once, so its tables depend on
neither the block size nor the chunk split only because of this property.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from portmanteau import (
    Arma, ArmaGarch, Garch, ModelSpec, fit_ar, fit_ar_garch, fit_arma_block, fit_arma_css, fit_garch_qmle,
    make_residual_series, select_ar_order_aic,
)
from portmanteau.errors import DegenerateVariance, InvalidSpec, NonFinite, SingularDesign
from portmanteau.fitting import fit_ar_block, fit_ar_garch_block, fit_garch_block, select_ar_order_aic_block
from portmanteau.models import _simulate_block
from portmanteau.residuals import VARIANCE_FLOOR, residual_series_block
from test_golden_garch import FIT_MODELS

AR_ARCH = ArmaGarch(arma=Arma(phi=(0.2,)), garch=Garch(omega=0.2, alpha=(0.2, 0.2)))
# name: (generator, lone fit, block fit), the four golden orders and the ar_arch fit
CASES = {
    **{
        f"garch_{order}": (model, lambda z, m=model: fit_garch_qmle(z, m.b, m.a),
                           lambda zs, m=model: fit_garch_block(zs, m.b, m.a))
        for order, model in FIT_MODELS.items()
    },
    "ar_garch": (AR_ARCH, lambda z: fit_ar_garch(z, 1, 1, 0, intercept=False),
                 lambda zs: fit_ar_garch_block(zs, 1, 1, 0, intercept=False)),
}


def _assert_same_fit(block, lone):
    assert (block.kind, block.order, block.params, block.flags) == (lone.kind, lone.order, lone.params, lone.flags)
    assert (block.loglik, block.aic, block.converged, block.iterations) == (
        lone.loglik, lone.aic, lone.converged, lone.iterations
    )
    for name in ("conditional_sd", "garch_eps"):
        assert getattr(block, name).tobytes() == getattr(lone, name).tobytes()
    assert block.residuals.values.tobytes() == lone.residuals.values.tobytes()


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=2, deadline=None)
@given(size=st.integers(1, 70), base=st.integers(0, 2**64 - 1), n=st.integers(60, 120))
@example(size=70, base=2**64 - 1, n=60)
def test_each_row_is_its_lone_fit(case, size, base, n):
    model, fit_lone, fit_block = CASES[case]
    seeds = [(base + 7919 * k) % 2**64 for k in range(size)]
    paths, finite = _simulate_block(ModelSpec(model=model, burn_in=50), n, seeds)
    assert finite.all()
    fits = fit_block(paths)
    assert len(fits) == size
    for z, fit in zip(paths, fits):
        _assert_same_fit(fit, fit_lone(z))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_failing_row_fails_alone_and_as_it_does_alone(case):
    model, fit_lone, fit_block = CASES[case]
    paths, _ = _simulate_block(ModelSpec(model=model, burn_in=50), 100, [3, 4, 5])
    rows = np.array([paths[0], np.zeros(100), paths[1] * 1e160, paths[2]])
    fits = fit_block(rows)
    assert [type(fit) for fit in fits[1:3]] == [SingularDesign, NonFinite]
    for z, fit in zip(rows, fits):
        if isinstance(fit, Exception):
            with pytest.raises(type(fit)):
                fit_lone(z)
        else:
            _assert_same_fit(fit, fit_lone(z))


# Least-squares AR fits and the stacked residual series. Each row of a block is
# checked against the per-series code the stacked code replaced, kept here as
# the reference: one lstsq on a column-stacked design, the residuals as
# ``design @ coef`` and every sum a 1-D product.


def _reference_residual_series(values):
    """(values, centered1, centered2, gamma11_0, gamma22_0) of one series, or the error it raises."""
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        return NonFinite
    with np.errstate(over="ignore", invalid="ignore"):
        c1 = v - v.mean()
        sq = v * v
        c2 = sq - sq.mean()
        g11 = float(c1 @ c1) / v.size
        g22 = float(c2 @ c2) / v.size
    if not (np.isfinite(g11) and np.isfinite(g22)):
        return NonFinite
    if min(g11, g22) < VARIANCE_FLOOR:
        return DegenerateVariance
    return v, c1, c2, g11, g22


def _reference_fit_ar(z, p, intercept):
    """(params, loglik, aic, residual series) of one least-squares AR(p) fit, or the error it raises."""
    n = z.size
    cols = ([np.ones(n - p)] if intercept else []) + [z[p - j : n - j] for j in range(1, p + 1)]
    y = z[p:]
    if cols:
        design = np.column_stack(cols)
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < len(cols):
            return SingularDesign
        resid = y - design @ coef
    else:
        coef, resid = np.empty(0), y.copy()
    sigma2 = float(resid @ resid) / resid.size
    if sigma2 <= 0.0:
        return SingularDesign
    series = _reference_residual_series(resid)
    if isinstance(series, type):
        return series
    params = {
        "mu": float(coef[0]) if intercept else 0.0,
        "phi": tuple(coef[1:]) if intercept else tuple(coef),
        "sigma2": sigma2,
        "intercept": intercept,
    }
    loglik = -0.5 * resid.size * (np.log(2.0 * np.pi) + np.log(sigma2) + 1.0)
    return params, float(loglik), float(n * np.log(sigma2) + 2.0 * len(cols)), series


def _series_bits(s):
    return (s.values.tobytes(), s.centered1.tobytes(), s.centered2.tobytes(), s.gamma11_0.hex(), s.gamma22_0.hex())


def _reference_bits(series):
    v, c1, c2, g11, g22 = series
    return (v.tobytes(), c1.tobytes(), c2.tobytes(), g11.hex(), g22.hex())


def _assert_same_ar_fit(block, lone, reference):
    assert (block.kind, block.order, block.params, block.loglik, block.aic) == (
        lone.kind, lone.order, lone.params, lone.loglik, lone.aic
    )
    assert _series_bits(block.residuals) == _series_bits(lone.residuals)
    params, loglik, aic, series = reference
    assert (block.params, block.loglik.hex(), block.aic.hex()) == (params, loglik.hex(), aic.hex())
    assert _series_bits(block.residuals) == _reference_bits(series)


def _ar_rows(size, base, n):
    """``size`` AR(2) paths of length n, scaled by 1e-3, 1 or 1e3 in turn."""
    seeds = [(base + 7919 * k) % 2**64 for k in range(size)]
    paths, finite = _simulate_block(ModelSpec(model=Arma(phi=(0.4, -0.2)), burn_in=50), n, seeds)
    assert finite.all()
    return paths * np.array([1e-3, 1.0, 1e3])[np.arange(size) % 3, None]


@settings(max_examples=6, deadline=None)
@given(size=st.integers(1, 70), base=st.integers(0, 2**64 - 1), n=st.integers(40, 120))
@example(size=70, base=2**64 - 1, n=40)
def test_each_ar_row_is_its_lone_fit(size, base, n):
    rows = _ar_rows(size, base, n)
    for p in range(4):
        for intercept in (False, True):
            fits = fit_ar_block(rows, p, intercept=intercept)
            assert len(fits) == size
            for z, fit in zip(rows, fits):
                _assert_same_ar_fit(fit, fit_ar(z, p, intercept=intercept), _reference_fit_ar(z, p, intercept))
    for p_max in range(1, 4):
        for intercept in (False, True):
            for z, fit in zip(rows, select_ar_order_aic_block(rows, p_max, intercept=intercept)):
                lone = select_ar_order_aic(z, p_max, intercept=intercept)
                references = [_reference_fit_ar(z, p, intercept) for p in range(1, p_max + 1)]
                best = min(range(p_max), key=lambda k: references[k][2])  # the first minimum, as ties go
                assert fit.order == lone.order == (best + 1, 0)
                _assert_same_ar_fit(fit, lone, references[best])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("intercept", [False, True])
def test_a_failing_ar_row_fails_as_it_does_alone(p, intercept):
    paths = _ar_rows(3, 11, 100)
    rows = np.array([paths[0], np.zeros(100), paths[1] * 1e160, paths[2]])
    # Beside lagged values near 1e160 a constant column is below lstsq's rank cutoff.
    lagged_and_constant = SingularDesign if intercept else NonFinite
    fits = fit_ar_block(rows, p, intercept=intercept)
    assert [type(fit) for fit in fits[1:3]] == [SingularDesign, lagged_and_constant if p else NonFinite]
    for z, fit in zip(rows, fits):
        if isinstance(fit, Exception):
            with pytest.raises(type(fit)):
                fit_ar(z, p, intercept=intercept)
            assert _reference_fit_ar(z, p, intercept) is type(fit)
        else:
            _assert_same_ar_fit(fit, fit_ar(z, p, intercept=intercept), _reference_fit_ar(z, p, intercept))
    aic_fits = select_ar_order_aic_block(rows, 3, intercept=intercept)
    assert [type(fit) for fit in aic_fits[1:3]] == [SingularDesign, lagged_and_constant]
    for z, fit in zip(rows, aic_fits):
        if isinstance(fit, Exception):
            with pytest.raises(type(fit)):
                select_ar_order_aic(z, 3, intercept=intercept)


@settings(max_examples=20, deadline=None)
@given(size=st.integers(1, 70), seed=st.integers(0, 2**32 - 1), n=st.integers(4, 300))
@example(size=70, seed=0, n=4)
def test_each_stacked_residual_series_is_its_lone_series(size, seed, n):
    rng = np.random.default_rng(seed)
    rows = rng.standard_t(4, (size, n)) * np.array([1e-50, 1.0, 1e50])[np.arange(size) % 3, None]
    for z, series in zip(rows, residual_series_block(rows)):
        assert _series_bits(series) == _series_bits(make_residual_series(z)) == _reference_bits(
            _reference_residual_series(z)
        )


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_failing_residual_row_fails_as_it_does_alone():
    rng = np.random.default_rng(2)
    good = rng.standard_normal(50)
    nan = good.copy()
    nan[7] = np.nan
    rows = np.array([good, np.full(50, 2.5), nan, good * 1e160, -good])
    out = residual_series_block(rows)
    assert [type(entry) for entry in out[1:4]] == [DegenerateVariance, NonFinite, NonFinite]
    for z, entry in zip(rows, out):
        if isinstance(entry, Exception):
            with pytest.raises(type(entry)):
                make_residual_series(z)
            assert _reference_residual_series(z) is type(entry)
        else:
            assert _series_bits(entry) == _series_bits(make_residual_series(z))


# ARMA fits by conditional sum of squares: the BFGS runs of a block go in lock
# step, and each row must still be its lone fit bit for bit.

ARMA_ORDERS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (0, 2)]


def _assert_same_arma_fit(block, lone):
    assert (block.kind, block.order, repr(block.params), block.flags) == (
        lone.kind, lone.order, repr(lone.params), lone.flags
    )
    assert (block.loglik.hex(), block.aic.hex(), block.converged, block.iterations) == (
        lone.loglik.hex(), lone.aic.hex(), lone.converged, lone.iterations
    )
    assert _series_bits(block.residuals) == _series_bits(lone.residuals)


@pytest.mark.parametrize("order", ARMA_ORDERS)
@settings(max_examples=2, deadline=None)
@given(size=st.integers(1, 40), base=st.integers(0, 2**64 - 1), n=st.integers(60, 150))
@example(size=40, base=2**64 - 1, n=60)
def test_each_arma_row_is_its_lone_fit(order, size, base, n):
    seeds = [(base + 7919 * k) % 2**64 for k in range(size)]
    paths, finite = _simulate_block(ModelSpec(model=Arma(phi=(0.6,), theta=(0.3,)), burn_in=50), n, seeds)
    assert finite.all()
    rows = paths * np.array([1e-3, 1.0, 1e3])[np.arange(size) % 3, None]
    fits = fit_arma_block(rows, *order)
    assert len(fits) == size
    for z, fit in zip(rows, fits):
        _assert_same_arma_fit(fit, fit_arma_css(z, *order))


@pytest.mark.parametrize("order", ARMA_ORDERS)
def test_a_failing_arma_row_fails_as_it_does_alone(order):
    p, q = order
    paths, _ = _simulate_block(ModelSpec(model=Arma(phi=(0.6,), theta=(0.3,)), burn_in=50), 100, [3, 4])
    # A constant row, and a row of period 2, whose AR(2) starting design is singular.
    rows = np.array([paths[0], np.full(100, 2.5), np.tile([1.0, -1.0], 50), paths[1]])
    fits = fit_arma_block(rows, p, q)
    assert type(fits[1]) is (SingularDesign if p else DegenerateVariance)
    if p == 2:
        assert type(fits[2]) is SingularDesign
    for z, fit in zip(rows, fits):
        if isinstance(fit, Exception):
            with pytest.raises(type(fit)):
                fit_arma_css(z, p, q)
        else:
            _assert_same_arma_fit(fit, fit_arma_css(z, p, q))
    short = rows[:, : 10 * max(p, q, 1)]
    assert all(type(fit) is InvalidSpec for fit in fit_arma_block(short, p, q))
    with pytest.raises(InvalidSpec):
        fit_arma_css(short[0], p, q)
