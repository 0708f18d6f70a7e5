"""Properties of the shared lag kernel, the one-pass PACF and the direct p-values.

Each fast path is checked against the implementation it replaced, kept here as
the reference: scipy.stats' frozen-distribution survival functions for the
p-values, a separate Durbin-Levinson run at every lag order for the PACF
prefix rule, a fresh correlation pass at every m for the kernel, the per-lag
dot-product loop for the stacked lag pass, a lone kernel for each row of a
block kernel, and scipy.linalg.toeplitz for the Toeplitz gather. Equality is
exact (bit for bit), with NaN matching NaN.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import toeplitz
from scipy.stats import chi2, gamma

from portmanteau import (
    ALL_STATISTICS,
    correlogram,
    cross_corr_sequence,
    durbin_levinson,
    evaluate_statistics,
    make_residual_series,
)
from portmanteau.corrmat import _toeplitz
from portmanteau.diagnostics import (
    _chi2_dist,
    _pvalue,
    _triangular_moments,
    cm_gamma_params,
    gamma_from_moments,
)
from portmanteau.errors import PortmanteauError, SingularToeplitz
from portmanteau.residuals import LagCorrelations, durbin_levinson_prefix, pacf_prefix
from test_statistic_properties import SHAPES


def _package_nulls() -> list:
    """Every null distribution the package builds for m = 1..60 and corrections 0..3."""
    nulls = []
    for m in range(1, 61):
        for c in range(4):
            for build in (
                lambda: _chi2_dist(m, c),
                lambda: ("gamma", *cm_gamma_params(m, c)),
                lambda: ("gamma", *gamma_from_moments(*_triangular_moments(m, c, over="m"))),
                lambda: ("gamma", *gamma_from_moments(*_triangular_moments(m, c, over="m+1"))),
            ):
                try:
                    nulls.append(build())
                except PortmanteauError:
                    pass
    return nulls


NULLS = _package_nulls()
EDGE_X = [0.0, -0.0, -1.0, -1e300, 5e-324, 2.2e-308, 1e-300, 1.0, 37.5, 1e6, 1e300, math.inf, -math.inf, math.nan]


def _scipy_sf(x: float, dist: tuple) -> float:
    if dist[0] == "chi2":
        return float(chi2.sf(x, dist[1]))
    return float(gamma.sf(x, dist[1], scale=dist[2]))


def _same(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


# scipy.stats divides by the gamma scale with numpy, which warns where that
# overflows (x near the largest float); _pvalue reaches the same inf silently.
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
class TestPvalue:
    def test_nulls_cover_both_families(self):
        assert {d[0] for d in NULLS} == {"chi2", "gamma"}

    @pytest.mark.parametrize("x", EDGE_X)
    def test_edge_values_on_every_null(self, x):
        for dist in NULLS:
            assert _same(_pvalue(x, dist), _scipy_sf(x, dist)), dist

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(NULLS), st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(("chi2", 1), 3.841458820694124)
    @example(("gamma", 0.5, 2.0), 5e-324)
    def test_equals_scipy_stats(self, dist, x):
        assert _same(_pvalue(x, dist), _scipy_sf(x, dist))

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            _pvalue(1.0, ("normal", 0.0, 1.0))


def _reference_durbin_levinson(rho: np.ndarray) -> np.ndarray:
    """The single-order recursion as a separate call at each m computed it."""
    rho = np.asarray(rho, dtype=float)
    m = rho.size
    pacf = np.empty(m)
    phi = np.zeros(m)
    v = 1.0
    for k in range(1, m + 1):
        if v <= 0.0:
            raise SingularToeplitz(k - 1)
        if k == 1:
            pik = rho[0]
            phi[0] = pik
        else:
            pik = (rho[k - 1] - phi[: k - 1] @ rho[k - 2 :: -1]) / v
            phi[: k - 1] -= pik * phi[k - 2 :: -1].copy()
            phi[k - 1] = pik
        pacf[k - 1] = pik
        v *= 1.0 - pik * pik
    return pacf


def _outcome(fn, *args):
    """('pacf', bits) or ('singular', order) of one PACF computation."""
    try:
        return ("pacf", _bits(fn(*args)))
    except SingularToeplitz as exc:
        return ("singular", exc.lag)


def _assert_prefix_rule(rho: np.ndarray) -> None:
    run = durbin_levinson_prefix(rho)
    for m in range(1, rho.size + 1):
        expected = _outcome(_reference_durbin_levinson, rho[:m])
        assert _outcome(pacf_prefix, run, m) == expected, m
        assert _outcome(durbin_levinson, rho[:m]) == expected, m


# Sequences whose prediction-error variance reaches zero or below.
SINGULAR_RHO = [
    [1.0, 0.5, 0.2],  # v = 0 after order 1
    [-1.0, 1.0, -1.0, 1.0],
    [0.9, -0.9, 0.1, 0.0],  # pi_2 = -9: v < 0 after order 2
    [0.5, 0.5, 1.0, 0.3, 0.3],
    [0.999, 0.998, 0.5, -0.5, 0.9, 0.9],
    [1.0],  # order 1 is the last: no later order sees v = 0
]


class TestPacfPrefixRule:
    @pytest.mark.parametrize("rho", SINGULAR_RHO)
    def test_hand_made_singular_sequences(self, rho):
        _assert_prefix_rule(np.array(rho))

    def test_hand_made_sequences_do_break_down(self):
        assert durbin_levinson_prefix(np.array(SINGULAR_RHO[0]))[1] == 1
        assert durbin_levinson_prefix(np.array(SINGULAR_RHO[2]))[1] == 2

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(1, 40), elements=st.floats(-1.0, 1.0)))
    def test_arbitrary_sequences(self, rho):
        _assert_prefix_rule(rho)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(8, 80))
    def test_sample_autocorrelations(self, seed, n):
        s = make_residual_series(np.random.default_rng(seed).standard_normal(n))
        big_m = n // 2 - 1
        for i in (1, 2):
            _assert_prefix_rule(cross_corr_sequence(s, i, i, big_m)[1:])


class TestLagKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(8, 120))
    def test_slices_equal_separate_passes(self, seed, n):
        s = make_residual_series(np.random.default_rng(seed).standard_t(4, n))
        big_m = n // 2 - 1
        kernel = LagCorrelations(s, big_m)
        for m in range(1, big_m + 1):
            for i, j in ((1, 1), (2, 2), (1, 2), (2, 1)):
                assert _bits(kernel.rho(i, j, m)) == _bits(cross_corr_sequence(s, i, j, m))
            for i in (1, 2):
                separate = _outcome(lambda: durbin_levinson(correlogram(s, i, i, m).values))
                assert _outcome(kernel.pacf, i, m) == separate

    def test_kernel_arrays_are_read_only(self):
        s = make_residual_series(np.random.default_rng(3).standard_normal(50))
        kernel = LagCorrelations(s, 10)
        with pytest.raises(ValueError):
            kernel.rho(1, 2, 5)[0] = 0.0
        with pytest.raises(ValueError):
            kernel.pacf(1, 5)[0] = 0.0

    def test_lag_beyond_kernel(self):
        s = make_residual_series(np.random.default_rng(3).standard_normal(50))
        with pytest.raises(PortmanteauError):
            LagCorrelations(s, 10).rho(1, 1, 11)

    def test_shared_kernel_gives_the_same_reports(self):
        names = [name for name in ALL_STATISTICS if name not in ("Lb", "Lbw")]
        for seed in range(4):
            s = make_residual_series(np.random.default_rng(seed).standard_t(5, 160))
            shared = LagCorrelations(s, 40)
            for m, correction in ((1, 0), (2, 0), (7, 1), (25, 1), (40, 2)):
                own = evaluate_statistics(names, s, m, order_correction=correction)
                via_shared = evaluate_statistics(names, s, m, order_correction=correction, correlations=shared)
                for name in names:
                    a, b = own[name], via_shared[name]
                    assert (a.statistic.hex(), a.p_value.hex(), a.degenerate) == (
                        b.statistic.hex(),
                        b.p_value.hex(),
                        b.degenerate,
                    ), (name, m)

    def test_kernel_of_another_series_rejected(self):
        rng = np.random.default_rng(8)
        s = make_residual_series(rng.standard_normal(60))
        other = make_residual_series(rng.standard_normal(60))
        with pytest.raises(ValueError):
            evaluate_statistics(["Q11"], s, 5, correlations=LagCorrelations(other, 5))


KINDS = ((1, 1), (2, 2), (1, 2), (2, 1))


def _reference_cross_corr(series, i: int, j: int, m: int) -> np.ndarray:
    """rho_ij(0..m) by one dot product per lag, the loop the stacked lag pass replaced."""
    n = series.n
    fi = series.centered1 if i == 1 else series.centered2
    fj = series.centered1 if j == 1 else series.centered2
    gamma0 = {1: series.gamma11_0, 2: series.gamma22_0}
    scale = float(np.sqrt(gamma0[i] * gamma0[j])) * n
    out = np.empty(m + 1)
    out[0] = float(fi @ fj) / scale
    for k in range(1, m + 1):
        out[k] = float(fi[: n - k] @ fj[k:]) / scale
    return out


# Factors on the zero-lag variances of a block's rows. Below 1 they push the
# correlations past what a sample can reach, so those rows' Durbin-Levinson
# runs break down, each at an order of its own.
SHRINK = (1.0, 1.0, 0.999, 0.99, 0.9, 0.5)


def _block_series(seed: int, n: int, rows: int) -> list:
    """``rows`` series of length n: every shape of SHAPES in turn, the
    hand-made non-positive-definite ones among them, some with shrunk
    zero-lag variances."""
    rng = np.random.default_rng(seed)
    out = []
    for r in range(rows):
        s = make_residual_series(SHAPES[sorted(SHAPES)[r % len(SHAPES)]](n, rng))
        shrink = SHRINK[rng.integers(len(SHRINK))]
        out.append(replace(s, gamma11_0=s.gamma11_0 * shrink, gamma22_0=s.gamma22_0 * shrink))
    return out


class TestBlockKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), n=st.integers(8, 120), rows=st.integers(1, 70), big_m=st.integers(1, 119)
    )
    @example(seed=3, n=100, rows=70, big_m=49)
    def test_rows_equal_lone_kernels(self, seed, n, rows, big_m):
        big_m = min(big_m, n - 1)
        series = _block_series(seed, n, rows)
        for s, row in zip(series, LagCorrelations.stack(series, big_m)):
            assert row.series is s
            lone = LagCorrelations(s, big_m)
            for i, j in KINDS:
                assert _bits(row.rho(i, j, big_m)) == _bits(_reference_cross_corr(s, i, j, big_m))
                assert _bits(cross_corr_sequence(s, i, j, big_m)) == _bits(_reference_cross_corr(s, i, j, big_m))
                for standardized in (False, True):
                    assert _bits(row.correlogram(i, j, big_m, standardized).values) == _bits(
                        lone.correlogram(i, j, big_m, standardized).values
                    )
            for m in range(big_m + 1):
                for i, j in KINDS:
                    assert _bits(row.rho(i, j, m)) == _bits(lone.rho(i, j, m)), (i, j, m)
                for i in (1, 2):
                    assert _outcome(row.pacf, i, m) == _outcome(lone.pacf, i, m), (i, m)

    def test_rows_break_down_at_their_own_orders(self):
        series = _block_series(3, 100, 24)
        orders = set()
        for s, row in zip(series, LagCorrelations.stack(series, 49)):
            for i in (1, 2):
                expected = _outcome(_reference_durbin_levinson, _reference_cross_corr(s, i, i, 49)[1:])
                assert _outcome(row.pacf, i, 49) == expected
                orders.add(expected[1] if expected[0] == "singular" else None)
        assert None in orders and len(orders) >= 4, orders

    @pytest.mark.parametrize("shape", ["alternating", "two_level"])
    def test_rows_give_the_lone_reports(self, shape):
        names = [name for name in ALL_STATISTICS if name not in ("Lb", "Lbw")]
        rng = np.random.default_rng(5)
        series = [make_residual_series(SHAPES[shape](120, rng)) for _ in range(6)]
        degenerate = 0
        for s, row in zip(series, LagCorrelations.stack(series, 40)):
            for m, correction in ((1, 0), (7, 1), (25, 1), (40, 2)):
                own = evaluate_statistics(names, s, m, order_correction=correction)
                via_row = evaluate_statistics(names, s, m, order_correction=correction, correlations=row)
                for name in names:
                    a, b = own[name], via_row[name]
                    assert (a.statistic.hex(), a.p_value.hex(), a.degenerate) == (
                        b.statistic.hex(),
                        b.p_value.hex(),
                        b.degenerate,
                    ), (name, m)
                    degenerate += a.degenerate
        assert degenerate > 0

    def test_row_arrays_are_read_only(self):
        series = _block_series(4, 50, 3)
        row = LagCorrelations.stack(series, 10)[1]
        with pytest.raises(ValueError):
            row.rho(2, 1, 5)[0] = 0.0
        with pytest.raises(ValueError):
            row.pacf(2, 5)[0] = 0.0

    def test_unequal_lengths_rejected(self):
        rng = np.random.default_rng(6)
        series = [make_residual_series(rng.standard_normal(n)) for n in (50, 51)]
        with pytest.raises(ValueError):
            LagCorrelations.stack(series, 10)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.integers(1, 30), elements=st.floats(-2.0, 2.0)), st.data())
def test_toeplitz_gather_equals_scipy(pos, data):
    neg = data.draw(arrays(np.float64, pos.size, elements=st.floats(-2.0, 2.0)))
    assert _bits(_toeplitz(neg, pos)) == _bits(toeplitz(neg, pos))
