"""Core residual-series operations: centering, correlations, PACF."""

import numpy as np
import pytest

from portmanteau import (
    cross_correlation,
    cross_corr_sequence,
    correlogram,
    durbin_levinson,
    garch_standardized_sq_acf,
    make_residual_series,
    pacf,
    residual_pacf,
    standardize_correlation,
)
from portmanteau.errors import (
    DegenerateVariance,
    LagOutOfRange,
    NonFinite,
    NonPositiveVariance,
    SingularToeplitz,
    TooShort,
)
from portmanteau.residuals import garch_standardized_sq_acfs


class TestMakeResidualSeries:
    def test_hand_example(self):
        s = make_residual_series([1.0, 2.0, -3.0, 0.0])
        assert s.n == 4
        assert s.gamma11_0 == pytest.approx(3.5, abs=1e-14)
        assert s.gamma22_0 == pytest.approx(12.25, abs=1e-14)

    def test_centering_sums_to_zero(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(257) * 3.0 + 1.2
        s = make_residual_series(v)
        scale = np.abs(v).max()
        assert abs(s.centered1.sum()) < 1e-10 * s.n * scale
        assert abs(s.centered2.sum()) < 1e-10 * s.n * scale**2

    def test_too_short(self):
        with pytest.raises(TooShort):
            make_residual_series([1.0, 2.0, 3.0])

    def test_non_finite(self):
        with pytest.raises(NonFinite):
            make_residual_series([1.0, np.nan, 2.0, 3.0])
        with pytest.raises(NonFinite):
            make_residual_series([1.0, np.inf, 2.0, 3.0])

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateVariance):
            make_residual_series([2.5, 2.5, 2.5, 2.5])

    def test_alternating_signs_degenerate_in_squares(self):
        # squares are constant even though the series is not
        with pytest.raises(DegenerateVariance):
            make_residual_series([1.0, -1.0, 1.0, -1.0])


class TestCrossCorrelation:
    def setup_method(self):
        self.s = make_residual_series([1.0, 2.0, -3.0, 0.0])

    def test_lag_one_hand_oracle(self):
        # gamma12(1) = (1*0.5 + 2*5.5 + (-3)*(-3.5)) / 4 = 5.5
        expected = 5.5 / np.sqrt(3.5 * 12.25)
        assert cross_correlation(self.s, 1, 2, 1) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.83996, abs=5e-6)

    def test_lag_zero_hand_oracle(self):
        expected = -4.5 / np.sqrt(3.5 * 12.25)
        assert cross_correlation(self.s, 1, 2, 0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.68724, abs=5e-6)

    def test_autocorrelation_at_lag_zero_is_one(self):
        assert cross_correlation(self.s, 1, 1, 0) == pytest.approx(1.0, abs=1e-14)
        assert cross_correlation(self.s, 2, 2, 0) == pytest.approx(1.0, abs=1e-14)

    def test_lag_out_of_range(self):
        with pytest.raises(LagOutOfRange):
            cross_correlation(self.s, 1, 2, 4)
        with pytest.raises(LagOutOfRange):
            cross_correlation(self.s, 1, 2, -4)

    def test_antisymmetry_bridge_exact(self):
        rng = np.random.default_rng(3)
        s = make_residual_series(rng.standard_normal(64))
        for k in range(1, 20):
            assert cross_correlation(s, 1, 2, -k) == cross_correlation(s, 2, 1, k)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = make_residual_series(rng.standard_normal(30))
            for i in (1, 2):
                for j in (1, 2):
                    for k in range(1, 30):
                        assert abs(cross_correlation(s, i, j, k)) <= 1.0 + 1e-12

    def test_shift_scale_invariance_autocorrelation(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(100)
        s1 = make_residual_series(v)
        s2 = make_residual_series(4.2 * v + 7.9)
        for k in range(1, 12):
            assert cross_correlation(s1, 1, 1, k) == pytest.approx(
                cross_correlation(s2, 1, 1, k), abs=1e-12
            )

    def test_sequence_matches_scalar(self):
        rng = np.random.default_rng(6)
        s = make_residual_series(rng.standard_normal(50))
        seq = cross_corr_sequence(s, 1, 2, 10)
        for k in range(11):
            assert seq[k] == pytest.approx(cross_correlation(s, 1, 2, k), abs=1e-15)


class TestStandardize:
    def test_formula(self):
        assert standardize_correlation(0.5, 0, 98) == pytest.approx(
            0.5 * np.sqrt(100.0 / 98.0), abs=1e-12
        )
        assert standardize_correlation(0.5, 0, 98) == pytest.approx(0.505076, abs=1e-6)

    def test_zero_passes_through(self):
        assert standardize_correlation(0.0, 5, 50) == 0.0

    def test_lag_sign_symmetry(self):
        assert standardize_correlation(0.37, -5, 60) == standardize_correlation(0.37, 5, 60)

    def test_lag_bound(self):
        with pytest.raises(LagOutOfRange):
            standardize_correlation(0.1, 60, 60)


def _direct_pacf(rho, m):
    """Straight matrix evaluation of the partial-autocorrelation formula."""
    from scipy.linalg import toeplitz

    rho = np.asarray(rho)
    out = np.empty(m)
    out[0] = rho[0]
    for k in range(2, m + 1):
        r = rho[: k - 1]
        rstar = rho[k - 2 :: -1]
        R = toeplitz(np.concatenate(([1.0], rho[: k - 2])))
        Rinv_r = np.linalg.solve(R, r)
        Rinv_rstar = np.linalg.solve(R, rstar)
        out[k - 1] = (rho[k - 1] - r @ Rinv_rstar) / (1.0 - r @ Rinv_r)
    return out


class TestPacf:
    def test_white_noise(self):
        assert np.allclose(durbin_levinson(np.zeros(10)), 0.0)

    def test_ar1_analytic(self):
        rho = 0.5 ** np.arange(1, 11)
        pac = durbin_levinson(rho)
        assert pac[0] == pytest.approx(0.5, abs=1e-14)
        assert np.abs(pac[1:]).max() < 1e-12

    def test_hand_example_order_two(self):
        pac = durbin_levinson(np.array([0.5, 0.4]))
        assert pac[1] == pytest.approx((0.4 - 0.25) / (1.0 - 0.25), abs=1e-14)

    def test_matches_direct_solve_on_random_pd_sequences(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(45, 120))
            m = int(rng.integers(2, 21))
            s = make_residual_series(rng.standard_normal(n))
            rho = cross_corr_sequence(s, 1, 1, m)[1:]
            worst = max(worst, np.abs(durbin_levinson(rho) - _direct_pacf(rho, m)).max())
        assert worst < 1e-10

    def test_singular_toeplitz_reports_order(self):
        with pytest.raises(SingularToeplitz) as exc:
            durbin_levinson(np.array([1.0, 0.5]))
        assert exc.value.lag == 1

    def test_pacf_wrapper_kinds(self):
        rng = np.random.default_rng(8)
        s = make_residual_series(rng.standard_normal(200))
        seq = correlogram(s, 1, 1, 5)
        out = pacf(seq)
        assert out.source == "residuals"
        assert out.values.shape == (5,)
        with pytest.raises(ValueError):
            pacf(correlogram(s, 1, 2, 5))

    def test_residual_pacf_bounded(self):
        rng = np.random.default_rng(9)
        s = make_residual_series(rng.standard_normal(150))
        for which in ("residuals", "squared_residuals"):
            pac = residual_pacf(s, 12, which=which)
            assert np.abs(pac).max() < 1.0


class TestGarchStandardizedAcf:
    def test_unit_variance_reduction(self):
        rng = np.random.default_rng(10)
        e = rng.standard_normal(40)
        ones = np.ones(40)
        for k in (1, 2, 5):
            r = e * e
            d = r - r.mean()
            expected = (d[k:] @ d[:-k]) / (d @ d)
            assert garch_standardized_sq_acf(e, ones, k) == pytest.approx(expected, abs=1e-14)

    def test_fixed_eight_point_brute_force(self):
        e = np.array([0.3, -1.1, 2.0, 0.4, -0.6, 1.3, -0.2, 0.9])
        s2 = np.array([0.8, 1.1, 0.9, 1.4, 1.0, 0.7, 1.2, 1.3])
        k = 2
        ratio = e**2 / s2
        rbar = ratio.mean()
        num = sum((ratio[t] - rbar) * (ratio[t - k] - rbar) for t in range(k, 8))
        den = sum((ratio[t] - rbar) ** 2 for t in range(8))
        assert garch_standardized_sq_acf(e, s2, k) == pytest.approx(num / den, abs=1e-14)

    def test_constant_ratio_degenerate(self):
        e = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DegenerateVariance):
            garch_standardized_sq_acf(e, e * e, 1)

    def test_non_positive_variance(self):
        with pytest.raises(NonPositiveVariance):
            garch_standardized_sq_acf(np.ones(5), np.array([1.0, 1.0, 0.0, 1.0, 1.0]), 1)

    def test_lag_bounds(self):
        with pytest.raises(LagOutOfRange):
            garch_standardized_sq_acf(np.ones(5), np.ones(5), 5)

    def test_all_lags_match_single_lag_bit_for_bit(self):
        rng = np.random.default_rng(11)
        e = rng.standard_normal(60)
        s2 = rng.uniform(0.5, 2.0, 60)
        rho = garch_standardized_sq_acfs(e, s2, 12)
        assert rho.tolist() == [garch_standardized_sq_acf(e, s2, k) for k in range(1, 13)]
        with pytest.raises(LagOutOfRange):
            garch_standardized_sq_acfs(e, s2, 60)
