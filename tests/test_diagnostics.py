"""Test statistics, their null approximations and the projection machinery."""

import numpy as np
import pytest
from scipy.stats import chi2, gamma

from portmanteau import (
    ALL_STATISTICS,
    Arma,
    ModelSpec,
    box_pierce,
    build_qm,
    cm_decomposition,
    cm_gamma_params,
    cm_moment_sums,
    cm_statistic,
    cm_test,
    combo_eigenvalues,
    correlogram,
    cross_correlation,
    evaluate_statistics,
    fit_ar,
    gamma_from_moments,
    li_mak,
    ljung_box,
    make_residual_series,
    monti,
    pena_d,
    pena_dtilde,
    residual_pacf,
    simulate,
    weighted_m,
    weighted_q,
)
from portmanteau.diagnostics import null_distribution
from portmanteau.errors import InvalidOrder, InvalidSpec, LagTooLarge, NonPositiveDf, NonStationary, NonInvertible
from portmanteau.residuals import CorrSequence


def _corr(kind, values):
    values = np.asarray(values, dtype=float)
    return CorrSequence(kind=kind, lags=np.arange(1, values.size + 1), values=values)


class TestCmGammaParams:
    def test_m10_correction1(self):
        shape, scale = cm_gamma_params(10, 1)
        assert shape == pytest.approx(19008.0 / 2208.0, abs=1e-12)
        assert scale == pytest.approx(2208.0 / 792.0, abs=1e-12)
        assert shape * scale == pytest.approx(24.0, abs=1e-12)

    def test_m20_correction1(self):
        shape, scale = cm_gamma_params(20, 1)
        assert shape * scale == pytest.approx(44.0, abs=1e-12)
        assert shape * scale * scale == pytest.approx(8.0 * 22 * 43 / (3 * 21), abs=1e-10)

    def test_zero_correction_mean(self):
        for m in range(1, 40):
            shape, scale = cm_gamma_params(m, 0)
            assert shape * scale == pytest.approx(2.0 * m + 5.0, rel=1e-14)

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            cm_gamma_params(0, 0)
        with pytest.raises(InvalidOrder):
            cm_gamma_params(5, 15)  # mean would be 0

    def test_consistency_with_moment_matcher(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(1, 60))
            s = int(rng.integers(0, 3))
            a = cm_gamma_params(m, s)
            b = gamma_from_moments(*cm_moment_sums(m, s))
            assert a[0] == pytest.approx(b[0], rel=1e-12)
            assert a[1] == pytest.approx(b[1], rel=1e-12)


@pytest.mark.parametrize("name", ALL_STATISTICS)
def test_no_null_at_m_zero(name):
    with pytest.raises((InvalidOrder, NonPositiveDf)):
        null_distribution(name, 0)


@pytest.mark.parametrize("name", ALL_STATISTICS)
def test_a_memoized_null_is_the_null_and_an_error_raises_every_time(name):
    null = null_distribution(name, 7, 1, (1, 0))
    assert null_distribution(name, 7, 1, (1, 0)) is null
    assert null == null_distribution.__wrapped__(name, 7, 1, (1, 0))
    for _ in range(3):
        with pytest.raises((InvalidOrder, NonPositiveDf)):
            null_distribution(name, 0, 1, (1, 0))


class TestGammaFromMoments:
    def test_equal_weights_give_chi_square(self):
        for m in (1, 5, 17):
            shape, scale = gamma_from_moments(float(m), float(m))
            assert shape == pytest.approx(m / 2.0, abs=1e-14)
            assert scale == pytest.approx(2.0, abs=1e-14)

    def test_single_weight(self):
        shape, scale = gamma_from_moments(1.0, 1.0)
        assert (shape, scale) == (0.5, 2.0)

    def test_invalid(self):
        with pytest.raises(InvalidOrder):
            gamma_from_moments(0.0, 1.0)


class TestQuadraticFormTests:
    def test_ljung_box_hand_arithmetic(self):
        rep = ljung_box(_corr("rho11", [0.1, -0.05]), n=100)
        expected = 100 * 102 * (0.1**2 / 99 + 0.05**2 / 98)
        assert rep.statistic == pytest.approx(expected, abs=1e-12)
        assert rep.dist == ("chi2", 2)
        assert rep.p_value == pytest.approx(chi2.sf(expected, 2), abs=1e-14)

    def test_box_pierce_hand_arithmetic(self):
        rep = box_pierce(_corr("rho11", [0.1, -0.05]), n=100)
        assert rep.statistic == pytest.approx(100 * (0.1**2 + 0.05**2), abs=1e-12)
        assert rep.statistic == pytest.approx(1.25, abs=1e-12)

    def test_zero_correlations(self):
        rep = ljung_box(_corr("rho22", np.zeros(5)), n=50)
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0

    def test_df_rules(self):
        # residual autocorrelations: df = m - correction; others: df = m
        assert ljung_box(_corr("rho11", [0.1, 0.1, 0.1]), 100, order_correction=1).dist == ("chi2", 2)
        assert ljung_box(_corr("rho22", [0.1, 0.1, 0.1]), 100, order_correction=1).dist == ("chi2", 3)
        assert ljung_box(_corr("rho12", [0.1, 0.1, 0.1]), 100, order_correction=1).dist == ("chi2", 3)
        assert ljung_box(_corr("rho21", [0.1, 0.1, 0.1]), 100, order_correction=1).dist == ("chi2", 3)

    def test_non_positive_df(self):
        with pytest.raises(NonPositiveDf):
            ljung_box(_corr("rho11", [0.1, 0.1]), 100, order_correction=2)

    def test_names(self):
        assert ljung_box(_corr("rho12", [0.1]), 50).name == "Q12"
        assert ljung_box(_corr("rho21", [0.1]), 50).name == "Q21"
        assert box_pierce(_corr("rho12", [0.1]), 50).name == "Qt12"
        assert box_pierce(_corr("rho11", [0.1]), 50).name == "Q_BP"

    def test_weighted_q_assembly(self):
        rng = np.random.default_rng(1)
        s = make_residual_series(rng.standard_normal(100))
        m = 4
        rho = correlogram(s, 1, 1, m).values
        n = s.n
        expected = n * (n + 2.0) * sum(
            (m - k + 1.0) / m * rho[k - 1] ** 2 / (n - k) for k in range(1, m + 1)
        )
        rep = weighted_q(s, m, which="residual")
        assert rep.statistic == pytest.approx(expected, abs=1e-12)

    def test_weighted_q_hand_numbers(self):
        # n=100, m=2, rho = (0.1, -0.05)
        expected = 100 * 102 * ((2 / 2) * 0.01 / 99 + (1 / 2) * 0.0025 / 98)
        n, m = 100, 2
        rho = np.array([0.1, -0.05])
        k = np.arange(1, 3)
        got = n * (n + 2.0) * np.sum((m - k + 1.0) / m * rho**2 / (n - k))
        assert got == pytest.approx(expected, abs=1e-12)


class TestPacfTests:
    def test_monti_assembly(self):
        rng = np.random.default_rng(2)
        s = make_residual_series(rng.standard_normal(120))
        m = 5
        pac = residual_pacf(s, m)
        n = s.n
        expected = n * (n + 2.0) * sum(pac[k - 1] ** 2 / (n - k) for k in range(1, m + 1))
        assert monti(s, m).statistic == pytest.approx(expected, abs=1e-10)

    def test_monti_hand_formula(self):
        # n=100, m=1, pi = 0.2 -> 100*102*0.04/99
        assert 100 * 102 * 0.04 / 99 == pytest.approx(4.1212, abs=5e-5)

    def test_monti_df(self):
        rng = np.random.default_rng(3)
        s = make_residual_series(rng.standard_normal(120))
        assert monti(s, 5, order_correction=2, which="residual").dist == ("chi2", 3)
        assert monti(s, 5, order_correction=2, which="squared").dist == ("chi2", 5)

    def test_weighted_m_gamma_null(self):
        rng = np.random.default_rng(4)
        s = make_residual_series(rng.standard_normal(120))
        rep = weighted_m(s, 6, which="squared")
        tag, shape, scale = rep.dist
        assert tag == "gamma"
        # weight sums: S1 = (m+1)/2, S2 = (m+1)(2m+1)/(6m)
        assert shape * scale == pytest.approx(3.5, rel=1e-12)
        assert shape * scale**2 == pytest.approx(2.0 * 7 * 13 / 36, rel=1e-12)


class TestDeterminantTests:
    def test_pena_d_m1_closed_form(self):
        rng = np.random.default_rng(5)
        s = make_residual_series(rng.standard_normal(100))
        r1 = cross_correlation(s, 1, 1, 1)
        rep = pena_d(s, 1, which="residual")
        assert rep.statistic == pytest.approx(s.n * r1 * r1, abs=1e-10)

    def test_pena_d_hand_example(self):
        # |R(1)| = 1 - 0.3^2 = 0.91 -> D = 100 * (1 - 0.91) = 9.0
        assert 100 * (1 - (1 - 0.3**2)) == pytest.approx(9.0, abs=1e-12)

    def test_pena_dtilde_m1_closed_form(self):
        rng = np.random.default_rng(6)
        s = make_residual_series(rng.standard_normal(98))
        n = s.n
        r1 = cross_correlation(s, 1, 1, 1) * np.sqrt((n + 2.0) / (n - 1.0))
        rep = pena_dtilde(s, 1, which="residual")
        assert rep.statistic == pytest.approx(-(n / 2.0) * np.log(1 - r1 * r1), abs=1e-10)

    def test_dtilde_pacf_product_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = make_residual_series(rng.standard_normal(150))
            m = int(rng.integers(2, 12))
            rep = pena_dtilde(s, m, which="squared")
            acf = correlogram(s, 2, 2, m, standardized=True).values
            from portmanteau import durbin_levinson

            pac = durbin_levinson(acf)
            w = m + 1.0 - np.arange(1, m + 1)
            expected = -(s.n / (m + 1.0)) * float(w @ np.log1p(-pac * pac))
            assert rep.statistic == pytest.approx(expected, abs=1e-9)

    def test_pena_d_standardized_flag(self):
        rng = np.random.default_rng(55)
        s = make_residual_series(rng.standard_normal(90))
        plain = pena_d(s, 4, which="squared")
        std = pena_d(s, 4, standardized=True, which="squared")
        assert plain.statistic != std.statistic
        from portmanteau import build_toeplitz, logdet_pd

        ld = logdet_pd(build_toeplitz(s, 2, 2, 4, standardized=True))
        assert std.statistic == pytest.approx(s.n * (1.0 - np.exp(ld / 4)), abs=1e-10)

    def test_identity_matrix_gives_zero(self):
        # all-zero sample correlations cannot be constructed from data easily;
        # the m=1 closed form already covers the zero case via r1 -> 0 scaling
        shape, scale = gamma_from_moments(0.5, 0.375)
        assert gamma.sf(0.0, shape, scale=scale) == pytest.approx(1.0)


class TestCmStatistic:
    def test_matches_brute_force_block_logdet(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal(50)
        s = make_residual_series(z)
        m = 6
        d = m + 1
        block = np.empty((2 * d, 2 * d))
        for r in range(d):
            for c in range(d):
                block[r, c] = cross_correlation(s, 1, 1, c - r)
                block[r, d + c] = cross_correlation(s, 1, 2, c - r)
                block[d + r, c] = cross_correlation(s, 2, 1, c - r)
                block[d + r, d + c] = cross_correlation(s, 2, 2, c - r)
        sign, ld = np.linalg.slogdet(block)
        assert sign == 1.0
        expected = -(s.n / (m + 1.0)) * ld
        assert cm_statistic(s, m) == pytest.approx(expected, abs=1e-9)

    def test_null_mean_matches_gamma_approximation(self):
        # raw iid series, no fitting: mean of the statistic approaches 2m+5
        rng = np.random.default_rng(9)
        vals = [cm_statistic(make_residual_series(rng.standard_normal(200)), 10) for _ in range(4000)]
        assert abs(np.mean(vals) - 25.0) / 25.0 < 0.03

    def test_report_fields(self):
        rng = np.random.default_rng(10)
        s = make_residual_series(rng.standard_normal(150))
        rep = cm_test(s, 8, p_plus_q=1)
        assert rep.name == "Cm"
        assert rep.dist[0] == "gamma"
        assert 0.0 <= rep.p_value <= 1.0
        assert rep.statistic >= -1e-9

    def test_decomposition_close_for_large_n(self):
        for seed in range(12):
            z = simulate(ModelSpec(model=Arma(phi=(0.1,))), 1500, seed)
            fit = fit_ar(z, 1, intercept=False)
            c = cm_statistic(fit.residuals, 10)
            d = cm_decomposition(fit.residuals, 10)
            assert abs(c - d) / c < 0.05


class TestLiMak:
    def test_brute_force_oracle(self):
        e = np.array([0.3, -1.1, 2.0, 0.4, -0.6, 1.3, -0.2, 0.9])
        s2 = np.array([0.8, 1.1, 0.9, 1.4, 1.0, 0.7, 1.2, 1.3])
        m, b, a = 3, 1, 0
        ratio = e**2 / s2
        rbar = ratio.mean()
        d = ratio - rbar
        den = d @ d
        rho = np.array([(d[k:] @ d[:-k]) / den for k in range(1, m + 1)])
        unweighted = 8 * float(rho @ rho)
        rep = li_mak(e, s2, m, b, a, weighted=False)
        assert rep.statistic == pytest.approx(unweighted, abs=1e-12)
        wts = (m - np.arange(1, m + 1) + (b + 1.0)) / m
        rep_w = li_mak(e, s2, m, b, a, weighted=True)
        assert rep_w.statistic == pytest.approx(8 * float(wts @ (rho * rho)), abs=1e-12)

    def test_weight_endpoints(self):
        m, b = 5, 2
        k = np.arange(1, m + 1)
        wts = (m - k + (b + 1.0)) / m
        assert wts[0] == pytest.approx((m + b) / m)
        assert wts[-1] == pytest.approx((b + 1.0) / m)

    def test_df_and_errors(self):
        e = np.random.default_rng(11).standard_normal(60)
        s2 = np.ones(60)
        assert li_mak(e, s2, 6, 1, 1).dist == ("chi2", 4)
        with pytest.raises(NonPositiveDf):
            li_mak(e, s2, 2, 1, 1)


class TestQmMatrix:
    def test_ar1_expansion_column(self):
        qm = build_qm([0.5], [], 3)
        col = qm.X[:, 0]
        assert np.allclose(col, [1.0, 0.5, 0.25], atol=1e-14)

    def test_trivial_no_parameters(self):
        qm = build_qm([], [], 8)
        assert np.allclose(qm.Q, 0.0)

    def test_idempotent_and_rank(self):
        # idempotency requires the expansion to die out within the m rows, so
        # inverse roots are kept away from the unit circle
        rng = np.random.default_rng(12)
        done = 0
        while done < 100:
            p = int(rng.integers(1, 3))
            phi = rng.uniform(-0.6, 0.6, p)
            roots = np.roots(np.concatenate(([1.0], -phi))[::-1])
            if roots.size and np.abs(1.0 / roots).max() > 0.6:
                continue
            qm = build_qm(phi, [], 30)
            err = np.abs(qm.Q @ qm.Q - qm.Q).max()
            assert err < 1e-8
            assert abs(np.trace(qm.Q) - p) < 1e-6
            done += 1

    def test_exact_v_matches_truncated_gram_for_pure_ar(self):
        phi = np.array([0.4, 0.2])
        qm = build_qm(phi, [], 10)
        assert qm.exact_v
        # direct truncated Gram oracle
        from portmanteau.diagnostics import _inverse_poly_coeffs

        exp = _inverse_poly_coeffs(phi, 6000)
        cols = []
        for j in (1, 2):
            col = np.zeros(6000)
            col[j - 1 :] = exp[: 6000 - (j - 1)]
            cols.append(col)
        big = np.column_stack(cols)
        assert np.abs(big.T @ big - qm.V).max() < 1e-8

    def test_ma_and_mixed(self):
        qm = build_qm([], [0.5], 25)
        assert qm.exact_v
        assert abs(np.trace(qm.Q) - 1.0) < 1e-6
        mixed = build_qm([0.4], [0.3], 25)
        assert not mixed.exact_v
        assert abs(np.trace(mixed.Q) - 2.0) < 1e-5

    def test_eigenvalue_sum_approaches_null_mean(self):
        for phi, s in (([0.5], 1), ([0.2, 0.3], 2)):
            m = 25
            qm = build_qm(phi, [], m)
            lam = combo_eigenvalues(qm)
            target = 2.0 * m + 5.0 - s
            assert abs(lam.sum() - target) / target < 0.01

    def test_root_checks(self):
        with pytest.raises(NonStationary):
            build_qm([1.05], [], 5)
        with pytest.raises(NonInvertible):
            build_qm([], [-1.2], 5)


class TestEvaluateStatistics:
    def test_all_statistics_computable(self):
        rng = np.random.default_rng(13)
        s = make_residual_series(rng.standard_normal(200))
        eps = rng.standard_normal(200)
        sigma2 = 0.5 + 0.2 * rng.random(200)
        reports = evaluate_statistics(
            ALL_STATISTICS, s, 8, order_correction=1,
            garch_eps=eps, garch_sigma2=sigma2, garch_orders=(1, 0),
        )
        assert set(reports) == set(ALL_STATISTICS)
        for rep in reports.values():
            assert 0.0 <= rep.p_value <= 1.0
            assert rep.m == 8

    def test_li_mak_requires_variances(self):
        rng = np.random.default_rng(14)
        s = make_residual_series(rng.standard_normal(100))
        with pytest.raises(InvalidSpec):
            evaluate_statistics(["Lb"], s, 5)

    def test_unknown_name_rejected(self):
        rng = np.random.default_rng(15)
        s = make_residual_series(rng.standard_normal(100))
        with pytest.raises(InvalidSpec):
            evaluate_statistics(["Zx"], s, 5)

    def test_null_p_values_roughly_uniform(self):
        rng = np.random.default_rng(16)
        names = ("Cm", "Q11", "Q22", "Q12", "Dt22", "Mw22")
        hits = {name: 0 for name in names}
        reps = 400
        for _ in range(reps):
            s = make_residual_series(rng.standard_normal(300))
            out = evaluate_statistics(names, s, 10)
            for name in names:
                hits[name] += out[name].p_value < 0.05
        for name, h in hits.items():
            assert h / reps < 0.12, name


class TestLagOrderRule:
    """Every table row applies the 1 <= m < n/2 rule of the Toeplitz and block builders."""

    @pytest.mark.parametrize("name", [n for n in ALL_STATISTICS if n not in ("Lb", "Lbw")])
    def test_every_row_rejects_m_at_half_n(self, name):
        series = make_residual_series(np.random.default_rng(3).standard_normal(199))
        evaluate_statistics([name], series, 99)
        with pytest.raises(LagTooLarge):
            evaluate_statistics([name], series, 100)
        with pytest.raises(LagTooLarge):
            evaluate_statistics([name], series, 0)

    def test_public_functions_share_the_rule(self):
        series = make_residual_series(np.random.default_rng(4).standard_normal(60))
        for test in (weighted_q, monti, weighted_m):
            with pytest.raises(LagTooLarge):
                test(series, 30)
