"""Estimation routines: AR least squares, ARMA CSS, GARCH QMLE."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from portmanteau import (
    Arma,
    ArmaGarch,
    Garch,
    ModelSpec,
    fit_ar,
    fit_ar_garch,
    fit_arma_css,
    fit_garch_qmle,
    select_ar_order_aic,
    simulate,
)
from portmanteau.errors import InvalidSpec, NonFinite, SingularDesign
from portmanteau.fitting import _MAX_ITER, _log_normaliser, _reflect_ma_roots, _unpack_garch
from portmanteau import fitting
from portmanteau.fitting import _omega_weights, fit_ar_garch_block


class TestFitAr:
    def test_consistency_ar1(self):
        z = simulate(ModelSpec(model=Arma(phi=(0.5,))), 10000, 0)
        fit = fit_ar(z, 1)
        assert abs(fit.params["phi"][0] - 0.5) < 0.02
        assert abs(fit.params["mu"]) < 0.05
        assert fit.residuals.n == 9999

    def test_p_zero_demeans(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(100) + 3.0
        fit = fit_ar(z, 0)
        assert np.allclose(fit.residuals.values, z - z.mean(), atol=1e-12)

    def test_p_zero_without_intercept_keeps_series(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal(100)
        fit = fit_ar(z, 0, intercept=False)
        assert np.allclose(fit.residuals.values, z, atol=1e-15)

    def test_no_intercept_regression(self):
        z = simulate(ModelSpec(model=Arma(phi=(0.5,))), 5000, 3)
        fit = fit_ar(z, 1, intercept=False)
        x, y = z[:-1], z[1:]
        assert fit.params["phi"][0] == pytest.approx(float(x @ y) / float(x @ x), abs=1e-12)
        assert fit.params["mu"] == 0.0

    def test_constant_series_singular(self):
        with pytest.raises((SingularDesign, Exception)):
            fit_ar(np.full(100, 2.0), 1)

    def test_needs_enough_data(self):
        with pytest.raises(InvalidSpec):
            fit_ar(np.arange(30.0), 3)

    def test_residuals_orthogonal_to_design(self):
        z = simulate(ModelSpec(model=Arma(phi=(0.3, 0.2))), 500, 4)
        fit = fit_ar(z, 2)
        resid = fit.residuals.values
        assert abs(resid.sum()) < 1e-8
        assert abs(resid @ z[1:-1]) < 1e-7


class TestSelectArOrder:
    def test_strong_ar2_selected(self):
        # AIC is not selection-consistent: with two spare candidate orders it
        # overfits ~25-30% of the time at any n, so the exact-order frequency
        # plateaus near 0.72. Assert the properties AIC does have: never
        # underfitting strong data, and the true order being modal.
        from collections import Counter

        counts = Counter()
        reps = 300
        for seed in range(reps):
            z = simulate(ModelSpec(model=Arma(phi=(0.5, 0.3))), 500, seed)
            counts[select_ar_order_aic(z, 4).order[0]] += 1
        assert (counts[2] + counts[3] + counts[4]) / reps > 0.95
        assert counts.most_common(1)[0][0] == 2
        assert counts[2] / reps > 0.6

    def test_white_noise_prefers_smallest(self):
        from collections import Counter

        counts = Counter()
        for seed in range(300):
            z = simulate(ModelSpec(model=Arma()), 200, 1000 + seed)
            counts[select_ar_order_aic(z, 4).order[0]] += 1
        assert counts.most_common(1)[0][0] == 1

    def test_pmax_one_equals_fit_ar(self):
        z = simulate(ModelSpec(model=Arma(phi=(0.4,))), 300, 5)
        a = select_ar_order_aic(z, 1)
        b = fit_ar(z, 1)
        assert a.params["phi"] == b.params["phi"]
        assert a.aic == b.aic

    def test_scale_invariance(self):
        z = simulate(ModelSpec(model=Arma(phi=(0.5, 0.2))), 400, 6)
        a = select_ar_order_aic(z, 4)
        b = select_ar_order_aic(37.5 * z, 4)
        assert a.order == b.order
        assert np.allclose(a.params["phi"], b.params["phi"], atol=1e-10)


class TestFitArmaCss:
    def test_pure_ar_agrees_with_ols(self):
        z = simulate(ModelSpec(model=Arma(phi=(0.5,))), 10000, 7)
        css = fit_arma_css(z, 1, 0)
        ols = fit_ar(z, 1)
        assert abs(css.params["phi"][0] - ols.params["phi"][0]) < 1e-4

    def test_ma1_consistency(self):
        z = simulate(ModelSpec(model=Arma(theta=(-0.5,))), 10000, 8)
        fit = fit_arma_css(z, 0, 1)
        assert abs(fit.params["theta"][0] - (-0.5)) < 0.03
        assert fit.converged

    def test_white_noise_case(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal(200) + 1.0
        fit = fit_arma_css(z, 0, 0)
        assert fit.params["mu"] == pytest.approx(z.mean(), abs=1e-14)

    def test_arma11(self):
        z = simulate(ModelSpec(model=Arma(phi=(0.6,), theta=(0.3,))), 20000, 10)
        fit = fit_arma_css(z, 1, 1)
        assert abs(fit.params["phi"][0] - 0.6) < 0.05
        assert abs(fit.params["theta"][0] - 0.3) < 0.05

    def test_a_crawling_fit_stops_at_the_iteration_cap(self):
        z = simulate(ModelSpec(model=Arma(theta=(-0.95,)), burn_in=200), 60, 4)
        fit = fit_arma_css(z, 0, 1)
        assert fit.iterations == _MAX_ITER
        assert not fit.converged
        assert set(fit.flags) == {"non_convergence", "reflected_ma_roots"}

    def test_reflection_helper(self):
        theta, reflected = _reflect_ma_roots(np.array([2.0]))
        assert reflected
        assert theta[0] == pytest.approx(0.5, abs=1e-12)
        theta, reflected = _reflect_ma_roots(np.array([0.4]))
        assert not reflected


class TestGarchQmle:
    def test_arch1_consistency_batch(self):
        hits = 0
        reps = 200
        for seed in range(reps):
            z = simulate(ModelSpec(model=Garch(omega=0.2, alpha=(0.2,))), 2000, seed)
            fit = fit_garch_qmle(z, 1, 0)
            ok = abs(fit.params["omega"] - 0.2) < 0.08 and abs(fit.params["alpha"][0] - 0.2) < 0.08
            hits += ok
        assert hits / reps >= 0.9

    def test_no_arch_collapses_to_sample_variance(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal(3000) * 1.7
        fit = fit_garch_qmle(z, 1, 0)
        assert abs(fit.params["alpha"][0]) < 0.05
        assert abs(fit.params["omega"] - z.var()) < 0.2

    def test_constraints_hold_by_construction(self):
        for seed in range(10):
            z = simulate(ModelSpec(model=Garch(omega=1.0, alpha=(0.15,), beta=(0.8,))), 800, seed)
            fit = fit_garch_qmle(z, 1, 1)
            assert fit.params["omega"] > 0
            assert all(a >= 0 for a in fit.params["alpha"])
            assert all(b >= 0 for b in fit.params["beta"])
            assert sum(fit.params["alpha"]) + sum(fit.params["beta"]) < 1.0
            assert np.all(fit.conditional_sd > 0)

    def test_standardized_residuals_are_unit_scale(self):
        z = simulate(ModelSpec(model=Garch(omega=0.2, alpha=(0.3,))), 4000, 12)
        fit = fit_garch_qmle(z, 1, 0)
        xi = fit.residuals.values
        assert abs(xi.mean()) < 0.05
        assert abs(xi.var() - 1.0) < 0.05
        assert np.allclose(xi * fit.conditional_sd, z, atol=1e-12)

    def test_garch11_recovers_parameters(self):
        z = simulate(ModelSpec(model=Garch(omega=0.5, alpha=(0.1,), beta=(0.6,))), 20000, 13)
        fit = fit_garch_qmle(z, 1, 1)
        assert abs(fit.params["alpha"][0] - 0.1) < 0.05
        assert abs(fit.params["beta"][0] - 0.6) < 0.15

    def test_orders_required(self):
        with pytest.raises(InvalidSpec):
            fit_garch_qmle(np.random.default_rng(14).standard_normal(100), 0, 0)

    def test_unconverged_screened_run_brings_in_the_other_splits(self):
        # On these AR(1) residuals of an AR(1)-ARCH(2) path the better ARCH(1)
        # split's run ends in a line-search precision loss at the optimum the
        # other split's run converges to.
        spec = ModelSpec(model=ArmaGarch(arma=Arma(phi=(0.2,)), garch=Garch(omega=0.2, alpha=(0.2, 0.2))))
        fit = fit_ar_garch(simulate(spec, 200, 4756004963084405424), 1, 1, 0, intercept=False)
        assert fit.converged
        assert fit.flags == ()

    def test_series_whose_squares_overflow_is_non_finite(self):
        z = simulate(ModelSpec(model=Garch(omega=0.2, alpha=(0.4,))), 200, 15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite):
                fit_garch_qmle(z * 1e160, 1, 0)
            large = fit_garch_qmle(z * 1e100, 1, 0)
        fit = fit_garch_qmle(z, 1, 0)
        assert large.converged and large.flags == fit.flags
        assert large.loglik + z.size * np.log(1e100) == pytest.approx(fit.loglik, abs=1e-6)
        assert large.params["omega"] / 1e200 == pytest.approx(fit.params["omega"], rel=1e-5)
        assert large.params["alpha"][0] == pytest.approx(fit.params["alpha"][0], rel=1e-5)



def _fit_bits(fit) -> tuple:
    """Everything a fit holds, floats as bytes."""
    arrays = (fit.residuals.values, fit.conditional_sd, fit.garch_eps)
    return (repr(fit.params), fit.loglik.hex(), fit.iterations, fit.converged, fit.flags, *(v.tobytes() for v in arrays))


class TestArchFace:
    """An ARCH fit whose optimum is the all-zero face alpha = 0 (omega = v0, the mean e^2) settles on it."""

    # AR(1) fits of the ar_arch benchmark's AR(1)-ARCH(2) model at n = 200.
    SPEC = ModelSpec(model=ArmaGarch(arma=Arma(phi=(0.2,)), garch=Garch(omega=0.2, alpha=(0.2, 0.2))))
    # Seeds whose ARCH(1) optimum is the face, and seeds with an interior optimum, 67 at alpha = 0.0074.
    FACE_SEEDS = (26, 36, 40, 68)
    INTERIOR_SEEDS = (7, 25, 48, 67)

    def _fit(self, seed):
        return fit_ar_garch(simulate(self.SPEC, 200, seed), 1, 1, 0, intercept=False)

    @staticmethod
    def _face_score(eps):
        """2 v0 dNLL/dalpha_1 at the face: sum_t (1 - e_t^2/v0) e^2_{t-1}, with pre-sample e^2 = v0."""
        e2 = eps * eps
        v0 = e2.mean()
        return float(np.sum((1.0 - e2 / v0) * np.concatenate(([v0], e2[:-1]))))

    def test_a_face_optimum_is_reported_exactly(self):
        fit = self._fit(40)
        e2 = fit.garch_eps * fit.garch_eps
        assert fit.params["alpha"] == (0.0,)
        assert fit.params["omega"] == e2.mean()
        assert fit.converged and fit.flags == ()
        assert np.all(fit.conditional_sd == np.sqrt(e2.mean()))
        # Before the face rule this fit crawled 24 iterations to alpha = 7.9e-9 at this log-likelihood.
        assert fit.loglik >= float.fromhex("-0x1.570063b2b881bp+7")
        assert self._face_score(fit.garch_eps) >= 0.0

    def test_block_rows_equal_lone_fits(self):
        # Face and interior rows alternate.
        seeds = [seed for pair in zip(self.FACE_SEEDS, self.INTERIOR_SEEDS) for seed in pair]
        rows = np.array([simulate(self.SPEC, 200, seed) for seed in seeds])
        block = fit_ar_garch_block(rows, 1, 1, 0, intercept=False)
        lone = [self._fit(seed) for seed in seeds]
        assert [fit.params["alpha"] == (0.0,) for fit in lone] == [True, False] * 4
        assert [_fit_bits(fit) for fit in block] == [_fit_bits(fit) for fit in lone]

    def test_a_row_whose_kkt_fails_never_takes_the_face(self, monkeypatch):
        fit = self._fit(67)
        assert self._face_score(fit.garch_eps) < 0.0
        assert 0.0 < fit.params["alpha"][0] < fitting._FACE_MASS
        # With every alpha mass small enough, only the KKT check keeps the run off the face.
        monkeypatch.setattr(fitting, "_FACE_MASS", 1.0)
        assert _fit_bits(self._fit(67)) == _fit_bits(fit)

    @pytest.mark.parametrize("b", [2, 3])
    def test_minus_infinite_logits_give_zero_weights(self, b):
        x = np.concatenate(([np.log(1.7)], np.full(b, -np.inf)))
        omega, weights = _omega_weights(x)
        assert omega == np.exp(np.log(1.7))
        assert np.all(weights == 0.0)
        omega, alpha, beta = _unpack_garch(np.concatenate((x, [0.5])), b, 1)
        assert np.all(alpha == 0.0) and 0.0 < beta[0] < 1.0


_SUBNORMALS = (5e-324, -5e-324, 1e-310, -2.2e-308)
_LOGIT = st.one_of(
    st.floats(min_value=-700.0, max_value=700.0),
    st.sampled_from((0.0, -0.0, 700.0, -700.0) + _SUBNORMALS),
)


@st.composite
def _logit_vectors(draw):
    """Length 1-4 vectors drawn from a pool no longer than the vector, so ties are common."""
    size = draw(st.integers(1, 4))
    pool = draw(st.lists(_LOGIT, min_size=1, max_size=size))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)))


class TestGarchLogNormaliser:
    """The inlined normaliser of the alpha/beta logits must be scipy's, bit for bit."""

    @settings(max_examples=500, deadline=None)
    @given(_logit_vectors())
    def test_equals_scipy_logsumexp(self, logits):
        assert _log_normaliser(logits) == logsumexp(np.concatenate(([0.0], logits)))

    @pytest.mark.parametrize(
        "logits",
        [
            [0.0], [0.0, 0.0, 0.0], [-0.0, 0.0], [3.0, 3.0], [700.0, 700.0, -700.0], [5e-324, 0.0], [-700.0] * 4,
            # summing these terms in any order but scipy's changes the result
            [0.34, 0.424, 0.371, 0.383],
        ],
    )
    def test_ties_extremes_and_sum_order(self, logits):
        logits = np.array(logits)
        assert _log_normaliser(logits) == logsumexp(np.concatenate(([0.0], logits)))

    @settings(max_examples=300, deadline=None)
    @given(_logit_vectors(), st.integers(0, 4))
    def test_unpacked_weights_are_a_subprobability(self, logits, b):
        b = min(b, logits.size)
        _, alpha, beta = _unpack_garch(np.concatenate(([0.0], logits)), b, logits.size - b)
        weights = np.concatenate((alpha, beta))
        assert weights.size == logits.size
        assert np.all(weights >= 0.0)
        # The slack 1 / (1 + sum exp(logits)) keeps the sum below 1. It is far
        # above rounding while every logit is <= 20; past ~37 it rounds away,
        # and each weight then carries the rounding of the normaliser, about
        # one spacing of the largest logit.
        top = logits.max()
        if top <= 20.0:
            assert weights.sum() < 1.0
        else:
            assert weights.sum() - 1.0 <= logits.size * (2.0 * np.spacing(top) + 4.0 * np.finfo(float).eps)


class TestArGarchComposite:
    def test_pipeline(self):
        gen = ModelSpec(model=ArmaGarch(arma=Arma(phi=(0.2,)), garch=Garch(omega=0.2, alpha=(0.2, 0.2))))
        z = simulate(gen, 2000, 15)
        fit = fit_ar_garch(z, 1, 2, 0, intercept=False)
        assert fit.kind == "ar_garch"
        assert fit.order_correction == 1
        assert fit.garch_orders == (2, 0)
        assert abs(fit.params["phi"][0] - 0.2) < 0.08
        assert abs(fit.params["alpha"][0] - 0.2) < 0.12
        assert fit.garch_eps is not None
        assert fit.conditional_sd.shape == fit.garch_eps.shape
        # standardized residuals should pass a quick whiteness sanity check
        xi = fit.residuals.values
        assert abs(np.corrcoef(xi[1:] ** 2, xi[:-1] ** 2)[0, 1]) < 0.1

    def test_null_calibration_of_li_mak_sizes(self):
        # correctly specified ARCH(1): Lb should reject near nominal rates
        from portmanteau import li_mak

        rej = 0
        reps = 300
        for seed in range(reps):
            z = simulate(ModelSpec(model=Garch(omega=0.2, alpha=(0.2,))), 300, 3000 + seed)
            fit = fit_garch_qmle(z, 1, 0)
            rep = li_mak(fit.garch_eps, fit.conditional_sd**2, 6, 1, 0)
            rej += rep.p_value < 0.05
        assert rej / reps < 0.10
