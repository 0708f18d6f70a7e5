"""Simulators: distributional properties, reproducibility, serialization."""

import numpy as np
import pytest

from portmanteau import (
    Arma,
    ArmaGarch,
    Bilinear,
    Garch,
    Innovation,
    ModelSpec,
    Sqar,
    Star,
    Tar,
    simulate,
    spec_from_dict,
    spec_to_dict,
)
from portmanteau.errors import ConfigError, InvalidSpec


class TestInnovations:
    def test_normal_moments(self):
        rng = np.random.default_rng(0)
        x = Innovation("normal").draw(rng, 10**6)
        assert abs(x.mean()) < 0.005
        assert abs(x.var() - 1.0) < 0.005

    def test_student_t_unit_variance(self):
        rng = np.random.default_rng(1)
        x = Innovation("student_t", df=5.0).draw(rng, 10**6)
        assert abs(x.mean()) < 0.005
        assert abs(x.var() - 1.0) < 0.01

    def test_skew_normal_centered_and_skewed(self):
        rng = np.random.default_rng(2)
        x = Innovation("skew_normal", slant=1.5).draw(rng, 10**6)
        assert abs(x.mean()) < 0.005
        assert abs(x.var() - 1.0) < 0.01
        skew = np.mean(((x - x.mean()) / x.std()) ** 3)
        assert skew > 0.1

    def test_unknown_law(self):
        rng = np.random.default_rng(3)
        with pytest.raises(InvalidSpec):
            Innovation("cauchy").draw(rng, 10)

    def test_t_needs_df_above_two(self):
        rng = np.random.default_rng(4)
        with pytest.raises(InvalidSpec):
            Innovation("student_t", df=2.0).draw(rng, 10)


class TestSimulateBasics:
    def test_reproducible_bitwise(self):
        spec = ModelSpec(model=Arma(phi=(0.5,), theta=(0.2,)))
        a = simulate(spec, 500, 42)
        b = simulate(spec, 500, 42)
        assert np.array_equal(a, b)
        c = simulate(spec, 500, 43)
        assert not np.array_equal(a, c)

    def test_iid_degenerate_model(self):
        z = simulate(ModelSpec(model=Arma()), 40000, 7)
        assert abs(z.var() - 1.0) < 3.0 / np.sqrt(40000) * 2
        assert abs(z.mean()) < 3.0 / np.sqrt(40000)

    def test_arma_mean_parameter(self):
        z = simulate(ModelSpec(model=Arma(phi=(0.5,), mu=10.0)), 50000, 8)
        assert abs(z.mean() - 10.0) < 0.05

    def test_minimum_length(self):
        with pytest.raises(InvalidSpec):
            simulate(ModelSpec(model=Arma()), 5, 0)

    def test_spec_validated(self):
        with pytest.raises(InvalidSpec):
            simulate(ModelSpec(model=Arma(phi=(1.2,))), 50, 0)


class TestGarchSimulation:
    def test_constant_variance_collapse(self):
        # alpha = 0 makes the variance recursion constant at omega
        spec = ModelSpec(model=Garch(omega=0.2, alpha=(0.0,)))
        z = simulate(spec, 1000, 11)
        rng = np.random.default_rng(np.random.SeedSequence(11))
        xi = rng.standard_normal(spec.burn_in + 1000)
        assert np.allclose(z, np.sqrt(0.2) * xi[spec.burn_in :], atol=1e-14)

    def test_unconditional_variance(self):
        spec = ModelSpec(model=Garch(omega=0.2, alpha=(0.2,), beta=(0.3,)))
        z = simulate(spec, 200000, 12)
        assert abs(z.var() - 0.4) < 0.02

    def test_constraints(self):
        with pytest.raises(InvalidSpec):
            Garch(omega=0.0, alpha=(0.1,)).validate()
        with pytest.raises(InvalidSpec):
            Garch(omega=0.1, alpha=(-0.1,)).validate()
        with pytest.raises(InvalidSpec):
            Garch(omega=0.1, alpha=(0.5,), beta=(0.5,)).validate()

    def test_arma_garch_composition(self):
        spec = ModelSpec(
            model=ArmaGarch(arma=Arma(phi=(0.2,)), garch=Garch(omega=0.2, alpha=(0.2, 0.2)))
        )
        z = simulate(spec, 100000, 13)
        # AR(1) on ARCH innovations: var = var_eps / (1 - phi^2)
        assert abs(z.var() - (0.2 / 0.6) / (1 - 0.04)) < 0.02
        lag1 = np.corrcoef(z[1:], z[:-1])[0, 1]
        assert abs(lag1 - 0.2) < 0.02


class TestArmaValidation:
    def test_nonstationary_rejected(self):
        with pytest.raises(InvalidSpec):
            Arma(phi=(1.01,)).validate()

    def test_noninvertible_rejected(self):
        with pytest.raises(InvalidSpec):
            Arma(theta=(-1.05,)).validate()

    def test_common_roots_rejected(self):
        # phi(B) = 1 - 0.5B and theta(B) = 1 - 0.5B share the root B = 2
        with pytest.raises(InvalidSpec):
            Arma(phi=(0.5,), theta=(-0.5,)).validate()


class TestTarStar:
    def test_regime_collapse_equals_ar1(self):
        # identical regimes reduce the threshold model to a plain AR(1); both
        # paths consume the same innovation stream, so they agree bitwise
        tar = ModelSpec(model=Tar(phi1_lower=0.5, phi1_upper=0.5, c=0.0))
        ar = ModelSpec(model=Arma(phi=(0.5,)))
        a = simulate(tar, 400, 21)
        b = simulate(ar, 400, 21)
        assert np.allclose(a, b, atol=1e-12)

    def test_star_equal_coefficients_collapse(self):
        star = ModelSpec(model=Star(lower_coeff=0.4, upper_coeff=0.4))
        ar = ModelSpec(model=Arma(phi=(0.4,)))
        a = simulate(star, 400, 22)
        b = simulate(ar, 400, 22)
        assert np.allclose(a, b, atol=1e-12)

    def test_tar_switches_regimes(self):
        spec = ModelSpec(model=Tar(phi1_lower=-1.5, phi1_upper=0.5, c=0.0))
        z = simulate(spec, 50000, 23)
        assert np.isfinite(z).all()
        assert z.mean() > 0.3  # asymmetric regimes push the level up

    def test_sqar_level(self):
        z = simulate(ModelSpec(model=Sqar(latent_phi=0.6)), 100000, 24)
        # E[z] = Var(y) = 1/(1-0.36)
        assert abs(z.mean() - 1.0 / 0.64) < 0.05


class TestBilinear:
    @pytest.mark.parametrize("model_id", range(1, 9))
    def test_loop_oracle(self, model_id):
        spec = ModelSpec(model=Bilinear(model_id=model_id), burn_in=100)
        n = 300
        z = simulate(spec, n, 31)
        rng = np.random.default_rng(np.random.SeedSequence(31))
        e = rng.standard_normal(spec.burn_in + n)
        total = e.size
        w = np.zeros(total)
        for t in range(2, total):
            if model_id == 1:
                w[t] = e[t] - 0.4 * e[t - 1] + 0.3 * e[t - 2] + 0.5 * e[t] * e[t - 2]
            elif model_id == 2:
                w[t] = e[t] - 0.3 * e[t - 1] + 0.2 * e[t - 2] + 0.4 * e[t] * e[t - 2] - 0.25 * e[t - 2] ** 2
            elif model_id == 3:
                w[t] = 0.4 * w[t - 1] - 0.3 * w[t - 2] + 0.5 * w[t - 1] * e[t - 1] + e[t]
            elif model_id in (4, 5):
                w[t] = 0.4 * w[t - 1] - 0.3 * w[t - 2] + (0.8 + 0.5 * w[t - 1]) * e[t - 1] + e[t]
            elif model_id == 6:
                w[t] = 0.5 - (0.4 - 0.4 * e[t - 1]) * w[t - 1] + e[t]
            elif model_id == 7:
                w[t] = 0.8 * e[t - 2] ** 2 + e[t]
            elif model_id == 8:
                w[t] = e[t] + 0.3 * e[t - 1] + (0.2 + 0.4 * e[t - 1] - 0.25 * e[t - 2]) * e[t - 2]
        assert np.allclose(z, w[spec.burn_in :], atol=1e-12)

    def test_model_ids_validated(self):
        with pytest.raises(InvalidSpec):
            Bilinear(model_id=9).validate()


class TestStationaritySmoke:
    @pytest.mark.parametrize(
        "model",
        [
            Arma(phi=(0.9,)),
            Arma(theta=(-0.8,)),
            Garch(omega=1.0, alpha=(0.15,), beta=(0.8,)),
            ArmaGarch(arma=Arma(phi=(0.2,)), garch=Garch(omega=0.2, alpha=(0.2, 0.2))),
            Tar(phi1_lower=-1.5, phi1_upper=0.5),
            Star(lower_coeff=0.8, upper_coeff=-0.8),
            Sqar(),
            Bilinear(model_id=6),
        ],
    )
    def test_long_paths_finite(self, model):
        z = simulate(ModelSpec(model=model), 100000, 99)
        assert np.isfinite(z.mean())
        assert np.isfinite(z).all()


class TestSerialization:
    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(model=Arma(phi=(0.1, 0.2), theta=(0.3,), mu=1.5)),
            ModelSpec(model=Garch(omega=0.2, alpha=(0.2,), beta=(0.5,))),
            ModelSpec(
                model=ArmaGarch(arma=Arma(phi=(0.2,)), garch=Garch(omega=0.1, alpha=(0.3,)))
            ),
            ModelSpec(model=Tar(phi0_lower=0.1, phi1_lower=-1.5, phi1_upper=0.5, c=0.2)),
            ModelSpec(model=Star(lower_coeff=-0.5, upper_coeff=0.4)),
            ModelSpec(model=Sqar(latent_phi=0.6)),
            ModelSpec(model=Bilinear(model_id=7), innovation=Innovation("student_t"), burn_in=200),
        ],
    )
    def test_round_trip(self, spec):
        again = spec_from_dict(spec_to_dict(spec))
        assert again == spec
        assert np.array_equal(simulate(spec, 50, 1), simulate(again, 50, 1))

    def test_unknown_keys_rejected(self):
        d = spec_to_dict(ModelSpec(model=Arma(phi=(0.1,))))
        d["model"]["extra"] = 1
        with pytest.raises(ConfigError):
            spec_from_dict(d)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_dict({"model": {"kind": "var"}})

    def test_invalid_spec_rejected_at_parse(self):
        with pytest.raises(InvalidSpec):
            spec_from_dict({"model": {"kind": "garch", "omega": -1.0, "alpha": [0.1], "beta": []}})
