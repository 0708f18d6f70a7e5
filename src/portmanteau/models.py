"""Seeded simulators for the generating processes used in the size/power studies.

Every simulator is a pure function of (spec, n, seed): the same inputs produce
bitwise-identical output regardless of where or how often they run. Burn-in
samples are generated and discarded so the retained path is effectively
stationary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .errors import ConfigError, InvalidSpec

DEFAULT_BURN_IN = 500


@dataclass(frozen=True)
class Innovation:
    """Innovation law for the simulators; all laws have mean 0 and variance 1.

    "student_t" draws are scaled by sqrt((df-2)/df) so the variance is exactly
    one; "skew_normal" uses the given slant in the standard skew-normal density
    and is then centered and scaled.
    """

    law: str = "normal"  # "normal" | "student_t" | "skew_normal"
    df: float = 5.0
    slant: float = 1.5

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.law == "normal":
            return rng.standard_normal(size)
        if self.law == "student_t":
            if self.df <= 2:
                raise InvalidSpec("student_t innovations need df > 2 for unit variance")
            return rng.standard_t(self.df, size) * np.sqrt((self.df - 2.0) / self.df)
        if self.law == "skew_normal":
            delta = self.slant / np.sqrt(1.0 + self.slant**2)
            u0 = rng.standard_normal(size)
            u1 = rng.standard_normal(size)
            z = delta * np.abs(u0) + np.sqrt(1.0 - delta * delta) * u1
            mean = delta * np.sqrt(2.0 / np.pi)
            sd = np.sqrt(1.0 - 2.0 * delta * delta / np.pi)
            return (z - mean) / sd
        raise InvalidSpec(f"unknown innovation law {self.law!r}")


def _poly_roots_outside(coeffs: tuple, label: str) -> None:
    if not coeffs:
        return
    poly = np.concatenate(([1.0], -np.asarray(coeffs, dtype=float)))
    roots = np.roots(poly[::-1])
    if roots.size and np.min(np.abs(roots)) <= 1.0:
        raise InvalidSpec(f"{label} polynomial must have all roots outside the unit circle")


@dataclass(frozen=True)
class Arma:
    """phi(B)(z_t - mu) = theta(B) e_t with phi(B) = 1 - phi_1 B - ...,
    theta(B) = 1 + theta_1 B + ...."""

    phi: tuple = ()
    theta: tuple = ()
    mu: float = 0.0

    @property
    def p(self) -> int:
        return len(self.phi)

    @property
    def q(self) -> int:
        return len(self.theta)

    def validate(self) -> None:
        _poly_roots_outside(self.phi, "autoregressive")
        _poly_roots_outside(tuple(-t for t in self.theta), "moving-average")
        if self.phi and self.theta:
            ar_roots = np.roots(np.concatenate(([1.0], -np.asarray(self.phi)))[::-1])
            ma_roots = np.roots(np.concatenate(([1.0], np.asarray(self.theta)))[::-1])
            for r in ar_roots:
                if np.any(np.abs(ma_roots - r) < 1e-8):
                    raise InvalidSpec("autoregressive and moving-average polynomials share a root")


@dataclass(frozen=True)
class Garch:
    """e_t = s_t xi_t with s_t^2 = omega + sum alpha_i e_{t-i}^2 + sum beta_j s_{t-j}^2."""

    omega: float = 1.0
    alpha: tuple = ()
    beta: tuple = ()

    @property
    def b(self) -> int:
        return len(self.alpha)

    @property
    def a(self) -> int:
        return len(self.beta)

    def validate(self) -> None:
        if self.omega <= 0.0:
            raise InvalidSpec("omega must be strictly positive")
        if any(x < 0.0 for x in self.alpha) or any(x < 0.0 for x in self.beta):
            raise InvalidSpec("alpha and beta coefficients must be non-negative")
        if sum(self.alpha) + sum(self.beta) >= 1.0:
            raise InvalidSpec("sum of alpha and beta must be below 1")

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - sum(self.alpha) - sum(self.beta))


@dataclass(frozen=True)
class ArmaGarch:
    arma: Arma = field(default_factory=Arma)
    garch: Garch = field(default_factory=Garch)

    def validate(self) -> None:
        self.arma.validate()
        self.garch.validate()


@dataclass(frozen=True)
class Tar:
    """Two-regime AR(1): intercept/slope pair (lower) when z_{t-1} <= c,
    (upper) otherwise; unit-variance Gaussian-by-default innovations."""

    phi0_lower: float = 0.0
    phi1_lower: float = 0.0
    phi0_upper: float = 0.0
    phi1_upper: float = 0.0
    c: float = 0.0

    def validate(self) -> None:
        pass


@dataclass(frozen=True)
class Star:
    """Smooth-transition AR(1): z_t = lo*z_{t-1}(1-F(z_{t-1})) + hi*z_{t-1}F(z_{t-1}) + e_t
    with logistic transition F(z) = 1/(1+exp(-z))."""

    lower_coeff: float = 0.0
    upper_coeff: float = 0.0

    def validate(self) -> None:
        pass


@dataclass(frozen=True)
class Sqar:
    """Squared-AR model: z_t = y_t^2 + e_t with latent y_t = phi y_{t-1} + v_t."""

    latent_phi: float = 0.6

    def validate(self) -> None:
        if abs(self.latent_phi) >= 1.0:
            raise InvalidSpec("latent autoregressive coefficient must be inside the unit circle")


@dataclass(frozen=True)
class Bilinear:
    """One of the eight fixed bilinear/nonlinear benchmark recursions (1..8)."""

    model_id: int = 1

    def validate(self) -> None:
        if self.model_id not in range(1, 9):
            raise InvalidSpec(f"bilinear model_id must be in 1..8, got {self.model_id}")


@dataclass(frozen=True)
class ModelSpec:
    """A generating process plus its innovation law and burn-in length."""

    model: object
    innovation: Innovation = field(default_factory=Innovation)
    burn_in: int = DEFAULT_BURN_IN

    def validate(self) -> None:
        self.model.validate()
        if self.burn_in < 0:
            raise InvalidSpec("burn_in must be non-negative")


def _simulate_arma(model: Arma, eps: np.ndarray) -> np.ndarray:
    b = np.concatenate(([1.0], np.asarray(model.theta, dtype=float)))
    a = np.concatenate(([1.0], -np.asarray(model.phi, dtype=float)))
    return model.mu + lfilter(b, a, eps)


def _simulate_garch(model: Garch, xi: np.ndarray) -> np.ndarray:
    b, a = model.b, model.a
    alpha = np.asarray(model.alpha, dtype=float)
    beta = np.asarray(model.beta, dtype=float)
    v0 = model.unconditional_variance
    # Lag histories, newest first, shifted in place. The dot products stay
    # ndarray ones: BLAS may fuse the multiply-add, and a plain-float sum
    # would round differently and change seeded paths.
    eps2 = np.full(b, v0)
    sig2_hist = np.full(a, v0)
    eps = np.empty(xi.size)
    for t, x in enumerate(xi.tolist()):
        s2 = model.omega
        if b:
            s2 += float(alpha @ eps2)
        if a:
            s2 += float(beta @ sig2_hist)
        e = math.sqrt(s2) * x
        eps[t] = e
        if b:
            eps2[1:] = eps2[:-1]
            eps2[0] = e * e
        if a:
            sig2_hist[1:] = sig2_hist[:-1]
            sig2_hist[0] = s2
    return eps


def _simulate_tar(model: Tar, eps: np.ndarray) -> np.ndarray:
    total = eps.size
    z = np.empty(total)
    prev = 0.0
    for t in range(total):
        if prev <= model.c:
            prev = model.phi0_lower + model.phi1_lower * prev + eps[t]
        else:
            prev = model.phi0_upper + model.phi1_upper * prev + eps[t]
        z[t] = prev
    return z


def _simulate_star(model: Star, eps: np.ndarray) -> np.ndarray:
    total = eps.size
    z = np.empty(total)
    prev = 0.0
    for t in range(total):
        f = 1.0 / (1.0 + np.exp(-prev))
        prev = model.lower_coeff * prev * (1.0 - f) + model.upper_coeff * prev * f + eps[t]
        z[t] = prev
    return z


def _simulate_sqar(model: Sqar, eps: np.ndarray, nu: np.ndarray) -> np.ndarray:
    y = lfilter([1.0], [1.0, -model.latent_phi], nu)
    return y * y + eps


def _simulate_bilinear(model_id: int, eps: np.ndarray) -> np.ndarray:
    e = eps
    total = e.size
    z = np.zeros(total)
    if model_id == 1:
        z[2:] = e[2:] - 0.4 * e[1:-1] + 0.3 * e[:-2] + 0.5 * e[2:] * e[:-2]
    elif model_id == 2:
        z[2:] = e[2:] - 0.3 * e[1:-1] + 0.2 * e[:-2] + 0.4 * e[2:] * e[:-2] - 0.25 * e[:-2] ** 2
    elif model_id == 3:
        for t in range(2, total):
            z[t] = 0.4 * z[t - 1] - 0.3 * z[t - 2] + 0.5 * z[t - 1] * e[t - 1] + e[t]
    elif model_id in (4, 5):
        # (.8 + .5 z_{t-1}) e_{t-1} + e_t expands to the model-4 recursion.
        for t in range(2, total):
            z[t] = 0.4 * z[t - 1] - 0.3 * z[t - 2] + 0.5 * z[t - 1] * e[t - 1] + 0.8 * e[t - 1] + e[t]
    elif model_id == 6:
        for t in range(1, total):
            z[t] = 0.5 - (0.4 - 0.4 * e[t - 1]) * z[t - 1] + e[t]
    elif model_id == 7:
        z[2:] = 0.8 * e[:-2] ** 2 + e[2:]
    elif model_id == 8:
        z[2:] = e[2:] + 0.3 * e[1:-1] + (0.2 + 0.4 * e[1:-1] - 0.25 * e[:-2]) * e[:-2]
    else:
        raise InvalidSpec(f"bilinear model_id must be in 1..8, got {model_id}")
    return z


def simulate(spec: ModelSpec, n: int, seed: int) -> np.ndarray:
    """Generate n observations from the spec, deterministically in (spec, n, seed)."""
    spec.validate()
    return _simulate(spec, n, seed)


def _simulate(spec: ModelSpec, n: int, seed: int) -> np.ndarray:
    """:func:`simulate` for a spec that has already been validated."""
    if n < 10:
        raise InvalidSpec(f"need n >= 10, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed & (2**64 - 1)))
    total = spec.burn_in + n
    model = spec.model
    if isinstance(model, Arma):
        z = _simulate_arma(model, spec.innovation.draw(rng, total))
    elif isinstance(model, Garch):
        z = _simulate_garch(model, spec.innovation.draw(rng, total))
    elif isinstance(model, ArmaGarch):
        eps = _simulate_garch(model.garch, spec.innovation.draw(rng, total))
        z = _simulate_arma(model.arma, eps)
    elif isinstance(model, Tar):
        z = _simulate_tar(model, spec.innovation.draw(rng, total))
    elif isinstance(model, Star):
        z = _simulate_star(model, spec.innovation.draw(rng, total))
    elif isinstance(model, Sqar):
        eps = spec.innovation.draw(rng, total)
        nu = spec.innovation.draw(rng, total)
        z = _simulate_sqar(model, eps, nu)
    elif isinstance(model, Bilinear):
        z = _simulate_bilinear(model.model_id, spec.innovation.draw(rng, total))
    else:
        raise InvalidSpec(f"unknown model type {type(model).__name__}")
    out = z[spec.burn_in :]
    if not np.all(np.isfinite(out)):
        raise InvalidSpec("simulated path overflowed; check the model parameters")
    return out


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

_MODEL_TAGS = {
    "arma": Arma,
    "garch": Garch,
    "arma_garch": ArmaGarch,
    "tar": Tar,
    "star": Star,
    "sqar": Sqar,
    "bilinear": Bilinear,
}


def _model_to_dict(model) -> dict:
    if isinstance(model, Arma):
        return {"kind": "arma", "phi": list(model.phi), "theta": list(model.theta), "mu": model.mu}
    if isinstance(model, Garch):
        return {
            "kind": "garch",
            "omega": model.omega,
            "alpha": list(model.alpha),
            "beta": list(model.beta),
        }
    if isinstance(model, ArmaGarch):
        return {
            "kind": "arma_garch",
            "arma": _model_to_dict(model.arma),
            "garch": _model_to_dict(model.garch),
        }
    if isinstance(model, Tar):
        return {
            "kind": "tar",
            "phi0_lower": model.phi0_lower,
            "phi1_lower": model.phi1_lower,
            "phi0_upper": model.phi0_upper,
            "phi1_upper": model.phi1_upper,
            "c": model.c,
        }
    if isinstance(model, Star):
        return {
            "kind": "star",
            "lower_coeff": model.lower_coeff,
            "upper_coeff": model.upper_coeff,
        }
    if isinstance(model, Sqar):
        return {"kind": "sqar", "latent_phi": model.latent_phi}
    if isinstance(model, Bilinear):
        return {"kind": "bilinear", "model_id": model.model_id}
    raise InvalidSpec(f"unknown model type {type(model).__name__}")


def spec_to_dict(spec: ModelSpec) -> dict:
    out = _model_to_dict(spec.model)
    return {
        "model": out,
        "innovation": {
            "law": spec.innovation.law,
            "df": spec.innovation.df,
            "slant": spec.innovation.slant,
        },
        "burn_in": spec.burn_in,
    }


def _require_keys(d: dict, allowed: set, context: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {context}")


def _model_from_dict(d: dict):
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("model description must be an object with a 'kind' field")
    kind = d["kind"]
    if kind == "arma":
        _require_keys(d, {"kind", "phi", "theta", "mu"}, "arma model")
        return Arma(
            phi=tuple(d.get("phi", ())), theta=tuple(d.get("theta", ())), mu=float(d.get("mu", 0.0))
        )
    if kind == "garch":
        _require_keys(d, {"kind", "omega", "alpha", "beta"}, "garch model")
        return Garch(
            omega=float(d.get("omega", 1.0)),
            alpha=tuple(d.get("alpha", ())),
            beta=tuple(d.get("beta", ())),
        )
    if kind == "arma_garch":
        _require_keys(d, {"kind", "arma", "garch"}, "arma_garch model")
        return ArmaGarch(arma=_model_from_dict(d["arma"]), garch=_model_from_dict(d["garch"]))
    if kind == "tar":
        _require_keys(d, {"kind", "phi0_lower", "phi1_lower", "phi0_upper", "phi1_upper", "c"}, "tar model")
        return Tar(
            phi0_lower=float(d.get("phi0_lower", 0.0)),
            phi1_lower=float(d.get("phi1_lower", 0.0)),
            phi0_upper=float(d.get("phi0_upper", 0.0)),
            phi1_upper=float(d.get("phi1_upper", 0.0)),
            c=float(d.get("c", 0.0)),
        )
    if kind == "star":
        _require_keys(d, {"kind", "lower_coeff", "upper_coeff"}, "star model")
        return Star(
            lower_coeff=float(d.get("lower_coeff", 0.0)),
            upper_coeff=float(d.get("upper_coeff", 0.0)),
        )
    if kind == "sqar":
        _require_keys(d, {"kind", "latent_phi"}, "sqar model")
        return Sqar(latent_phi=float(d.get("latent_phi", 0.6)))
    if kind == "bilinear":
        _require_keys(d, {"kind", "model_id"}, "bilinear model")
        return Bilinear(model_id=int(d.get("model_id", 1)))
    raise ConfigError(f"unknown model kind {kind!r}")


def spec_from_dict(d: dict) -> ModelSpec:
    _require_keys(d, {"model", "innovation", "burn_in"}, "model spec")
    if "model" not in d:
        raise ConfigError("model spec requires a 'model' object")
    innovation = Innovation()
    if "innovation" in d:
        inno = d["innovation"]
        _require_keys(inno, {"law", "df", "slant"}, "innovation")
        innovation = Innovation(
            law=inno.get("law", "normal"),
            df=float(inno.get("df", 5.0)),
            slant=float(inno.get("slant", 1.5)),
        )
    spec = ModelSpec(
        model=_model_from_dict(d["model"]),
        innovation=innovation,
        burn_in=int(d.get("burn_in", DEFAULT_BURN_IN)),
    )
    spec.validate()
    return spec
