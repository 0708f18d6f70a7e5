"""Seeded simulators for the generating processes used in the size/power studies.

Every simulator is a pure function of (spec, n, seed): the same inputs produce
bitwise-identical output regardless of where or how often they run. Burn-in
samples are generated and discarded so the retained path is effectively
stationary.

Each model class draws its innovations and runs its own recursion in
``_path``, and ``_MODEL_TAGS`` names it in configs. The JSON codec
(``_to_dict``/``_from_dict``) reads and writes every spec from its dataclass
fields, so a new model family is one class plus one tag.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import ConfigError, InvalidSpec, NonFinite

DEFAULT_BURN_IN = 500
# The shortest path the simulators produce.
_MIN_LENGTH = 10


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

    def validate(self) -> None:
        if self.law not in ("normal", "student_t", "skew_normal"):
            raise InvalidSpec(f"unknown innovation law {self.law!r}")
        if self.law == "student_t" and self.df <= 2:
            raise InvalidSpec("student_t innovations need df > 2 for unit variance")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        self.validate()
        if self.law == "normal":
            return rng.standard_normal(size)
        if self.law == "student_t":
            return rng.standard_t(self.df, size) * np.sqrt((self.df - 2.0) / self.df)
        delta = self.slant / np.sqrt(1.0 + self.slant**2)
        u0 = rng.standard_normal(size)
        u1 = rng.standard_normal(size)
        z = delta * np.abs(u0) + np.sqrt(1.0 - delta * delta) * u1
        mean = delta * np.sqrt(2.0 / np.pi)
        sd = np.sqrt(1.0 - 2.0 * delta * delta / np.pi)
        return (z - mean) / sd


def _check_roots(coeffs, error: type[Exception], label: str) -> None:
    """Raise ``error`` unless 1 - a1 z - ... - ap z^p has every root beyond 1 + 1e-10 in modulus."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size == 0:
        return
    roots = np.roots(np.concatenate(([1.0], -coeffs))[::-1])
    if roots.size and np.min(np.abs(roots)) <= 1.0 + 1e-10:
        raise error(f"{label} polynomial has a root on or inside the unit circle")


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
        _check_roots(self.phi, InvalidSpec, "autoregressive")
        _check_roots([-t for t in self.theta], InvalidSpec, "moving-average")
        if self.phi and self.theta:
            ar_roots = np.roots(np.concatenate(([1.0], -np.asarray(self.phi)))[::-1])
            ma_roots = np.roots(np.concatenate(([1.0], np.asarray(self.theta)))[::-1])
            for r in ar_roots:
                if np.any(np.abs(ma_roots - r) < 1e-8):
                    raise InvalidSpec("autoregressive and moving-average polynomials share a root")

    def _filter(self, eps: np.ndarray) -> np.ndarray:
        b = np.concatenate(([1.0], np.asarray(self.theta, dtype=float)))
        a = np.concatenate(([1.0], -np.asarray(self.phi, dtype=float)))
        return self.mu + lfilter(b, a, eps)

    def _path(self, innovation: Innovation, rng: np.random.Generator, total: int) -> np.ndarray:
        return self._filter(innovation.draw(rng, total))


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

    def _path(self, innovation: Innovation, rng: np.random.Generator, total: int) -> np.ndarray:
        xi = innovation.draw(rng, total)
        b, a = self.b, self.a
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        v0 = self.unconditional_variance
        # Lag histories, newest first, shifted in place. The dot products stay
        # ndarray ones: BLAS may fuse the multiply-add, and a plain-float sum
        # would round differently and change seeded paths.
        eps2 = np.full(b, v0)
        sig2_hist = np.full(a, v0)
        eps = np.empty(xi.size)
        for t, x in enumerate(xi.tolist()):
            s2 = self.omega
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


@dataclass(frozen=True)
class ArmaGarch:
    """An ARMA mean equation driven by GARCH errors."""

    arma: Arma = field(default_factory=Arma)
    garch: Garch = field(default_factory=Garch)

    def validate(self) -> None:
        self.arma.validate()
        self.garch.validate()

    def _path(self, innovation: Innovation, rng: np.random.Generator, total: int) -> np.ndarray:
        return self.arma._filter(self.garch._path(innovation, rng, total))


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

    def _path(self, innovation: Innovation, rng: np.random.Generator, total: int) -> np.ndarray:
        eps = innovation.draw(rng, total)
        z = np.empty(total)
        prev = 0.0
        for t in range(total):
            if prev <= self.c:
                prev = self.phi0_lower + self.phi1_lower * prev + eps[t]
            else:
                prev = self.phi0_upper + self.phi1_upper * prev + eps[t]
            z[t] = prev
        return z


@dataclass(frozen=True)
class Star:
    """Smooth-transition AR(1): z_t = lo*z_{t-1}(1-F(z_{t-1})) + hi*z_{t-1}F(z_{t-1}) + e_t
    with logistic transition F(z) = 1/(1+exp(-z))."""

    lower_coeff: float = 0.0
    upper_coeff: float = 0.0

    def validate(self) -> None:
        pass

    def _path(self, innovation: Innovation, rng: np.random.Generator, total: int) -> np.ndarray:
        eps = innovation.draw(rng, total)
        z = np.empty(total)
        prev = 0.0
        for t in range(total):
            f = 1.0 / (1.0 + np.exp(-prev))
            prev = self.lower_coeff * prev * (1.0 - f) + self.upper_coeff * prev * f + eps[t]
            z[t] = prev
        return z


@dataclass(frozen=True)
class Sqar:
    """Squared-AR model: z_t = y_t^2 + e_t with latent y_t = phi y_{t-1} + v_t."""

    latent_phi: float = 0.6

    def validate(self) -> None:
        if abs(self.latent_phi) >= 1.0:
            raise InvalidSpec("latent autoregressive coefficient must be inside the unit circle")

    def _path(self, innovation: Innovation, rng: np.random.Generator, total: int) -> np.ndarray:
        eps = innovation.draw(rng, total)
        nu = innovation.draw(rng, total)
        y = lfilter([1.0], [1.0, -self.latent_phi], nu)
        return y * y + eps


@dataclass(frozen=True)
class Bilinear:
    """One of the eight fixed bilinear/nonlinear benchmark recursions (1..8)."""

    model_id: int = 1

    def validate(self) -> None:
        if self.model_id not in range(1, 9):
            raise InvalidSpec(f"bilinear model_id must be in 1..8, got {self.model_id}")

    def _path(self, innovation: Innovation, rng: np.random.Generator, total: int) -> np.ndarray:
        e = innovation.draw(rng, total)
        z = np.zeros(total)
        model_id = self.model_id
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
        else:  # 8; validate() admits 1..8 only
            z[2:] = e[2:] + 0.3 * e[1:-1] + (0.2 + 0.4 * e[1:-1] - 0.25 * e[:-2]) * e[:-2]
        return z


@dataclass(frozen=True)
class ModelSpec:
    """A generating process plus its innovation law and burn-in length."""

    model: object
    innovation: Innovation = field(default_factory=Innovation)
    burn_in: int = DEFAULT_BURN_IN

    def validate(self) -> None:
        self.model.validate()
        self.innovation.validate()
        if self.burn_in < 0:
            raise InvalidSpec("burn_in must be non-negative")


def simulate(spec: ModelSpec, n: int, seed: int) -> np.ndarray:
    """Generate n observations from the spec, deterministically in (spec, n, seed)."""
    spec.validate()
    return _simulate(spec, n, seed)


@np.errstate(over="ignore", invalid="ignore")
def _simulate(spec: ModelSpec, n: int, seed: int) -> np.ndarray:
    """:func:`simulate` for a spec that has already been validated.

    Each model draws its innovations from ``rng`` and runs its own recursion
    in ``_path``. Raises :class:`NonFinite` when the path overflows; the
    recursion runs with numpy's overflow warnings off, so that error is what
    reports it.
    """
    if n < _MIN_LENGTH:
        raise InvalidSpec(f"need n >= {_MIN_LENGTH}, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed & (2**64 - 1)))
    z = spec.model._path(spec.innovation, rng, spec.burn_in + n)
    out = z[spec.burn_in :]
    if not np.all(np.isfinite(out)):
        raise NonFinite("simulated path overflowed; check the model parameters")
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
_TAG_OF = {cls: tag for tag, cls in _MODEL_TAGS.items()}


def _to_dict(obj) -> dict:
    """A config dataclass as a JSON-ready dict, in field order.

    A model's ``kind`` tag comes first; tuples become lists and nested
    dataclasses become dicts.
    """
    out = {"kind": _TAG_OF[type(obj)]} if type(obj) in _TAG_OF else {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = _to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def _from_dict(cls, d, context: str):
    """The inverse of :func:`_to_dict`: build ``cls`` from the config dict ``d``.

    Unknown keys are rejected and a missing key takes the field's default, so
    the config shares its defaults with the constructor. A present value is
    converted to the type of the field's default: a tuple element by element as
    a float, a nested dataclass from its own dict, anything else by
    :func:`_convert`. A field without a default holds a model of any kind; a
    model's ``kind`` tag picks its class, which must be ``cls`` when ``cls`` is
    a model class. A value that does not convert raises :class:`ConfigError`.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{context} must be an object")
    if cls is object or cls in _TAG_OF:
        kind = d.get("kind")
        if not isinstance(kind, str) or kind not in _MODEL_TAGS:
            raise ConfigError(f"{context} needs a 'kind' field naming a model, got {kind!r}")
        if cls is not object and _MODEL_TAGS[kind] is not cls:
            raise ConfigError(f"{context} must be of kind {_TAG_OF[cls]!r}, got {kind!r}")
        cls, context = _MODEL_TAGS[kind], f"{kind} model"
        d = {key: value for key, value in d.items() if key != "kind"}
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {context}")
    values = {}
    for f in fields(cls):
        default = f.default_factory() if f.default_factory is not MISSING else f.default
        if f.name not in d:
            if default is MISSING:
                raise ConfigError(f"{context} requires {f.name!r}")
            continue
        value, where = d[f.name], f"{context} field {f.name!r}"
        if default is MISSING or is_dataclass(default):
            values[f.name] = _from_dict(object if default is MISSING else type(default), value, where)
            continue
        try:
            if isinstance(default, tuple):
                if not isinstance(value, (list, tuple)):
                    raise TypeError(f"expected a list, got {type(value).__name__}")
                values[f.name] = tuple(_convert(0.0, x) for x in value)
            else:
                values[f.name] = _convert(default, value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return cls(**values)


def _convert(default, value):
    """``value`` as a config value of ``default``'s type, without losing information.

    A bool takes only a JSON boolean, an int only an integral number and a
    float only a number (so an int too), a boolean counting as no number; any
    other type converts with its constructor. Raises TypeError or ValueError.
    """
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise TypeError(f"expected true or false, got {value!r}")
        return value
    if isinstance(default, (int, float)) and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise TypeError(f"expected a number, got {value!r}")
    if isinstance(default, int):
        if not isinstance(value, int) and not value.is_integer():
            raise TypeError(f"expected an integer, got {value!r}")
        return int(value)
    if isinstance(default, float):
        try:
            return float(value)
        except OverflowError:
            raise ValueError("integer too large for a float") from None
    return type(default)(value)


def spec_to_dict(spec: ModelSpec) -> dict:
    return _to_dict(spec)


def spec_from_dict(d: dict) -> ModelSpec:
    spec = _from_dict(ModelSpec, d, "model spec")
    spec.validate()
    return spec
