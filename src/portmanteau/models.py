"""Seeded simulators for the generating processes used in the size/power studies.

Every simulator is a pure function of (spec, n, seed): the same inputs produce
bitwise-identical output regardless of where or how often they run. Burn-in
samples are generated and discarded so the retained path is effectively
stationary.

Each model class simulates a block of replicates at once in ``_paths``: row r
draws its innovations from its own generator and runs the model's recursion,
and equals, bit for bit, the path that generator gives as a block of one.
``_MODEL_TAGS`` names each class in configs. The JSON codec
(``_to_dict``/``_from_dict``) reads and writes every spec from its dataclass
fields, so a new model family is one class plus one tag.
"""

from __future__ import annotations

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


def _draws(innovation: Innovation, rngs, total: int) -> np.ndarray:
    """(len(rngs), total) innovations, row r drawn from ``rngs[r]``."""
    return np.stack([innovation.draw(rng, total) for rng in rngs])


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
        """The ARMA recursion along each row of ``eps``; one call filters each row as a lone one."""
        b = np.concatenate(([1.0], np.asarray(self.theta, dtype=float)))
        a = np.concatenate(([1.0], -np.asarray(self.phi, dtype=float)))
        return self.mu + lfilter(b, a, eps, axis=1)

    def _paths(self, innovation: Innovation, rngs, total: int) -> np.ndarray:
        return self._filter(_draws(innovation, rngs, total))


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

    def _paths(self, innovation: Innovation, rngs, total: int) -> np.ndarray:
        xi = _draws(innovation, rngs, total).T.copy()  # step t reads one contiguous row
        rows = xi.shape[1]
        # Channel 0 of each row's history holds e^2 and channel 1, for a > 0,
        # s^2. Both run backwards in time: column total - 1 - t holds step t
        # and the last k columns the pre-sample v0, so the lags of step t,
        # newest first, are the k columns from total - t. One stacked matmul of
        # (1, k) windows by (k, 1) coefficients per row and channel, zero-padded
        # to k lags, gives both dots: numpy hands each to BLAS ddot, so a row
        # rounds as a lone path's ndarray dot does (ddot fuses the multiply-add,
        # and a padded zero adds an exact 0). A plain (rows, k) @ (k,) product,
        # einsum or a float sum rounds differently.
        lags = (self.alpha, self.beta) if self.a else (self.alpha,)
        k = max(map(len, lags))
        coef = np.zeros((len(lags), k, 1))
        for j, c in enumerate(lags):
            coef[j, : len(c), 0] = c
        hist = np.full((rows, len(lags), 1, total + k), self.unconditional_variance)
        e2_hist, s2_hist = hist[:, 0, 0], hist[:, -1, 0]
        dots = np.empty((rows, len(lags), 1, 1))
        alpha_dot, beta_dot = dots[:, 0, 0, 0], dots[:, -1, 0, 0]
        eps = np.empty_like(xi)
        s2 = np.empty(rows)
        omega, garch = self.omega, bool(self.a)
        for t in range(total):
            c = total - t
            np.matmul(hist[:, :, :, c : c + k], coef, dots)
            if garch:
                s2 = s2_hist[:, c - 1]
            np.add(omega, alpha_dot, s2)
            if garch:
                s2 += beta_dot
            e = eps[t]
            np.sqrt(s2, e)
            e *= xi[t]
            np.multiply(e, e, e2_hist[:, c - 1])
        return np.ascontiguousarray(eps.T)


@dataclass(frozen=True)
class ArmaGarch:
    """An ARMA mean equation driven by GARCH errors."""

    arma: Arma = field(default_factory=Arma)
    garch: Garch = field(default_factory=Garch)

    def validate(self) -> None:
        self.arma.validate()
        self.garch.validate()

    def _paths(self, innovation: Innovation, rngs, total: int) -> np.ndarray:
        return self.arma._filter(self.garch._paths(innovation, rngs, total))


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

    def _paths(self, innovation: Innovation, rngs, total: int) -> np.ndarray:
        return np.array([self._recursion(eps) for eps in _draws(innovation, rngs, total).tolist()])

    def _recursion(self, eps: list) -> list:
        """One row, over its innovations in place, in Python floats: they round
        as float64 scalars do, at a third of the cost."""
        lower, upper, c = (self.phi0_lower, self.phi1_lower), (self.phi0_upper, self.phi1_upper), self.c
        prev = 0.0
        for t, e in enumerate(eps):
            phi0, phi1 = lower if prev <= c else upper
            prev = phi0 + phi1 * prev + e
            eps[t] = prev
        return eps


@dataclass(frozen=True)
class Star:
    """Smooth-transition AR(1): z_t = lo*z_{t-1}(1-F(z_{t-1})) + hi*z_{t-1}F(z_{t-1}) + e_t
    with logistic transition F(z) = 1/(1+exp(-z))."""

    lower_coeff: float = 0.0
    upper_coeff: float = 0.0

    def validate(self) -> None:
        pass

    def _paths(self, innovation: Innovation, rngs, total: int) -> np.ndarray:
        return np.array([self._recursion(eps) for eps in _draws(innovation, rngs, total).tolist()])

    def _recursion(self, eps: list) -> list:
        """One row, over its innovations in place. Row by row, numpy's scalar
        exp keeps each step's bits at a tenth of the cost of a step over all
        rows of a block of one."""
        prev = 0.0
        for t, e in enumerate(eps):
            f = 1.0 / (1.0 + np.exp(-prev))
            prev = self.lower_coeff * prev * (1.0 - f) + self.upper_coeff * prev * f + e
            eps[t] = prev
        return eps


@dataclass(frozen=True)
class Sqar:
    """Squared-AR model: z_t = y_t^2 + e_t with latent y_t = phi y_{t-1} + v_t."""

    latent_phi: float = 0.6

    def validate(self) -> None:
        if abs(self.latent_phi) >= 1.0:
            raise InvalidSpec("latent autoregressive coefficient must be inside the unit circle")

    def _paths(self, innovation: Innovation, rngs, total: int) -> np.ndarray:
        eps, nu = np.empty((2, len(rngs), total))
        for r, rng in enumerate(rngs):
            eps[r] = innovation.draw(rng, total)
            nu[r] = innovation.draw(rng, total)
        y = lfilter([1.0], [1.0, -self.latent_phi], nu, axis=1)
        return y * y + eps


@dataclass(frozen=True)
class Bilinear:
    """One of the eight fixed bilinear/nonlinear benchmark recursions (1..8)."""

    model_id: int = 1

    def validate(self) -> None:
        if self.model_id not in range(1, 9):
            raise InvalidSpec(f"bilinear model_id must be in 1..8, got {self.model_id}")

    def _paths(self, innovation: Innovation, rngs, total: int) -> np.ndarray:
        draws = _draws(innovation, rngs, total)
        if self.model_id in (3, 4, 5, 6):
            return np.array([self._recursion(e) for e in draws.tolist()])
        # Time runs along axis 0, so each slice below covers every row.
        e = draws.T
        z = np.zeros_like(e)
        model_id = self.model_id
        if model_id == 1:
            z[2:] = e[2:] - 0.4 * e[1:-1] + 0.3 * e[:-2] + 0.5 * e[2:] * e[:-2]
        elif model_id == 2:
            z[2:] = e[2:] - 0.3 * e[1:-1] + 0.2 * e[:-2] + 0.4 * e[2:] * e[:-2] - 0.25 * e[:-2] ** 2
        elif model_id == 7:
            z[2:] = 0.8 * e[:-2] ** 2 + e[2:]
        else:  # 8; validate() admits 1..8 only
            z[2:] = e[2:] + 0.3 * e[1:-1] + (0.2 + 0.4 * e[1:-1] - 0.25 * e[:-2]) * e[:-2]
        return np.ascontiguousarray(z.T)

    def _recursion(self, e: list) -> list:
        """One row of a recursive model (3 to 6), in Python floats, which round as float64 scalars do."""
        total = len(e)
        z = [0.0] * total
        if self.model_id == 3:
            for t in range(2, total):
                z[t] = 0.4 * z[t - 1] - 0.3 * z[t - 2] + 0.5 * z[t - 1] * e[t - 1] + e[t]
        elif self.model_id in (4, 5):
            # (.8 + .5 z_{t-1}) e_{t-1} + e_t expands to the model-4 recursion.
            for t in range(2, total):
                z[t] = 0.4 * z[t - 1] - 0.3 * z[t - 2] + 0.5 * z[t - 1] * e[t - 1] + 0.8 * e[t - 1] + e[t]
        else:
            for t in range(1, total):
                z[t] = 0.5 - (0.4 - 0.4 * e[t - 1]) * z[t - 1] + e[t]
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
    """Generate n observations from the spec, deterministically in (spec, n, seed).

    The path is the block of one seed; raises :class:`NonFinite` when it overflows.
    """
    spec.validate()
    paths, finite = _simulate_block(spec, n, [seed])
    if not finite[0]:
        raise NonFinite("simulated path overflowed; check the model parameters")
    return paths[0]


@np.errstate(over="ignore", invalid="ignore")
def _simulate_block(spec: ModelSpec, n: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """The (len(seeds), n) paths of a validated spec, one row per seed, and which rows are finite.

    Row r is, bit for bit, the path ``seeds[r]`` gives alone. The model's
    ``_paths`` draws each row from that seed's own generator. The recursion
    runs with numpy's overflow warnings off: a row that overflows is reported
    by its ``False`` in the second array, and leaves the other rows as they are.
    """
    if n < _MIN_LENGTH:
        raise InvalidSpec(f"need n >= {_MIN_LENGTH}, got {n}")
    rngs = [np.random.default_rng(np.random.SeedSequence(seed & (2**64 - 1))) for seed in seeds]
    paths = spec.model._paths(spec.innovation, rngs, spec.burn_in + n)[:, spec.burn_in :]
    return paths, np.isfinite(paths).all(axis=1)


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
