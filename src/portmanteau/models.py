"""Seeded simulators for the generating processes used in the size/power studies.

A (spec, seed) pair fixes one path, and ``simulate(spec, n, seed)`` is its
first n values after the burn-in: the same inputs produce bitwise-identical
output regardless of where or how often they run, and a shorter path is the
prefix of a longer one under every model and innovation law. Each draw takes
its values from the generator in time order, so a longer draw begins with a
shorter one. Burn-in samples are generated and discarded so the retained path
is effectively stationary.

Each model class simulates a block of replicates at once in ``_paths``: row r
draws its innovations from its own generator and runs the model's recursion,
and equals, bit for bit, the path that generator gives as a block of one.
``_MODEL_TAGS`` names each class in configs. The JSON codec
(``_to_dict``/``_from_dict``) reads and writes every config dataclass (each
spec, the fitter and the Monte Carlo ``Experiment``) from its fields,
converting each value by the field's type annotation, so a new model family
is one class plus one tag.

``signal``, ``special`` and ``linalg`` are the package's one binding each of
``scipy.signal``, ``scipy.special`` and ``scipy.linalg``. Each is a lazy
module that loads at its first use: the first ``lfilter`` call, the first
p-value and the first Cholesky factor. Importing the package and validating a
config load none of them, and take 0.11 s where the eager imports took 0.28 s
(``BENCH_startup.json``).
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, InvalidSpec, NonFinite

# A lazy module runs its package init at its first attribute read. One already
# in sys.modules, loaded or lazy, is reused, so the process never holds two.
# Each name is a package: find_spec of a dotted name imports its parent eagerly.
_LAZY = ("scipy.signal", "scipy.special", "scipy.linalg")
for _name in _LAZY:
    if _name not in sys.modules:
        _spec = importlib.util.find_spec(_name)
        _spec.loader = importlib.util.LazyLoader(_spec.loader)
        sys.modules[_name] = importlib.util.module_from_spec(_spec)
        _spec.loader.exec_module(sys.modules[_name])
signal, special, linalg = (sys.modules[_name] for _name in _LAZY)

DEFAULT_BURN_IN = 500
# The shortest path the simulators produce.
_MIN_LENGTH = 10
# The steps of a chunk of the GARCH variance scan (``Garch._paths``). The chunk
# edges fix a path's bits, so this is a constant and not an option.
_CHUNK = 32


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
        """``size`` draws from ``rng``; the first k of them are the draw of size k.

        The skew-normal law takes its two normals per value from one draw of
        2 * size, at the even and the odd positions, so it keeps that rule too.
        """
        self.validate()
        if self.law == "normal":
            return rng.standard_normal(size)
        if self.law == "student_t":
            return rng.standard_t(self.df, size) * np.sqrt((self.df - 2.0) / self.df)
        delta = self.slant / np.sqrt(1.0 + self.slant**2)
        u = rng.standard_normal(2 * size)
        z = delta * np.abs(u[0::2]) + np.sqrt(1.0 - delta * delta) * u[1::2]
        mean = delta * np.sqrt(2.0 / np.pi)
        sd = np.sqrt(1.0 - 2.0 * delta * delta / np.pi)
        return (z - mean) / sd


def _draws(innovation: Innovation, rngs, total: int) -> np.ndarray:
    """(len(rngs), total) innovations, row r drawn from ``rngs[r]``."""
    return np.stack([innovation.draw(rng, total) for rng in rngs])


def _sum_terms(terms, out: np.ndarray) -> np.ndarray:
    """out = ((terms[0] + terms[1]) + terms[2]) + ..., one elementwise add at a
    time, so every element sums its terms in this order whatever the shapes."""
    np.add(terms[0], terms[1], out)
    for term in terms[2:]:
        np.add(out, term, out)
    return out


def _lag_roots(coeffs) -> np.ndarray:
    """The roots of the lag polynomial 1 - a1 z - ... - ap z^p."""
    return np.roots(np.concatenate(([1.0], -np.asarray(coeffs, dtype=float)))[::-1])


def _check_roots(roots: np.ndarray, error: type[Exception], label: str) -> np.ndarray:
    """``roots`` of a lag polynomial; raise ``error`` unless each lies beyond 1 + 1e-10 in modulus."""
    if roots.size and np.min(np.abs(roots)) <= 1.0 + 1e-10:
        raise error(f"{label} polynomial has a root on or inside the unit circle")
    return roots


@dataclass(frozen=True)
class Arma:
    """phi(B)(z_t - mu) = theta(B) e_t with phi(B) = 1 - phi_1 B - ...,
    theta(B) = 1 + theta_1 B + ...."""

    phi: tuple[float, ...] = ()
    theta: tuple[float, ...] = ()
    mu: float = 0.0

    @property
    def p(self) -> int:
        return len(self.phi)

    @property
    def q(self) -> int:
        return len(self.theta)

    @functools.cached_property
    def _roots(self) -> tuple:
        """The roots of phi(B) and of theta(B), found once per instance: an mc
        call validates its generator more than once."""
        return _lag_roots(self.phi), _lag_roots([-t for t in self.theta])

    def validate(self) -> None:
        ar_roots = _check_roots(self._roots[0], InvalidSpec, "autoregressive")
        ma_roots = _check_roots(self._roots[1], InvalidSpec, "moving-average")
        for r in ar_roots:
            if np.any(np.abs(ma_roots - r) < 1e-8):
                raise InvalidSpec("autoregressive and moving-average polynomials share a root")

    def _filter(self, eps: np.ndarray) -> np.ndarray:
        """The ARMA recursion along each row of ``eps``; one call filters each row as a lone one."""
        b = np.concatenate(([1.0], np.asarray(self.theta, dtype=float)))
        a = np.concatenate(([1.0], -np.asarray(self.phi, dtype=float)))
        return self.mu + signal.lfilter(b, a, eps, axis=1)

    def _paths(self, innovation: Innovation, rngs, total: int) -> np.ndarray:
        return self._filter(_draws(innovation, rngs, total))


@dataclass(frozen=True)
class Garch:
    """e_t = s_t xi_t with s_t^2 = omega + sum alpha_i e_{t-i}^2 + sum beta_j s_{t-j}^2."""

    omega: float = 1.0
    alpha: tuple[float, ...] = ()
    beta: tuple[float, ...] = ()

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
        """The block's paths by a chunked scan of the variance recursion, which is linear in s^2.

        With k = max(b, a, 1), s2_t = omega + sum_j c_{t,j} s2_{t-j}, where
        c_{t,j} = alpha_j xi_{t-j}^2 + beta_j. Before the path xi^2 = 1 and
        s2 = v0, the unconditional variance, so the pre-sample e^2 = s^2 = v0.
        Time is cut into chunks of ``_CHUNK`` steps from t = 0.

        - Level 1 runs, for every chunk of every row at once, the chunk's
          affine response to its k entry values s2_{t0-1}, ..., s2_{t0-k}: one
          sequence per entry value, and one (the particular part) for omega.
        - Level 2 resolves the entry values chunk by chunk, from the last k
          steps of the chunk before.
        - Level 3 forms s2 = sum_m response_m * entry_m + particular, and
          e = sqrt(s2) xi.

        Every term is non-negative, so nothing cancels: against the
        step-by-step recursion (``reference.garch_paths``) no value moved by
        more than a relative 4e-15, at persistence 0.999 and 5000 steps too
        (``tests/test_garch_scan.py`` holds it to 1e-13). Every operation is an
        elementwise ufunc and each sum adds its terms in one fixed order, so
        a row rounds as its lone path does, and no BLAS dot product sets the
        bits. The chunk length is a constant, not an option, because the chunk
        edges fix the bits: a path stays a function of (spec, seed) alone, and
        a path of n values is the prefix of a longer one. A block costs
        about L + total / L steps of a few numpy calls each, where the
        recursion took five calls per time step.
        """
        xi = _draws(innovation, rngs, total)
        rows = len(xi)
        k = max(self.b, self.a, 1)
        steps = max(_CHUNK, k)  # a chunk's entry values lie in the chunk before it
        chunks = -(-total // steps)
        span = chunks * steps
        alpha, beta = ([*c] + [0.0] * (k - len(c)) for c in (self.alpha, self.beta))
        # Time-major xi^2 behind k pre-sample ones; the ones after it pad the last chunk and reach no returned step.
        sq = np.ones((k + span, rows))
        np.multiply(xi.T, xi.T, sq[k : k + total])
        # coef[j - 1, i] holds c_{t,j} at step i of every chunk, as (1, chunks, rows).
        coef = np.empty((k, steps, 1, chunks, rows))
        for j in range(1, k + 1):
            lagged = sq[k - j : k - j + span].reshape(chunks, steps, rows).transpose(1, 0, 2)
            np.multiply(alpha[j - 1], lagged, coef[j - 1, :, 0])
            np.add(coef[j - 1, :, 0], beta[j - 1], coef[j - 1, :, 0])
        # Level 1. resp[k + i] holds step i of the k + 1 sequences (the response
        # to entry value 1..k, then the particular part) and resp[k - m] entry m.
        resp = np.zeros((k + steps, k + 1, chunks, rows))
        for m in range(1, k + 1):
            resp[k - m, m - 1] = 1.0
        terms = np.zeros((k + 1, k + 1, chunks, rows))
        terms[k, k] = self.omega  # omega enters the particular part only
        # Each step's sum is _sum_terms written out: calling it made a block of 8 paths 10-20% slower.
        multiply, add = np.multiply, np.add
        products, first, second, rest = terms[:k], terms[0], terms[1], list(terms[2:])
        for i in range(steps):
            multiply(coef[:, i], resp[i : i + k][::-1], products)
            out = add(first, second, resp[k + i])
            for term in rest:
                add(out, term, out)
        # Level 2. ends[c, :, m - 1] holds step steps - m of chunk c's k + 1
        # sequences, and entry[m - 1, c] the entry value s2_{t0-m} of chunk c.
        ends = np.ascontiguousarray(resp[steps:][::-1].transpose(2, 1, 0, 3))
        entry = np.empty((k, chunks, rows))
        entry[:, 0] = self.unconditional_variance
        for c in range(chunks - 1):
            multiply(ends[c, :k], entry[:, c, None], ends[c, :k])
            _sum_terms(ends[c], entry[:, c + 1])
        # Level 3, in level 2's order of terms: a chunk's last steps equal the next chunk's entry values.
        level = resp[k:]
        multiply(level[:, :k], entry, level[:, :k])
        s2 = np.sqrt(_sum_terms(level.transpose(1, 0, 2, 3), np.empty((steps, chunks, rows))))
        return np.multiply(s2.transpose(2, 1, 0).reshape(rows, span)[:, :total], xi, xi)


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
        """Each row draws 2 * total innovations: e_t at the even positions and v_t
        at the odd, so a path of n values is the prefix of a longer one."""
        draws = _draws(innovation, rngs, 2 * total)
        y = signal.lfilter([1.0], [1.0, -self.latent_phi], draws[:, 1::2], axis=1)
        return y * y + draws[:, 0::2]


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
    """The first n observations after the burn-in of the one path that (spec, seed) fixes.

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
    Paths too large to allocate raise :class:`InvalidSpec`, which names their length.
    """
    if n < _MIN_LENGTH:
        raise InvalidSpec(f"need n >= {_MIN_LENGTH}, got {n}")
    rngs = [np.random.default_rng(np.random.SeedSequence(seed & (2**64 - 1))) for seed in seeds]
    try:
        paths = spec.model._paths(spec.innovation, rngs, spec.burn_in + n)[:, spec.burn_in :]
    except MemoryError:
        raise InvalidSpec(f"cannot allocate simulated paths of burn-in + n = {spec.burn_in + n} values") from None
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


@functools.cache
def _codec_fields(cls) -> dict:
    """``cls``'s fields by config key: (field name, resolved annotation, required), read once per class.

    A field's config key is its ``"key"`` metadata, else its name; a field
    without a default is required.
    """
    hints = get_type_hints(cls)
    return {
        f.metadata.get("key", f.name): (f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    }


def _to_dict(obj) -> dict:
    """A config dataclass as a JSON-ready dict, in field order, under each field's config key.

    A model's ``kind`` tag comes first; tuples become lists and nested
    dataclasses become dicts.
    """
    out = {"kind": _TAG_OF[type(obj)]} if type(obj) in _TAG_OF else {}
    for key, (name, _, _) in _codec_fields(type(obj)).items():
        value = getattr(obj, name)
        if is_dataclass(value):
            value = _to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def _from_dict(cls, d, context: str):
    """The inverse of :func:`_to_dict`: build ``cls`` from the config dict ``d``.

    Unknown keys are rejected, a required key must be present and a missing
    one takes the field's default, so the config shares its defaults with the
    constructor. A present value is converted to the field's annotated type
    (resolved once per class): a dataclass from its own dict, ``object`` as a
    model of any kind, and a ``tuple[X, ...]`` or a scalar by
    :func:`_convert`. A model's ``kind`` tag picks its class, which must be
    ``cls`` when ``cls`` is a model class. A value that does not convert
    raises :class:`ConfigError`.
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
    codec = _codec_fields(cls)
    unknown = set(d) - set(codec)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {context}")
    values = {}
    for key, (name, tp, required) in codec.items():
        if key not in d:
            if required:
                raise ConfigError(f"{context} requires {key!r}")
        elif tp is object or is_dataclass(tp):
            values[name] = _from_dict(tp, d[key], f"{context} field {key!r}")
        else:
            try:
                values[name] = _convert(tp, d[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{context} field {key!r}: {exc}") from None
    return cls(**values)


def _convert(tp: type, value):
    """``value`` as a config value of type ``tp``, without losing information.

    A ``tuple[X, ...]`` takes only a JSON array, each element converted to X.
    A bool takes only a JSON boolean, an int only an integral number and a
    float only a number (so an int too), a boolean counting as no number; any
    other type converts with its constructor. A float must be finite: JSON's
    NaN and Infinity, which Python's json reads, are rejected. Raises
    TypeError or ValueError.
    """
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a JSON array, got {type(value).__name__}")
        return tuple(_convert(get_args(tp)[0], x) for x in value)
    if tp is bool:
        if not isinstance(value, bool):
            raise TypeError(f"expected true or false, got {value!r}")
        return value
    if tp in (int, float) and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise TypeError(f"expected a number, got {value!r}")
    if tp is int:
        if not isinstance(value, int) and not value.is_integer():
            raise TypeError(f"expected an integer, got {value!r}")
        return int(value)
    if tp is float:
        try:
            value = float(value)
        except OverflowError:
            raise ValueError("integer too large for a float") from None
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {value!r}")
        return value
    return tp(value)


def spec_to_dict(spec: ModelSpec) -> dict:
    return _to_dict(spec)


def spec_from_dict(d: dict) -> ModelSpec:
    spec = _from_dict(ModelSpec, d, "model spec")
    spec.validate()
    return spec
