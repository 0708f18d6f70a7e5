"""Residual series, their (cross-)correlations and partial autocorrelations.

Conventions used throughout: a residual series of length n is reduced to two
centered transforms, f1(e_t) = e_t - mean(e) and f2(e_t) = e_t^2 - mean(e^2).
All covariances use the divisor n regardless of lag, so every sample
correlation sequence is positive semidefinite by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVariance,
    LagOutOfRange,
    NonFinite,
    NonPositiveVariance,
    SingularToeplitz,
    TooShort,
)

# Below this the zero-lag variance is treated as exactly zero (constant series)
# rather than allowed to propagate NaN/Inf through later divisions.
VARIANCE_FLOOR = 1e-300


@dataclass(frozen=True)
class ResidualSeries:
    """A residual series with its centered transforms and zero-lag variances.

    Attributes
    ----------
    values : ndarray
        The raw residuals e_t.
    n : int
        Number of observations.
    centered1, centered2 : ndarray
        f1(e_t) = e_t - mean(e) and f2(e_t) = e_t^2 - mean(e^2).
    gamma11_0, gamma22_0 : float
        Zero-lag variances of the two centered transforms (divisor n).
    """

    values: np.ndarray
    n: int
    centered1: np.ndarray
    centered2: np.ndarray
    gamma11_0: float
    gamma22_0: float


@dataclass(frozen=True)
class CorrSequence:
    """Sample correlations of one kind over lags 1..m.

    kind is one of "rho11", "rho22", "rho12", "rho21", "rho22star"; the first
    index is the power of the leading residual, the second the power of the
    lagged one.
    """

    kind: str
    lags: np.ndarray
    values: np.ndarray
    standardized: bool = False

    @property
    def m(self) -> int:
        return int(self.lags[-1]) if len(self.lags) else 0


@dataclass(frozen=True)
class PacfSequence:
    """Partial autocorrelations pi_k, k = 1..m, of residuals or their squares."""

    source: str  # "residuals" | "squared_residuals"
    values: np.ndarray


def make_residual_series(values) -> ResidualSeries:
    """Build a :class:`ResidualSeries`, centering e_t and e_t^2 at their own means."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("residual series must be one-dimensional")
    n = v.size
    if n < 4:
        raise TooShort(f"need at least 4 observations, got {n}")
    if not np.all(np.isfinite(v)):
        raise NonFinite("residual series contains NaN or Inf")
    c1 = v - v.mean()
    sq = v * v
    c2 = sq - sq.mean()
    g11 = float(c1 @ c1) / n
    g22 = float(c2 @ c2) / n
    if g11 < VARIANCE_FLOOR:
        raise DegenerateVariance("residual series is constant (gamma11_0 = 0)")
    if g22 < VARIANCE_FLOOR:
        raise DegenerateVariance("squared residual series is constant (gamma22_0 = 0)")
    return ResidualSeries(values=v, n=n, centered1=c1, centered2=c2, gamma11_0=g11, gamma22_0=g22)


def _centered(series: ResidualSeries, i: int) -> np.ndarray:
    if i == 1:
        return series.centered1
    if i == 2:
        return series.centered2
    raise ValueError(f"power index must be 1 or 2, got {i}")


def _norm(series: ResidualSeries, i: int, j: int) -> float:
    gii = series.gamma11_0 if i == 1 else series.gamma22_0
    gjj = series.gamma11_0 if j == 1 else series.gamma22_0
    return float(np.sqrt(gii * gjj))


def cross_correlation(series: ResidualSeries, i: int, j: int, k: int) -> float:
    """Sample correlation at lag k between e_t^i and e_{t+k}^j (i, j in {1, 2}).

    Negative lags use the symmetry rho_ij(-k) = rho_ji(k). The covariance
    divisor is n for every lag.
    """
    n = series.n
    if abs(k) >= n:
        raise LagOutOfRange(f"|k| = {abs(k)} must be smaller than n = {n}")
    if k < 0:
        i, j, k = j, i, -k
    fi = _centered(series, i)
    fj = _centered(series, j)
    if k == 0:
        gamma = float(fi @ fj) / n
    else:
        gamma = float(fi[: n - k] @ fj[k:]) / n
    return gamma / _norm(series, i, j)


def cross_corr_sequence(series: ResidualSeries, i: int, j: int, m: int) -> np.ndarray:
    """Vector of rho_ij(k) for k = 0..m."""
    n = series.n
    if m >= n:
        raise LagOutOfRange(f"m = {m} must be smaller than n = {n}")
    fi = _centered(series, i)
    fj = _centered(series, j)
    scale = _norm(series, i, j) * n
    out = np.empty(m + 1)
    out[0] = float(fi @ fj) / scale
    for k in range(1, m + 1):
        out[k] = float(fi[: n - k] @ fj[k:]) / scale
    return out


def standardize_correlation(rho, k: int, n: int):
    """Scale a lag-k correlation by sqrt((n+2)/(n-|k|))."""
    if abs(k) >= n:
        raise LagOutOfRange(f"|k| = {abs(k)} must be smaller than n = {n}")
    return np.sqrt((n + 2.0) / (n - abs(k))) * rho


def correlogram(series: ResidualSeries, i: int, j: int, m: int, standardized: bool = False) -> CorrSequence:
    """Correlations rho_ij(k) for k = 1..m as a :class:`CorrSequence`."""
    values = cross_corr_sequence(series, i, j, m)[1:]
    lags = np.arange(1, m + 1)
    if standardized:
        values = np.sqrt((series.n + 2.0) / (series.n - lags)) * values
    kind = f"rho{i}{j}"
    return CorrSequence(kind=kind, lags=lags, values=values, standardized=standardized)


def durbin_levinson(rho: np.ndarray) -> np.ndarray:
    """Partial autocorrelations from rho(1..m) by the Durbin-Levinson recursion.

    Raises :class:`SingularToeplitz` (with the failing order) as soon as a
    prediction-error variance hits zero or below, i.e. the leading Toeplitz
    minor of that order is not positive definite.
    """
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


def pacf(acf: CorrSequence, m: int | None = None) -> PacfSequence:
    """Partial autocorrelations of an autocorrelation sequence (kinds rho11/rho22)."""
    if acf.kind not in ("rho11", "rho22"):
        raise ValueError(f"pacf requires an autocorrelation sequence, got kind {acf.kind!r}")
    values = acf.values if m is None else acf.values[:m]
    source = "residuals" if acf.kind == "rho11" else "squared_residuals"
    return PacfSequence(source=source, values=durbin_levinson(values))


def residual_pacf(series: ResidualSeries, m: int, which: str = "residuals", standardized: bool = False) -> np.ndarray:
    """PACF over lags 1..m of the residuals or the squared residuals."""
    i = 1 if which == "residuals" else 2
    acf = correlogram(series, i, i, m, standardized=standardized)
    return durbin_levinson(acf.values)


def _centered_sq_ratio(eps, sigma2, k: int) -> tuple[np.ndarray, float]:
    """Centered ratios d_t = r_t - mean(r), r_t = e_t^2 / s_t^2, and sum d_t^2, checked for lag k."""
    e = np.asarray(eps, dtype=float)
    s2 = np.asarray(sigma2, dtype=float)
    if e.shape != s2.shape:
        raise ValueError("eps and sigma2 must have equal length")
    if np.any(s2 <= 0.0) or not np.all(np.isfinite(s2)):
        raise NonPositiveVariance("conditional variances must be positive and finite")
    n = e.size
    if not 1 <= k < n:
        raise LagOutOfRange(f"k = {k} must satisfy 1 <= k < n = {n}")
    r = e * e / s2
    d = r - r.mean()
    den = float(d @ d)
    if den < VARIANCE_FLOOR * n:
        raise DegenerateVariance("standardized squared residuals are constant")
    return d, den


def garch_standardized_sq_acf(eps, sigma2, k: int) -> float:
    """Lag-k autocorrelation of e_t^2 / s_t^2 for fitted conditional variances s_t^2.

    The ratio sequence is centered at its own mean, and the statistic is the
    plain ratio of lagged to zero-lag sums (no per-lag divisor correction).
    """
    d, den = _centered_sq_ratio(eps, sigma2, k)
    return float(d[k:] @ d[: d.size - k]) / den


def garch_standardized_sq_acfs(eps, sigma2, m: int) -> np.ndarray:
    """``garch_standardized_sq_acf`` at lags 1..m, validating and centering once."""
    d, den = _centered_sq_ratio(eps, sigma2, 1)
    n = d.size
    if m >= n:
        raise LagOutOfRange(f"m = {m} must be smaller than n = {n}")
    return np.array([float(d[k:] @ d[: n - k]) / den for k in range(1, m + 1)])
