"""Validation oracles: independent routes to quantities the production path computes.

Nothing on the simulate -> fit -> correlate -> statistic -> p-value path calls
this module; the tests use it to check that path against a second derivation:

- the estimation-effect projection Q(m) (:func:`build_qm`) and the eigenvalues
  of the chi-square combination behind the Cm null (:func:`combo_eigenvalues`,
  :func:`cm_moment_sums`), against the closed-form gamma of
  ``diagnostics.cm_gamma_params``;
- the asymptotic decomposition of Cm (:func:`cm_decomposition`), against the
  exact block log-determinant statistic;
- the Schur-complement block log-determinant (:func:`schur_logdet`) and the
  trace identity tr(R12' R12) (:func:`weighted_cross_sum`), against
  ``corrmat.logdet_pd`` and ``corrmat.build_block``;
- single-lag correlations, standardization and partial autocorrelations
  (:func:`cross_correlation`, :func:`standardize_correlation`, :func:`pacf`,
  :func:`residual_pacf`, :func:`garch_standardized_sq_acf`), against the lag
  kernel ``residuals.LagCorrelations``;
- the step-by-step GARCH variance recursion (:func:`garch_paths`), against the
  chunked scan of ``models.Garch._paths``.

This module imports from the production modules; none of them imports it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .corrmat import _as_array, logdet_pd
from .errors import LagOutOfRange, NonInvertible, NonStationary, NotPositiveDefinite
from .models import Garch, Innovation, _check_roots, _draws, _lag_roots, linalg, signal
from .residuals import (
    CorrSequence,
    ResidualSeries,
    _centered_sq_ratio,
    _check_power,
    correlogram,
    cross_corr_sequence,
    durbin_levinson,
    standardization_factors,
)

# ---------------------------------------------------------------------------
# Single-lag correlations and partial autocorrelations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PacfSequence:
    """Partial autocorrelations pi_k, k = 1..m, of residuals or their squares."""

    source: str  # "residuals" | "squared_residuals"
    values: np.ndarray


def cross_correlation(series: ResidualSeries, i: int, j: int, k: int) -> float:
    """Sample correlation at lag k between e_t^i and e_{t+k}^j (i, j in {1, 2}).

    Negative lags use the symmetry rho_ij(-k) = rho_ji(k). The covariance
    divisor is n for every lag.
    """
    _check_power(i)
    _check_power(j)
    n = series.n
    if abs(k) >= n:
        raise LagOutOfRange(f"|k| = {abs(k)} must be smaller than n = {n}")
    if k < 0:
        i, j, k = j, i, -k
    fi, fj = (series.centered1 if p == 1 else series.centered2 for p in (i, j))
    gamma0 = {1: series.gamma11_0, 2: series.gamma22_0}
    if k == 0:
        gamma = float(fi @ fj) / n
    else:
        gamma = float(fi[: n - k] @ fj[k:]) / n
    return gamma / float(np.sqrt(gamma0[i] * gamma0[j]))


def standardize_correlation(rho, k: int, n: int):
    """Scale a lag-k correlation by sqrt((n+2)/(n-|k|))."""
    if abs(k) >= n:
        raise LagOutOfRange(f"|k| = {abs(k)} must be smaller than n = {n}")
    return standardization_factors(n, k) * rho


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


def garch_standardized_sq_acf(eps, sigma2, k: int) -> float:
    """Lag-k autocorrelation of e_t^2 / s_t^2 for fitted conditional variances s_t^2.

    The ratio sequence is centered at its own mean, and the statistic is the
    plain ratio of lagged to zero-lag sums (no per-lag divisor correction).
    """
    d, den = _centered_sq_ratio(eps, sigma2, k)
    return float(d[k:] @ d[: d.size - k]) / den


# ---------------------------------------------------------------------------
# The GARCH variance recursion, one step at a time
# ---------------------------------------------------------------------------


def garch_paths(model: Garch, innovation: Innovation, rngs, total: int) -> np.ndarray:
    """The (len(rngs), total) GARCH paths of ``model``, drawn as ``Garch._paths`` draws them,
    by the variance recursion taken one time step at a time.

    Channel 0 of each row's history holds e^2 and channel 1, for a > 0, s^2.
    Both run backwards in time: column total - 1 - t holds step t and the last
    k columns the pre-sample v0, so the lags of step t, newest first, are the
    k columns from total - t. Each step is one stacked matmul of (1, k) windows
    by (k, 1) coefficients per row and channel, zero-padded to k lags, then
    s^2 = omega + the alpha dot (+ the beta dot), e = sqrt(s^2) xi and
    e^2 = e * e. The dots are BLAS ddot calls, so the last bits depend on
    whether the BLAS build fuses the multiply-add. Needs max(b, a) >= 1.
    """
    xi = _draws(innovation, rngs, total).T.copy()  # step t reads one contiguous row
    rows = xi.shape[1]
    lags = (model.alpha, model.beta) if model.a else (model.alpha,)
    k = max(map(len, lags))
    coef = np.zeros((len(lags), k, 1))
    for j, c in enumerate(lags):
        coef[j, : len(c), 0] = c
    hist = np.full((rows, len(lags), 1, total + k), model.unconditional_variance)
    # Step t's window (rows, channels, 1, k) starts at column total - t; it writes column total - 1 - t.
    windows = np.moveaxis(np.lib.stride_tricks.sliding_window_view(hist, k, axis=-1), 3, 0)[total:0:-1]
    e2_out = hist[:, 0, 0].T[total - 1 :: -1]
    s2_out = hist[:, -1, 0].T[total - 1 :: -1] if model.a else itertools.repeat(np.empty(rows), total)
    dots = np.empty((rows, len(lags), 1, 1))
    alpha_dot, beta_dot = dots[:, 0, 0, 0], dots[:, -1, 0, 0]
    sd = np.empty(rows)
    for window, s2, e2, e in zip(windows, s2_out, e2_out, xi):
        np.matmul(window, coef, dots)
        np.add(model.omega, alpha_dot, s2)
        if model.a:
            np.add(s2, beta_dot, s2)
        np.sqrt(s2, sd)
        np.multiply(sd, e, e)
        np.multiply(e, e, e2)
    return np.ascontiguousarray(xi.T)


# ---------------------------------------------------------------------------
# Block log-determinant identities
# ---------------------------------------------------------------------------


def schur_logdet(block) -> float:
    """Block log-determinant log|R11| + log|R22 - R12' R11^-1 R12|.

    Validation route for :func:`logdet_pd` on block matrices; both must agree
    whenever the block matrix is positive definite.
    """
    a = _as_array(block)
    d = a.shape[0] // 2
    r11 = a[:d, :d]
    r12 = a[:d, d:]
    r22 = a[d:, d:]
    try:
        factor = linalg.cho_factor(r11, lower=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy raises its own type
        raise NotPositiveDefinite(0) from exc
    complement = r22 - r12.T @ linalg.cho_solve(factor, r12)
    logdet_r11 = float(2.0 * np.sum(np.log(np.diag(factor[0]))))
    return logdet_r11 + logdet_pd(complement)


def weighted_cross_sum(series: ResidualSeries, m: int) -> float:
    """sum over k = -m..m of (m+1-|k|) rho_12(k)^2.

    Equals tr(R12' R12) exactly; exposed for the trace-identity checks.
    """
    pos = cross_corr_sequence(series, 1, 2, m)
    neg = cross_corr_sequence(series, 2, 1, m)
    weights = m + 1.0 - np.arange(m + 1)
    return float(weights @ (pos * pos) + weights[1:] @ (neg[1:] * neg[1:]))


def cm_decomposition(series: ResidualSeries, m: int) -> float:
    """Asymptotic decomposition of the Cm statistic into interpretable parts.

    Two triangular PACF log terms (one per power), the triangular one-sided
    cross-correlation sums, and the n rho_12(0)^2 term. Differs from the exact
    statistic by the dropped remainder of the block-determinant expansion.
    """
    n = series.n
    w = (m + 1.0 - np.arange(1, m + 1)) / (m + 1.0)
    total = 0.0
    for i in (1, 2):
        pac = durbin_levinson(correlogram(series, i, i, m).values)
        total += -n * float(w @ np.log1p(-pac * pac))
    pos = correlogram(series, 1, 2, m).values
    neg = correlogram(series, 2, 1, m).values
    total += n * float(w @ (pos * pos)) + n * float(w @ (neg * neg))
    rho0 = cross_correlation(series, 1, 2, 0)
    total += n * rho0 * rho0
    return total


# ---------------------------------------------------------------------------
# Quadratic-form weight machinery (validation path for the gamma null)
# ---------------------------------------------------------------------------


def cm_moment_sums(m: int, p_plus_q: int) -> tuple[float, float]:
    """Weight sums (S1, S2) of the chi-square combination behind the Cm null."""
    s = p_plus_q
    sum_lambda = 2.0 * m + 5.0 - s
    sum_lambda_sq = 4.0 * (m + 2.0) * (2.0 * m + 3.0) / (3.0 * (m + 1.0)) + 1.0 - s
    return sum_lambda, sum_lambda_sq


@dataclass(frozen=True)
class QmMatrix:
    """Projection matrix capturing the ARMA estimation effect on residual ACF.

    X has one column per fitted coefficient filled with the series expansion of
    1/phi(B) (AR columns) and 1/theta(B) (MA columns); V is the limiting Gram
    matrix of those columns (the parameter information matrix), and
    Q = X V^-1 X' is idempotent with trace p+q in the large-m limit. weights
    holds the triangular profile (m+1-l)/(m+1) for l = 1..m.
    """

    m: int
    p: int
    q: int
    X: np.ndarray
    V: np.ndarray
    Q: np.ndarray
    weights: np.ndarray
    exact_v: bool


def _inverse_poly_coeffs(ar_style: np.ndarray, nterms: int) -> np.ndarray:
    """Coefficients c of 1/(1 - a1 B - ... - ap B^p) up to B^(nterms-1)."""
    impulse = np.zeros(nterms)
    impulse[0] = 1.0
    return signal.lfilter([1.0], np.concatenate(([1.0], -ar_style)), impulse)


def _exact_gram(ar_style: np.ndarray) -> np.ndarray:
    """Limit Gram matrix of the expansion columns for a single polynomial.

    Equals the autocovariance matrix (orders 0..p-1) of the unit-innovation
    process with that autoregressive polynomial, obtained from the companion
    form's discrete Lyapunov equation.
    """
    p = ar_style.size
    companion = np.zeros((p, p))
    companion[0, :] = ar_style
    if p > 1:
        companion[1:, :-1] = np.eye(p - 1)
    noise = np.zeros((p, p))
    noise[0, 0] = 1.0
    if p == 1:
        return np.array([[1.0 / (1.0 - ar_style[0] ** 2)]])
    return linalg.solve_discrete_lyapunov(companion, noise)


_GRAM_TERMS = 5000


def build_qm(ar_coeffs, ma_coeffs, m: int) -> QmMatrix:
    """Build the estimation-effect projection for given ARMA coefficients.

    V is exact (discrete Lyapunov solve) for pure AR and pure MA models; mixed
    models fall back to the Gram matrix of the first 5000 expansion terms and
    are flagged via ``exact_v=False``.
    """
    phi = np.asarray(ar_coeffs, dtype=float)
    theta = np.asarray(ma_coeffs, dtype=float)
    p, q = phi.size, theta.size
    _check_roots(_lag_roots(phi), NonStationary, "autoregressive")
    # 1/theta(B) with theta(B) = 1 + t1 B + ... is the a-style expansion of -theta
    _check_roots(_lag_roots(-theta), NonInvertible, "moving-average")
    weights = (m + 1.0 - np.arange(1, m + 1)) / (m + 1.0)
    if p + q == 0:
        return QmMatrix(
            m=m, p=0, q=0, X=np.zeros((m, 0)), V=np.zeros((0, 0)),
            Q=np.zeros((m, m)), weights=weights, exact_v=True,
        )
    nterms = max(m, _GRAM_TERMS)
    ar_exp = _inverse_poly_coeffs(phi, nterms) if p else None
    ma_exp = _inverse_poly_coeffs(-theta, nterms) if q else None

    def column(exp: np.ndarray, j: int, rows: int) -> np.ndarray:
        col = np.zeros(rows)
        col[j - 1 : rows] = exp[: rows - (j - 1)]
        return col

    cols = [column(ar_exp, j, nterms) for j in range(1, p + 1)]
    cols += [column(ma_exp, j, nterms) for j in range(1, q + 1)]
    big = np.column_stack(cols)
    if q == 0:
        V = _exact_gram(phi)
        exact = True
    elif p == 0:
        V = _exact_gram(-theta)
        exact = True
    else:
        V = big.T @ big
        exact = False
    X = big[:m, :]
    Q = X @ np.linalg.solve(V, X.T)
    return QmMatrix(m=m, p=p, q=q, X=X, V=V, Q=Q, weights=weights, exact_v=exact)


def combo_eigenvalues(qm: QmMatrix) -> np.ndarray:
    """Weights of the chi-square combination approximating the Cm null.

    The lag range is extended to include lag 0 (unit weight, untouched by the
    estimation projection); the final unit entry accounts for the extra lag-0
    cross-correlation component. The sum of the returned values approaches
    2m+5-(p+q) as m grows.
    """
    m = qm.m
    w = np.concatenate(([1.0], qm.weights))
    q_pad = np.zeros((m + 1, m + 1))
    q_pad[1:, 1:] = qm.Q
    mat = (4.0 * np.eye(m + 1) - q_pad) * w[np.newaxis, :]
    eig = np.linalg.eigvals(mat).real
    return np.concatenate((np.sort(eig)[::-1], [1.0]))
