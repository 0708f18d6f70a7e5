"""Portmanteau test statistics and their null-distribution approximations.

Twenty named statistics are implemented. "Cm" is the block-matrix
log-determinant statistic -(n/(m+1)) log|R(m)|, which reacts to residual
autocorrelation, squared-residual autocorrelation and residual/squared-residual
cross-correlation at once; its null is approximated by a gamma distribution
with mean 2m+5-(p+q). The remaining statistics are the classical references it
is compared against: quadratic-form tests on one correlation kind (Q families),
determinant tests on one Toeplitz matrix (D families), partial-autocorrelation
tests (M families) and the fitted-variance tests (Lb family).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_discrete_lyapunov
from scipy.signal import lfilter
from scipy.stats import chi2 as _chi2
from scipy.stats import gamma as _gamma

from .corrmat import build_block, build_toeplitz, logdet_pd
from .errors import (
    DegenerateSample,
    DegenerateVariance,
    InvalidOrder,
    InvalidSpec,
    NonInvertible,
    NonPositiveDf,
    NonStationary,
    NotPositiveDefinite,
    SingularToeplitz,
)
from .residuals import (
    CorrSequence,
    ResidualSeries,
    correlogram,
    cross_correlation,
    durbin_levinson,
    garch_standardized_sq_acfs,
)

ALL_STATISTICS = (
    "Cm",
    "Q_BP",
    "Q11",
    "Q22",
    "Q12",
    "Q21",
    "Qt12",
    "Qt21",
    "D11",
    "D22",
    "Dt11",
    "Dt22",
    "M11",
    "M22",
    "Qw11",
    "Qw22",
    "Mw11",
    "Mw22",
    "Lb",
    "Lbw",
)

@dataclass(frozen=True)
class TestReport:
    """Outcome of one portmanteau test.

    ``dist`` is ("chi2", df) or ("gamma", shape, scale). ``degenerate`` marks
    samples whose correlation matrices failed a positive-definiteness check;
    such reports carry p_value = 0 so downstream counting can treat them as
    boundary rejections while still seeing the flag.
    """

    name: str
    statistic: float
    m: int
    order_correction: int
    dist: tuple
    p_value: float
    degenerate: bool = False


def _pvalue(stat: float, dist: tuple) -> float:
    if dist[0] == "chi2":
        return float(_chi2.sf(stat, dist[1]))
    if dist[0] == "gamma":
        return float(_gamma.sf(stat, dist[1], scale=dist[2]))
    raise ValueError(f"unknown distribution tag {dist[0]!r}")


def _report(name: str, stat: float, m: int, correction: int, dist: tuple) -> TestReport:
    return TestReport(
        name=name,
        statistic=float(stat),
        m=m,
        order_correction=correction,
        dist=dist,
        p_value=_pvalue(float(stat), dist),
    )


def _degenerate(name: str, m: int, correction: int, dist: tuple) -> TestReport:
    return TestReport(
        name=name,
        statistic=float("nan"),
        m=m,
        order_correction=correction,
        dist=dist,
        p_value=0.0,
        degenerate=True,
    )


# ---------------------------------------------------------------------------
# Gamma approximations for weighted quadratic forms
# ---------------------------------------------------------------------------


def gamma_from_moments(sum_lambda: float, sum_lambda_sq: float) -> tuple[float, float]:
    """(shape, scale) of the gamma matching a weighted chi-square combination.

    A combination sum_l lambda_l chi2_1 with weight sums (S1, S2) is
    approximated by a*chi2_b with a = S2/S1 and b = S1^2/S2, i.e. a gamma with
    shape b/2 and scale 2a.
    """
    if sum_lambda <= 0.0 or sum_lambda_sq <= 0.0:
        raise InvalidOrder("weight sums of the quadratic form must be positive")
    a = sum_lambda_sq / sum_lambda
    b = sum_lambda * sum_lambda / sum_lambda_sq
    return b / 2.0, 2.0 * a


def cm_moment_sums(m: int, p_plus_q: int) -> tuple[float, float]:
    """Weight sums (S1, S2) of the chi-square combination behind the Cm null."""
    s = p_plus_q
    sum_lambda = 2.0 * m + 5.0 - s
    sum_lambda_sq = 4.0 * (m + 2.0) * (2.0 * m + 3.0) / (3.0 * (m + 1.0)) + 1.0 - s
    return sum_lambda, sum_lambda_sq


def cm_gamma_params(m: int, p_plus_q: int) -> tuple[float, float]:
    """Closed-form (shape, scale) of the gamma null for the Cm statistic.

    The parameters satisfy shape*scale = 2m+5-(p+q) and
    shape*scale^2 = (8/3)(m+2)(2m+3)/(m+1) + 2(1-(p+q)) identically.
    """
    if m < 1:
        raise InvalidOrder(f"lag order m = {m} must be >= 1")
    s = p_plus_q
    mean = 2.0 * m + 5.0 - s
    if mean <= 0.0:
        raise InvalidOrder(f"order correction {s} makes the null mean non-positive")
    den = 8.0 * (m + 2.0) * (2.0 * m + 3.0) + 6.0 * (m + 1.0) - 6.0 * (m + 1.0) * s
    if den <= 0.0:
        raise InvalidOrder(f"order correction {s} makes the null variance non-positive")
    shape = 3.0 * (m + 1.0) * mean * mean / den
    scale = den / (3.0 * (m + 1.0) * mean)
    return shape, scale


def _triangular_moments(m: int, correction: int, over: str) -> tuple[float, float]:
    """Weight sums for triangular weight profiles.

    over = "m+1": weights (m+1-k)/(m+1), k = 1..m (log-determinant statistics).
    over = "m":   weights (m-k+1)/m,     k = 1..m (weighted Q/M statistics).
    """
    if over == "m+1":
        s1 = m / 2.0
        s2 = m * (2.0 * m + 1.0) / (6.0 * (m + 1.0))
    else:
        s1 = (m + 1.0) / 2.0
        s2 = (m + 1.0) * (2.0 * m + 1.0) / (6.0 * m)
    s1 -= correction
    s2 -= correction
    if s1 <= 0.0 or s2 <= 0.0:
        raise InvalidOrder(f"order correction {correction} too large for m = {m}")
    return s1, s2


def _chi2_dist(m: int, correction: int) -> tuple:
    df = m - correction
    if df <= 0:
        raise NonPositiveDf(f"m = {m} minus correction {correction} leaves no degrees of freedom")
    return ("chi2", df)


# ---------------------------------------------------------------------------
# Quadratic-form statistics on correlation sequences
# ---------------------------------------------------------------------------

_Q_NAMES = {"rho11": "Q11", "rho22": "Q22", "rho12": "Q12", "rho21": "Q21"}
_QT_NAMES = {"rho11": "Q_BP", "rho12": "Qt12", "rho21": "Qt21", "rho22": "Qt22"}


def ljung_box(acf: CorrSequence, n: int, m: int | None = None, order_correction: int = 0) -> TestReport:
    """n(n+2) sum (n-k)^-1 rho^2(k): the per-lag-weighted quadratic form.

    The chi-square degrees of freedom are m - (p+q) for residual
    autocorrelations and plainly m for squared-residual autocorrelations and
    the cross-correlation variants, whose null does not depend on the fitted
    ARMA order.
    """
    if m is None:
        m = acf.m
    rho = acf.values[:m]
    k = np.arange(1, m + 1)
    stat = n * (n + 2.0) * float(np.sum(rho * rho / (n - k)))
    correction = order_correction if acf.kind == "rho11" else 0
    return _report(_Q_NAMES[acf.kind], stat, m, correction, _chi2_dist(m, correction))


def box_pierce(acf: CorrSequence, n: int, m: int | None = None, order_correction: int = 0) -> TestReport:
    """n sum rho^2(k): the unweighted quadratic form (and its cross variants)."""
    if m is None:
        m = acf.m
    rho = acf.values[:m]
    stat = n * float(rho @ rho)
    correction = order_correction if acf.kind == "rho11" else 0
    return _report(_QT_NAMES[acf.kind], stat, m, correction, _chi2_dist(m, correction))


def weighted_q(series: ResidualSeries, m: int, order_correction: int = 0, which: str = "residual") -> TestReport:
    """Triangularly weighted version of the per-lag-weighted quadratic form."""
    i = 1 if which == "residual" else 2
    n = series.n
    rho = correlogram(series, i, i, m).values
    k = np.arange(1, m + 1)
    w = (m - k + 1.0) / m
    stat = n * (n + 2.0) * float(np.sum(w * rho * rho / (n - k)))
    correction = order_correction if which == "residual" else 0
    shape, scale = gamma_from_moments(*_triangular_moments(m, correction, over="m"))
    return _report("Qw11" if i == 1 else "Qw22", stat, m, correction, ("gamma", shape, scale))


# ---------------------------------------------------------------------------
# Partial-autocorrelation statistics
# ---------------------------------------------------------------------------


def monti(series: ResidualSeries, m: int, order_correction: int = 0, which: str = "residual") -> TestReport:
    """n(n+2) sum (n-k)^-1 pi_k^2 on residual or squared-residual PACF."""
    i = 1 if which == "residual" else 2
    n = series.n
    correction = order_correction if which == "residual" else 0
    dist = _chi2_dist(m, correction)
    name = "M11" if i == 1 else "M22"
    try:
        pac = durbin_levinson(correlogram(series, i, i, m).values)
    except SingularToeplitz:
        return _degenerate(name, m, correction, dist)
    k = np.arange(1, m + 1)
    stat = n * (n + 2.0) * float(np.sum(pac * pac / (n - k)))
    return _report(name, stat, m, correction, dist)


def weighted_m(series: ResidualSeries, m: int, order_correction: int = 0, which: str = "residual") -> TestReport:
    """Triangularly weighted PACF quadratic form; same gamma null as weighted_q."""
    i = 1 if which == "residual" else 2
    n = series.n
    correction = order_correction if which == "residual" else 0
    shape, scale = gamma_from_moments(*_triangular_moments(m, correction, over="m"))
    dist = ("gamma", shape, scale)
    name = "Mw11" if i == 1 else "Mw22"
    try:
        pac = durbin_levinson(correlogram(series, i, i, m).values)
    except SingularToeplitz:
        return _degenerate(name, m, correction, dist)
    k = np.arange(1, m + 1)
    w = (m - k + 1.0) / m
    stat = n * (n + 2.0) * float(np.sum(w * pac * pac / (n - k)))
    return _report(name, stat, m, correction, dist)


# ---------------------------------------------------------------------------
# Determinant statistics on one Toeplitz matrix
# ---------------------------------------------------------------------------


def pena_d(
    series: ResidualSeries,
    m: int,
    order_correction: int = 0,
    standardized: bool = False,
    which: str = "residual",
) -> TestReport:
    """n [1 - |R_ii(m)|^(1/m)] on the residual or squared-residual matrix."""
    i = 1 if which == "residual" else 2
    n = series.n
    correction = order_correction if which == "residual" else 0
    shape, scale = gamma_from_moments(*_triangular_moments(m, correction, over="m"))
    dist = ("gamma", shape, scale)
    try:
        mat = build_toeplitz(series, i, i, m, standardized=standardized)
        logdet = logdet_pd(mat)
    except NotPositiveDefinite:
        return _degenerate("D11" if i == 1 else "D22", m, correction, dist)
    stat = n * (1.0 - np.exp(logdet / m))
    return _report("D11" if i == 1 else "D22", stat, m, correction, dist)


def pena_dtilde(series: ResidualSeries, m: int, order_correction: int = 0, which: str = "residual") -> TestReport:
    """-(n/(m+1)) log|R_ii(m)| with per-lag standardized entries."""
    i = 1 if which == "residual" else 2
    n = series.n
    correction = order_correction if which == "residual" else 0
    shape, scale = gamma_from_moments(*_triangular_moments(m, correction, over="m+1"))
    dist = ("gamma", shape, scale)
    try:
        mat = build_toeplitz(series, i, i, m, standardized=True)
        logdet = logdet_pd(mat)
    except NotPositiveDefinite:
        return _degenerate("Dt11" if i == 1 else "Dt22", m, correction, dist)
    stat = -(n / (m + 1.0)) * logdet
    return _report("Dt11" if i == 1 else "Dt22", stat, m, correction, dist)


# ---------------------------------------------------------------------------
# Block log-determinant statistic
# ---------------------------------------------------------------------------


def cm_statistic(series: ResidualSeries, m: int) -> float:
    """-(n/(m+1)) log|R(m)| on the 2(m+1)-dimensional block matrix."""
    block = build_block(series, m)
    try:
        logdet = logdet_pd(block)
    except NotPositiveDefinite as exc:
        raise DegenerateSample(f"block correlation matrix not positive definite: {exc}") from exc
    return -(series.n / (m + 1.0)) * logdet


def cm_test(series: ResidualSeries, m: int, p_plus_q: int = 0) -> TestReport:
    """The block log-determinant statistic with its gamma null."""
    shape, scale = cm_gamma_params(m, p_plus_q)
    dist = ("gamma", shape, scale)
    try:
        stat = cm_statistic(series, m)
    except DegenerateSample:
        return _degenerate("Cm", m, p_plus_q, dist)
    return _report("Cm", stat, m, p_plus_q, dist)


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
# Fitted-variance (ARCH adequacy) statistics
# ---------------------------------------------------------------------------


def li_mak(eps, sigma2, m: int, b: int, a: int, weighted: bool = False) -> TestReport:
    """Quadratic form on standardized squared-residual autocorrelations.

    ``sigma2`` are the fitted conditional variances; the correction b+a is the
    number of fitted variance-equation lag parameters. Unweighted and
    triangularly weighted variants share the chi-square null with m-(b+a)
    degrees of freedom.
    """
    n = len(eps)
    correction = b + a
    dist = _chi2_dist(m, correction)
    name = "Lbw" if weighted else "Lb"
    try:
        rho = garch_standardized_sq_acfs(eps, sigma2, m)
    except DegenerateVariance:
        return _degenerate(name, m, correction, dist)
    if weighted:
        k = np.arange(1, m + 1)
        wts = (m - k + (b + 1.0)) / m
        stat = n * float(wts @ (rho * rho))
    else:
        stat = n * float(rho @ rho)
    return _report(name, stat, m, correction, dist)


# ---------------------------------------------------------------------------
# Quadratic-form weight machinery (validation path for the gamma null)
# ---------------------------------------------------------------------------


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
    return lfilter([1.0], np.concatenate(([1.0], -ar_style)), impulse)


def _check_roots(coeffs: np.ndarray, error, label: str) -> None:
    if coeffs.size == 0:
        return
    # polynomial 1 - a1 z - ... - ap z^p; roots must lie outside the unit circle
    poly = np.concatenate(([1.0], -coeffs))
    roots = np.roots(poly[::-1])
    if roots.size and np.min(np.abs(roots)) <= 1.0 + 1e-10:
        raise error(f"{label} polynomial has a root on or inside the unit circle")


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
    return solve_discrete_lyapunov(companion, noise)


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
    _check_roots(phi, NonStationary, "autoregressive")
    # 1/theta(B) with theta(B) = 1 + t1 B + ... is the a-style expansion of -theta
    _check_roots(-theta, NonInvertible, "moving-average")
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


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------


def evaluate_statistics(
    names,
    series: ResidualSeries,
    m: int,
    order_correction: int = 0,
    garch_eps=None,
    garch_sigma2=None,
    garch_orders: tuple[int, int] = (0, 0),
) -> dict[str, TestReport]:
    """Compute the requested statistics at one lag order on one residual series.

    ``garch_eps``/``garch_sigma2`` feed the Lb family and must come from a
    fitted conditional-variance model; requesting Lb/Lbw without them is an
    error. Statistics whose correlation matrices degenerate are returned as
    degenerate reports rather than raised.
    """
    n = series.n
    reports: dict[str, TestReport] = {}
    acfs: dict[str, CorrSequence] = {}

    def acf(i: int, j: int) -> CorrSequence:
        key = f"rho{i}{j}"
        if key not in acfs:
            acfs[key] = correlogram(series, i, j, m)
        return acfs[key]

    for name in names:
        if name not in ALL_STATISTICS:
            raise InvalidSpec(f"unknown statistic {name!r}")
        if name == "Cm":
            reports[name] = cm_test(series, m, order_correction)
        elif name == "Q_BP":
            reports[name] = box_pierce(acf(1, 1), n, m, order_correction)
        elif name == "Q11":
            reports[name] = ljung_box(acf(1, 1), n, m, order_correction)
        elif name == "Q22":
            reports[name] = ljung_box(acf(2, 2), n, m)
        elif name == "Q12":
            reports[name] = ljung_box(acf(1, 2), n, m)
        elif name == "Q21":
            reports[name] = ljung_box(acf(2, 1), n, m)
        elif name == "Qt12":
            reports[name] = box_pierce(acf(1, 2), n, m)
        elif name == "Qt21":
            reports[name] = box_pierce(acf(2, 1), n, m)
        elif name == "D11":
            reports[name] = pena_d(series, m, order_correction, which="residual")
        elif name == "D22":
            reports[name] = pena_d(series, m, which="squared")
        elif name == "Dt11":
            reports[name] = pena_dtilde(series, m, order_correction, which="residual")
        elif name == "Dt22":
            reports[name] = pena_dtilde(series, m, which="squared")
        elif name == "M11":
            reports[name] = monti(series, m, order_correction, which="residual")
        elif name == "M22":
            reports[name] = monti(series, m, which="squared")
        elif name == "Qw11":
            reports[name] = weighted_q(series, m, order_correction, which="residual")
        elif name == "Qw22":
            reports[name] = weighted_q(series, m, which="squared")
        elif name == "Mw11":
            reports[name] = weighted_m(series, m, order_correction, which="residual")
        elif name == "Mw22":
            reports[name] = weighted_m(series, m, which="squared")
        else:  # Lb / Lbw
            if garch_eps is None or garch_sigma2 is None:
                raise InvalidSpec(f"{name} requires fitted conditional variances")
            b, a = garch_orders
            reports[name] = li_mak(garch_eps, garch_sigma2, m, b, a, weighted=(name == "Lbw"))
    return reports
