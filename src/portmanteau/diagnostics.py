"""Portmanteau test statistics and their null-distribution approximations.

Twenty named statistics are implemented. "Cm" is the block-matrix
log-determinant statistic -(n/(m+1)) log|R(m)|, which reacts to residual
autocorrelation, squared-residual autocorrelation and residual/squared-residual
cross-correlation at once; its null is approximated by a gamma distribution
with mean 2m+5-(p+q). The remaining statistics are the classical references it
is compared against: quadratic-form tests on one correlation kind (Q families),
determinant tests on one Toeplitz matrix (D families), partial-autocorrelation
tests (M families) and the Li-Mak fitted-variance tests, the pair
``VARIANCE_STATISTICS`` (Lb and its weighted form Lbw), which read the
standardized squared residuals e_t^2/s_t^2 of a fit's conditional variances.

Every statistic but the Li-Mak pair is one row of ``_TABLE``; a new
correlation statistic is one more row. The columns are:

- ``source``: ``rho`` (rho_ij(k), k = 1..m), ``pacf`` (the partial
  autocorrelations of rho_ii), ``toeplitz`` (log|R_ij(m)|) or ``block``
  (log|R(m)| of the block matrix, which spans all four kinds);
- ``i``, ``j``: the powers of the leading and of the lagged residual. The order
  correction p+q applies only when i = j = 1, so the block row is (1, 1);
- ``standardized``: the Toeplitz entries carry the factor sqrt((n+2)/(n-k));
- ``form``: ``bp`` n sum x_k^2, ``lb`` n(n+2) sum x_k^2/(n-k), ``lbw`` the
  same with triangular weights (m-k+1)/m, ``det`` n[1 - |R|^(1/m)] or
  ``logdet`` -(n/(m+1)) log|R|;
- ``null``: ``chi2`` on m minus the correction degrees of freedom, the gamma
  matching triangular weights over m (``tri_m``) or m+1 (``tri_m+1``), or the
  closed-form Cm gamma (``cm``).

Every :class:`TestReport`, Li-Mak's included, comes from one evaluator,
``_evaluate``: it reads a statistic's input, applies its form and takes the
p-value from its null. An input whose Toeplitz or block matrix is not positive
definite, or whose standardized squared residuals are constant, gives the
degenerate report instead. Each public statistic function evaluates its row
on a residual series or on its lag kernel
(:class:`~portmanteau.residuals.LagCorrelations`) at any largest lag >= m;
``evaluate_statistics`` hands one kernel to all of them.

``null_distribution`` gives every statistic's null, so a caller can check
before any data is seen that each (statistic, m) pair has one. The
eigenvalue route to the Cm null and the asymptotic Cm decomposition, used
only to validate this module, live in :mod:`portmanteau.reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .corrmat import _check_order, block_logdet, toeplitz_logdet
from .errors import (
    DegenerateSample,
    DegenerateVariance,
    InvalidOrder,
    InvalidSpec,
    NonPositiveDf,
    NotPositiveDefinite,
    SingularToeplitz,
)
from .models import special
from .residuals import CorrSequence, LagCorrelations, ResidualSeries, garch_standardized_sq_acfs, lag_correlations


@dataclass(frozen=True)
class _Row:
    """One correlation statistic of the table; the module docstring defines the columns."""

    source: str  # "rho" | "pacf" | "toeplitz" | "block"
    i: int
    j: int
    form: str  # "bp" | "lb" | "lbw" | "det" | "logdet"
    null: str  # "chi2" | "tri_m" | "tri_m+1" | "cm"
    standardized: bool = False


_TABLE = {
    "Cm": _Row("block", 1, 1, "logdet", "cm"),
    "Q_BP": _Row("rho", 1, 1, "bp", "chi2"),
    "Q11": _Row("rho", 1, 1, "lb", "chi2"),
    "Q22": _Row("rho", 2, 2, "lb", "chi2"),
    "Q12": _Row("rho", 1, 2, "lb", "chi2"),
    "Q21": _Row("rho", 2, 1, "lb", "chi2"),
    "Qt12": _Row("rho", 1, 2, "bp", "chi2"),
    "Qt21": _Row("rho", 2, 1, "bp", "chi2"),
    "D11": _Row("toeplitz", 1, 1, "det", "tri_m"),
    "D22": _Row("toeplitz", 2, 2, "det", "tri_m"),
    "Dt11": _Row("toeplitz", 1, 1, "logdet", "tri_m+1", standardized=True),
    "Dt22": _Row("toeplitz", 2, 2, "logdet", "tri_m+1", standardized=True),
    "M11": _Row("pacf", 1, 1, "lb", "chi2"),
    "M22": _Row("pacf", 2, 2, "lb", "chi2"),
    "Qw11": _Row("rho", 1, 1, "lbw", "tri_m"),
    "Qw22": _Row("rho", 2, 2, "lbw", "tri_m"),
    "Mw11": _Row("pacf", 1, 1, "lbw", "tri_m"),
    "Mw22": _Row("pacf", 2, 2, "lbw", "tri_m"),
}

VARIANCE_STATISTICS = ("Lb", "Lbw")
ALL_STATISTICS = (*_TABLE, *VARIANCE_STATISTICS)


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
    """Upper-tail probability of the null, equal to scipy.stats' chi2.sf / gamma.sf.

    Calls the special functions those distributions evaluate (chdtrc and
    gammaincc) without their argument handling, keeping its edge cases: NaN
    stays NaN, x <= 0 gives 1 and x = +inf gives 0, where x is the statistic
    divided by the gamma scale.
    """
    if dist[0] == "chi2":
        x = stat
    elif dist[0] == "gamma":
        x = stat / dist[2]
    else:
        raise ValueError(f"unknown distribution tag {dist[0]!r}")
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    return float(special.chdtrc(dist[1], x) if dist[0] == "chi2" else special.gammaincc(dist[1], x))


# ---------------------------------------------------------------------------
# Null distributions
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
    if m < 1:
        raise InvalidOrder(f"lag order m = {m} must be >= 1")
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


@lru_cache(maxsize=1024)
def null_distribution(
    name: str, m: int, order_correction: int = 0, garch_orders: tuple[int, int] = (0, 0)
) -> tuple[int, tuple]:
    """(correction, dist) of statistic ``name``'s null at lag order m.

    A table row takes the fit's order correction only when it reads residual
    autocorrelations (i = j = 1); the Lb family takes b + a from the fitted
    variance orders. Raises :class:`NonPositiveDf` or :class:`InvalidOrder`
    when the correction leaves no null at this m, on every call: the result
    is memoized, a raised error is not.
    """
    if name in VARIANCE_STATISTICS:
        correction = garch_orders[0] + garch_orders[1]
        return correction, _chi2_dist(m, correction)
    row = _TABLE[name]
    correction = order_correction if row.i == row.j == 1 else 0
    if row.null == "chi2":
        return correction, _chi2_dist(m, correction)
    if row.null == "cm":
        return correction, ("gamma", *cm_gamma_params(m, correction))
    over = row.null[len("tri_"):]
    return correction, ("gamma", *gamma_from_moments(*_triangular_moments(m, correction, over=over)))


# ---------------------------------------------------------------------------
# Forms and the row evaluator
# ---------------------------------------------------------------------------


def _bp(x: np.ndarray, n: int, m: int) -> float:
    """n sum x_k^2."""
    return n * float(x @ x)


def _weighted_lb(x: np.ndarray, n: int, m: int, w=1.0) -> float:
    """n(n+2) sum w_k (n-k)^-1 x_k^2; w = 1.0 is Ljung-Box, and 1.0 * x is x bit for bit."""
    k = np.arange(1, m + 1)
    return n * (n + 2.0) * float(np.sum(w * x * x / (n - k)))


def _det(logdet: float, n: int, m: int) -> float:
    """n [1 - |R|^(1/m)] from log|R|."""
    return n * (1.0 - np.exp(logdet / m))


def _logdet(logdet: float, n: int, m: int) -> float:
    """-(n/(m+1)) log|R|."""
    return -(n / (m + 1.0)) * logdet


def _lbw(x: np.ndarray, n: int, m: int) -> float:
    """The Ljung-Box sum with triangular weights w_k = (m-k+1)/m."""
    return _weighted_lb(x, n, m, (m - np.arange(1, m + 1) + 1.0) / m)


_FORMS = {"bp": _bp, "lb": _weighted_lb, "lbw": _lbw, "det": _det, "logdet": _logdet}


def _read(row: _Row, corr: LagCorrelations, m: int):
    """A row's input at lag order m: a correlation vector or a log-determinant."""
    if row.source == "rho":
        return corr.rho(row.i, row.j, m)[1:]
    if row.source == "pacf":
        return corr.pacf(row.i, m)
    if row.source == "toeplitz":
        return toeplitz_logdet(corr, row.i, row.j, m, row.standardized)
    return block_logdet(corr, m)


def _evaluate(name: str, form, read, n: int, m: int, null: tuple[int, tuple]) -> TestReport:
    """Statistic ``name``, ``form(read(), n, m)``, with its p-value: the one maker of a :class:`TestReport`.

    ``null`` is the statistic's ``null_distribution``, computed before the input is read. An
    input whose matrix is not positive definite, or whose variance is zero, gives the
    degenerate report: a NaN statistic with p-value 0.
    """
    correction, dist = null
    try:
        stat = float(form(read(), n, m))
    except (SingularToeplitz, NotPositiveDefinite, DegenerateVariance):
        return TestReport(name, math.nan, m, correction, dist, p_value=0.0, degenerate=True)
    return TestReport(name, stat, m, correction, dist, _pvalue(stat, dist))


def _table_test(
    name: str, series: ResidualSeries | LagCorrelations, m: int, order_correction: int, row: _Row | None = None
) -> TestReport:
    """Statistic ``name`` (its table row unless ``row`` is given) on a series or its kernel.

    Every row needs 1 <= m < n/2, the rule the Toeplitz and block builders apply.
    """
    row = _TABLE[name] if row is None else row
    _check_order(series.n, m)
    corr = lag_correlations(series, m)
    null = null_distribution(name, m, order_correction)
    return _evaluate(name, _FORMS[row.form], lambda: _read(row, corr, m), corr.n, m, null)


def _sequence_test(name: str, form, acf: CorrSequence, n: int, m: int | None, order_correction: int) -> TestReport:
    """A chi-square quadratic form on the first m values of a correlation sequence.

    Every such form has the null of its kind's Ljung-Box row (Q11, Q22, Q12 or Q21).
    """
    m = acf.m if m is None else m
    null = null_distribution("Q" + acf.kind[3:5], m, order_correction)
    return _evaluate(name, form, lambda: acf.values[:m], n, m, null)


def _which(family: str, which: str) -> str:
    """The family's residual ("11") or squared-residual ("22") member."""
    return family + ("11" if which == "residual" else "22")


# ---------------------------------------------------------------------------
# Public statistics
# ---------------------------------------------------------------------------


def ljung_box(acf: CorrSequence, n: int, m: int | None = None, order_correction: int = 0) -> TestReport:
    """n(n+2) sum (n-k)^-1 rho^2(k): the per-lag-weighted quadratic form.

    The chi-square degrees of freedom are m - (p+q) for residual
    autocorrelations and plainly m for squared-residual autocorrelations and
    the cross-correlation variants, whose null does not depend on the fitted
    ARMA order.
    """
    return _sequence_test("Q" + acf.kind[3:], _weighted_lb, acf, n, m, order_correction)


def box_pierce(acf: CorrSequence, n: int, m: int | None = None, order_correction: int = 0) -> TestReport:
    """n sum rho^2(k): the unweighted quadratic form (and its cross variants)."""
    name = "Q_BP" if acf.kind == "rho11" else "Qt" + acf.kind[3:]
    return _sequence_test(name, _bp, acf, n, m, order_correction)


def weighted_q(
    series: ResidualSeries | LagCorrelations, m: int, order_correction: int = 0, which: str = "residual"
) -> TestReport:
    """Triangularly weighted version of the per-lag-weighted quadratic form."""
    return _table_test(_which("Qw", which), series, m, order_correction)


def monti(
    series: ResidualSeries | LagCorrelations, m: int, order_correction: int = 0, which: str = "residual"
) -> TestReport:
    """n(n+2) sum (n-k)^-1 pi_k^2 on residual or squared-residual PACF."""
    return _table_test(_which("M", which), series, m, order_correction)


def weighted_m(
    series: ResidualSeries | LagCorrelations, m: int, order_correction: int = 0, which: str = "residual"
) -> TestReport:
    """Triangularly weighted PACF quadratic form; same gamma null as weighted_q."""
    return _table_test(_which("Mw", which), series, m, order_correction)


def pena_d(
    series: ResidualSeries | LagCorrelations,
    m: int,
    order_correction: int = 0,
    standardized: bool = False,
    which: str = "residual",
) -> TestReport:
    """n [1 - |R_ii(m)|^(1/m)] on the residual or squared-residual matrix."""
    name = _which("D", which)
    return _table_test(name, series, m, order_correction, replace(_TABLE[name], standardized=standardized))


def pena_dtilde(
    series: ResidualSeries | LagCorrelations, m: int, order_correction: int = 0, which: str = "residual"
) -> TestReport:
    """-(n/(m+1)) log|R_ii(m)| with per-lag standardized entries."""
    return _table_test(_which("Dt", which), series, m, order_correction)


def cm_statistic(series: ResidualSeries | LagCorrelations, m: int) -> float:
    """-(n/(m+1)) log|R(m)| on the 2(m+1)-dimensional block matrix."""
    try:
        logdet = _read(_TABLE["Cm"], lag_correlations(series, m), m)
    except NotPositiveDefinite as exc:
        raise DegenerateSample(f"block correlation matrix not positive definite: {exc}") from exc
    return _logdet(logdet, series.n, m)


def cm_test(series: ResidualSeries | LagCorrelations, m: int, p_plus_q: int = 0) -> TestReport:
    """The block log-determinant statistic with its gamma null."""
    return _table_test("Cm", series, m, p_plus_q)


# ---------------------------------------------------------------------------
# Fitted-variance (ARCH adequacy) statistics
# ---------------------------------------------------------------------------


def li_mak(eps, sigma2, m: int, b: int, a: int, weighted: bool = False, acfs=None) -> TestReport:
    """Quadratic form on standardized squared-residual autocorrelations.

    ``sigma2`` are the fitted conditional variances; the correction b+a is the
    number of fitted variance-equation lag parameters. Unweighted and
    triangularly weighted variants share the chi-square null with m-(b+a)
    degrees of freedom.

    ``acfs``, when given, is a function of no arguments giving the
    autocorrelations at lags 1..M for some M >= m, ``garch_standardized_sq_acfs``
    of these inputs at M; the statistic reads their first m, bit for bit the
    values computed at m, because no lag's value depends on M.
    """
    name = "Lbw" if weighted else "Lb"
    null = null_distribution(name, m, garch_orders=(b, a))
    wts = (m - np.arange(1, m + 1) + (b + 1.0)) / m
    form = (lambda x, n, m: n * float(wts @ (x * x))) if weighted else _bp
    read = (lambda: garch_standardized_sq_acfs(eps, sigma2, m)) if acfs is None else (lambda: acfs()[:m])
    return _evaluate(name, form, read, len(eps), m, null)


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
    correlations: LagCorrelations | None = None,
    garch_acfs=None,
) -> dict[str, TestReport]:
    """Compute the requested statistics at one lag order on one residual series.

    Every statistic reads its correlations, partial autocorrelations and
    Toeplitz entries from one lag kernel of the series, so each correlation
    kind is computed once however many statistics use it. ``correlations``
    passes in a kernel of this series at a largest lag >= m, built once and
    shared by the evaluations at every lag order; without it a kernel at m is
    built here. Either way the values are bit for bit the same.

    ``garch_eps``/``garch_sigma2`` feed the Lb family and must come from a
    fitted conditional-variance model; requesting Lb/Lbw without them is an
    error. ``garch_acfs`` passes in their autocorrelations as ``li_mak``'s
    ``acfs`` does, computed once and shared by every lag order; without it
    they are computed here at m. Statistics whose correlation matrices
    degenerate are returned as degenerate reports rather than raised.
    """
    if correlations is None:
        corr = LagCorrelations(series, m)
    elif correlations.series is series:
        corr = correlations
    else:
        raise ValueError("correlations must be the lag kernel of the same residual series")
    reports: dict[str, TestReport] = {}

    for name in names:
        if name in _TABLE:
            reports[name] = _table_test(name, corr, m, order_correction)
        elif name in VARIANCE_STATISTICS:
            if garch_eps is None or garch_sigma2 is None:
                raise InvalidSpec(f"{name} requires fitted conditional variances")
            b, a = garch_orders
            reports[name] = li_mak(garch_eps, garch_sigma2, m, b, a, weighted=(name == "Lbw"), acfs=garch_acfs)
        else:
            raise InvalidSpec(f"unknown statistic {name!r}")
    return reports
