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

Every statistic is one row: the 18 correlation statistics are the rows of
``_TABLE`` and the Li-Mak pair the rows of ``_VARIANCE_ROWS``, joined in
``_ROWS``. A new statistic is one more row. The columns are:

- ``source``: ``rho`` (rho_ij(k), k = 1..m), ``pacf`` (the partial
  autocorrelations of rho_ii), ``toeplitz`` (log|R_ii(m)|, which the kernel
  reads from the same Durbin-Levinson run as the PACF, i = j), ``block``
  (log|R(m)| of the block matrix, which spans all four kinds, by Cholesky),
  all read from a lag kernel of the residuals, or ``variance`` (the
  autocorrelations of a fit's e_t^2/s_t^2, read from its ``_Variance``);
- ``i``, ``j``: the powers of the leading and of the lagged residual;
- ``form``: ``bp`` n sum x_k^2, ``lb`` n(n+2) sum x_k^2/(n-k), ``lbw`` the
  same with triangular weights (m-k+1)/m, ``bpw`` the bp sum with Li-Mak's
  weights (m-k+b+1)/m, ``det`` n[1 - |R|^(1/m)] or ``logdet``
  -(n/(m+1)) log|R|;
- ``null``: ``chi2`` on m minus the correction degrees of freedom, the gamma
  matching triangular weights over m (``tri_m``) or m+1 (``tri_m+1``), or the
  closed-form Cm gamma (``cm``);
- ``correction``: the null's correction, ``arma`` (the fit's p+q, for the rows
  that read residual autocorrelations, the block row included), ``none`` or
  ``variance`` (b+a, the fitted variance orders);
- ``standardized``: the Toeplitz entries off the unit diagonal carry the
  factor sqrt((n+2)/(n-k)).

Every :class:`TestReport` comes from one evaluator, ``_row_test`` through
``_evaluate``: it checks 1 <= m < n/2 on the row's source, reads the row's
input, applies its form and takes the p-value from its null. An input whose
Toeplitz or block matrix is not positive definite, or whose standardized
squared residuals are constant, gives the degenerate report instead. Each
public statistic function evaluates its row on a residual series or on its lag
kernel (:class:`~portmanteau.residuals.LagCorrelations`) at any largest lag
>= m, and ``li_mak`` on one fit's variances; ``evaluate_lags`` hands one
source of each kind to every row at every lag order, and
``evaluate_statistics`` is its one-lag case.

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

from .corrmat import _check_order, block_logdet
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
    """One statistic of the table; the module docstring defines the columns."""

    source: str  # "rho" | "pacf" | "toeplitz" | "block" | "variance"
    i: int
    j: int
    form: str  # "bp" | "lb" | "lbw" | "bpw" | "det" | "logdet"
    null: str  # "chi2" | "tri_m" | "tri_m+1" | "cm"
    correction: str  # "arma" | "none" | "variance"
    standardized: bool = False


_TABLE = {
    "Cm": _Row("block", 1, 1, "logdet", "cm", "arma"),
    "Q_BP": _Row("rho", 1, 1, "bp", "chi2", "arma"),
    "Q11": _Row("rho", 1, 1, "lb", "chi2", "arma"),
    "Q22": _Row("rho", 2, 2, "lb", "chi2", "none"),
    "Q12": _Row("rho", 1, 2, "lb", "chi2", "none"),
    "Q21": _Row("rho", 2, 1, "lb", "chi2", "none"),
    "Qt12": _Row("rho", 1, 2, "bp", "chi2", "none"),
    "Qt21": _Row("rho", 2, 1, "bp", "chi2", "none"),
    "D11": _Row("toeplitz", 1, 1, "det", "tri_m", "arma"),
    "D22": _Row("toeplitz", 2, 2, "det", "tri_m", "none"),
    "Dt11": _Row("toeplitz", 1, 1, "logdet", "tri_m+1", "arma", standardized=True),
    "Dt22": _Row("toeplitz", 2, 2, "logdet", "tri_m+1", "none", standardized=True),
    "M11": _Row("pacf", 1, 1, "lb", "chi2", "arma"),
    "M22": _Row("pacf", 2, 2, "lb", "chi2", "none"),
    "Qw11": _Row("rho", 1, 1, "lbw", "tri_m", "arma"),
    "Qw22": _Row("rho", 2, 2, "lbw", "tri_m", "none"),
    "Mw11": _Row("pacf", 1, 1, "lbw", "tri_m", "arma"),
    "Mw22": _Row("pacf", 2, 2, "lbw", "tri_m", "none"),
}

# The Li-Mak pair, Lb and its weighted form Lbw, read from a fit's conditional variances.
VARIANCE_STATISTICS = ("Lb", "Lbw")
_VARIANCE_ROWS = {
    name: _Row("variance", 2, 2, form, "chi2", "variance") for name, form in zip(VARIANCE_STATISTICS, ("bp", "bpw"))
}
_ROWS = {**_TABLE, **_VARIANCE_ROWS}
ALL_STATISTICS = tuple(_ROWS)


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

    The row's ``correction`` column picks the correction: the fit's order
    correction (``arma``), none, or b + a from the fitted variance orders
    (``variance``). Raises :class:`NonPositiveDf` or :class:`InvalidOrder`
    when the correction leaves no null at this m, on every call: the result
    is memoized, a raised error is not.
    """
    row = _ROWS[name]
    correction = {"arma": order_correction, "none": 0, "variance": garch_orders[0] + garch_orders[1]}[row.correction]
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


def _triangular(m: int, shift: float) -> np.ndarray:
    """Weights (m-k+shift)/m, k = 1..m: shift 1 for the weighted Q and M forms, b+1 for Li-Mak's."""
    return (m - np.arange(1, m + 1) + shift) / m


def _lbw(x: np.ndarray, n: int, m: int) -> float:
    """The Ljung-Box sum with triangular weights w_k = (m-k+1)/m."""
    return _weighted_lb(x, n, m, _triangular(m, 1.0))


def _bpw(x: np.ndarray, n: int, m: int, b: int) -> float:
    """The bp sum with Li-Mak's weights (m-k+b+1)/m, b the fit's first variance order."""
    return n * float(_triangular(m, b + 1.0) @ (x * x))


def _det(logdet: float, n: int, m: int) -> float:
    """n [1 - |R|^(1/m)] from log|R|."""
    return n * (1.0 - np.exp(logdet / m))


def _logdet(logdet: float, n: int, m: int) -> float:
    """-(n/(m+1)) log|R|."""
    return -(n / (m + 1.0)) * logdet


# Each form maps (input, n, m) to the statistic; bpw also takes b, which its row's _Variance source carries.
_FORMS = {"bp": _bp, "lb": _weighted_lb, "lbw": _lbw, "bpw": _bpw, "det": _det, "logdet": _logdet}


class _Variance:
    """A fit's standardized squared residuals e_t^2/s_t^2: the source of the variance rows.

    Their autocorrelations come from one ``garch_standardized_sq_acfs`` call at
    the largest lag M, made at the first read and sliced for every m <= M, bit
    for bit the values computed at m, because no lag's value depends on M. A
    degenerate input raises at every read.
    """

    def __init__(self, eps, sigma2, max_lag: int, b: int):
        self.eps, self.sigma2, self.max_lag, self.b, self.n = eps, sigma2, max_lag, b, len(eps)
        self._acfs = None

    def acfs(self, m: int) -> np.ndarray:
        if self._acfs is None:
            self._acfs = garch_standardized_sq_acfs(self.eps, self.sigma2, self.max_lag)
        return self._acfs[:m]


def _read(row: _Row, source: LagCorrelations | _Variance, m: int):
    """A row's input at lag order m: a correlation vector or a log-determinant."""
    if row.source == "rho":
        return source.rho(row.i, row.j, m)[1:]
    if row.source == "pacf":
        return source.pacf(row.i, m)
    if row.source == "toeplitz":
        return source.logdet(row.i, m, row.standardized)
    if row.source == "variance":
        return source.acfs(m)
    return block_logdet(source, m)


def _evaluate(name: str, statistic, m: int, null: tuple[int, tuple]) -> TestReport:
    """Statistic ``name``, the value of ``statistic()``, with its p-value: the one maker of a :class:`TestReport`.

    ``null`` is the statistic's ``null_distribution``, computed before the input is read. An
    input whose matrix is not positive definite, or whose variance is zero, gives the
    degenerate report: a NaN statistic with p-value 0.
    """
    correction, dist = null
    try:
        stat = float(statistic())
    except (SingularToeplitz, NotPositiveDefinite, DegenerateVariance):
        return TestReport(name, math.nan, m, correction, dist, p_value=0.0, degenerate=True)
    return TestReport(name, stat, m, correction, dist, _pvalue(stat, dist))


def _row_test(
    name: str, source: LagCorrelations | _Variance, m: int, order_correction: int = 0,
    garch_orders: tuple[int, int] = (0, 0), row: _Row | None = None,
) -> TestReport:
    """Statistic ``name`` (its row unless ``row`` is given) on its source: a lag kernel, or a fit's variances.

    Every row needs 1 <= m < n/2 on its source's n, the rule corrmat's Toeplitz and block matrices apply.
    """
    row = _ROWS[name] if row is None else row
    _check_order(source.n, m)
    null = null_distribution(name, m, order_correction, garch_orders)
    args = (source.b,) if row.form == "bpw" else ()  # Li-Mak's weights read the fit's b
    return _evaluate(name, lambda: _FORMS[row.form](_read(row, source, m), source.n, m, *args), m, null)


def _sequence_test(name: str, form, acf: CorrSequence, n: int, m: int | None, order_correction: int) -> TestReport:
    """A chi-square quadratic form on the first m values of a correlation sequence.

    Every such form has the null of its kind's Ljung-Box row (Q11, Q22, Q12 or Q21).
    """
    m = acf.m if m is None else m
    null = null_distribution("Q" + acf.kind[3:5], m, order_correction)
    return _evaluate(name, lambda: form(acf.values[:m], n, m), m, null)


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
    return _row_test(_which("Qw", which), lag_correlations(series, m), m, order_correction)


def monti(
    series: ResidualSeries | LagCorrelations, m: int, order_correction: int = 0, which: str = "residual"
) -> TestReport:
    """n(n+2) sum (n-k)^-1 pi_k^2 on residual or squared-residual PACF."""
    return _row_test(_which("M", which), lag_correlations(series, m), m, order_correction)


def weighted_m(
    series: ResidualSeries | LagCorrelations, m: int, order_correction: int = 0, which: str = "residual"
) -> TestReport:
    """Triangularly weighted PACF quadratic form; same gamma null as weighted_q."""
    return _row_test(_which("Mw", which), lag_correlations(series, m), m, order_correction)


def pena_d(
    series: ResidualSeries | LagCorrelations,
    m: int,
    order_correction: int = 0,
    standardized: bool = False,
    which: str = "residual",
) -> TestReport:
    """n [1 - |R_ii(m)|^(1/m)] on the residual or squared-residual matrix."""
    name = _which("D", which)
    row = replace(_TABLE[name], standardized=standardized)
    return _row_test(name, lag_correlations(series, m), m, order_correction, row=row)


def pena_dtilde(
    series: ResidualSeries | LagCorrelations, m: int, order_correction: int = 0, which: str = "residual"
) -> TestReport:
    """-(n/(m+1)) log|R_ii(m)| with per-lag standardized entries."""
    return _row_test(_which("Dt", which), lag_correlations(series, m), m, order_correction)


def cm_statistic(series: ResidualSeries | LagCorrelations, m: int) -> float:
    """-(n/(m+1)) log|R(m)| on the 2(m+1)-dimensional block matrix."""
    try:
        logdet = _read(_TABLE["Cm"], lag_correlations(series, m), m)
    except NotPositiveDefinite as exc:
        raise DegenerateSample(f"block correlation matrix not positive definite: {exc}") from exc
    return _logdet(logdet, series.n, m)


def cm_test(series: ResidualSeries | LagCorrelations, m: int, p_plus_q: int = 0) -> TestReport:
    """The block log-determinant statistic with its gamma null."""
    return _row_test("Cm", lag_correlations(series, m), m, p_plus_q)


# ---------------------------------------------------------------------------
# Fitted-variance (ARCH adequacy) statistics
# ---------------------------------------------------------------------------


def li_mak(eps, sigma2, m: int, b: int, a: int, weighted: bool = False) -> TestReport:
    """Quadratic form on standardized squared-residual autocorrelations: the Lb (or Lbw) row on one fit.

    ``sigma2`` are the fitted conditional variances; the correction b+a is the
    number of fitted variance-equation lag parameters. Unweighted and
    triangularly weighted (m-k+b+1)/m variants share the chi-square null with
    m-(b+a) degrees of freedom. Like every row, it needs 1 <= m < n/2, n = len(eps).
    """
    return _row_test("Lbw" if weighted else "Lb", _Variance(eps, sigma2, m, b), m, garch_orders=(b, a))


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------


def evaluate_lags(
    names, series: ResidualSeries, m_list, order_correction: int = 0, garch_eps=None, garch_sigma2=None,
    garch_orders: tuple[int, int] = (0, 0), correlations: LagCorrelations | None = None,
) -> list[dict[str, TestReport]]:
    """The requested statistics on one residual series, one dict of reports per lag order in ``m_list``.

    Every row reads one source for all lag orders. The correlation rows read
    one lag kernel of the series: ``correlations`` when given (a kernel of
    this series at a largest lag >= max(m_list)), else one built here at
    max(m_list). The variance rows read ``garch_eps``/``garch_sigma2``, which
    must come from a fitted conditional-variance model, through one
    :class:`_Variance` at max(m_list); requesting Lb/Lbw without them is an
    error. Either way the values are bit for bit those computed at each m
    alone. Statistics whose inputs degenerate are returned as degenerate
    reports rather than raised.
    """
    max_lag = max(m_list)
    if correlations is None:
        correlations = LagCorrelations(series, max_lag)
    elif correlations.series is not series:
        raise ValueError("correlations must be the lag kernel of the same residual series")
    orders = tuple(garch_orders)
    fitted = garch_eps is not None and garch_sigma2 is not None
    variance = _Variance(garch_eps, garch_sigma2, max_lag, orders[0]) if fitted else None
    sources = {}
    for name in names:
        if name not in _ROWS:
            raise InvalidSpec(f"unknown statistic {name!r}")
        sources[name] = variance if _ROWS[name].source == "variance" else correlations
        if sources[name] is None:
            raise InvalidSpec(f"{name} requires fitted conditional variances")
    return [{name: _row_test(name, src, m, order_correction, orders) for name, src in sources.items()} for m in m_list]


def evaluate_statistics(
    names, series: ResidualSeries, m: int, order_correction: int = 0, garch_eps=None, garch_sigma2=None,
    garch_orders: tuple[int, int] = (0, 0), correlations: LagCorrelations | None = None,
) -> dict[str, TestReport]:
    """Compute the requested statistics at one lag order on one residual series: ``evaluate_lags`` at m alone.

    Every statistic reads its correlations, partial autocorrelations and
    log-determinants from one lag kernel of the series, so each correlation
    kind is computed once however many statistics use it; ``correlations``
    passes in a kernel of this series at a largest lag >= m, shared by the
    evaluations at every lag order.
    """
    return evaluate_lags(names, series, (m,), order_correction, garch_eps, garch_sigma2, garch_orders, correlations)[0]
