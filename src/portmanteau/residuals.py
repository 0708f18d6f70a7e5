"""Residual series, their (cross-)correlations, partial autocorrelations and Toeplitz log-determinants.

Conventions used throughout: a residual series of length n is reduced to two
centered transforms, f1(e_t) = e_t - mean(e) and f2(e_t) = e_t^2 - mean(e^2).
All covariances use the divisor n regardless of lag, so every sample
correlation sequence is positive semidefinite by construction.

Every per-series quantity is computed for a stack of R series at once, and a
lone series is the stack of one; each row is bit for bit its series alone.
``residual_series_block`` centers a stack of residual series. Every
correlation the statistics use comes from one lag kernel,
:class:`LagCorrelations`: for a stack of equal-length series and a largest
lag M it computes the four kinds rho_11, rho_22, rho_12 and rho_21 over lags
0..M once, one stacked dot product per lag for every row and kind, and runs
the Durbin-Levinson recursion once, on rho_11 and rho_22 of every row, raw
and standardized, all in lock step (``durbin_levinson_rows``). Those runs
give the partial autocorrelations and, through
log|R(m)| = sum_{k<=m} (m+1-k) log1p(-pi_k^2), the log-determinant of every
unit-diagonal Toeplitz autocorrelation matrix the D statistics read. Every
smaller lag order m reads a prefix of those sequences, which is bit for bit
what a separate computation at m gives, because no lag's value depends on M.
``cross_corr_sequence``, ``correlogram`` and the statistics in
``diagnostics`` all read the kernel.
The single-lag and standalone-PACF oracles the tests check the kernel
against live in :mod:`portmanteau.reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVariance,
    LagOutOfRange,
    NonFinite,
    NonPositiveVariance,
    PortmanteauError,
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

    kind is one of "rho11", "rho22", "rho12" and "rho21"; the first index is
    the power of the leading residual, the second the power of the lagged one.
    """

    kind: str
    lags: np.ndarray
    values: np.ndarray
    standardized: bool = False

    @property
    def m(self) -> int:
        return int(self.lags[-1]) if len(self.lags) else 0


def residual_series_block(rows) -> list:
    """:func:`make_residual_series` of each row of an (R, n) stack, computed for all rows at once.

    Entry r is row r's :class:`ResidualSeries` or the :class:`PortmanteauError`
    its series raises alone, and each row is bit for bit its lone series: the
    row means are reductions along the row, the transforms elementwise, and
    each zero-lag variance is the row's own BLAS dot product, one stacked
    ``np.matmul`` for every row and transform. A row's series are views of the
    stack.
    """
    v = np.asarray(rows, dtype=float)
    count, n = v.shape
    if n < 4:
        return [TooShort(f"need at least 4 observations, got {n}")] * count
    # Finite residuals can still overflow here (e^2 of an exploding path). The
    # overflow is reported by the NonFinite below, not by a warning: an
    # infinite or NaN variance would otherwise poison every correlation.
    centered = np.empty((count, 2, n))
    with np.errstate(over="ignore", invalid="ignore"):
        # Each row's mean is its sum along the row over n, as ndarray.mean divides it.
        np.subtract(v, np.add.reduce(v, axis=1, keepdims=True) / n, out=centered[:, 0])
        sq = v * v
        np.subtract(sq, np.add.reduce(sq, axis=1, keepdims=True) / n, out=centered[:, 1])
        gamma0 = np.matmul(centered[:, :, None, :], centered[:, :, :, None])[:, :, 0, 0] / n
    finite = np.isfinite(v).all(axis=1)
    out: list = []
    for r, (g11, g22) in enumerate(gamma0.tolist()):
        if not finite[r]:
            out.append(NonFinite("residual series contains NaN or Inf"))
        elif not (math.isfinite(g11) and math.isfinite(g22)):
            out.append(NonFinite("zero-lag variance of the residuals or their squares overflowed"))
        elif g11 < VARIANCE_FLOOR:
            out.append(DegenerateVariance("residual series is constant (gamma11_0 = 0)"))
        elif g22 < VARIANCE_FLOOR:
            out.append(DegenerateVariance("squared residual series is constant (gamma22_0 = 0)"))
        else:
            c1, c2 = centered[r]
            out.append(ResidualSeries(values=v[r], n=n, centered1=c1, centered2=c2, gamma11_0=g11, gamma22_0=g22))
    return out


def _lone(entries: list):
    """The entry of a block of one, raising it when it is an error."""
    if isinstance(entries[0], PortmanteauError):
        raise entries[0]
    return entries[0]


def make_residual_series(values) -> ResidualSeries:
    """Build a :class:`ResidualSeries`, centering e_t and e_t^2 at their own means.

    ``residual_series_block`` of one row.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("residual series must be one-dimensional")
    return _lone(residual_series_block(v[None]))


def _check_power(i: int) -> None:
    if i not in (1, 2):
        raise ValueError(f"power index must be 1 or 2, got {i}")


# The stacked lag pass takes at most about this many values (rows x n) at a
# time, so that a chunk's stack stays in cache: every block of 64 rows with
# n <= 500 is one chunk, and at n = 2000 a chunk is 16 rows.
_CHUNK_VALUES = 32768


def _lag_pass(series: list[ResidualSeries], m: int) -> np.ndarray:
    """rho_ij(k) of R equal-length series, as an (R, 2, 2, m+1) array indexed [r, i-1, j-1, k].

    One stacked matrix product per lag gives all four kinds of every row of a
    chunk: a (1, n-k) row times an (n-k, 1) column per (row, i, j), which
    ``np.matmul`` takes as the BLAS dot of that row's own two slices, as a lone
    series' ``fi[:n-k] @ fj[k:]`` does, and each row's kind is then divided by
    its ``sqrt(gamma_ii(0) gamma_jj(0)) n``. So every row is bit for bit the
    pass over its series alone, whatever the chunk size.
    """
    n = series[0].n
    if m >= n:
        raise LagOutOfRange(f"m = {m} must be smaller than n = {n}")
    out = np.empty((len(series), 2, 2, m + 1))
    rows = max(1, _CHUNK_VALUES // n)
    for first in range(0, len(series), rows):
        centered = np.array([(s.centered1, s.centered2) for s in series[first : first + rows]])  # (rows, 2, n)
        lead = centered[:, :, None, None, :]
        lagged = centered[:, None, :, :, None]
        part = out[first : first + rows]
        for k in range(m + 1):
            np.matmul(lead[..., : n - k], lagged[..., k:, :], out=part[..., k, None, None])
    gamma0 = np.array([(s.gamma11_0, s.gamma22_0) for s in series])
    out /= (np.sqrt(gamma0[:, :, None] * gamma0[:, None, :]) * n)[..., None]
    return out


def cross_corr_sequence(series: ResidualSeries, i: int, j: int, m: int) -> np.ndarray:
    """Vector of rho_ij(k) for k = 0..m: the lag pass over one series; a new array on every call."""
    return LagCorrelations(series, m).rho(i, j, m).copy()


def standardization_factors(n: int, lags) -> np.ndarray:
    """The per-lag factors sqrt((n+2)/(n-|k|)) of the standardized correlations."""
    return np.sqrt((n + 2.0) / (n - np.abs(lags)))


def durbin_levinson_rows(rho: np.ndarray) -> list[tuple[np.ndarray, int | None, np.ndarray]]:
    """The Durbin-Levinson recursion on each row rho(1..M) of an (R, M) stack, in lock step.

    Entry r is row r's run: the partial autocorrelations it reached, read-only,
    the order K at which its prediction-error variance hit zero or below
    (None when it never did before order M), and, read-only, the
    log-determinants log|R(m)| = sum_{k<=m} (m+1-k) log1p(-pi_k^2) of its
    unit-diagonal Toeplitz matrices for every m = 0..M, one cumulative sum of
    log v_k per row (see :func:`logdet_prefix`). The recursion up to order m
    does not depend on M, so the run at M answers every m <= M (see
    :func:`pacf_prefix`). Each step is elementwise or, for the sum
    phi_1 rho_{k-1} + ... + phi_{k-1} rho_1, a stacked ``np.matmul`` on the
    reversed rho as a strided view, which numpy sums per row in the order the
    lone 1-D product does; so every row's run is bit for bit its lone run. A
    row that has broken down keeps its own K while the others go on.
    """
    rho = np.asarray(rho, dtype=float)
    count, m = rho.shape
    # Indexed [k - 1, r]: pi_k, v after order k and the coefficients phi_k of every row.
    pacf, variance, phi = np.empty((m, count)), np.empty((m, count)), np.zeros((m, count))
    dot = np.empty((count, 1, 1))
    lead, lagged, dot_rows, v = phi.T[:, None, :], rho[:, :, None], dot[:, 0, 0], np.ones(count)
    logdets = np.zeros((count, m + 1))
    # A row past its breakdown divides by v <= 0: no later pi_k is read, and its later
    # log-determinants are -inf or NaN.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k, (pik, rho_k, v_k) in enumerate(zip(pacf, rho.T, variance), start=1):
            if k == 1:
                pik[:] = rho_k
            else:
                np.matmul(lead[..., : k - 1], lagged[:, k - 2 :: -1], out=dot)
                np.divide(rho_k - dot_rows, v, out=pik)
                phi[: k - 1] -= pik * phi[k - 2 :: -1]
            phi[k - 1] = pik
            v = np.multiply(v, 1.0 - pik * pik, out=v_k)
        pacf = np.ascontiguousarray(pacf.T)
        np.cumsum(np.cumsum(np.log1p(-pacf * pacf), axis=1), axis=1, out=logdets[:, 1:])
    pacf.flags.writeable = logdets.flags.writeable = False
    # Order k + 1 is refused when v <= 0 after order k, k < M: K is the first such k, and M means none.
    refused = np.concatenate((variance.T[:, : max(m - 1, 0)] <= 0.0, np.ones((count, 1), dtype=bool)), axis=1)
    failed = [order if order < m else None for order in (np.argmax(refused, axis=1) + 1).tolist()]
    return [(pacf[r, :order], order, logdets[r]) for r, order in enumerate(failed)]


def durbin_levinson_prefix(rho: np.ndarray) -> tuple[np.ndarray, int | None, np.ndarray]:
    """The Durbin-Levinson recursion on rho(1..M), run as far as it goes: ``durbin_levinson_rows`` of one row."""
    return durbin_levinson_rows(np.asarray(rho, dtype=float)[None])[0]


def pacf_prefix(run: tuple[np.ndarray, int | None, np.ndarray], m: int) -> np.ndarray:
    """pi_1..pi_m from a :func:`durbin_levinson_prefix` run at some M >= m.

    Raises :class:`SingularToeplitz` exactly when ``durbin_levinson`` on the
    first m correlations would: when the run broke down at an order K < m.
    """
    values, failed, _ = run
    if failed is not None and m > failed:
        raise SingularToeplitz(failed)
    return values[:m]


def logdet_prefix(run: tuple[np.ndarray, int | None, np.ndarray], m: int) -> float:
    """log|R(m)| of the unit-diagonal Toeplitz matrix of rho(0..m), from a :func:`durbin_levinson_prefix` run at M >= m.

    R(m) is positive definite exactly when pi_1..pi_m all lie in (-1, 1),
    that is, exactly when the value is finite: a |pi_k| >= 1 makes
    log1p(-pi_k^2) -inf or NaN, and so every later sum. Else this raises
    :class:`SingularToeplitz` with that first order k. The run's K is not
    used, since no run at M examines v_M.
    """
    logdets = run[2][: m + 1]
    if not math.isfinite(logdets[m]):
        raise SingularToeplitz(int(np.argmin(np.isfinite(logdets))))
    return float(logdets[m])


def durbin_levinson(rho: np.ndarray) -> np.ndarray:
    """Partial autocorrelations from rho(1..m) by the Durbin-Levinson recursion.

    Raises :class:`SingularToeplitz` (with the failing order) as soon as a
    prediction-error variance hits zero or below, i.e. the leading Toeplitz
    minor of that order is not positive definite.
    """
    rho = np.asarray(rho, dtype=float)
    return pacf_prefix(durbin_levinson_prefix(rho), rho.size)


def _autocorrelation_runs(rho: np.ndarray, n: int) -> list:
    """Per row of an (R, 2, 2, M+1) lag pass, its runs on rho_11 and rho_22, raw and standardized.

    One ``durbin_levinson_rows`` call on the 4R sequences; row r's entry holds
    its four runs indexed 2 standardized + i - 1, the standardized sequences
    being those of :meth:`LagCorrelations.correlogram`.
    """
    auto = rho[:, (0, 1), (0, 1), 1:]  # (R, 2, M): rho_11(1..M) and rho_22(1..M)
    max_lag = auto.shape[-1]
    factors = standardization_factors(n, np.arange(1, max_lag + 1))
    runs = durbin_levinson_rows(np.stack((auto, factors * auto), axis=1).reshape(4 * len(rho), max_lag))
    return [runs[k : k + 4] for k in range(0, len(runs), 4)]


class _LagBlock:
    """Equal-length residual series and, from its first use, their lag pass at largest lag M.

    ``shared`` keeps, per key, a value computed once for every row, such as the
    rows' Durbin-Levinson runs or their block log-determinants.
    """

    def __init__(self, series, max_lag: int):
        self.series = list(series)
        if any(s.n != self.series[0].n for s in self.series):
            raise ValueError("a lag block needs residual series of one length")
        self.max_lag = max_lag
        self._rho: np.ndarray | None = None
        self._shared: dict = {}

    def rho(self) -> np.ndarray:
        """The read-only (R, 2, 2, M+1) array of :func:`_lag_pass`."""
        if self._rho is None:
            self._rho = _lag_pass(self.series, self.max_lag)
            self._rho.flags.writeable = False
        return self._rho

    def shared(self, key, compute) -> list:
        """``compute()``, a list with one entry per row, computed at the first call with ``key`` and then kept."""
        value = self._shared.get(key)
        if value is None:
            value = self._shared[key] = compute()
        return value


class LagCorrelations:
    """The lag kernel: the correlations of one residual series up to lag M.

    ``rho(i, j, m)`` is rho_ij(k) for k = 0..m, ``pacf(i, m)`` the partial
    autocorrelations pi_1..pi_m of rho_ii and ``logdet(i, m, standardized)``
    log|R_ii(m)|, for any m <= M. The four kinds' correlations over lags 0..M
    and the Durbin-Levinson runs are computed on first use and then sliced, so
    a statistic battery over several lag orders correlates the series once.
    The returned arrays are read-only views of that cache.

    A kernel is one row of a lag pass over a stack of equal-length series:
    :meth:`stack` gives the kernels of R series that share one pass. Every
    quantity a kernel reads is computed for all R rows at the first use by any
    of them, each row keeping its own values: the pass, the four
    Durbin-Levinson runs of every row in one stack (each run breaking down at
    its own order) and, through :meth:`shared`, whatever a reader keys there,
    such as the block log-determinants of ``corrmat``. A kernel built from one
    series is the stack of one; either way each row's values are bit for bit
    the same.
    """

    def __init__(self, series: ResidualSeries, max_lag: int):
        self._attach(_LagBlock([series], max_lag), 0)

    @classmethod
    def stack(cls, series, max_lag: int) -> list[LagCorrelations]:
        """The kernels of equal-length series at largest lag ``max_lag``, sharing one lag pass."""
        block = _LagBlock(series, max_lag)
        kernels = [cls.__new__(cls) for _ in block.series]
        for row, kernel in enumerate(kernels):
            kernel._attach(block, row)
        return kernels

    def _attach(self, block: _LagBlock, row: int) -> None:
        """Make this kernel row ``row`` of ``block``."""
        self.series = block.series[row]
        self.n = self.series.n
        self.max_lag = block.max_lag
        self._block = block
        self._row = row

    def _check_lag(self, m: int) -> None:
        if m > self.max_lag:
            raise LagOutOfRange(f"m = {m} exceeds the kernel's largest lag {self.max_lag}")

    def rho(self, i: int, j: int, m: int) -> np.ndarray:
        """rho_ij(k) for k = 0..m."""
        _check_power(i)
        _check_power(j)
        self._check_lag(m)
        return self._block.rho()[self._row, i - 1, j - 1, : m + 1]

    def shared(self, key, m: int, compute):
        """This row's entry of ``compute(rho)``, computed once for the whole block per ``key``.

        ``rho`` is the block's (R, 2, 2, m+1) lag pass at lags 0..m, and
        ``compute`` returns a list with one entry per row; ``key`` must
        determine what ``compute`` computes, m included.
        """
        self._check_lag(m)
        return self._block.shared(key, lambda: compute(self._block.rho()[..., : m + 1]))[self._row]

    def _run(self, i: int, standardized: bool, m: int) -> tuple:
        """This row's Durbin-Levinson run on rho_ii, raw or standardized, made with every row's four runs."""
        _check_power(i)
        self._check_lag(m)
        runs = self.shared("durbin_levinson", self.max_lag, lambda rho: _autocorrelation_runs(rho, self.n))
        return runs[2 * standardized + i - 1]

    def pacf(self, i: int, m: int) -> np.ndarray:
        """pi_1..pi_m of rho_ii; raises :class:`SingularToeplitz` like ``durbin_levinson``."""
        return pacf_prefix(self._run(i, False, m), m)

    def logdet(self, i: int, m: int, standardized: bool = False) -> float:
        """log|R_ii(m)| by :func:`logdet_prefix` on this row's run, its entries standardized as :meth:`correlogram`'s.

        Raises :class:`SingularToeplitz` when R_ii(m) is not positive definite.
        """
        return logdet_prefix(self._run(i, standardized, m), m)

    def correlogram(self, i: int, j: int, m: int, standardized: bool = False) -> CorrSequence:
        """rho_ij(k) for k = 1..m as a :class:`CorrSequence`."""
        values = self.rho(i, j, m)[1:]
        lags = np.arange(1, m + 1)
        if standardized:
            values = standardization_factors(self.n, lags) * values
        return CorrSequence(kind=f"rho{i}{j}", lags=lags, values=values, standardized=standardized)


def lag_correlations(source: ResidualSeries | LagCorrelations, m: int) -> LagCorrelations:
    """``source`` itself when it is already a kernel, else a new kernel of the series at largest lag m."""
    return source if isinstance(source, LagCorrelations) else LagCorrelations(source, m)


def correlogram(series: ResidualSeries, i: int, j: int, m: int, standardized: bool = False) -> CorrSequence:
    """Correlations rho_ij(k) for k = 1..m as a :class:`CorrSequence`."""
    return LagCorrelations(series, m).correlogram(i, j, m, standardized)


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


def garch_standardized_sq_acfs(eps, sigma2, m: int) -> np.ndarray:
    """Autocorrelations at lags 1..m of e_t^2 / s_t^2 for fitted conditional variances s_t^2.

    The ratio sequence is centered at its own mean, and each value is the
    plain ratio of lagged to zero-lag sums (no per-lag divisor correction).
    """
    d, den = _centered_sq_ratio(eps, sigma2, 1)
    n = d.size
    if m >= n:
        raise LagOutOfRange(f"m = {m} must be smaller than n = {n}")
    return np.array([float(d[k:] @ d[: n - k]) / den for k in range(1, m + 1)])
