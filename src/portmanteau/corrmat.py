"""Toeplitz (cross-)correlation matrices, their block assembly and log-determinants.

The single-kind matrix of order m is (m+1) x (m+1) with entry (r, c) equal to
rho_ij(c - r); the block matrix stacks the four kinds as
[[R11, R12], [R12', R22]] and is 2(m+1)-dimensional. Both builders take a
residual series or its lag kernel (:class:`~portmanteau.residuals.LagCorrelations`)
at any largest lag >= m, and read the correlations from the kernel. The
Schur-complement and trace-identity oracles for these matrices live in
:mod:`portmanteau.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import LagTooLarge, NotPositiveDefinite
from .residuals import LagCorrelations, ResidualSeries, lag_correlations, standardization_factors

_KINDS = {(1, 1): "R11", (1, 2): "R12", (2, 1): "R21", (2, 2): "R22"}


@dataclass(frozen=True)
class CrossCorrMatrix:
    """Dense correlation matrix of one kind, or the assembled block matrix."""

    m: int
    kind: str  # "R11" | "R12" | "R21" | "R22" | "block"
    entries: np.ndarray
    standardized: bool = False


def _check_order(n: int, m: int) -> None:
    if not 1 <= m < n / 2:
        raise LagTooLarge(f"lag order m = {m} must satisfy 1 <= m < n/2 with n = {n}")


@lru_cache(maxsize=64)
def _toeplitz_index(m: int) -> np.ndarray:
    """Index (a, b) -> m + b - a into [neg reversed, pos[1:]], read-only."""
    index = np.arange(m + 1) - np.arange(m + 1)[:, np.newaxis] + m
    index.flags.writeable = False
    return index


def _toeplitz(neg: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Entry (a, b) = pos[b - a] above the diagonal, neg[a - b] on and below it."""
    return np.concatenate((neg[::-1], pos[1:]))[_toeplitz_index(pos.size - 1)]


def _toeplitz_entries(corr: LagCorrelations, i: int, j: int, m: int, standardized: bool) -> np.ndarray:
    pos = corr.rho(i, j, m)  # rho_ij(0..m)
    neg = corr.rho(j, i, m)  # rho_ij(-k) = rho_ji(k)
    if standardized:
        # The scaling is defined for k != 0 only; lag 0 keeps its raw value so
        # autocorrelation matrices keep a unit diagonal.
        factors = standardization_factors(corr.n, np.arange(1, m + 1))
        pos = pos.copy()
        pos[1:] *= factors
        if i == j:
            neg = pos
        else:
            neg = neg.copy()
            neg[1:] *= factors
    return _toeplitz(neg, pos)


def build_toeplitz(
    series: ResidualSeries | LagCorrelations, i: int, j: int, m: int, standardized: bool = False
) -> CrossCorrMatrix:
    """The (m+1) x (m+1) Toeplitz matrix with entry (r, c) = rho_ij(c - r)."""
    _check_order(series.n, m)
    entries = _toeplitz_entries(lag_correlations(series, m), i, j, m, standardized)
    return CrossCorrMatrix(m=m, kind=_KINDS[(i, j)], entries=entries, standardized=standardized)


def build_block(series: ResidualSeries | LagCorrelations, m: int) -> CrossCorrMatrix:
    """The 2(m+1)-dimensional block matrix [[R11, R12], [R12', R22]].

    Entries are the raw (unstandardized) correlations; the lag-0
    cross-correlation rho_12(0) sits on the diagonal of the off-diagonal
    blocks.
    """
    _check_order(series.n, m)
    corr = lag_correlations(series, m)
    d = m + 1
    r12 = _toeplitz_entries(corr, 1, 2, m, False)
    entries = np.empty((2 * d, 2 * d))
    entries[:d, :d] = _toeplitz_entries(corr, 1, 1, m, False)
    entries[:d, d:] = r12
    entries[d:, :d] = r12.T
    entries[d:, d:] = _toeplitz_entries(corr, 2, 2, m, False)
    return CrossCorrMatrix(m=m, kind="block", entries=entries, standardized=False)


def _as_array(matrix) -> np.ndarray:
    if isinstance(matrix, CrossCorrMatrix):
        return matrix.entries
    return np.asarray(matrix, dtype=float)


def logdet_pd(matrix) -> float:
    """Log-determinant of a symmetric positive definite matrix via Cholesky.

    Raises :class:`NotPositiveDefinite` carrying the 1-based order of the first
    non-positive leading minor when the factorization breaks down.
    """
    a = _as_array(matrix)
    c, info = dpotrf(a, lower=1)
    if info > 0:
        raise NotPositiveDefinite(info)
    if info < 0:
        raise ValueError(f"invalid argument {-info} to dpotrf")
    return float(2.0 * np.sum(np.log(np.diag(c))))

