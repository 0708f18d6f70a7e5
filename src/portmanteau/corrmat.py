"""Toeplitz (cross-)correlation matrices, their block assembly and log-determinants.

The single-kind matrix of order m is (m+1) x (m+1) with entry (r, c) equal to
rho_ij(c - r); the block matrix stacks the four kinds as
[[R11, R12], [R12', R22]] and is 2(m+1)-dimensional. Both builders take a
residual series or its lag kernel (:class:`~portmanteau.residuals.LagCorrelations`)
at any largest lag >= m, and read the correlations from the kernel.

The statistics read log-determinants through ``toeplitz_logdet`` and
``block_logdet``: the first read of a (kind, m, standardized) matrix by any
row of a kernel's block gathers that matrix for every row at once, factors
each with its own ``dpotrf`` and sums every row's 2 log diag(L) in one
stacked reduction; the block keeps the results (``LagCorrelations.shared``),
each row bit for bit ``logdet_pd`` of its own matrix. The
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


@lru_cache(maxsize=64)
def _block_index(m: int) -> np.ndarray:
    """Index (a, b) of the block matrix into the four kinds' sources, read-only.

    Kind [i-1, j-1] is at offset (2(i-1) + j-1)(2m+1) (see ``_toeplitz_sources``);
    the lower-left quadrant reads R12 transposed.
    """
    t = _toeplitz_index(m)
    width = 2 * m + 1
    index = np.block([[t, width + t], [width + t.T, 3 * width + t]])
    index.flags.writeable = False
    return index


def _toeplitz_sources(neg: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """[neg reversed, pos[1:]] of each row: entry m + b - a is entry (a, b) of its Toeplitz matrix."""
    return np.concatenate((neg[..., ::-1], pos[..., 1:]), axis=-1)


def _toeplitz(neg: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Entry (a, b) = pos[b - a] above the diagonal, neg[a - b] on and below it, for each row of stacked neg and pos."""
    return _toeplitz_sources(neg, pos)[..., _toeplitz_index(pos.shape[-1] - 1)]


def _toeplitz_entries(rho: np.ndarray, n: int, i: int, j: int, m: int, standardized: bool) -> np.ndarray:
    """The (R, m+1, m+1) Toeplitz matrices of rho_ij of each row of an (R, 2, 2, >= m+1) lag pass, one gather."""
    pos = rho[:, i - 1, j - 1, : m + 1]  # rho_ij(0..m)
    neg = rho[:, j - 1, i - 1, : m + 1]  # rho_ij(-k) = rho_ji(k)
    if standardized:
        # The scaling is defined for k != 0 only; lag 0 keeps its raw value so
        # autocorrelation matrices keep a unit diagonal.
        factors = standardization_factors(n, np.arange(1, m + 1))
        pos = pos.copy()
        pos[:, 1:] *= factors
        if i == j:
            neg = pos
        else:
            neg = neg.copy()
            neg[:, 1:] *= factors
    return _toeplitz(neg, pos)


def _block_entries(rho: np.ndarray, m: int) -> np.ndarray:
    """The (R, 2(m+1), 2(m+1)) block matrices [[R11, R12], [R12', R22]] of each row of a lag pass, one gather."""
    d = m + 1
    # The four kinds' sources of each row in [i-1, j-1] order: pos is rho_ij(k), neg rho_ji(k).
    sources = _toeplitz_sources(rho.transpose(0, 2, 1, 3)[..., :d], rho[..., :d])
    return sources.reshape(len(rho), -1)[:, _block_index(m)]


def build_toeplitz(
    series: ResidualSeries | LagCorrelations, i: int, j: int, m: int, standardized: bool = False
) -> CrossCorrMatrix:
    """The (m+1) x (m+1) Toeplitz matrix with entry (r, c) = rho_ij(c - r)."""
    _check_order(series.n, m)
    corr = lag_correlations(series, m)
    entries = _toeplitz_entries(corr.lag_pass(m), corr.n, i, j, m, standardized)[0]
    return CrossCorrMatrix(m=m, kind=_KINDS[(i, j)], entries=entries, standardized=standardized)


def build_block(series: ResidualSeries | LagCorrelations, m: int) -> CrossCorrMatrix:
    """The 2(m+1)-dimensional block matrix [[R11, R12], [R12', R22]].

    Entries are the raw (unstandardized) correlations; the lag-0
    cross-correlation rho_12(0) sits on the diagonal of the off-diagonal
    blocks.
    """
    _check_order(series.n, m)
    corr = lag_correlations(series, m)
    entries = _block_entries(corr.lag_pass(m), m)[0]
    return CrossCorrMatrix(m=m, kind="block", entries=entries, standardized=False)


def _as_array(matrix) -> np.ndarray:
    if isinstance(matrix, CrossCorrMatrix):
        return matrix.entries
    return np.asarray(matrix, dtype=float)


def _logdet_rows(matrices: np.ndarray) -> list[tuple[float, int]]:
    """(log-determinant, dpotrf info) of each matrix of an (R, d, d) stack via Cholesky.

    One ``dpotrf`` per matrix, then 2 sum log diag(L) for all rows at once,
    each row's sum a reduction along that row alone. Info k > 0 is the
    1-based order of the first non-positive leading minor, and such a row's
    log-determinant is 0.
    """
    diagonals = np.ones(matrices.shape[:2])
    info = []
    for a, diagonal in zip(matrices, diagonals):
        c, code = dpotrf(a, lower=1)
        if code < 0:
            raise ValueError(f"invalid argument {-code} to dpotrf")
        if code == 0:
            diagonal[:] = c.diagonal()
        info.append(code)
    return list(zip((2.0 * np.add.reduce(np.log(diagonals), axis=1)).tolist(), info))


def logdet_pd(matrix) -> float:
    """Log-determinant of a symmetric positive definite matrix via Cholesky.

    Raises :class:`NotPositiveDefinite` carrying the 1-based order of the first
    non-positive leading minor when the factorization breaks down.
    """
    logdet, info = _logdet_rows(_as_array(matrix)[None])[0]
    if info > 0:
        raise NotPositiveDefinite(info)
    return logdet


def _shared_logdet(corr: LagCorrelations, key: tuple, m: int, entries) -> float:
    """log|A| of this row's matrix A, ``entries(rho)`` stacking every row's, all computed at the first call."""
    _check_order(corr.n, m)
    logdet, info = corr.shared(("logdet", *key), m, lambda rho: _logdet_rows(entries(rho)))
    if info > 0:
        raise NotPositiveDefinite(info)
    return logdet


def toeplitz_logdet(corr: LagCorrelations, i: int, j: int, m: int, standardized: bool = False) -> float:
    """``logdet_pd(build_toeplitz(corr, i, j, m, standardized))``, computed for every row of the kernel's block."""
    return _shared_logdet(
        corr, (i, j, m, standardized), m, lambda rho: _toeplitz_entries(rho, corr.n, i, j, m, standardized)
    )


def block_logdet(corr: LagCorrelations, m: int) -> float:
    """``logdet_pd(build_block(corr, m))``, computed for every row of the kernel's block at once."""
    return _shared_logdet(corr, ("block", m), m, lambda rho: _block_entries(rho, m))
