"""Model estimation: AR by least squares, ARMA by conditional sum of squares,
GARCH by Gaussian quasi-maximum likelihood.

Every fit returns a :class:`FitResult` whose ``residuals`` carry the series the
portmanteau statistics should be applied to: raw one-step errors for AR/ARMA
fits, standardized residuals e_t / s_t for conditional-variance fits.

Every fitter takes an (R, n) stack of series (``fit_*_block``; the one-series
functions are the block of one) and gives each row bit for bit its lone fit.
The ARMA and GARCH fits share one optimizer, ``_bfgs``: BFGS on an analytic
gradient, run in lock step over the block's rows. A gradient through a
recursion filter (1/theta(B) of the errors, the beta lags of the variances)
runs its weights backwards through that filter once (``_backward``), so no
derivative of the errors or variances is filtered.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidSpec, NonFinite, PortmanteauError, SingularDesign
from .models import _lag_roots, signal
from .residuals import ResidualSeries, _lone, residual_series_block

_LOG2PI = float(np.log(2.0 * np.pi))
_LOG2 = float(np.log(2.0))


@dataclass(frozen=True)
class FitResult:
    """Estimation output shared by all fitting routines.

    ``order`` is (p, q) for mean models and (b, a) for variance models.
    ``conditional_sd`` (variance models only) holds the fitted s_t, aligned
    with ``garch_eps``, the series the variance recursion was fitted to.
    ``flags`` collects non-fatal conditions such as "non_convergence",
    "boundary_estimate" or "reflected_ma_roots".
    """

    kind: str  # "ar" | "arma" | "garch" | "ar_garch"
    order: tuple
    params: dict
    residuals: ResidualSeries
    loglik: float
    aic: float
    converged: bool
    iterations: int
    conditional_sd: np.ndarray | None = None
    garch_eps: np.ndarray | None = None
    flags: tuple = ()

    @property
    def order_correction(self) -> int:
        """p+q for mean fits; the mean-stage p+q for composite fits; 0 for pure variance fits."""
        if self.kind in ("ar", "arma"):
            return self.order[0] + self.order[1]
        if self.kind == "ar_garch":
            return int(self.params.get("mean_order", 0))
        return 0

    @property
    def garch_orders(self) -> tuple[int, int]:
        if self.kind == "garch":
            return self.order
        if self.kind == "ar_garch":
            return tuple(self.params["variance_order"])
        return (0, 0)


# ---------------------------------------------------------------------------
# Autoregressions by ordinary least squares
# ---------------------------------------------------------------------------


def fit_ar_block(rows, p: int, intercept: bool = True) -> list:
    """``fit_ar`` of each row of an (R, n) stack: regress z_t on (1, z_{t-1}, ..., z_{t-p}).

    Entry r is row r's :class:`FitResult` or the :class:`PortmanteauError`
    that stops its fit, bit for bit what the row gives alone (``fit_ar`` is
    the block of one). The coefficients are one ``lstsq`` per row; the
    residuals and sigma^2 are stacked ``np.matmul`` calls (each row's own
    BLAS product of its design and coefficients, and its own dot product),
    log sigma^2 and the residual series (``residual_series_block``) stacked
    elementwise operations or reductions along a row, and the log-likelihood
    and AIC the lone fit's float arithmetic on each row's log sigma^2.
    """
    z = np.asarray(rows, dtype=float)
    count, n = z.shape
    if p < 0:
        return [InvalidSpec("autoregressive order must be non-negative")] * count
    if p > 0 and n <= 10 * p:
        return [InvalidSpec(f"need n > 10p observations to fit AR({p}), got n = {n}")] * count
    nparams = p + int(intercept)
    y = z[:, p:]
    out: list = [None] * count
    if nparams:
        design = np.empty((count, n - p, nparams))
        if intercept:
            design[:, :, 0] = 1.0
        for j in range(1, p + 1):
            design[:, :, nparams - p + j - 1] = z[:, p - j : n - j]
        coef = np.empty((count, nparams))
        for r in range(count):
            coef[r], _, rank, _ = np.linalg.lstsq(design[r], y[r], rcond=None)
            if rank < nparams:
                out[r] = SingularDesign(f"AR({p}) design matrix has rank {rank} < {nparams}")
        resid = y - np.matmul(design, coef[:, :, None])[:, :, 0]
    else:
        coef = np.empty((count, 0))
        resid = y.copy()
    sigma2 = np.matmul(resid[:, None, :], resid[:, :, None])[:, 0, 0] / (n - p)
    # A row whose sigma^2 is zero fails below; its logarithm is never read.
    with np.errstate(divide="ignore"):
        log_sigma2 = np.log(sigma2).tolist()
    series = residual_series_block(resid)
    for r, (s2, log_s2) in enumerate(zip(sigma2.tolist(), log_sigma2)):
        if out[r] is not None:
            continue
        if s2 <= 0.0:
            out[r] = SingularDesign("residual variance collapsed to zero")
        elif isinstance(series[r], PortmanteauError):
            out[r] = series[r]
        else:
            out[r] = FitResult(
                kind="ar",
                order=(p, 0),
                params={
                    "mu": float(coef[r, 0]) if intercept else 0.0,
                    "phi": tuple(coef[r, 1:] if intercept else coef[r]),
                    "sigma2": s2,
                    "intercept": intercept,
                },
                residuals=series[r],
                loglik=-0.5 * (n - p) * (_LOG2PI + log_s2 + 1.0),
                aic=n * log_s2 + 2.0 * nparams,
                converged=True,
                iterations=0,
            )
    return out


def fit_ar(series, p: int, intercept: bool = True) -> FitResult:
    """Regress z_t on (1, z_{t-1}, ..., z_{t-p}); residuals cover t = p+1..n.

    With ``intercept=False`` the constant column is dropped (regression through
    the origin, for series known to have mean zero). This matters for the
    block log-determinant statistic: exact in-sample demeaning changes the
    null behavior of the lag-0 residual/squared-residual correlation, and the
    calibration of its gamma null assumes the mean was NOT estimated.
    ``fit_ar_block`` of one row.
    """
    return _lone(fit_ar_block(np.asarray(series, dtype=float)[None], p, intercept=intercept))


def select_ar_order_aic_block(rows, p_max: int = 4, intercept: bool = True) -> list:
    """``select_ar_order_aic`` of each row of an (R, n) stack, one ``fit_ar_block`` per order.

    Entry r is row r's fit or the error of its first failing order, as alone.
    """
    if p_max < 1:
        return [InvalidSpec("p_max must be at least 1")] * len(rows)
    best = fit_ar_block(rows, 1, intercept=intercept)
    for p in range(2, p_max + 1):
        for r, fit in enumerate(fit_ar_block(rows, p, intercept=intercept)):
            # A row keeps its first error; otherwise the lower AIC wins, ties to the smaller p.
            if isinstance(best[r], PortmanteauError):
                continue
            if isinstance(fit, PortmanteauError) or fit.aic < best[r].aic:
                best[r] = fit
    return best


def select_ar_order_aic(series, p_max: int = 4, intercept: bool = True) -> FitResult:
    """Fit AR(p) for p = 1..p_max and keep the minimum-AIC fit (ties to smaller p).

    ``select_ar_order_aic_block`` of one row.
    """
    return _lone(select_ar_order_aic_block(np.asarray(series, dtype=float)[None], p_max, intercept=intercept))


# ---------------------------------------------------------------------------
# BFGS in lock step over a block of runs
# ---------------------------------------------------------------------------

# Stop a BFGS run once its largest gradient component is at most this.
_GTOL = 1e-6
# An ARCH run settles on the alpha = 0 face (fit_garch_block) once its alpha mass is below this.
_FACE_MASS = 1e-2
# Sufficient-decrease constant of the line search.
_ARMIJO = 1e-4
# Stop a BFGS run unconverged after this many iterations.
_MAX_ITER = 500
# A rise of f by at most this times |f| is rounding (which is about 1e-15 |f| for a sum of n <= 2000 terms).
_NOISE = 1e-13
# The numerator of every recursion filter.
_ONE = np.ones(1)


def _line_search(x, f, g, gmax, p, slope, step, objective, data):
    """Armijo backtracking along p from each row of x, in lock step: (x, f, g, moved) at the accepted points.

    A row accepts the first step that lowers f by at least 1e-4 step |slope|,
    shrinking the step by quadratic interpolation, kept within [0.1, 0.5] of
    the last, on each refusal. Near an optimum the decrease drowns in the
    rounding of f, so the full step is also accepted when f rises by at most
    ``_NOISE`` |f| and the largest gradient component shrinks from ``gmax``,
    the largest of g's. A row whose step no longer moves x keeps (x, f, g) and
    is not ``moved``.
    """
    trial = x + step[:, None] * p
    f_trial, g_trial = objective(trial, *data)
    decrease = f_trial - f
    moved = (decrease < 0.0) & (decrease <= _ARMIJO * step * slope)
    if moved.all():
        return trial, f_trial, g_trial, moved
    moved |= (decrease <= _NOISE * np.abs(f)) & (np.abs(g_trial).max(axis=1) < gmax)
    keep = moved[:, None]
    x_new, f_new, g_new = np.where(keep, trial, x), np.where(moved, f_trial, f), np.where(keep, g_trial, g)
    rows = np.flatnonzero(~moved)
    step, decrease, trial = step[rows], decrease[rows], trial[rows]
    while True:
        shrink = np.any(trial != x[rows], axis=1)
        curve = 2.0 * (decrease - step * slope[rows])
        step = np.clip(-slope[rows] * step * step / curve, 0.1 * step, 0.5 * step)[shrink]
        rows = rows[shrink]
        if not rows.size:
            return x_new, f_new, g_new, moved
        trial = x[rows] + step[:, None] * p[rows]
        f_trial, g_trial = objective(trial, *(part[rows] for part in data))
        decrease = f_trial - f[rows]
        ok = (decrease < 0.0) & (decrease <= _ARMIJO * step * slope[rows])
        done = rows[ok]
        x_new[done], f_new[done], g_new[done] = trial[ok], f_trial[ok], g_trial[ok]
        moved[done] = True
        rows, step, decrease, trial = rows[~ok], step[~ok], decrease[~ok], trial[~ok]


def _bfgs(x: np.ndarray, f: np.ndarray, g: np.ndarray, objective, data: tuple, face=None):
    """Minimize ``objective`` by BFGS from each row of x, the runs in lock step.

    ``objective(x, *data)`` gives (f, g), the value and gradient at each row
    of x, where ``data`` is a tuple of arrays with one row per run; it is
    called on the live runs' rows of x and of each part of ``data``, so row
    r's arithmetic must not depend on the other rows. ``f`` and ``g`` are the
    values at x. A run converges when its largest gradient component is at
    most ``_GTOL``; it stops unconverged when its line search cannot move x
    or after ``_MAX_ITER`` iterations. The first step moves x by at most 1,
    as in scipy's BFGS; the inverse Hessian starts at the identity, skips an
    update whose curvature s.y is not positive, and restarts at the identity
    if its direction is not a descent one. Returns the final (x, f,
    converged, iterations) of each run. A run that stops leaves the stack,
    so each step costs numpy calls on the live runs only.

    ``face(x, f, *data)``, if given, is called on the live runs after each
    iteration. It moves the runs that settle on a face of the domain, which x
    reaches only in the limit, to the face's point and value in x and f, and
    returns their indices; those runs leave the stack converged.
    """
    d = x.shape[1]
    gmax = np.abs(g).max(axis=1)
    out = [x.copy(), f.copy(), gmax <= _GTOL, np.zeros(len(x), dtype=int)]
    live = np.flatnonzero(~out[2])
    x, f, g, gmax, data = x[live], f[live], g[live], gmax[live], tuple(part[live] for part in data)
    inverse = np.tile(np.eye(d), (live.size, 1, 1))
    step = 1.0 / np.maximum(1.0, np.sqrt(np.add.reduce(g * g, axis=1)))
    iteration = 0
    while live.size:
        p = -np.add.reduce(inverse * g[:, None, :], axis=2)
        slope = np.add.reduce(g * p, axis=1)
        uphill = slope >= 0.0
        if uphill.any():
            inverse[uphill] = np.eye(d)
            p[uphill] = -g[uphill]
            slope[uphill] = -np.add.reduce(g[uphill] * g[uphill], axis=1)
        x_new, f_new, g_new, moved = _line_search(x, f, g, gmax, p, slope, step, objective, data)
        iteration += 1
        s, y = x_new - x, g_new - g
        sy = np.add.reduce(s * y, axis=1)
        update = moved & (sy > 0.0)
        rho = 1.0 / np.where(update, sy, 1.0)
        hy = np.add.reduce(inverse * y[:, None, :], axis=2)
        scale = rho + rho * rho * np.add.reduce(y * hy, axis=1)
        # H += (rho + rho^2 y.Hy) s s^T - rho (s (Hy)^T + Hy s^T), the BFGS update of the inverse Hessian
        cross = s[:, :, None] * hy[:, None, :]
        change = scale[:, None, None] * (s[:, :, None] * s[:, None, :])
        change -= rho[:, None, None] * (cross + cross.transpose(0, 2, 1))
        np.add(inverse, change, out=inverse, where=update[:, None, None])
        x, f, g, gmax = x_new, f_new, g_new, np.abs(g_new).max(axis=1)
        converged = gmax <= _GTOL
        stop = converged | ~moved
        if face is not None:
            settled = face(x, f, *data)
            if settled.size:
                converged[settled] = stop[settled] = True
        if iteration >= _MAX_ITER:
            stop[:] = True
        if stop.any():
            gone = live[stop]
            out[0][gone], out[1][gone], out[2][gone] = x[stop], f[stop], converged[stop]
            out[3][gone] = iteration - ~moved[stop]
            go = ~stop
            live, x, f, g, gmax, inverse = live[go], x[go], f[go], g[go], gmax[go], inverse[go]
            data = tuple(part[go] for part in data)
        step = np.ones(live.size)
    return tuple(out)


def _backward(den: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each row of w run backwards through its own filter 1/den(B): the lambda with sum_t w_t F(x)_t = sum_t lambda_t x_t.

    F(x) is ``lfilter(1, den, x)`` from a zero state, a lower-triangular map,
    so its transpose is the same filter run from the end of the row (reverse
    accumulation): lambda_t = w_t - sum_{j>=1} den_j lambda_{t+j}. ``den`` is
    (..., k+1) and w (..., n) with the same leading axes; one ``lfilter`` per row.
    """
    rows, den = w.reshape(-1, w.shape[-1]), den.reshape(-1, den.shape[-1])
    lam = np.empty_like(rows)
    for r in range(len(rows)):
        lam[r] = signal.lfilter(_ONE, den[r], rows[r, ::-1])[::-1]
    return lam.reshape(w.shape)


# ---------------------------------------------------------------------------
# ARMA by conditional sum of squares
# ---------------------------------------------------------------------------


def _css_score(x: np.ndarray, z: np.ndarray, p: int, q: int):
    """Conditional sum of squares at each row of x = (mu, phi, theta), its gradient in x, and the errors.

    z is (R, n), one row per row of x. The one-step errors condition on the
    first p observations with zero pre-sample errors: eps_t = w_t - sum_j
    phi_j w_{t-j} - sum_i theta_i eps_{t-i} with w = z - mu, for t > p. Their
    derivatives in mu, phi_j and theta_i are -(1 - sum phi), -w_{t-j} and
    -eps_{t-i}, each filtered by 1/theta(B), so the gradient 2 sum_t eps_t
    d eps_t is 2 sum_t lambda_t times those unfiltered drives, with lambda
    the errors run backwards through the same filter (``_backward``; lambda
    = eps when q = 0). A point whose CSS or gradient is not finite gets 1e300
    and a zero gradient; the caller silences the floating-point warnings such
    a point raises.
    """
    count, n = z.shape
    phi, theta = x[:, 1 : 1 + p], x[:, 1 + p :]
    w = z - x[:, :1]
    drive = np.zeros((count, 1 + p + q, n - p))
    drive[:, 0] = -(1.0 - np.add.reduce(phi, axis=1))[:, None]
    eps = w[:, p:].copy()
    for j in range(1, p + 1):
        eps -= phi[:, j - 1 : j] * w[:, p - j : n - j]
        drive[:, j] = -w[:, p - j : n - j]
    if q:
        den = np.concatenate((np.ones((count, 1)), theta), axis=1)
        for r in range(count):
            eps[r] = signal.lfilter(_ONE, den[r], eps[r])
        for i in range(1, q + 1):
            drive[:, p + i, i:] = -eps[:, : n - p - i]
    lam = _backward(den, eps) if q else eps
    css = np.add.reduce(eps * eps, axis=1)
    grad = 2.0 * np.add.reduce(drive * lam[:, None, :], axis=2)
    bad = ~(np.isfinite(css) & np.isfinite(grad).all(axis=1))
    grad[bad] = 0.0
    return np.where(bad, 1e300, css), grad, eps


def _reflect_ma_roots(theta: np.ndarray) -> tuple[np.ndarray, bool]:
    """Move any moving-average root inside the unit circle to its reciprocal."""
    roots = _lag_roots(-theta)  # of theta(B) = 1 + theta_1 B + ...
    inside = np.abs(roots) < 1.0 - 1e-12
    if not inside.any():
        return theta, False
    roots[inside] = 1.0 / np.conj(roots[inside])
    new = np.poly(roots)  # descending, monic
    return (new[::-1][1:] / new[-1]).real, True  # constant term normalized to 1


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def fit_arma_block(rows, p: int, q: int) -> list:
    """``fit_arma_css`` of each row of an (R, n) stack, the BFGS runs in lock step.

    Entry r is row r's :class:`FitResult` or the :class:`PortmanteauError`
    that stops its fit, bit for bit what the row gives alone. A row starts
    from its mean and, when p > 0, the coefficients of its least-squares
    AR(p) fit (``fit_ar_block``, whose error a row that fails it keeps).
    """
    z = np.asarray(rows, dtype=float)
    count, n = z.shape
    if n <= 10 * max(p, q, 1):
        return [InvalidSpec(f"series too short (n = {n}) for ARMA({p},{q}) estimation")] * count
    out = fit_ar_block(z, p) if p else [None] * count
    live = np.array([r for r, fit in enumerate(out) if not isinstance(fit, PortmanteauError)], dtype=int)
    z = z[live]
    x = np.zeros((live.size, 1 + p + q))
    x[:, 0] = z.mean(axis=1)
    if p:
        x[:, 1 : 1 + p] = np.reshape([out[r].params["phi"] for r in live], (-1, p))
    css, grad, _ = _css_score(x, z, p, q)
    # BFGS runs in units where the CSS at the start is near 1 and mu is counted
    # in root mean square errors at the start, each unit a power of two so the
    # change is exact: then _GTOL means the same whatever the series' scale and length.
    scale = np.ldexp(1.0, -np.frexp(css)[1])
    unit = np.ones_like(x)
    unit[:, 0] = np.ldexp(1.0, np.frexp(np.sqrt(css / (n - p)))[1])

    def objective(u, zs, unit, scale):
        css, grad, _ = _css_score(u * unit, zs, p, q)
        return css * scale, grad * unit * scale[:, None]

    u, _, converged, iterations = _bfgs(
        x / unit, css * scale, grad * unit * scale[:, None], objective, (z, unit, scale)
    )
    x = u * unit
    reflected = [False] * live.size
    for k in range(live.size):
        x[k, 1 + p :], reflected[k] = _reflect_ma_roots(x[k, 1 + p :])
    _, _, eps = _css_score(x, z, p, q)
    sigma2 = np.matmul(eps[:, None, :], eps[:, :, None])[:, 0, 0] / (n - p)
    log_sigma2 = np.log(sigma2)
    for k, (r, residuals) in enumerate(zip(live, residual_series_block(eps))):
        if isinstance(residuals, PortmanteauError):
            out[r] = residuals
            continue
        out[r] = FitResult(
            kind="arma",
            order=(p, q),
            params={"mu": float(x[k, 0]), "phi": tuple(x[k, 1 : 1 + p]), "theta": tuple(x[k, 1 + p :]),
                    "sigma2": float(sigma2[k])},
            residuals=residuals,
            loglik=float(-0.5 * (n - p) * (_LOG2PI + log_sigma2[k] + 1.0)),
            aic=float(n * log_sigma2[k] + 2.0 * (p + q + 1)),
            converged=bool(converged[k]),
            iterations=int(iterations[k]),
            flags=("non_convergence",) * (not converged[k]) + ("reflected_ma_roots",) * reflected[k],
        )
    return out


def fit_arma_css(series, p: int, q: int) -> FitResult:
    """Minimize the conditional sum of squares over (mu, phi, theta): ``fit_arma_block`` of one row.

    The CSS is minimized by BFGS on its analytic gradient (``_css_score``,
    ``_bfgs``) for at most ``_MAX_ITER`` iterations; the fit converges when
    the largest gradient component falls to ``_GTOL`` (the ``converged``
    flag reports which exit was taken). Non-invertible moving-average
    estimates are reflected to their invertible equivalents and flagged.
    """
    return _lone(fit_arma_block(np.asarray(series, dtype=float)[None], p, q))


# ---------------------------------------------------------------------------
# GARCH by Gaussian quasi-maximum likelihood
# ---------------------------------------------------------------------------
#
# The GARCH functions take stacks: the last axis is time (or the parameters)
# and any leading axes index independent series. Every operation is
# elementwise, or a reduction along the last axis of one row, or one call per
# row, so a row's bits do not depend on the rows stacked with it.

# Persistence splits (alpha mass, beta mass) a fit starts from, by whether it has a beta.
_START_SPLITS = {False: ((0.3, 0.0), (0.1, 0.0)), True: ((0.3, 0.4), (0.05, 0.85), (0.45, 0.1), (0.1, 0.2))}


def _garch_variances(padded: np.ndarray, omega, alpha: np.ndarray, beta: np.ndarray, v0, den=None) -> np.ndarray:
    """Conditional variances with pre-sample e^2 and s^2 pinned at v0.

    ``padded`` is e^2 preceded by b = alpha.shape[-1] copies of v0. When
    a > 0 the recursion is one ``lfilter`` per row (``den`` holds the rows'
    denominators, if the caller has them): at n = 200 it costs about 21 us a
    row in blocks of 8, against 118 us for one recursion stepped over all
    rows at once, which draws level only at 64 rows.
    """
    b, a = alpha.shape[-1], beta.shape[-1]
    n = padded.shape[-1] - b
    omega = np.asarray(omega)[..., None]
    c = omega + alpha[..., :1] * padded[..., b - 1 : b - 1 + n] if b else np.repeat(omega, n, axis=-1)
    for i in range(2, b + 1):
        c += alpha[..., i - 1 : i] * padded[..., b - i : b - i + n]
    if a == 0:
        return c
    # Initial state of the recursion for a flat pre-sample s^2 = v0, in the
    # closed form of scipy's lfiltic([1], [1, -beta], v0): z_k = sum_{j>=k} beta_j v0.
    zi = np.add.accumulate((beta * np.asarray(v0)[..., None])[..., ::-1], axis=-1)[..., ::-1]
    den = _denominators(beta) if den is None else den
    rows, den, zi = c.reshape(-1, n), den.reshape(-1, a + 1), zi.reshape(-1, a)
    for r in range(len(rows)):
        rows[r] = signal.lfilter(_ONE, den[r], rows[r], zi=zi[r])[0]
    return c


def _denominators(beta: np.ndarray) -> np.ndarray:
    """The lfilter denominators (1, -beta_1, ..., -beta_a) of the variance recursion, one per row."""
    return np.concatenate((np.ones(beta.shape[:-1] + (1,)), -beta), axis=-1)


def _log_normaliser(logits: np.ndarray) -> np.ndarray:
    """log(1 + sum(exp(logits))) over the last axis, bit for bit what scipy 1.17 logsumexp((0, *logits)) gives.

    Inlined because scipy's array-API dispatch costs ten times the rest of a
    likelihood evaluation. The steps are scipy's own for real 1-D input, in
    its order: the maximum is split out of the sum and its ties counted. The
    terms are summed in array order, 0 first.
    """
    if logits.shape[-1] == 1:
        # One logit l: scipy's steps reduce to log1p(exp(-|l|)) + max(l, 0), or log 2 at the tie l = 0.
        logit = logits[..., 0]
        return np.where(logit == 0.0, _LOG2, np.log1p(np.exp(-np.abs(logit))) + np.maximum(logit, 0.0))
    v = np.concatenate((np.zeros(logits.shape[:-1] + (1,)), logits), axis=-1)
    top = np.maximum.reduce(v, axis=-1, keepdims=True)
    at_top = v == top
    count = np.add.reduce(at_top, axis=-1, dtype=float)
    s = np.add.reduce(np.exp(np.where(at_top, -np.inf, v - top)), axis=-1) / count
    return np.log1p(s) + np.log(count) + top[..., 0]


def _omega_weights(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(omega, (alpha, beta) as one array) of transformed points x, omega without the last axis."""
    logits = x[..., 1:]
    return np.exp(x[..., 0]), np.exp(logits - _log_normaliser(logits)[..., None])


def _unpack_garch(x: np.ndarray, b: int, a: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega, alpha, beta) of transformed points x, omega without the last axis."""
    omega, weights = _omega_weights(x)
    return omega, weights[..., :b], weights[..., b:]


def _garch_nll_score(x: np.ndarray, padded: np.ndarray, eps2: np.ndarray, v0, b: int, a: int):
    """Gaussian NLL 0.5 * sum(log s^2 + e^2 / s^2) at transformed points x, and its gradient in x.

    x is (..., 1+b+a); ``padded``, ``eps2`` and ``v0`` carry the same leading
    axes. The derivatives D_t of s^2_t in (omega, alpha, beta) follow the
    variance recursion itself (Fiorentini, Calzolari & Panattoni 1996):
    D_t = g_t + sum_j beta_j D_{t-j} with g_t = (1, e^2_{t-i}, s^2_{t-j}),
    pre-sample e^2 and s^2 pinned at v0 and pre-sample derivatives zero. So
    the score 0.5 * sum_t w_t D_t, w_t = 1/s^2_t - e^2_t/s^4_t, is
    0.5 * sum_t lambda_t g_t with lambda the weights run backwards through
    the recursion (``_backward``; lambda = w when a = 0), and no D_t is
    formed. It is chain-ruled through log omega (d omega / dx_0 = omega) and
    the logits (dw/dl = diag(w) - w w^T).
    A point whose NLL is not finite gets 1e300 and a zero gradient; the
    caller silences the floating-point warnings such a point raises.
    """
    omega, weights = _omega_weights(x)
    beta = weights[..., b:]
    den = _denominators(beta) if a else None
    sig2 = _garch_variances(padded, omega, weights[..., :b], beta, v0, den)
    ratio = eps2 / sig2
    val = 0.5 * np.add.reduce(np.log(sig2) + ratio, axis=-1)
    n = eps2.shape[-1]
    # Twice the weight of D_t in the score; the halving is exact, so it waits for the sums.
    w = (1.0 - ratio) / sig2
    lam = _backward(den, w) if a else w
    score = np.empty(x.shape)
    score[..., 0] = np.add.reduce(lam, axis=-1)
    for i in range(1, b + 1):
        score[..., i] = np.add.reduce(padded[..., b - i : b - i + n] * lam, axis=-1)
    for j in range(1, a + 1):
        presample = np.asarray(v0) * np.add.reduce(lam[..., :j], axis=-1)
        score[..., b + j] = np.add.reduce(sig2[..., : n - j] * lam[..., j:], axis=-1) + presample
    score *= 0.5
    grad = np.empty_like(x)
    grad[..., 0] = omega * score[..., 0]
    grad[..., 1:] = weights * (score[..., 1:] - np.add.reduce(weights * score[..., 1:], axis=-1, keepdims=True))
    finite = np.isfinite(val)
    if not finite.all():
        grad[~finite] = 0.0
        val = np.where(finite, val, 1e300)
    return val, grad


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def fit_garch_block(rows, b: int, a: int) -> list:
    """Gaussian QMLE of a GARCH(b, a) variance recursion on each zero-mean row of an (R, n) stack.

    Entry r is row r's :class:`FitResult`, or the :class:`PortmanteauError`
    that stops its fit; bit for bit, each entry is what the row gives alone
    (``fit_garch_qmle`` is the block of one). The BFGS runs of every row go
    in lock step, so each iteration costs a few numpy calls for the whole
    block rather than for each row.

    Parameters are optimized on a transformed scale (log omega; multinomial
    logits for the alpha/beta mass with the stationarity slack as baseline) so
    omega > 0, alpha_i, beta_j >= 0 and sum(alpha)+sum(beta) < 1 hold by
    construction. Pre-sample squared errors and variances are pinned at the
    row's sample variance.

    The NLL is minimized by BFGS on its analytic score (``_garch_nll_score``)
    with an Armijo line search (``_bfgs``) from several persistence splits,
    keeping the best optimum; each run makes at most ``_MAX_ITER``
    iterations. Only the better half of the splits by starting NLL runs (ties
    keep split order): 1 of 2 for an ARCH fit, 2 of 4 for a GARCH one. The
    other splits run too when no run of that half converged to the kept NLL,
    so the screen raises no ``non_convergence`` flag that running every split
    would not.

    A run converges when the largest score component falls to 1e-6
    (``_GTOL``). The fit counts as converged when some run converged to
    within 1e-9 of the kept NLL, so a run whose line search stalls at an
    optimum that another run confirms raises no ``non_convergence`` flag.
    ``iterations`` is the number of BFGS iterations summed over the runs made.

    An ARCH fit (a = 0) whose optimum is the all-zero face alpha = 0 would
    crawl towards it, as the logits reach it only at -inf. So before BFGS
    each row's face is computed in closed form: its NLL at omega = v0, and
    its score dNLL/dalpha_i = (1/(2 v0)) sum_t (1 - e_t^2/v0) e^2_{t-i}. After
    each iteration, a run leaves the stack converged on the face when the
    face is a KKT point (every such score >= 0), the run's alpha mass is
    below ``_FACE_MASS`` and the face's NLL is at most the run's. The fit
    then reports alpha = 0 exactly, omega = v0, no flag, and the iterations
    the run made.

    A row whose squares overflow fails with :class:`NonFinite`, and a row of
    zeros with :class:`SingularDesign`, before any run.

    Each fit's ``residuals`` are the standardized residuals e_t / s_t;
    ``conditional_sd`` holds s_t and ``garch_eps`` the row. Floating-point
    warnings are off: a trial point whose likelihood overflows is refused
    like any other.
    """
    eps = np.asarray(rows, dtype=float)
    count, n = eps.shape
    if b < 0 or a < 0 or b + a == 0:
        return [InvalidSpec("need at least one variance lag (b + a >= 1)")] * count
    if n <= 10 * (b + a):
        return [InvalidSpec(f"series too short (n = {n}) for GARCH({b},{a}) estimation")] * count
    eps2 = eps * eps
    v0 = eps2.mean(axis=1)
    out: list = [None] * count
    for r in np.flatnonzero(~np.isfinite(v0)):
        out[r] = NonFinite("squared series overflows; rescale the series")
    for r in np.flatnonzero(v0 <= 0.0):
        out[r] = SingularDesign("series has zero variance")
    ok = np.flatnonzero(np.isfinite(v0) & (v0 > 0.0))
    if not ok.size:
        return out
    eps, eps2, v0 = eps[ok], eps2[ok], v0[ok]
    padded = np.concatenate((np.repeat(v0[:, None], b, axis=1), eps2), axis=1)

    # The transformed likelihood has a curved alpha/beta trade-off valley, so
    # several persistence splits are tried and the best optimum kept.
    splits = _START_SPLITS[a > 0]
    width = len(splits)
    x = np.empty((ok.size, width, 1 + b + a))
    for k, (alpha_mass, beta_mass) in enumerate(splits):
        start = np.concatenate((np.full(b, alpha_mass / b) if b else [], np.full(a, beta_mass / a) if a else []))
        slack = 1.0 - (alpha_mass + beta_mass)
        x[:, k, 0] = np.log(v0 * slack)
        x[:, k, 1:] = np.log(np.clip(start, 1e-10, None) / slack)
    x = x.reshape(-1, 1 + b + a)
    # The all-zero face of an ARCH fit (see above). Where it is no KKT point
    # (some sum_t (1 - e_t^2/v0) e^2_{t-i} = 2 v0 dNLL/dalpha_i is negative)
    # its NLL counts as +inf, so no run settles there.
    if a == 0:
        ratio = eps2 / v0[:, None]
        w = 1.0 - ratio
        kkt = np.add.reduce(padded[:, b - 1 : b - 1 + n] * w, axis=1) >= 0.0
        for i in range(2, b + 1):
            kkt &= np.add.reduce(padded[:, b - i : b - i + n] * w, axis=1) >= 0.0
        face_nll = np.where(kkt, 0.5 * np.add.reduce(np.log(v0)[:, None] + ratio, axis=1), np.inf)
    else:
        face_nll = np.full(ok.size, np.inf)
    data = tuple(np.repeat(part, width, axis=0) for part in (padded, eps2, v0, face_nll))

    def objective(x, padded, eps2, v0, face_nll):
        return _garch_nll_score(x, padded, eps2, v0, b, a)

    def face(x, f, padded, eps2, v0, face_nll):
        # A run whose alpha mass is small and whose NLL the face's does not exceed settles on the face.
        runs = np.flatnonzero(face_nll <= f)
        if runs.size:
            runs = runs[np.add.reduce(_omega_weights(x[runs])[1], axis=1) < _FACE_MASS]
            x[runs, 0], x[runs, 1:], f[runs] = np.log(v0[runs]), -np.inf, face_nll[runs]
        return runs

    # Only a block with a row whose face is a KKT point looks for the face.
    settle = face if np.isfinite(face_nll).any() else None
    nll, grad = objective(x, *data)
    # The better half by starting NLL runs first (the sort is stable, so ties
    # keep split order). Only when no run of it converged to the kept NLL do
    # the other splits run too, and then the fit is the one all splits give.
    ranked = np.argsort(nll.reshape(-1, width), axis=1, kind="stable") + width * np.arange(ok.size)[:, None]
    made = np.zeros(x.shape[0], dtype=bool)
    success = np.zeros(x.shape[0], dtype=bool)
    iterations = np.zeros(x.shape[0], dtype=int)
    pending = np.ones(ok.size, dtype=bool)
    for stage in (ranked[:, : width // 2], ranked[:, width // 2 :]):
        runs = stage[pending].ravel()
        x[runs], nll[runs], success[runs], iterations[runs] = _bfgs(
            x[runs], nll[runs], grad[runs], objective, tuple(part[runs] for part in data), settle
        )
        made[runs] = True
        tried = np.where(made, nll, np.inf).reshape(-1, width)
        best = tried.min(axis=1, keepdims=True)
        pending = ~np.any((success.reshape(-1, width)) & (tried - best <= 1e-9), axis=1)
        if not pending.any():
            break
    kept = np.argmin(tried, axis=1) + width * np.arange(ok.size)
    omega, alpha, beta = _unpack_garch(x[kept], b, a)
    omega = np.where(np.isneginf(x[kept, -1]), v0, omega)  # a fit on the face has omega = v0 exactly
    sig2 = _garch_variances(padded, omega, alpha, beta, v0)
    sd = np.sqrt(sig2)
    loglik = -0.5 * np.sum(_LOG2PI + np.log(sig2) + eps2 / sig2, axis=1)
    boundary = np.sum(alpha, axis=1) + np.sum(beta, axis=1) > 1.0 - 1e-6
    spent = iterations.reshape(-1, width).sum(axis=1)
    for j, (r, residuals) in enumerate(zip(ok, residual_series_block(eps / sd))):
        if isinstance(residuals, PortmanteauError):
            out[r] = residuals
            continue
        flags = ("non_convergence",) * bool(pending[j]) + ("boundary_estimate",) * bool(boundary[j])
        out[r] = FitResult(
            kind="garch",
            order=(b, a),
            params={"omega": float(omega[j]), "alpha": tuple(alpha[j]), "beta": tuple(beta[j])},
            residuals=residuals,
            loglik=float(loglik[j]),
            aic=float(-2.0 * loglik[j] + 2.0 * (1 + b + a)),
            converged=not pending[j],
            iterations=int(spent[j]),
            conditional_sd=sd[j],
            garch_eps=eps[j],
            flags=flags,
        )
    return out


def fit_garch_qmle(series, b: int, a: int) -> FitResult:
    """Gaussian QMLE of a GARCH(b, a) variance recursion on a zero-mean series: ``fit_garch_block`` of one row."""
    return _lone(fit_garch_block(np.asarray(series, dtype=float)[None], b, a))


def fit_ar_garch_block(rows, p: int, b: int, a: int, intercept: bool = True) -> list:
    """``fit_ar_garch`` of each row of an (R, n) stack: one AR block, then one GARCH block.

    Entry r is row r's :class:`FitResult` or the :class:`PortmanteauError`
    that stops its fit, each what the row gives alone.
    """
    out = fit_ar_block(rows, p, intercept=intercept)
    ok = [r for r, fit in enumerate(out) if isinstance(fit, FitResult)]
    if not ok:
        return out
    var_fits = fit_garch_block(np.array([out[r].residuals.values for r in ok]), b, a)
    for r, var_fit in zip(ok, var_fits):
        mean_fit = out[r]
        if isinstance(var_fit, PortmanteauError):
            out[r] = var_fit
            continue
        params = {"mu": mean_fit.params["mu"], "phi": mean_fit.params["phi"], **var_fit.params}
        out[r] = replace(
            var_fit,
            kind="ar_garch",
            order=(p, 0),
            converged=mean_fit.converged and var_fit.converged,
            params={**params, "mean_order": p, "variance_order": (b, a)},
        )
    return out


def fit_ar_garch(series, p: int, b: int, a: int, intercept: bool = True) -> FitResult:
    """Two-stage fit: AR(p) mean by least squares, then GARCH(b, a) on its residuals.

    The composite ``residuals`` are the standardized residuals from the
    variance stage; the order correction for residual-autocorrelation tests is
    the mean-stage order p. ``fit_ar_garch_block`` of one row.
    """
    return _lone(fit_ar_garch_block(np.asarray(series, dtype=float)[None], p, b, a, intercept=intercept))
