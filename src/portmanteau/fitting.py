"""Model estimation: AR by least squares, ARMA by conditional sum of squares,
GARCH by Gaussian quasi-maximum likelihood.

Every fit returns a :class:`FitResult` whose ``residuals`` carry the series the
portmanteau statistics should be applied to: raw one-step errors for AR/ARMA
fits, standardized residuals e_t / s_t for conditional-variance fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter

from .errors import InvalidSpec, NonFinite, SingularDesign
from .residuals import ResidualSeries, make_residual_series

_LOG2PI = float(np.log(2.0 * np.pi))


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


def fit_ar(series, p: int, intercept: bool = True) -> FitResult:
    """Regress z_t on (1, z_{t-1}, ..., z_{t-p}); residuals cover t = p+1..n.

    With ``intercept=False`` the constant column is dropped (regression through
    the origin, for series known to have mean zero). This matters for the
    block log-determinant statistic: exact in-sample demeaning changes the
    null behavior of the lag-0 residual/squared-residual correlation, and the
    calibration of its gamma null assumes the mean was NOT estimated.
    """
    z = np.asarray(series, dtype=float)
    n = z.size
    if p < 0:
        raise InvalidSpec("autoregressive order must be non-negative")
    if p > 0 and n <= 10 * p:
        raise InvalidSpec(f"need n > 10p observations to fit AR({p}), got n = {n}")
    nparams = p + int(intercept)
    y = z[p:]
    cols = []
    if intercept:
        cols.append(np.ones(n - p))
    for j in range(1, p + 1):
        cols.append(z[p - j : n - j])
    if cols:
        design = np.column_stack(cols)
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < nparams:
            raise SingularDesign(f"AR({p}) design matrix has rank {rank} < {nparams}")
        resid = y - design @ coef
    else:
        coef = np.empty(0)
        resid = y.copy()
    sigma2 = float(resid @ resid) / resid.size
    if sigma2 <= 0.0:
        raise SingularDesign("residual variance collapsed to zero")
    mu = float(coef[0]) if intercept else 0.0
    phi = tuple(coef[1:]) if intercept else tuple(coef)
    loglik = -0.5 * resid.size * (_LOG2PI + np.log(sigma2) + 1.0)
    aic = n * np.log(sigma2) + 2.0 * nparams
    return FitResult(
        kind="ar",
        order=(p, 0),
        params={"mu": mu, "phi": phi, "sigma2": sigma2, "intercept": intercept},
        residuals=make_residual_series(resid),
        loglik=float(loglik),
        aic=float(aic),
        converged=True,
        iterations=0,
    )


def select_ar_order_aic(series, p_max: int = 4, intercept: bool = True) -> FitResult:
    """Fit AR(p) for p = 1..p_max and keep the minimum-AIC fit (ties to smaller p)."""
    if p_max < 1:
        raise InvalidSpec("p_max must be at least 1")
    best: FitResult | None = None
    for p in range(1, p_max + 1):
        fit = fit_ar(series, p, intercept=intercept)
        if best is None or fit.aic < best.aic:
            best = fit
    return best


# ---------------------------------------------------------------------------
# ARMA by conditional sum of squares
# ---------------------------------------------------------------------------


def _css_residuals(z: np.ndarray, mu: float, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """One-step errors conditioning on the first p observations, zero pre-sample errors."""
    p, q = phi.size, theta.size
    w = z - mu
    n = w.size
    rhs = w[p:].copy()
    for j in range(1, p + 1):
        rhs -= phi[j - 1] * w[p - j : n - j]
    if q == 0:
        return rhs
    # eps_t = rhs_t - theta_1 eps_{t-1} - ... - theta_q eps_{t-q}
    return lfilter([1.0], np.concatenate(([1.0], theta)), rhs)


def _reflect_ma_roots(theta: np.ndarray) -> tuple[np.ndarray, bool]:
    """Move any moving-average root inside the unit circle to its reciprocal."""
    if theta.size == 0:
        return theta, False
    poly = np.concatenate(([1.0], theta))  # ascending in B
    roots = np.roots(poly[::-1])
    inside = np.abs(roots) < 1.0 - 1e-12
    if not inside.any():
        return theta, False
    roots[inside] = 1.0 / np.conj(roots[inside])
    new = np.poly(roots)  # descending, monic
    new = new / new[-1]  # normalize constant term to 1
    return new[::-1][1:].real, True


def fit_arma_css(series, p: int, q: int, max_iter: int = 2000) -> FitResult:
    """Minimize the conditional sum of squares over (mu, phi, theta).

    A derivative-free simplex search is used; convergence is declared when the
    objective spread drops below 1e-10 (the ``converged`` flag reports which
    exit was taken). Non-invertible moving-average estimates are reflected to
    their invertible equivalents and flagged.
    """
    z = np.asarray(series, dtype=float)
    n = z.size
    if n <= 10 * max(p, q, 1):
        raise InvalidSpec(f"series too short (n = {n}) for ARMA({p},{q}) estimation")
    if p == 0 and q == 0:
        mu = float(z.mean())
        resid = z - mu
        sigma2 = float(resid @ resid) / n
        loglik = -0.5 * n * (_LOG2PI + np.log(sigma2) + 1.0)
        return FitResult(
            kind="arma",
            order=(0, 0),
            params={"mu": mu, "phi": (), "theta": (), "sigma2": sigma2},
            residuals=make_residual_series(resid),
            loglik=float(loglik),
            aic=float(n * np.log(sigma2) + 2.0),
            converged=True,
            iterations=0,
        )

    init_mu = float(z.mean())
    init_phi = np.zeros(p)
    if p > 0:
        init_phi = np.asarray(fit_ar(z, p).params["phi"])
    x0 = np.concatenate(([init_mu], init_phi, np.zeros(q)))

    def objective(x: np.ndarray) -> float:
        mu, phi, theta = x[0], x[1 : 1 + p], x[1 + p :]
        eps = _css_residuals(z, mu, phi, theta)
        css = float(eps @ eps)
        if not np.isfinite(css):
            return 1e300
        return css

    res = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={"fatol": 1e-10, "xatol": 1e-8, "maxiter": max_iter, "maxfev": 4 * max_iter},
    )
    flags = []
    if not res.success:
        flags.append("non_convergence")
    mu = float(res.x[0])
    phi = res.x[1 : 1 + p]
    theta, reflected = _reflect_ma_roots(res.x[1 + p :])
    if reflected:
        flags.append("reflected_ma_roots")
    resid = _css_residuals(z, mu, phi, theta)
    sigma2 = float(resid @ resid) / resid.size
    loglik = -0.5 * resid.size * (_LOG2PI + np.log(sigma2) + 1.0)
    return FitResult(
        kind="arma",
        order=(p, q),
        params={"mu": mu, "phi": tuple(phi), "theta": tuple(theta), "sigma2": sigma2},
        residuals=make_residual_series(resid),
        loglik=float(loglik),
        aic=float(n * np.log(sigma2) + 2.0 * (p + q + 1)),
        converged=bool(res.success),
        iterations=int(res.nit),
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# GARCH by Gaussian quasi-maximum likelihood
# ---------------------------------------------------------------------------


def _garch_variances(padded: np.ndarray, omega: float, alpha: np.ndarray, beta: np.ndarray, v0: float) -> np.ndarray:
    """Conditional variances with pre-sample e^2 and s^2 pinned at v0.

    ``padded`` is e^2 preceded by b = alpha.size copies of v0.
    """
    b, a = alpha.size, beta.size
    n = padded.size - b
    c = np.full(n, omega)
    for i in range(1, b + 1):
        c += alpha[i - 1] * padded[b - i : b - i + n]
    if a == 0:
        return c
    # Initial state of the recursion for a flat pre-sample s^2 = v0, in the
    # closed form of scipy's lfiltic([1], [1, -beta], v0): z_k = sum_{j>=k} beta_j v0.
    terms = beta * v0
    zi = np.array([terms[k:].sum() for k in range(a)])
    sig2, _ = lfilter([1.0], np.concatenate(([1.0], -beta)), c, zi=zi)
    return sig2


def _log_normaliser(logits: np.ndarray) -> np.float64:
    """log(1 + sum(exp(logits))), bit for bit what scipy 1.17 logsumexp((0, *logits)) gives.

    Inlined because scipy's array-API dispatch costs ten times the rest of a
    likelihood evaluation. The steps are scipy's own for real 1-D input, in
    its order: the maximum is split out of the sum and its ties counted. The
    terms are summed in array order, 0 first; any other order changes the
    fitted parameters' bits once b + a >= 2.
    """
    v = np.concatenate(([0.0], logits))
    top = v.max()
    at_top = v == top
    count = float(np.count_nonzero(at_top))
    v[at_top] = -np.inf
    s = np.exp(v - top).sum()
    if s != 0:
        s = s / count
    return np.log1p(s) + np.log(count) + top


def _unpack_garch(x: np.ndarray, b: int, a: int) -> tuple[float, np.ndarray, np.ndarray]:
    omega = float(np.exp(x[0]))
    logits = x[1:]
    weights = np.exp(logits - _log_normaliser(logits))
    return omega, weights[:b], weights[b:]


def _pack_garch(omega: float, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    slack = 1.0 - float(alpha.sum() + beta.sum())
    slack = max(slack, 1e-8)
    logits = np.log(np.clip(np.concatenate((alpha, beta)), 1e-10, None) / slack)
    return np.concatenate(([np.log(omega)], logits))


def _garch_nll_score(x: np.ndarray, padded: np.ndarray, eps2: np.ndarray, v0: float, b: int, a: int):
    """Gaussian NLL 0.5 * sum(log s^2 + e^2 / s^2) at transformed point x, and its gradient in x.

    The derivatives D_t of s^2_t in (omega, alpha, beta) follow the variance
    recursion itself (Fiorentini, Calzolari & Panattoni 1996):
    D_t = g_t + sum_j beta_j D_{t-j} with g_t = (1, e^2_{t-i}, s^2_{t-j}),
    pre-sample e^2 and s^2 pinned at v0 and pre-sample derivatives zero. The
    score 0.5 * sum (1/s^2 - e^2/s^4) D_t is chain-ruled through log omega
    (d omega / dx_0 = omega) and the logits (dw/dl = diag(w) - w w^T).
    A point whose NLL is not finite returns 1e300 and a zero gradient.
    """
    omega, alpha, beta = _unpack_garch(x, b, a)
    sig2 = _garch_variances(padded, omega, alpha, beta, v0)
    ratio = eps2 / sig2
    val = 0.5 * float(np.sum(np.log(sig2) + ratio))
    if not np.isfinite(val):
        return 1e300, np.zeros_like(x)
    n = eps2.size
    g = np.empty((1 + b + a, n))
    g[0] = 1.0
    for i in range(1, b + 1):
        g[i] = padded[b - i : b - i + n]
    if a:
        past = np.concatenate((np.full(a, v0), sig2))
        for j in range(1, a + 1):
            g[b + j] = past[a - j : a - j + n]
        g = lfilter([1.0], np.concatenate(([1.0], -beta)), g, axis=1)
    score = g @ (0.5 * (1.0 - ratio) / sig2)
    weights = np.concatenate((alpha, beta))
    grad = np.empty_like(x)
    grad[0] = omega * score[0]
    grad[1:] = weights * (score[1:] - weights @ score[1:])
    return val, grad


def fit_garch_qmle(series, b: int, a: int, max_iter: int = 4000) -> FitResult:
    """Gaussian QMLE of a GARCH(b, a) variance recursion on a zero-mean series.

    Parameters are optimized on a transformed scale (log omega; multinomial
    logits for the alpha/beta mass with the stationarity slack as baseline) so
    omega > 0, alpha_i, beta_j >= 0 and sum(alpha)+sum(beta) < 1 hold by
    construction. Pre-sample squared errors and variances are pinned at the
    sample variance.

    The NLL is minimized by BFGS on its analytic score (``_garch_nll_score``)
    from several persistence splits, keeping the best optimum; ``max_iter``
    bounds each BFGS run. Only the better half of the splits by starting NLL
    runs (ties keep split order): 1 of 2 for an ARCH fit, 2 of 4 for a GARCH
    one. The other splits run too when no run of that half converged to the
    kept NLL, so the screen raises no ``non_convergence`` flag that running
    every split would not. On seeds 0-99 of the four golden orders at n in
    {200, 500} the screen lost at most 3.2e-7 nats against running every
    split, and changed no flag (``scripts/compare_garch_fits.py``).

    A run converges when the largest score component falls below 1e-6
    (``gtol``): at 1e-7, 13 of 400 seeded fits (4 orders, n = 200) kept a run
    that ended in a line-search precision loss with the score already between
    1.0e-7 and 5.2e-7, so the line search cannot resolve a tighter optimum.
    The fit counts as converged when some run converged to within 1e-9 of the
    kept NLL, so a run that ends in a precision loss at an optimum that
    another run confirms raises no ``non_convergence`` flag. ``iterations`` is
    the number of BFGS iterations summed over the runs made.

    A series whose squares overflow raises :class:`NonFinite` before any run.

    The returned ``residuals`` are the standardized residuals e_t / s_t;
    ``conditional_sd`` holds s_t and ``garch_eps`` the input series.
    """
    eps = np.asarray(series, dtype=float)
    n = eps.size
    if b < 0 or a < 0 or b + a == 0:
        raise InvalidSpec("need at least one variance lag (b + a >= 1)")
    if n <= 10 * (b + a):
        raise InvalidSpec(f"series too short (n = {n}) for GARCH({b},{a}) estimation")
    with np.errstate(over="ignore"):
        eps2 = eps * eps
        v0 = float(eps2.mean())
    if not np.isfinite(v0):
        raise NonFinite("squared series overflows; rescale the series")
    if v0 <= 0.0:
        raise SingularDesign("series has zero variance")

    padded = np.concatenate((np.full(b, v0), eps2))

    # The transformed likelihood has a curved alpha/beta trade-off valley, so
    # several persistence splits are tried and the best optimum kept.
    if a:
        start_splits = [(0.3, 0.4), (0.05, 0.85), (0.45, 0.1), (0.1, 0.2)]
    else:
        start_splits = [(0.3, 0.0), (0.1, 0.0)]
    args = (padded, eps2, v0, b, a)
    starts = []
    for alpha_mass, beta_mass in start_splits:
        start_alpha = np.full(b, alpha_mass / b) if b else np.empty(0)
        start_beta = np.full(a, beta_mass / a) if a else np.empty(0)
        persistence = alpha_mass + beta_mass
        starts.append(_pack_garch(v0 * (1.0 - persistence), start_alpha, start_beta))
    # The better half by starting NLL runs first (the sort is stable, so ties
    # keep split order). Only when no run of it converged to the kept NLL do
    # the other splits run too, and then the fit is the one all splits give.
    start_nll = [_garch_nll_score(x0, *args)[0] for x0 in starts]
    ranked = sorted(range(len(starts)), key=start_nll.__getitem__)
    runs = {}
    for stage in (ranked[: len(starts) // 2], ranked[len(starts) // 2 :]):
        for k in stage:
            runs[k] = minimize(
                _garch_nll_score, starts[k], args=args, method="BFGS", jac=True,
                options={"gtol": 1e-6, "maxiter": max_iter},
            )
        trials = [runs[k] for k in sorted(runs)]
        res = min(trials, key=lambda trial: trial.fun)
        converged = any(trial.success and trial.fun - res.fun <= 1e-9 for trial in trials)
        if converged:
            break
    omega, alpha, beta = _unpack_garch(res.x, b, a)
    flags = []
    if not converged:
        flags.append("non_convergence")
    if alpha.sum() + beta.sum() > 1.0 - 1e-6:
        flags.append("boundary_estimate")
    sig2 = _garch_variances(padded, omega, alpha, beta, v0)
    sd = np.sqrt(sig2)
    loglik = -0.5 * float(np.sum(_LOG2PI + np.log(sig2) + eps2 / sig2))
    return FitResult(
        kind="garch",
        order=(b, a),
        params={"omega": omega, "alpha": tuple(alpha), "beta": tuple(beta)},
        residuals=make_residual_series(eps / sd),
        loglik=loglik,
        aic=float(-2.0 * loglik + 2.0 * (1 + b + a)),
        converged=converged,
        iterations=sum(int(trial.nit) for trial in trials),
        conditional_sd=sd,
        garch_eps=eps,
        flags=tuple(flags),
    )


def fit_ar_garch(series, p: int, b: int, a: int, intercept: bool = True) -> FitResult:
    """Two-stage fit: AR(p) mean by least squares, then GARCH(b, a) on its residuals.

    The composite ``residuals`` are the standardized residuals from the
    variance stage; the order correction for residual-autocorrelation tests is
    the mean-stage order p.
    """
    mean_fit = fit_ar(series, p, intercept=intercept)
    eps = mean_fit.residuals.values
    var_fit = fit_garch_qmle(eps, b, a)
    params = {
        "mu": mean_fit.params["mu"],
        "phi": mean_fit.params["phi"],
        "omega": var_fit.params["omega"],
        "alpha": var_fit.params["alpha"],
        "beta": var_fit.params["beta"],
        "mean_order": p,
        "variance_order": (b, a),
    }
    return FitResult(
        kind="ar_garch",
        order=(p, 0),
        params=params,
        residuals=var_fit.residuals,
        loglik=var_fit.loglik,
        aic=var_fit.aic,
        converged=mean_fit.converged and var_fit.converged,
        iterations=var_fit.iterations,
        conditional_sd=var_fit.conditional_sd,
        garch_eps=eps,
        flags=var_fit.flags,
    )
