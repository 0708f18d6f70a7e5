"""The analytic GARCH score against central finite differences of the NLL."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portmanteau import ModelSpec, simulate
from portmanteau.fitting import _garch_nll_score, _garch_variances, _unpack_garch
from test_golden_garch import FIT_MODELS, FIT_N


@lru_cache(maxsize=None)
def _series(order, seed):
    model = FIT_MODELS[order]
    z = simulate(ModelSpec(model=model, burn_in=200), FIT_N, seed)
    eps2 = z * z
    v0 = float(eps2.mean())
    return np.concatenate((np.full(model.b, v0), eps2)), eps2, v0


@st.composite
def _points(draw, order):
    """A transformed point: log omega near the log sample variance, moderate logits."""
    seed = draw(st.integers(0, 4))
    padded, eps2, v0 = _series(order, seed)
    log_omega = np.log(v0) + draw(st.floats(-4.0, 1.0))
    size = FIT_MODELS[order].b + FIT_MODELS[order].a
    logits = draw(st.lists(st.floats(-6.0, 6.0), min_size=size, max_size=size))
    return np.array([log_omega, *logits]), padded, eps2, v0


def _nll(x, padded, eps2, v0, b, a):
    omega, alpha, beta = _unpack_garch(x, b, a)
    sig2 = _garch_variances(padded, omega, alpha, beta, v0)
    return 0.5 * float(np.sum(np.log(sig2) + eps2 / sig2))


@pytest.mark.parametrize("order", sorted(FIT_MODELS))
def test_score_matches_central_differences(order):
    b, a = FIT_MODELS[order].b, FIT_MODELS[order].a

    @settings(max_examples=60, deadline=None)
    @given(_points(order))
    def check(point):
        x, padded, eps2, v0 = point
        val, grad = _garch_nll_score(x, padded, eps2, v0, b, a)
        assert val == _nll(x, padded, eps2, v0, b, a)
        assert grad.shape == x.shape
        fd = np.empty_like(x)
        for k in range(x.size):
            h = 1e-5 * max(1.0, abs(x[k]))
            step = np.zeros_like(x)
            step[k] = h
            up = _garch_nll_score(x + step, padded, eps2, v0, b, a)[0]
            down = _garch_nll_score(x - step, padded, eps2, v0, b, a)[0]
            fd[k] = (up - down) / (2.0 * h)
        scale = max(1.0, float(np.abs(fd).max()))
        assert np.abs(grad - fd).max() <= 1e-5 * scale, (grad, fd)

    check()
