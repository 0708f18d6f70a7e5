"""The analytic ARMA conditional-sum-of-squares gradient against central finite differences."""

import numpy as np
import pytest

from portmanteau import ModelSpec, simulate
from portmanteau.fitting import _css_score
from test_arma_css_floor import FIT_MODELS


@pytest.mark.parametrize("order", ["1,1", "2,1", "0,2", "1,2"])
def test_css_gradient_matches_central_differences(order):
    p, q = (int(part) for part in order.split(","))
    rng = np.random.default_rng(2024 + 10 * p + q)
    for seed in range(5):
        z = simulate(ModelSpec(model=FIT_MODELS[order], burn_in=200), 200, seed)
        # A seeded point near the path: mu near its mean, phi and theta inside the stationary and invertible regions.
        x = np.concatenate(([z.mean() + rng.normal(0.0, 0.3)], rng.uniform(-0.45, 0.45, p + q)))
        d = x.size
        h = 1e-5 * np.maximum(1.0, np.abs(x))
        # Row 0 is x, rows 1..d step one coordinate up and rows d+1..2d step it down: one stacked call.
        points = np.vstack((x, x + np.diag(h), x - np.diag(h)))
        css, grad, _ = _css_score(points, np.tile(z, (2 * d + 1, 1)), p, q)
        fd = (css[1 : d + 1] - css[d + 1 :]) / (2.0 * h)
        scale = max(1.0, float(np.abs(fd).max()))
        assert np.abs(grad[0] - fd).max() <= 1e-6 * scale, (grad[0], fd)
