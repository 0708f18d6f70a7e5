"""Properties of the statistic battery: scale invariance, p-values in [0, 1]
and the block log-determinant.

Every table statistic is a function of the residual correlations, so scaling
the residuals by a positive constant c changes neither a statistic's value
(beyond rounding) nor its degenerate flag. The series shapes include the two
hand-made ones whose standardized Toeplitz matrices are not positive definite,
so the degenerate path is covered as well.

The Cholesky log-determinant of Cm's block matrix agrees with the Schur
complement route of ``reference.schur_logdet`` to criterion 8a's absolute
1e-9, at every lag order 1 <= m < n/2.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portmanteau import build_block, evaluate_statistics, logdet_pd, make_residual_series
from portmanteau.diagnostics import _TABLE
from portmanteau.reference import schur_logdet

# every statistic but the Lb family, which reads fitted conditional variances
TABLE_STATISTICS = tuple(_TABLE)

SHAPES = {
    "normal": lambda n, rng: rng.standard_normal(n),
    "student_t": lambda n, rng: rng.standard_t(5, n),
    "alternating": lambda n, rng: (-1.0) ** np.arange(n) + 0.05 * rng.standard_normal(n),
    "two_level": lambda n, rng: np.where(rng.random(n) < 0.5, -1.0, 1.0) * (1.5 + 0.5 * (-1.0) ** np.arange(n)),
}


def _same_value(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    shape=st.sampled_from(sorted(SHAPES)),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 300),
    c=st.floats(1e-3, 1e3),
    data=st.data(),
)
def test_table_statistics_are_scale_invariant(shape, seed, n, c, data):
    _assert_scale_invariant(shape, seed, n, c, data.draw(st.integers(1, (n - 1) // 2), label="m"))


# Draws whose D22 and Dt22 matrices lie within about 1e-8 of the identity, where
# a Cholesky log-determinant keeps only about 1e-8 of relative precision.
@pytest.mark.parametrize(
    "shape, seed, n, c, m", [("student_t", 268, 20, 197.0, 1), ("normal", 2664, 195, 383.0, 1)]
)
def test_near_identity_statistics_are_scale_invariant(shape, seed, n, c, m):
    _assert_scale_invariant(shape, seed, n, c, m)


def _assert_scale_invariant(shape: str, seed: int, n: int, c: float, m: int) -> None:
    e = SHAPES[shape](n, np.random.default_rng(seed))
    base = evaluate_statistics(TABLE_STATISTICS, make_residual_series(e), m)
    scaled = evaluate_statistics(TABLE_STATISTICS, make_residual_series(c * e), m)
    for name in TABLE_STATISTICS:
        a, b = base[name], scaled[name]
        assert a.degenerate == b.degenerate, name
        assert _same_value(a.statistic, b.statistic), (name, a.statistic, b.statistic)
        for report in (a, b):
            assert 0.0 <= report.p_value <= 1.0, (name, report.p_value)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(["normal", "student_t"]), seed=st.integers(0, 2**32 - 1), n=st.integers(50, 500), data=st.data()
)
def test_block_logdet_agrees_with_schur_complement(shape, seed, n, data):
    m = data.draw(st.integers(1, (n - 1) // 2), label="m")
    block = build_block(make_residual_series(SHAPES[shape](n, np.random.default_rng(seed))), m)
    assert abs(logdet_pd(block) - schur_logdet(block)) < 1e-9
