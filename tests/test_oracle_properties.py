"""Property tests for the frame of ``class_statistics``: the class statistics
are taken in the samples divided by the power of two at their largest entry,
so data times 2^k give the same statistics, operators and discriminants bit
for bit, wherever data * 2^k stays finite."""
from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from qdasim.lda import whitening_chain  # noqa: E402
from qdasim.oracle import LabeledDataset, class_statistics  # noqa: E402
from qdasim.qda import classify_many, fit  # noqa: E402


@st.composite
def rescaled_classes(draw):
    """Samples from k Gaussians with random means and spreads, and a power k
    of two that keeps them finite."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = np.vstack([3.0 * rng.standard_normal(n)
                         + rng.uniform(0.3, 2.0) * rng.standard_normal((12, n))
                         for _ in range(k)])
    data = LabeledDataset(samples, np.repeat(np.arange(1, k + 1), 12))
    power = draw(st.integers(-1000, 1000))
    with np.errstate(over="ignore"):
        moved = np.ldexp(samples, power)
    assume(np.all(np.isfinite(moved)))
    return data, LabeledDataset(moved, data.labels), power


@settings(max_examples=40, deadline=None)
@given(rescaled_classes())
def test_power_of_two_rescale_moves_no_bit(case):
    data, scaled, power = case
    stats, moved = class_statistics(data), class_statistics(scaled)
    assert moved.exponent == stats.exponent + power
    for name in ("norm_between", "norm_within", "per_class_norm"):
        np.testing.assert_array_equal(getattr(moved, name), getattr(stats, name), err_msg=name)
    for (op, _), (moved_op, _) in zip(whitening_chain(data, 100.0).stages,
                                      whitening_chain(scaled, 100.0).stages):
        np.testing.assert_array_equal(moved_op.matrix, op.matrix)
    for shared in (False, True):
        model, moved_model = fit(data, shared_covariance=shared), fit(scaled, shared_covariance=shared)
        for path in ("classical", "quantum"):
            np.testing.assert_array_equal(
                classify_many(moved_model, scaled.samples, path, 256, 5).discriminants,
                classify_many(model, data.samples, path, 256, 5).discriminants,
                err_msg=f"shared={shared} {path}")
