"""Property tests for the frame of ``class_statistics``: the class statistics
and the classifier are taken in the samples divided by the power of two at
their largest entry, so data times 2^k give the same statistics, operators,
classifier records and discriminants bit for bit, wherever data * 2^k stays
finite, up to the top binade of float64. Queries that outgrow the training
data's frame are scored in their own power-of-two frame, which is exact too."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from qdasim.data_io import synthetic_preset  # noqa: E402
from qdasim.lda import whitening_chain  # noqa: E402
from qdasim.oracle import LabeledDataset, class_statistics  # noqa: E402
from qdasim.qda import classify_many, fit  # noqa: E402


@st.composite
def rescaled_classes(draw):
    """Samples from k Gaussians with random means and spreads, and a power k
    of two that keeps them finite; some powers put the largest entry in the
    top binade of float64."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = np.vstack([3.0 * rng.standard_normal(n)
                         + rng.uniform(0.3, 2.0) * rng.standard_normal((12, n))
                         for _ in range(k)])
    data = LabeledDataset(samples, np.repeat(np.arange(1, k + 1), 12))
    _, top = np.frexp(np.abs(samples).max())
    power = draw(st.one_of(st.integers(-1000, 1000), st.just(1024 - int(top))))
    with np.errstate(over="ignore"):
        moved = np.ldexp(samples, power)
    assume(np.all(np.isfinite(moved)))
    return data, LabeledDataset(moved, data.labels), power


def top_of_float64_case():
    """two-gauss with its largest entry at 1.7e308, and the same set times 2**-600."""
    data = synthetic_preset("two-gauss", per_class=50, seed=0)
    top = data.samples * (1.7e308 / np.abs(data.samples).max())
    return LabeledDataset(np.ldexp(top, -600), data.labels), LabeledDataset(top, data.labels), 600


@settings(max_examples=40, deadline=None)
@given(rescaled_classes(), st.integers(1, 60))
@example(top_of_float64_case(), 30)
def test_power_of_two_rescale_moves_no_bit(case, j):
    data, scaled, power = case
    stats, moved = class_statistics(data), class_statistics(scaled)
    assert moved.exponent == stats.exponent + power
    for name in ("class_means", "global_mean", "norm_between", "norm_within", "per_class_norm"):
        np.testing.assert_array_equal(getattr(moved, name), getattr(stats, name), err_msg=name)
    for (op, _), (moved_op, _) in zip(whitening_chain(data, 100.0).stages,
                                      whitening_chain(scaled, 100.0).stages):
        np.testing.assert_array_equal(moved_op.matrix, op.matrix)
    # the same queries 2**j above the training data, where both stay finite:
    # their rows outgrow the model's frame and are scored in their own
    with np.errstate(over="ignore"):
        batches = [(data.samples, scaled.samples),
                   (np.ldexp(data.samples, j), np.ldexp(scaled.samples, j))]
    batches = [pair for pair in batches if np.isfinite(pair[1]).all()]
    for shared in (False, True):
        model, moved_model = fit(data, shared_covariance=shared), fit(scaled, shared_covariance=shared)
        assert moved_model.exponent == model.exponent + power
        np.testing.assert_array_equal(moved_model.class_means, model.class_means)
        np.testing.assert_array_equal(moved_model.inverse_norms, model.inverse_norms)
        for (queries, moved_queries), path in itertools.product(batches, ("classical", "quantum")):
            np.testing.assert_array_equal(
                classify_many(moved_model, moved_queries, path, 256, 5).discriminants,
                classify_many(model, queries, path, 256, 5).discriminants,
                err_msg=f"shared={shared} {path}")
