"""Property tests for the class inversions: every inverted mean, recorded by
``fit`` or returned by ``invert_apply``, is a unit direction on the class
mean's side, so no consumer needs to re-orient it."""
from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qdasim.oracle import LabeledDataset  # noqa: E402
from qdasim.qda import fit, invert_apply  # noqa: E402


@st.composite
def gaussian_classes(draw):
    """Samples from k Gaussians with random SPD covariances (spectrum in
    [0.5, 2]) and random means, with the register width and pooling choice."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples, labels = [], []
    for c in range(1, k + 1):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        root = q * np.sqrt(rng.uniform(0.5, 2.0, n))
        mean = 2.0 * rng.standard_normal(n)
        samples.append(mean + rng.standard_normal((40, n)) @ root.T)
        labels += [c] * 40
    data = LabeledDataset(samples=np.vstack(samples), labels=np.array(labels))
    return data, draw(st.booleans()), draw(st.integers(6, 10))


@settings(max_examples=40, deadline=None)
@given(gaussian_classes())
def test_inverted_means_are_unit_and_on_the_mean_side(case):
    data, shared, t = case
    model = fit(data, shared_covariance=shared)
    for path, directions in (("classical", model.inverse_directions),
                             ("quantum", invert_apply(model, t)[0])):
        for direction, mu in zip(directions, model.class_means):
            assert abs(np.linalg.norm(direction) - 1.0) <= 1e-12, path
            assert float(direction @ mu) > 0.0, path
