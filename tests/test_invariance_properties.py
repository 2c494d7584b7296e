"""Property tests for what the benchmark's inputs rely on: a Haar rotation of
the feature space, a permutation of the samples or a factor of 3 moves the
classical discriminant directions only by the same map, leaves their
eigenvalue estimates alone and changes no classical decision."""
from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qdasim.lda import classical_lda_oracle, whitening_chain  # noqa: E402
from qdasim.oracle import LabeledDataset, class_statistics  # noqa: E402
from qdasim.qda import classify_many, fit  # noqa: E402


@st.composite
def transformed_classes(draw):
    """k Gaussian classes in N <= 16 dimensions (covariance spectrum in
    [0.5, 2]), the set under one of the three maps, and that map's rotation
    and factor (a permutation moves no sample's coordinates)."""
    n = draw(st.integers(2, 16))
    k = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples, labels = [], []
    for c in range(1, k + 1):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        root = q * np.sqrt(rng.uniform(0.5, 2.0, n))
        samples.append(2.0 * rng.standard_normal(n) + rng.standard_normal((40, n)) @ root.T)
        labels += [c] * 40
    data = LabeledDataset(np.vstack(samples), np.array(labels))
    kind = draw(st.sampled_from(["rotation", "permutation", "times-3"]))
    if kind == "rotation":
        # QR of a Gaussian matrix with R's diagonal made positive is Haar-distributed
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q *= np.sign(np.diag(r))
        return data, LabeledDataset(data.samples @ q.T, data.labels), q, 1.0
    if kind == "permutation":
        order = rng.permutation(data.M)
        return data, LabeledDataset(data.samples[order], data.labels[order]), np.eye(n), 1.0
    return data, LabeledDataset(3.0 * data.samples, data.labels), np.eye(n), 3.0


def angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle between each pair of unit rows, either sign of b."""
    b = b * np.where(np.sum(a * b, axis=1) < 0.0, -1.0, 1.0)[:, None]
    return 2.0 * np.arcsin(np.minimum(np.linalg.norm(a - b, axis=1) / 2.0, 1.0))


@settings(max_examples=30, deadline=None)
@given(transformed_classes())
def test_discriminant_analysis_follows_the_map_of_the_data(case):
    data, mapped, q, factor = case
    before = classical_lda_oracle(whitening_chain(class_statistics(data), 100.0), 1)
    after = classical_lda_oracle(whitening_chain(class_statistics(mapped), 100.0), 1)
    assert np.max(angles(before.directions @ q.T, after.directions)) <= 1e-8
    np.testing.assert_allclose(after.eigenvalue_estimates, before.eigenvalue_estimates,
                               rtol=0.0, atol=1e-12)
    queries = factor * data.samples @ q.T
    for shared in (False, True):
        decisions = classify_many(fit(data, shared_covariance=shared), data.samples).decisions
        mapped_decisions = classify_many(fit(mapped, shared_covariance=shared), queries).decisions
        assert np.array_equal(decisions, mapped_decisions), shared
