"""Property tests for eigenpair sampling: each sample's vector is a top
eigenvector of the dense post-measurement block of its register outcome."""
from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qdasim.linalg import DensityOperator, eig_hermitian  # noqa: E402
from qdasim.qsim import phase_estimation, sample_eigenpairs  # noqa: E402


@st.composite
def diagonal_inputs(draw):
    """A generator with spectrum in (0, 1) and an input diagonal in its eigenbasis."""
    n = draw(st.integers(2, 8))
    spectrum = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    gen = DensityOperator((q * (spectrum / spectrum.sum())) @ q.conj().T)
    kind = draw(st.sampled_from(["generator", "mixture", "uniform"]))
    if kind == "generator":
        inp = gen
    elif kind == "uniform":
        inp = DensityOperator(np.eye(n) / n)
    else:
        weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        hypothesis.assume(weights.sum() > 0.1)
        v = eig_hermitian(gen).eigenvectors
        inp = DensityOperator((v * (weights / weights.sum())) @ v.conj().T)
    return gen, inp, draw(st.integers(2, 6)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(diagonal_inputs())
def test_sample_vector_attains_top_eigenvalue_of_outcome_block(case):
    gen, inp, t, seed = case
    joint = phase_estimation(gen, inp, t)
    samples = sample_eigenpairs(joint, 512, seed=seed)
    assert samples
    for s in samples:
        a = joint.profiles[:, s.register_value]
        block = joint.vectors @ (joint.beta * np.outer(a, a.conj())) @ joint.vectors.conj().T
        top = np.linalg.eigvalsh(block)[-1]
        assert abs(np.linalg.norm(s.vector) - 1.0) < 1e-12
        assert abs(np.vdot(s.vector, block @ s.vector).real - top) < 1e-12
