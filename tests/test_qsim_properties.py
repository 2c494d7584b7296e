"""Property tests for the eigenvalue register: each sample's vector is a top
eigenvector of the dense post-measurement block of its register outcome, and
the streamed register marginal is a distribution of total weight tr(beta)."""
from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qdasim.linalg import DensityOperator, eig_hermitian  # noqa: E402
from qdasim.qsim import QpeState, phase_estimation, sample_eigenpairs  # noqa: E402

from conftest import one_expression_profiles  # noqa: E402


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
    profiles = one_expression_profiles(joint.phases, joint.t)
    for s in samples:
        a = profiles[:, s.register_value]
        block = joint.vectors @ (joint.beta * np.outer(a, a.conj())) @ joint.vectors.conj().T
        top = np.linalg.eigvalsh(block)[-1]
        vector = joint.vectors[:, s.eigenvector_index]
        assert abs(np.linalg.norm(vector) - 1.0) < 1e-12
        assert abs(np.vdot(vector, block @ vector).real - top) < 1e-12


@st.composite
def register_states(draw):
    """Phases in [0, 1), exact bin centres among them, with diagonal populations."""
    t = draw(st.integers(2, 12))
    n = draw(st.integers(1, 12))
    centre = st.integers(0, (1 << t) - 1).map(lambda m: m / (1 << t))
    phase = st.floats(0.0, 1.0, exclude_max=True) | centre
    phases = np.array(draw(st.lists(phase, min_size=n, max_size=n)))
    populations = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    return QpeState(phases=phases, t=t, vectors=np.eye(n), beta=np.diag(populations))


@settings(max_examples=60, deadline=None)
@given(register_states())
def test_register_marginal_is_nonnegative_with_total_trace_beta(joint):
    marginal = joint.register_marginal()
    assert marginal.shape == (1 << joint.t,)
    assert np.all(marginal >= 0.0)
    assert abs(marginal.sum() - np.trace(joint.beta)) <= 1e-12
