"""Property tests for chain reports on rank-deficient stage operators: the
output is a unit-trace PSD state, each stage meets its success floor, and the
reported copy counts are those of the prepared stages the run applied."""
from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from qdasim.chain import ChainSpec, chain_apply  # noqa: E402
from qdasim.errors import NumericalFailure  # noqa: E402
from qdasim.linalg import DensityOperator, SpectralFunction  # noqa: E402

FUNCTIONS = ("identity", "sqrt", "inverse", "inverse-sqrt")


@st.composite
def rank_deficient_density(draw, n: int) -> DensityOperator:
    """A unit-trace PSD operator of rank 1..n-1 in a random real or complex basis."""
    rank = draw(st.integers(1, n - 1))
    spectrum = np.zeros(n)
    spectrum[:rank] = draw(st.lists(st.floats(0.05, 1.0), min_size=rank, max_size=rank))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((n, n))
    if draw(st.booleans()):
        g = g + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    return DensityOperator((q * (spectrum / spectrum.sum())) @ q.conj().T)


@st.composite
def chain_specs(draw) -> ChainSpec:
    # t >= 3 resolves the top eigenvalue of every stage: it is at least 1/(n-1) > 2^-3
    n = draw(st.integers(2, 6))
    stages = draw(st.lists(
        st.tuples(rank_deficient_density(n), st.sampled_from(FUNCTIONS).map(
            SpectralFunction.from_name)),
        min_size=1, max_size=3,
    ))
    return ChainSpec(tuple(stages), kappa_eff=draw(st.floats(2.0, 1000.0)),
                     eps=draw(st.floats(0.05, 0.5)), t=draw(st.integers(3, 8)))


# rank 5 of 6 at eps = 0.5: amplitudes 0.5 and four of 0.3 give p = 0.102, between the
# floor min_amp^2 w = 0.075 and 0.5 min_amp w = 0.125, so a floor above the true one fails
SPREAD_STAGE = ChainSpec(
    ((DensityOperator(np.diag([1.0, 0.6, 0.6, 0.6, 0.6, 0.0]) / 3.4),
      SpectralFunction.from_name("identity")),),
    kappa_eff=10.0, eps=0.5, t=8)


@settings(max_examples=60, deadline=None)
@given(chain_specs())
@example(SPREAD_STAGE)
def test_chain_report_is_consistent_with_its_stages(spec):
    try:
        report = chain_apply(spec)
    except NumericalFailure:
        # a later stage's support can hold (almost) none of the incoming state
        hypothesis.reject()
    out = report.output.matrix
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(out).min() > -1e-12
    assert np.all(report.stage_success_probabilities
                  >= report.stage_bounds * (1.0 - 1e-9))
    assert len(report.stages) == len(spec.stages)
    for j, stage in enumerate(report.stages):
        assert report.copies_used[j] == stage.copies
