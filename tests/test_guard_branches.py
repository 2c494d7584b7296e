"""Guards that no pipeline run reaches: each is driven here by a direct call."""
from __future__ import annotations

import numpy as np
import pytest

from qdasim import lda, rotation
from qdasim.chain import ChainReport, prepare_stage
from qdasim.errors import DomainRejection, NumericalFailure
from qdasim.linalg import DensityOperator, SpectralFunction
from qdasim.qsim import QpeState, sample_eigenpairs

HALF = DensityOperator(np.eye(2) / 2.0)


def report(probabilities, bounds, stage_count=1) -> ChainReport:
    stage = prepare_stage(HALF, SpectralFunction.from_name("inverse"), 8, 10.0)
    return ChainReport(HALF, np.array(probabilities), float(np.prod(probabilities)),
                       (stage,) * stage_count, np.array(bounds), float(np.prod(bounds)), 0.5)


def outcome(call):
    """What ``call`` returns, or the message of the ``DomainRejection`` it raises."""
    try:
        return call()
    except DomainRejection as err:
        return str(err)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: report([0.0], [0.0]), "stage success probabilities must lie in (0, 1]"),
        (lambda: report([0.5], [0.5], stage_count=2), "per-stage arrays disagree in length"),
        (lambda: report([0.5], [0.6]), "a stage undershot its success-probability floor"),
        (lambda: lda._basis(np.eye(2)[:1], lambda v: np.zeros(2), [1.0]),
         "direction 1 lies outside the between-class support"),
        (lambda: rotation.arcsin_terms_for_budget(1.0, 8), rotation._MAX_ARCSIN_TERMS),
    ],
    ids=["probability-outside-unit-interval", "length-mismatch", "undershot-floor",
         "direction-outside-support", "arcsin-argument-at-one"],
)
def test_guard_is_reached_by_a_direct_call(call, expected):
    assert outcome(call) == expected


def test_vanished_register_marginal_is_a_numerical_failure():
    # beta = 0 commutes with the generator trivially, and every register weight is 0
    joint = QpeState(phases=np.array([0.25, 0.5]), t=3, vectors=np.eye(2), beta=np.zeros((2, 2)))
    with pytest.raises(NumericalFailure, match="^register marginal vanished$"):
        sample_eigenpairs(joint, 16, seed=0)
