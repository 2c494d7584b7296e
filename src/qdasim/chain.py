"""Spectral-function chain engine.

Implements the normalized operator [f_k(A_k)...f_1(A_1)][f_k(A_k)...f_1(A_1)]^dagger
as a pipeline of phase-estimation / controlled-rotation / postselection
stages on density matrices, together with an exact spectral-calculus oracle
and per-stage resource accounting (success-probability floors and copy
counts).

The stage simulation resolves each eigenvalue at the idealized t-bit
register (truncated, not rounded) and carries all eigenbasis cross terms
exactly; postselection is exact renormalization, so amplitude amplification
changes no output state and enters only the reported amplified floor. Each
stage is computed in closed form: the ancilla-|1> branch of the rotated
system x ancilla state is V diag(a_1) beta diag(a_1) V^dagger, with beta the
incoming state in the stage eigenbasis, so the 2N x 2N joint state is never
built. A stage rotates all of its distinct register values in one
``rotation_amplitudes`` call.

Each stage operator keeps its own eigendecomposition (``eig_hermitian``), so
the staged pipeline and the oracle diagonalize it once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainRejection, NumericalFailure
from .linalg import (
    DensityOperator,
    HermitianOperator,
    SpectralFunction,
    _check_kappa_eff,
    _kappa_window,
    eig_hermitian,
    matrix_function,
)
from .qsim import POSTSELECT_FLOOR, _check_register_width
from .rotation import rotation_amplitudes

# run defaults the library signatures and the CLI flags share
DEFAULT_KAPPA_EFF = 100.0
DEFAULT_EPS = 0.1
DEFAULT_T = 8
DEFAULT_SHOTS = 8192
_TRACE_FLOOR = 1e-14


def _copies(kept: np.ndarray, eps: float) -> int:
    """Copies of the stage operator one stage consumes: ceil(kappa^2 / eps^3), kappa the
    condition number of the kept spectrum, where a ratio within 1e-12 relative of an
    integer is that integer (kappa's last bit aside)."""
    kappa = float(kept.max() / kept.min())
    try:
        ratio = kappa**2 / eps**3
    except (OverflowError, ZeroDivisionError):  # kappa^2 overflows or eps^3 underflows
        ratio = math.inf
    if not ratio < 2.0**63:
        raise DomainRejection(
            f"copy count ceil(kappa^2 / eps^3) does not fit in int64 at kappa = {kappa:.6g}, "
            f"eps = {eps:g}")
    return round(ratio) if abs(ratio - round(ratio)) <= 1e-12 * ratio else math.ceil(ratio)


def _rotation_constant(f: SpectralFunction, values: np.ndarray, eps: float) -> float:
    """C = (1 - eps) / max |f(values)|: the largest rotation constant whose
    amplitudes stay at most 1 - eps on the given eigenvalues."""
    return (1.0 - eps) / float(np.max(np.abs(f(values))))


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise DomainRejection(f"eps must lie in (0, 1), got {eps}")


@dataclass(frozen=True)
class ChainSpec:
    """Ordered (operator, spectral function) stages plus the run parameters.

    Stage j applies f_j to A_j; stage 1 acts first (it is the rightmost
    factor of the chain product). A chain has at least one stage, and every
    stage operator has stage 1's dimension; both rules are checked here,
    before any operator is decomposed. Every stage's rotation normalization
    constant is C_j = (1 - eps) / max |f_j| over the register-resolved
    kept spectrum, which maximizes postselection success.
    """

    stages: tuple[tuple[DensityOperator, SpectralFunction], ...]
    kappa_eff: float = DEFAULT_KAPPA_EFF
    eps: float = DEFAULT_EPS
    t: int = DEFAULT_T

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple((a, f) for a, f in self.stages))
        if not self.stages:
            raise DomainRejection("empty chain has no operator content")
        for j, (a, f) in enumerate(self.stages, start=1):
            if not isinstance(a, DensityOperator):
                raise DomainRejection(f"stage {j} operator is not a DensityOperator")
            if not isinstance(f, SpectralFunction):
                raise DomainRejection(f"stage {j} function is not a SpectralFunction")
            if a.dim != self.stages[0][0].dim:
                raise DomainRejection("chain stages have mismatched dimensions")
        _check_kappa_eff(self.kappa_eff)
        _check_eps(self.eps)
        _check_register_width(self.t)


@dataclass(frozen=True)
class ChainReport:
    """Output state plus per-stage success accounting.

    ``stage_bounds`` are success-probability floors guaranteed to hold in
    every run: (C_j * min |f_j| over the resolved spectrum)^2 times the
    weight of the incoming state inside that resolved support (the spectral
    ratio bound presumes full support; rank-deficient stages lose the
    leaked weight at postselection). ``theoretical_bound`` is their product;
    ``amplified_bound_stage1`` is the first-stage floor at a single power of
    the amplitude ratio, the improvement amplitude amplification would buy
    (reported only; never executed as a circuit). ``stages`` are the prepared
    stages the run applied, in order, for callers that apply them again.
    """

    output: DensityOperator
    stage_success_probabilities: np.ndarray
    total_success_probability: float
    stages: tuple[PreparedStage, ...]
    stage_bounds: np.ndarray
    theoretical_bound: float
    amplified_bound_stage1: float

    def __post_init__(self) -> None:
        p = np.asarray(self.stage_success_probabilities, dtype=float)
        b = np.asarray(self.stage_bounds, dtype=float)
        if p.size and (np.any(p <= 0.0) or np.any(p > 1.0 + 1e-12)):
            raise DomainRejection("stage success probabilities must lie in (0, 1]")
        if p.size != len(self.stages) or p.size != b.size:
            raise DomainRejection("per-stage arrays disagree in length")
        if p.size and np.any(p < b * (1.0 - 1e-9)):
            raise DomainRejection("a stage undershot its success-probability floor")

    @property
    def copies_used(self) -> np.ndarray:
        """Copies of each stage operator the run consumed, in stage order."""
        return np.array([s.copies for s in self.stages], dtype=int)


def _oracle_with_factors(spec: ChainSpec) -> tuple[DensityOperator, list[np.ndarray]]:
    """``classical_chain_oracle`` of spec together with its stage factors
    f_j(A_j), in stage order, for callers that reuse a factor."""
    f_total = np.eye(spec.stages[0][0].dim)
    factors = []
    for a, f in spec.stages:
        factors.append(matrix_function(a, f, spec.kappa_eff).matrix)
        f_total = factors[-1] @ f_total
    product = f_total @ f_total.conj().T
    trace = float(np.trace(product).real)
    if trace < _TRACE_FLOOR:
        raise DomainRejection(
            f"chain annihilates the space: tr(F F^dagger) = {trace:.3e}"
        )
    return DensityOperator(product / trace), factors


def classical_chain_oracle(spec: ChainSpec) -> DensityOperator:
    """Exact spectral-calculus chain: F F^dagger / tr(F F^dagger).

    Each factor f_j(A_j) is evaluated with the same relative
    condition-number filter the staged pipeline uses (pseudo-inverse
    semantics on the filtered spectrum), but at full eigenvalue precision.
    """
    return _oracle_with_factors(spec)[0]


def _postselected(prob: float) -> float:
    if prob < POSTSELECT_FLOOR:
        raise NumericalFailure(
            "stage postselection vanished (state orthogonal to the resolved spectrum of the "
            f"stage operator): vanishing postselection branch: P(ancilla=1) = {prob:.3e}")
    return prob


@dataclass(frozen=True)
class _StageResult:
    state: DensityOperator
    probability: float
    floor: float
    amplified_floor: float


@dataclass(frozen=True)
class PreparedStage:
    """The state-independent part of one chain stage on (a_j, f_j, t): what
    ``prepare_stage`` computed, in the stage eigenbasis."""

    eigenvectors: np.ndarray
    registers: np.ndarray  # t-bit truncated eigenvalues, clamped into [0, 1 - 2^-t]
    resolved: np.ndarray  # kept eigenvalues whose register value is nonzero
    c_const: float
    a1: np.ndarray  # ancilla |1> amplitudes, 0 off the resolved spectrum
    copies: int

    def _check_state_dim(self, dim: int) -> None:
        if dim != self.eigenvectors.shape[0]:
            raise DomainRejection(
                f"state dimension {dim} does not match operator {self.eigenvectors.shape[0]}"
            )

    def apply(self, rho_prev: DensityOperator) -> _StageResult:
        """Rotate rho_prev and postselect the ancilla on |1>."""
        v = self.eigenvectors
        self._check_state_dim(rho_prev.dim)
        beta = v.conj().T @ rho_prev.matrix @ v
        # closed-form ancilla-|1> branch of the rotated system x ancilla state,
        # symmetrized before it is renormalized
        k = v * self.a1
        block = HermitianOperator(k @ beta @ k.conj().T).matrix
        prob = _postselected(float(np.trace(block).real))
        # universal success floor: squared minimum rotation amplitude times the
        # incoming weight inside the resolved support
        support_weight = float(np.sum(np.diag(beta).real[self.resolved]))
        min_amp = float(np.min(np.abs(self.a1[self.resolved])))
        return _StageResult(
            state=DensityOperator(block / prob),
            probability=prob,
            floor=min_amp**2 * support_weight,
            amplified_floor=min_amp * support_weight,
        )

    def apply_pure(self, v: np.ndarray) -> np.ndarray:
        """Unit output vector of the stage on a pure state |v><v|, which stays pure:
        u = V (a_1 * V^dagger v) over |u|, with success probability |u|^2."""
        self._check_state_dim(len(v))
        u = self.eigenvectors @ (self.a1 * (self.eigenvectors.conj().T @ v))
        return u / np.sqrt(_postselected(float(np.vdot(u, u).real)))


def prepare_stage(
    a_j: DensityOperator,
    f_j: SpectralFunction,
    t: int,
    kappa_eff: float,
    eps: float = DEFAULT_EPS,
) -> PreparedStage:
    """Phase estimation on a_j and the f_j rotation, each distinct register
    value rotated once, all in one call. Filtered or register-unresolved
    eigenvalues leave the ancilla in |0> (a_1 = 0), so postselecting |1>
    removes them exactly as the condition-number window prescribes."""
    _check_eps(eps)
    _check_register_width(t)
    sol = eig_hermitian(a_j)
    w, keep = _kappa_window(sol.eigenvalues, kappa_eff)
    big_t = 1 << t
    # the register saturates at its top value instead of wrapping, so a pure
    # state (eigenvalue exactly 1) reads 1 - 2^-t rather than 0
    registers = np.minimum(np.floor(w * big_t), big_t - 1) / big_t
    resolved = keep & (registers > 0.0)
    if not resolved.any():
        raise DomainRejection(
            "no kept eigenvalue is resolvable in the phase register; increase t"
        )
    values, where = np.unique(registers[resolved], return_inverse=True)
    c_const = _rotation_constant(f_j, values, eps)
    a1 = np.zeros(registers.size)
    # a tuple of floats: callers may hash the arguments
    a1[resolved] = rotation_amplitudes(tuple(values.tolist()), f_j, c_const)[where]
    return PreparedStage(sol.eigenvectors, registers, resolved, c_const, a1, _copies(w[keep], eps))


def chain_stage(
    rho_prev: DensityOperator,
    a_j: DensityOperator,
    f_j: SpectralFunction,
    t: int,
    kappa_eff: float,
    eps: float = DEFAULT_EPS,
) -> tuple[DensityOperator, float]:
    """One generalized inversion stage: phase estimation in the eigenbasis of
    a_j, eigenvalue-controlled ancilla rotation with fixed-point angles,
    register uncomputation, and exact postselection of the ancilla on |1>.

    Returns the conditional state, proportional to f_j(a_j) rho f_j(a_j)^dagger
    on the register-resolved spectrum, and the exact success probability.
    The postselected branch is renormalized exactly, so no shots are spent.
    """
    result = prepare_stage(a_j, f_j, t, kappa_eff, eps).apply(rho_prev)
    return result.state, result.probability


def chain_apply(spec: ChainSpec) -> ChainReport:
    """Fold the stages in order over the maximally mixed state I/N, the state
    ``classical_chain_oracle`` starts from.

    The report carries the prepared stages, per-stage success probabilities,
    their guaranteed floors, the per-stage copy counts, and their products;
    the output state's trace distance to ``classical_chain_oracle`` shrinks as t grows.
    """
    n = spec.stages[0][0].dim
    rho, stages, outcomes = DensityOperator(np.eye(n) / n), [], []
    for a, f in spec.stages:
        stages.append(prepare_stage(a, f, spec.t, spec.kappa_eff, spec.eps))
        outcomes.append(stages[-1].apply(rho))
        rho = outcomes[-1].state
    probs = np.array([r.probability for r in outcomes])
    bounds = np.array([r.floor for r in outcomes])
    return ChainReport(
        output=rho,
        stage_success_probabilities=probs,
        total_success_probability=float(np.prod(probs)),
        stages=tuple(stages),
        stage_bounds=bounds,
        theoretical_bound=float(np.prod(bounds)),
        amplified_bound_stage1=outcomes[0].amplified_floor,
    )
