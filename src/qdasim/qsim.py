"""Simulation primitives: swap-interaction exponentiation, phase estimation,
the shot-sampled signed overlap test, and ancilla postselection.

Phase estimation returns the joint register-system state factored in the
generator eigenbasis (``QpeState``); outcome probabilities are the real Fejer
kernel, computed in column blocks where read, so no (N, 2^t) array is built.
Sampling reads each post-measurement vector as a generator eigenvector, exact
when the input commutes with the generator; any other input is rejected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainRejection, NumericalFailure
from .linalg import DensityOperator, eig_hermitian

PHASE_BITS_MIN = 2
PHASE_BITS_MAX = 12
MIN_SLICES = 5
POSTSELECT_FLOOR = 1e-12
# largest off-diagonal |beta| entry for which a sample is read as an eigenvector
COMMUTE_TOL = 1e-10
_PROFILE_BLOCK = 1 << 16


@dataclass(frozen=True)
class ShotResult:
    """Estimates from repeated single-shot measurements, one per row, with standard errors."""

    estimate: np.ndarray
    shots: int
    standard_error: np.ndarray

    def __post_init__(self) -> None:
        _check_shots(self.shots)


@dataclass(frozen=True)
class QpeState:
    """Eigenvalue-register x system state after phase estimation, factored as
    sum_{l,l'} beta[l,l'] |a_l><a_l'| x |u_l><u_l'|, a_l the register profile of phases[l]."""

    phases: np.ndarray  # (N,) eigenphases the register resolves
    t: int  # register width
    vectors: np.ndarray  # (N, N) generator eigenvector columns u_l
    beta: np.ndarray  # (N, N) input state in the generator eigenbasis

    def _register_pass(self) -> tuple[np.ndarray, np.ndarray]:
        """One pass over the register values m, with |a_l(m)|^2 computed in
        blocks of ~``_PROFILE_BLOCK`` elements: the register marginal and, per
        m, the eigenvector index l of largest weight beta_ll |a_l(m)|^2."""
        populations = np.real(np.diag(self.beta))
        values = np.arange(1 << self.t)
        width = max(1, _PROFILE_BLOCK // self.phases.size)
        marginal, tops = [], []
        for lo in range(0, values.size, width):
            w = _register_weights(self.phases, self.t, values[lo : lo + width])
            marginal.append(populations @ w)
            tops.append(np.argmax(populations[:, None] * w, axis=0))
        return np.maximum(np.concatenate(marginal), 0.0), np.concatenate(tops)

    def register_marginal(self) -> np.ndarray:
        """Measurement distribution of the eigenvalue register."""
        return self._register_pass()[0]


class RegisteredState:
    """A density operator spread over named registers.

    ``register_layout`` orders the tensor factors; the product of register
    dimensions equals the state dimension.
    """

    def __init__(self, register_layout, state: DensityOperator):
        self.register_layout = tuple((str(n), int(d)) for n, d in register_layout)
        if len({name for name, _ in self.register_layout}) != len(self.register_layout):
            raise DomainRejection("register names must be unique")
        if any(d < 1 for _, d in self.register_layout):
            raise DomainRejection("register dimensions must be positive")
        if state.dim != self.dim:
            raise DomainRejection(
                f"register dimensions {self.dims} do not factor state dimension {state.dim}"
            )
        self.state = state

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.register_layout)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def register_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.register_layout):
            if n == name:
                return i
        raise DomainRejection(
            f"no register named {name!r}; layout has {[n for n, _ in self.register_layout]}"
        )


def density_exponentiation_step(
    generator: DensityOperator, target: DensityOperator, dt: float
) -> DensityOperator:
    """One swap-interaction step: Tr_1[e^{-iS dt} (generator x target) e^{iS dt}].

    Uses the closed form of the swap unitary (S^2 = I, so
    e^{-iS dt} = cos(dt) I - i sin(dt) S) together with
    Tr_1[S(A x B)] = AB, Tr_1[(A x B)S] = BA, Tr_1[S(A x B)S] = tr(B) A.
    The result equals conjugation by e^{-i generator dt} up to O(dt^2).
    """
    if generator.dim != target.dim:
        raise DomainRejection(
            f"dimension mismatch: generator {generator.dim} vs target {target.dim}"
        )
    if abs(dt) > 1.0:
        raise DomainRejection(f"|dt| must be <= 1, got {dt}")
    c, s = math.cos(dt), math.sin(dt)
    a, b = generator.matrix, target.matrix
    out = c * c * b - 1j * c * s * (a @ b - b @ a) + s * s * a
    return DensityOperator(out)


def _check_shots(shots: int) -> None:
    if shots < 1:
        raise DomainRejection("shots must be a positive integer")


def _check_register_width(t: int) -> None:
    if not PHASE_BITS_MIN <= t <= PHASE_BITS_MAX:
        raise DomainRejection(
            f"phase register width t={t} outside [{PHASE_BITS_MIN}, {PHASE_BITS_MAX}]"
        )


def _register_weights(phases: np.ndarray, t: int, values: np.ndarray) -> np.ndarray:
    """QPE outcome probabilities |a_m(phi)|^2 = sin^2(pi T d) / (T sin(pi d))^2,
    d = phi - m/T (the Fejer kernel), for every phase and register value m."""
    big_t = 1 << t
    delta = phases[:, None] - values[None, :] / big_t
    num = np.sin(np.pi * big_t * delta)
    den = big_t * np.sin(np.pi * delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = np.where(np.abs(den) < 1e-14, 1.0, num / np.where(den == 0.0, 1.0, den))
    return amp * amp


def phase_estimation(
    generator: DensityOperator,
    input_state: DensityOperator,
    t: int,
    steps: int = 64,
    method: str = "exact",
) -> QpeState:
    """Joint eigenvalue-register x system state after t-bit phase estimation.

    Measuring the eigenvalue register yields each eigenvalue of the generator
    to t-bit precision with probability equal to the input's overlap with the
    corresponding eigenspace.

    method="exact" is the eigendecomposition reference. method="simulated"
    composes ``steps`` fixed-angle swap-interaction slices per base period in
    their coherent limit, which phase-estimates the slightly distorted
    spectrum steps * arctan(lambda tan(2 pi / steps)) / (2 pi); the
    distortion vanishes quadratically in 1/steps. At steps = 64 the register
    shift stays below a twentieth of a bin for t <= 5.
    """
    _check_register_width(t)
    if generator.dim != input_state.dim:
        raise DomainRejection("generator and input dimensions differ")
    sol = eig_hermitian(generator)
    w = np.clip(sol.eigenvalues, 0.0, None)
    if sol.eigenvalues[0] >= 1.0:
        raise DomainRejection(
            f"generator spectrum reaches {sol.eigenvalues[0]:.6g}; rescale eigenvalues "
            "into [0, 1) first (e.g. multiply the operator by 1 - 2**-t)"
        )
    if method == "exact":
        phases = w
    elif method == "simulated":
        if steps < MIN_SLICES:
            raise DomainRejection(f"need at least {MIN_SLICES} slices, got {steps}")
        delta = 2.0 * np.pi / steps
        phases = steps * np.arctan(w * np.tan(delta)) / (2.0 * np.pi)
    else:
        raise DomainRejection(f"unknown phase-estimation method {method!r}")
    beta = sol.eigenvectors.conj().T @ input_state.matrix @ sol.eigenvectors
    return QpeState(phases=phases, t=t, vectors=sol.eigenvectors, beta=beta)


@dataclass(frozen=True)
class EigenpairSamples:
    """The distinct drawn outcomes m of one register sampling, by descending m:
    eigenvalue m / 2^t, share of draws, exact-path marginal, and the index l of
    the post-measurement vector, the generator eigenvector ``QpeState.vectors[:, l]``."""

    register_values: np.ndarray
    eigenvalues: np.ndarray
    frequencies: np.ndarray
    probabilities: np.ndarray
    eigenvector_indices: np.ndarray


def sample_eigenpairs(joint: QpeState, draws: int, seed=None) -> EigenpairSamples:
    """Sample the eigenvalue register and return every distinct outcome with
    its empirical frequency, by descending eigenvalue, as one record of arrays.

    Outcomes whose marginal weight is at most ``POSTSELECT_FLOOR`` are
    dropped. The input must commute with the generator (beta diagonal to
    ``COMMUTE_TOL``): the post-measurement state of outcome m is then
    sum_l beta_ll |a_l(m)|^2 |u_l><u_l|, whose top vector is the eigenvector
    column u_l of largest weight; the record holds its index l."""
    if draws < 1:
        raise DomainRejection("draws must be a positive integer")
    off_diagonal = float(np.max(np.abs(joint.beta - np.diag(np.diag(joint.beta)))))
    if off_diagonal > COMMUTE_TOL:
        raise DomainRejection(
            f"input does not commute with the generator (off-diagonal weight "
            f"{off_diagonal:.3e} > {COMMUTE_TOL:g}); sampled vectors would not be eigenvectors"
        )
    weights, tops = joint._register_pass()  # unnormalized outcome probabilities
    total = weights.sum()
    if total <= 0.0:
        raise NumericalFailure("register marginal vanished")
    probs = weights / total
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(draws, probs)
    drawn = np.flatnonzero((counts > 0) & (weights > POSTSELECT_FLOOR))[::-1]
    return EigenpairSamples(register_values=drawn, eigenvalues=drawn / probs.size,
                            frequencies=counts[drawn] / draws, probabilities=probs[drawn],
                            eigenvector_indices=tops[drawn])


def _acceptance_estimate(x: np.ndarray, shots: int, seeds) -> ShotResult:
    """Estimate each x[i] from ``shots`` draws, seeded by ``seeds[i]``, of an
    outcome accepted with rate (1 + x[i])/2."""
    _check_shots(shots)
    rates = np.clip(0.5 + 0.5 * x, 0.0, 1.0)
    p_hat = np.array([np.random.default_rng(seed).binomial(shots, rate)
                      for seed, rate in zip(seeds, rates)], dtype=np.int64) / shots
    return ShotResult(
        estimate=2.0 * p_hat - 1.0,
        shots=shots,
        standard_error=2.0 * np.sqrt(np.maximum(p_hat * (1.0 - p_hat), 0.0) / shots),
    )


def overlap_test_signed(a, rows, shots: int, seeds) -> ShotResult:
    """Estimate Re<a|b> (sign included) for every row b of ``rows`` via an
    ancilla-controlled interference measurement with acceptance rate
    (1 + Re<a|b>)/2, row i drawn from ``seeds[i]`` (one seed per row, each
    possibly None). ``a`` and every row must be real-amplitude unit vectors,
    checked together in one pass. The estimates and standard errors come
    back as arrays in row order."""
    va, vb = np.asarray(a, dtype=complex), np.asarray(rows, dtype=complex)
    if va.ndim != 1 or vb.ndim != 2 or vb.shape[1] != va.size:
        raise DomainRejection(f"dimension mismatch: {va.shape} vs rows of shape {vb.shape}")
    if len(seeds) != len(vb):
        raise DomainRejection(f"{len(seeds)} seeds for {len(vb)} rows; need one per row")
    states = np.vstack([va, vb])
    norms = np.linalg.norm(states, axis=1)
    off = np.abs(norms - 1.0) > 1e-8
    if np.any(off):
        raise DomainRejection(f"state vector norm {float(norms[off][0])!r} is not 1")
    if float(np.max(np.abs(states.imag))) > 1e-10:
        raise DomainRejection("signed overlap test needs real-amplitude states")
    overlaps = np.array([np.vdot(va, b).real for b in vb])
    return _acceptance_estimate(overlaps, shots, seeds)


def postselect_ancilla(
    joint: RegisteredState, register: str, outcome: int
) -> tuple[RegisteredState, float]:
    """Project a named register onto a basis outcome and renormalize.

    Returns the conditional state on the remaining registers and the exact
    outcome probability; a branch below ``POSTSELECT_FLOOR`` is rejected.
    """
    idx = joint.register_index(register)
    dims = joint.dims
    if not 0 <= outcome < dims[idx]:
        raise DomainRejection(
            f"outcome {outcome} outside register {register!r} of dimension {dims[idx]}"
        )
    n_reg = len(dims)
    r = joint.state.matrix.reshape(*dims, *dims)
    sel: list = [slice(None)] * (2 * n_reg)
    sel[idx] = outcome
    sel[n_reg + idx] = outcome
    rest = int(np.prod([d for i, d in enumerate(dims) if i != idx]))
    block = r[tuple(sel)].reshape(rest, rest)
    prob = float(np.trace(block).real)
    if prob < POSTSELECT_FLOOR:
        raise NumericalFailure(
            f"vanishing postselection branch: P({register}={outcome}) = {prob:.3e}"
        )
    layout = tuple(p for i, p in enumerate(joint.register_layout) if i != idx)
    if not layout:
        layout = (("scalar", 1),)
        block = np.array([[prob]])
    reduced = RegisteredState(layout, DensityOperator(block / prob))
    return reduced, prob
