"""Discriminant directions from the one whitening chain (``whitening_chain``),
built once by the caller, run by the staged quantum pipeline and evaluated
exactly by its classical oracle, each whitened v mapped back to S_W^-1 S_B^1/2 v;
the Fisher criterion, data projection, and the polynomial feature map.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .chain import (DEFAULT_EPS, DEFAULT_T, ChainReport, ChainSpec, _oracle_with_factors,
                    chain_apply, prepare_stage)
from .errors import DomainRejection, NumericalFailure
from .linalg import DensityOperator, SpectralFunction, eig_hermitian, matrix_function
from .oracle import (ClassStatistics, LabeledDataset, between_scatter, class_statistics,
                     within_scatter)
from .qsim import PHASE_BITS_MAX, phase_estimation, sample_eigenpairs

_SQRT = SpectralFunction.from_name("sqrt")
_INV = SpectralFunction.from_name("inverse")
_INV_SQRT = SpectralFunction.from_name("inverse-sqrt")
_RANK_TOL = 1e-10
FEATURE_DIM_CAP = 256


@dataclass(frozen=True)
class ProjectionBasis:
    """Discriminant directions w_r with the whitened intermediates v_r.

    The v_r are pairwise orthonormal; the w_r are unit but generally not
    orthogonal (they are eigenvectors of a non-symmetric product). Both are
    oriented where they are built, largest-magnitude entry positive, so no
    consumer rescales or flips them. ``eigenvalue_estimates`` refer to the
    unit-trace chain operator, so both construction paths report on the same
    scale. ``chain`` is the whitening chain run of the quantum path and
    ``draws`` the register draws its eigenvector sampling spent (None and 0
    for the classical oracle).
    """

    directions: np.ndarray
    intermediates: np.ndarray
    eigenvalue_estimates: np.ndarray
    chain: ChainReport | None = field(default=None, repr=False, compare=False)
    draws: int = 0

    def __post_init__(self) -> None:
        w = np.atleast_2d(np.asarray(self.directions, dtype=float))
        v = np.atleast_2d(np.asarray(self.intermediates, dtype=float))
        object.__setattr__(self, "directions", w)
        object.__setattr__(self, "intermediates", v)
        object.__setattr__(
            self, "eigenvalue_estimates", np.asarray(self.eigenvalue_estimates, dtype=float)
        )
        if w.shape != v.shape or w.shape[0] != self.eigenvalue_estimates.size:
            raise DomainRejection("projection basis fields disagree in shape")
        gram = v @ v.T
        if np.max(np.abs(gram - np.eye(v.shape[0]))) > 1e-6:
            raise DomainRejection("intermediate vectors are not orthonormal")
        if np.max(np.abs(np.linalg.norm(w, axis=1) - 1.0)) > 1e-6:
            raise DomainRejection("discriminant directions are not unit vectors")


def _real_cast(v: np.ndarray) -> np.ndarray:
    if np.max(np.abs(np.imag(v))) > 1e-8:
        raise NumericalFailure("expected a real vector from real-valued data")
    return np.real(v)


def whitening_chain(
    stats: ClassStatistics, kappa_eff: float, eps: float = DEFAULT_EPS, t: int = DEFAULT_T
) -> ChainSpec:
    """The discriminant whitening chain on the unit-trace scatter operators of
    ``stats``: S_W^(-1/2) first, then S_B^(1/2). Both LDA paths and ``qdasim
    chain --data`` run this chain."""
    stages = ((within_scatter(stats), _INV_SQRT), (between_scatter(stats), _SQRT))
    return ChainSpec(stages, kappa_eff, eps, t)


def _whitening_within(spec: ChainSpec, p: int, caller: str) -> DensityOperator:
    """The S_W operator of the whitening chain ``spec``, for the back-map to
    Fisher directions; any other chain, or fewer than one direction, is rejected."""
    if tuple(f for _, f in spec.stages) != (_INV_SQRT, _SQRT):
        raise DomainRejection(f"{caller} needs the whitening chain: inverse-sqrt, then sqrt")
    if p < 1:
        raise DomainRejection("need at least one direction")
    return spec.stages[0][0]


def _fix_vector_sign(v: np.ndarray) -> np.ndarray:
    """v divided by the phase of its largest-magnitude entry (exactly +-1 on real input)."""
    pivot = v[np.argmax(np.abs(v))]
    return v / (pivot / abs(pivot))


def _basis(vectors, back_map, estimates, chain=None, draws=0) -> ProjectionBasis:
    """Sign-fixed intermediates v_r and their back-mapped unit directions
    w_r = back_map(v_r) / |back_map(v_r)|, sign-fixed the same way."""
    vs = [_real_cast(_fix_vector_sign(v)) for v in vectors]
    ws = []
    for r, v in enumerate(vs, start=1):
        w = back_map(v)
        norm = np.linalg.norm(w)
        if norm < 1e-12:
            raise DomainRejection(f"direction {r} lies outside the between-class support")
        ws.append(_fix_vector_sign(_real_cast(w / norm)))
    return ProjectionBasis(np.array(ws), np.array(vs), np.asarray(estimates), chain, draws)


def classical_lda_oracle(spec: ChainSpec, p: int) -> ProjectionBasis:
    """Exact spectral-calculus reference for the discriminant directions.

    Takes the top-p eigenvectors v_r of ``classical_chain_oracle`` of the
    whitening chain ``spec``, S_B^(1/2) S_W^(-1) S_B^(1/2) at unit trace, and
    maps each back to the Fisher direction w_r = S_W^(-1) S_B^(1/2) v_r, a
    generalized eigenvector of (S_B, S_W) with the same eigenvalue. Every
    function is applied at the spec's kappa_eff. The estimates are the top
    eigenvalues over the sum of the eigenvalues above the rank tolerance.
    """
    s_w = _whitening_within(spec, p, "classical_lda_oracle")
    oracle, (_, sqrt_b) = _oracle_with_factors(spec)
    sol = eig_hermitian(oracle)
    rank = int(np.sum(sol.eigenvalues > _RANK_TOL * sol.eigenvalues[0]))
    if p > rank:
        raise DomainRejection(
            f"requested {p} directions but the whitened operator has rank {rank}"
        )
    trace = float(np.sum(sol.eigenvalues[:rank]))
    back = matrix_function(s_w, _INV, spec.kappa_eff).matrix @ sqrt_b
    return _basis(sol.eigenvectors[:, :p].T, lambda v: back @ v, sol.eigenvalues[:p] / trace)


def _check_quantum_lda(t: int, n: int) -> None:
    """The rules ``quantum_lda`` adds to its chain's: a register width in
    [4, PHASE_BITS_MAX], narrower than the [2, PHASE_BITS_MAX] a single chain
    stage takes, and at least 2 features."""
    if not 4 <= t <= PHASE_BITS_MAX:
        raise DomainRejection(f"t={t} outside [4, {PHASE_BITS_MAX}]")
    if n < 2:
        raise DomainRejection(
            "quantum_lda needs at least 2 features: a one-feature chain output has "
            "the single eigenvalue 1, which wraps the phase register"
        )


def qpe_draws(t: int) -> int:
    """Register draws ``quantum_lda`` spends sampling a t-bit eigenvalue register."""
    return max(4096, 64 * (1 << t))


def quantum_lda(spec: ChainSpec, p: int, seed=None) -> ProjectionBasis:
    """Staged-pipeline discriminant directions.

    Runs the whitening chain ``spec`` through the staged pipeline at its
    kappa_eff, eps and t, phase-estimates the chain output against itself and
    samples its register ``qpe_draws(t)`` times (the basis's ``draws``). The
    highest drawn bin of each eigenvector index with probability >= 2^-t and
    frequency >= half that gives one v_r, the first p by descending eigenvalue;
    the most frequent drawn bin of that index gives its eigenvalue estimate.
    Each v_r maps back to the Fisher direction S_W^(-1) S_B^(1/2) v_r through
    two prepared chain stages, each read in closed form: the chain's own
    (S_B, sqrt) stage, then one (S_W, inverse) stage.
    """
    s_w = _whitening_within(spec, p, "quantum_lda")
    t = spec.t
    _check_quantum_lda(t, s_w.dim)
    chain = chain_apply(spec)
    rho_chain = chain.output

    # depolarizing pre-blend compresses the spectrum strictly below 1 for
    # N >= 2 (at N = 1 it leaves the eigenvalue (1 - gamma) + gamma = 1; a pure
    # chain output would wrap the phase register); eigenvectors are untouched
    # and the affine map is inverted on the estimates
    gamma = 2.0**-t
    n = rho_chain.dim
    generator = DensityOperator(
        (1.0 - gamma) * rho_chain.matrix + gamma * np.eye(n) / n
    )
    joint = phase_estimation(generator, generator, t)
    draws = qpe_draws(t)
    samples = sample_eigenpairs(joint, draws, seed=seed)

    # adjacent register bins of one eigenvalue repeat its eigenvector; the
    # first (highest) bin above the sampling noise floor stands for it
    above = np.flatnonzero((samples.probabilities >= 1.0 / (1 << t))
                           & (samples.frequencies >= 0.5 * samples.probabilities))
    _, first = np.unique(samples.eigenvector_indices[above], return_index=True)
    keep = above[np.sort(first)][:p]
    if keep.size < p:
        raise DomainRejection(
            f"recovered only {keep.size} of {p} requested directions above "
            "the sampling noise floor"
        )

    # a Fejer peak's highest bin lies in its upper shoulder; its most frequent
    # drawn bin is the eigenvalue estimate
    indices = samples.eigenvector_indices[keep]
    modal = np.argmax(np.where(samples.eigenvector_indices == indices[:, None],
                               samples.frequencies, -1.0), axis=1)
    sqrt_b = chain.stages[1]
    inv_w = prepare_stage(s_w, _INV, t, spec.kappa_eff, spec.eps)
    estimates = (samples.eigenvalues[modal] - gamma / n) / (1.0 - gamma)
    return _basis(joint.vectors[:, indices].T,
                  lambda v: inv_w.apply_pure(sqrt_b.apply_pure(v)), estimates, chain, draws)


def fisher_criterion(source, directions) -> float:
    """Between- over within-class variance of a projection.

    ``source`` is a labeled dataset or a precomputed (S_B, S_W) matrix pair;
    ``directions`` is a single vector or a stack of row vectors, such as a
    ProjectionBasis's unit ``directions``. A single direction gives the
    classical ratio, whatever its norm; several give the trace-ratio
    surrogate tr(W S_B W^T) / tr(W S_W W^T), which weights each row by its
    squared norm, so rows from different sources compare only at one norm.
    A factor common to S_B and S_W cancels: the dataset form (like ``qdasim
    reduce``) scales the unit-trace scatters by ``class_statistics``' totals,
    which lie in its frame, so it uses the statistical pair over 4**exponent.
    """
    if isinstance(source, LabeledDataset):
        stats = class_statistics(source)
        s_b = stats.norm_between * between_scatter(stats).matrix
        s_w = stats.norm_within * within_scatter(stats).matrix
    else:
        s_b, s_w = (np.asarray(m, dtype=float) for m in source)
    w = np.atleast_2d(np.asarray(directions, dtype=float))
    if w.ndim != 2:
        raise DomainRejection(f"directions must be a vector or a stack of rows, got shape {w.shape}")
    if w.shape[1] != s_b.shape[0]:
        raise DomainRejection(
            f"direction dimension {w.shape[1]} does not match scatter dimension "
            f"{s_b.shape[0]}"
        )
    denom = float(np.trace(w @ s_w @ w.T).real)
    # relative to tr(S_W) |W|^2, the most it can be, so rescaled data meet the same bound
    if denom <= 1e-14 * float(np.trace(s_w).real) * float(np.sum(w * w)):
        raise DomainRejection(
            "within-class variance vanishes along the requested directions"
        )
    return float(np.trace(w @ s_b @ w.T).real) / denom


def project(data: LabeledDataset, basis: ProjectionBasis) -> LabeledDataset:
    """Coordinates of every sample along the basis's unit directions."""
    w = basis.directions
    if w.shape[1] != data.N:
        raise DomainRejection(
            f"direction dimension {w.shape[1]} does not match data dimension {data.N}"
        )
    return LabeledDataset(
        samples=data.samples @ w.T,
        labels=data.labels.copy(),
        label_names=data.label_names,
    )


def feature_map(data: LabeledDataset, degree: int) -> LabeledDataset:
    """All monomials of total degree 1..degree as explicit features.

    Output dimension is C(N + degree, degree) - 1; discriminant analysis of
    the mapped data realizes polynomial-kernel discrimination without any
    Gram-matrix machinery. Monomials are formed from the samples over their
    largest |entry|, a real number (a power of two would still scale degree d
    by the d-th power of a factor in [1, 2)), so every feature lies in [-1, 1]
    and a uniform rescale of the data moves the mapped data only by rounding.
    """
    if degree not in (1, 2, 3):
        raise DomainRejection(f"degree must be 1, 2, or 3, got {degree}")
    n = data.N
    out_dim = math.comb(n + degree, degree) - 1
    if out_dim > FEATURE_DIM_CAP:
        raise DomainRejection(
            f"mapped dimension {out_dim} exceeds the desk-scale cap {FEATURE_DIM_CAP}"
        )
    samples = data.samples / (np.max(np.abs(data.samples)) or 1.0)
    columns = []
    names = []
    base_names = data.feature_names or tuple(f"x{i + 1}" for i in range(n))
    for d in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), d):
            names.append("*".join(base_names[i] for i in combo))
            columns.append(np.prod(samples[:, combo], axis=1))
    return LabeledDataset(
        samples=np.column_stack(columns),
        labels=data.labels.copy(),
        label_names=data.label_names,
        feature_names=tuple(names),
    )
