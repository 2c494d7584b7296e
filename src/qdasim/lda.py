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

from .chain import (DEFAULT_EPS, DEFAULT_T, ChainReport, ChainSpec, chain_apply,
                    classical_chain_oracle, prepare_stage)
from .errors import DomainRejection, NumericalFailure
from .linalg import DensityOperator, SpectralFunction, eig_hermitian, matrix_function
from .oracle import LabeledDataset, between_scatter, class_statistics, within_scatter
from .qsim import PHASE_BITS_MAX, _fix_vector_sign, phase_estimation, sample_eigenpairs

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
    scale. ``chain`` is the whitening chain run of the quantum path (None for
    the classical oracle).
    """

    directions: np.ndarray
    intermediates: np.ndarray
    eigenvalue_estimates: np.ndarray
    chain: ChainReport | None = field(default=None, repr=False, compare=False)

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

    @property
    def p(self) -> int:
        return self.directions.shape[0]


def _real_cast(v: np.ndarray) -> np.ndarray:
    if np.max(np.abs(np.imag(v))) > 1e-8:
        raise NumericalFailure("expected a real vector from real-valued data")
    return np.real(v)


def whitening_chain(
    data: LabeledDataset, kappa_eff: float, eps: float = DEFAULT_EPS, t: int = DEFAULT_T
) -> ChainSpec:
    """The discriminant whitening chain on the unit-trace scatter operators:
    S_W^(-1/2) first, then S_B^(1/2). Both LDA paths and ``qdasim chain
    --data`` run this chain."""
    stats = class_statistics(data)
    stages = ((within_scatter(data, stats), _INV_SQRT), (between_scatter(stats), _SQRT))
    return ChainSpec(stages, kappa_eff, eps, t)


def _basis(vectors, back_map, estimates, chain: ChainReport | None = None) -> ProjectionBasis:
    """Sign-fixed intermediates v_r and their back-mapped unit directions
    w_r = back_map(v_r) / |back_map(v_r)|, sign-fixed the same way."""
    vs = [_fix_vector_sign(_real_cast(v)) for v in vectors]
    ws = []
    for r, v in enumerate(vs, start=1):
        w = back_map(v)
        norm = np.linalg.norm(w)
        if norm < 1e-12:
            raise DomainRejection(f"direction {r} lies outside the between-class support")
        ws.append(_fix_vector_sign(_real_cast(w / norm)))
    return ProjectionBasis(np.array(ws), np.array(vs), np.asarray(estimates), chain)


def classical_lda_oracle(spec: ChainSpec, p: int) -> ProjectionBasis:
    """Exact spectral-calculus reference for the discriminant directions.

    Takes the top-p eigenvectors v_r of ``classical_chain_oracle`` of the
    whitening chain ``spec``, S_B^(1/2) S_W^(-1) S_B^(1/2) at unit trace, and
    maps each back to the Fisher direction w_r = S_W^(-1) S_B^(1/2) v_r, a
    generalized eigenvector of (S_B, S_W) with the same eigenvalue. Every
    function is applied at the spec's kappa_eff. The estimates are the top
    eigenvalues over the sum of the eigenvalues above the rank tolerance.
    """
    if p < 1:
        raise DomainRejection("need at least one direction")
    sol = eig_hermitian(classical_chain_oracle(spec))
    rank = int(np.sum(sol.eigenvalues > _RANK_TOL * max(sol.eigenvalues[0], 1e-300)))
    if p > rank:
        raise DomainRejection(
            f"requested {p} directions but the whitened operator has rank {rank}"
        )
    trace = float(np.sum(sol.eigenvalues[:rank]))
    (sw, _), (sb, _) = spec.stages
    back = (matrix_function(sw, _INV, spec.kappa_eff).matrix
            @ matrix_function(sb, _SQRT, spec.kappa_eff).matrix)
    return _basis(sol.eigenvectors[:, :p].T, lambda v: back @ v, sol.eigenvalues[:p] / trace)


def _check_lda_register_width(t: int) -> None:
    """The register widths ``quantum_lda`` accepts: [4, PHASE_BITS_MAX], narrower
    than the [2, PHASE_BITS_MAX] a single chain stage takes."""
    if not 4 <= t <= PHASE_BITS_MAX:
        raise DomainRejection(f"t={t} outside [4, {PHASE_BITS_MAX}]")


def qpe_draws(t: int) -> int:
    """Register draws ``quantum_lda`` spends sampling a t-bit eigenvalue register."""
    return max(4096, 64 * (1 << t))


def quantum_lda(spec: ChainSpec, p: int, seed=None) -> ProjectionBasis:
    """Staged-pipeline discriminant directions.

    Runs the whitening chain ``spec`` through the staged pipeline at its
    kappa_eff, eps and t, phase-estimates the chain output against itself and
    samples the top-p eigenpairs, then maps each sampled vector v_r back to
    the Fisher direction S_W^(-1) S_B^(1/2) v_r through two prepared chain
    stages, each read in closed form: the chain's own (S_B, sqrt) stage, then
    one (S_W, inverse) stage.
    """
    if tuple(f for _, f in spec.stages) != (_INV_SQRT, _SQRT):
        raise DomainRejection("quantum_lda needs the whitening chain: inverse-sqrt, then sqrt")
    t = spec.t
    _check_lda_register_width(t)
    if p < 1:
        raise DomainRejection("need at least one direction")
    chain = chain_apply(spec)
    rho_chain = chain.output

    # depolarizing pre-blend compresses the spectrum strictly below 1 (a pure
    # chain output would otherwise wrap the phase register); eigenvectors are
    # untouched and the affine map is inverted on the estimates
    gamma = 2.0**-t
    n = rho_chain.dim
    generator = DensityOperator(
        (1.0 - gamma) * rho_chain.matrix + gamma * np.eye(n) / n
    )
    joint = phase_estimation(generator, generator, t)
    samples = sample_eigenpairs(joint, qpe_draws(t), seed=seed)

    # adjacent register bins of one eigenvalue repeat its eigenvector; the
    # first (highest) bin above the sampling noise floor stands for it
    floor = 1.0 / (1 << t)
    distinct: dict = {}
    for s in samples:
        if s.probability >= floor and s.frequency >= 0.5 * s.probability:
            distinct.setdefault(s.eigenvector_index, s)
    selected = list(distinct.values())[:p]
    if len(selected) < p:
        raise DomainRejection(
            f"recovered only {len(selected)} of {p} requested directions above "
            "the sampling noise floor"
        )

    sqrt_b = chain.stages[1]
    inv_w = prepare_stage(spec.stages[0][0], _INV, t, spec.kappa_eff, spec.eps)
    estimates = [(s.eigenvalue - gamma / n) / (1.0 - gamma) for s in selected]
    return _basis([s.vector for s in selected], lambda v: inv_w.apply_pure(sqrt_b.apply_pure(v)),
                  estimates, chain)


def fisher_criterion(source, directions) -> float:
    """Between- over within-class variance of a projection.

    ``source`` is a labeled dataset or a precomputed (S_B, S_W) matrix pair;
    ``directions`` is a single vector or a stack of row vectors, such as a
    ProjectionBasis's unit ``directions``. A single direction gives the
    classical ratio, whatever its norm; several give the trace-ratio
    surrogate tr(W S_B W^T) / tr(W S_W W^T), which weights each row by its
    squared norm, so rows from different sources compare only at one norm.
    """
    if isinstance(source, LabeledDataset):
        stats = class_statistics(source)
        s_b = stats.norm_between * between_scatter(stats).matrix
        s_w = stats.norm_within * within_scatter(source, stats).matrix
    else:
        s_b, s_w = (np.asarray(m, dtype=float) for m in source)
    w = np.atleast_2d(np.asarray(directions, dtype=float))
    if w.shape[1] != s_b.shape[0]:
        raise DomainRejection(
            f"direction dimension {w.shape[1]} does not match scatter dimension "
            f"{s_b.shape[0]}"
        )
    denom = float(np.trace(w @ s_w @ w.T).real)
    if denom < 1e-14:
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
    Gram-matrix machinery.
    """
    if degree not in (1, 2, 3):
        raise DomainRejection(f"degree must be 1, 2, or 3, got {degree}")
    n = data.N
    out_dim = math.comb(n + degree, degree) - 1
    if out_dim > FEATURE_DIM_CAP:
        raise DomainRejection(
            f"mapped dimension {out_dim} exceeds the desk-scale cap {FEATURE_DIM_CAP}"
        )
    columns = []
    names = []
    base_names = data.feature_names or tuple(f"x{i + 1}" for i in range(n))
    for d in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), d):
            col = np.prod(data.samples[:, combo], axis=1)
            columns.append(col)
            names.append("*".join(base_names[i] for i in combo))
    return LabeledDataset(
        samples=np.column_stack(columns),
        labels=data.labels.copy(),
        label_names=data.label_names,
        feature_names=tuple(names),
    )
