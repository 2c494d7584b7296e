"""Discriminant-direction extraction: the staged quantum pipeline and its
exact classical oracle, the Fisher criterion, data projection, and the
explicit polynomial feature map for nonlinear discrimination.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainReport, ChainSpec, chain_apply, prepare_stage
from .errors import DomainRejection, NumericalFailure
from .linalg import (
    DensityOperator,
    HermitianOperator,
    SpectralFunction,
    eig_hermitian,
    matrix_function,
)
from .oracle import LabeledDataset, between_scatter, class_statistics, within_scatter
from .qsim import PHASE_BITS_MAX, _fix_vector_sign, phase_estimation, sample_eigenpairs

_SQRT = SpectralFunction.from_name("sqrt")
_INV = SpectralFunction.from_name("inverse")
_INV_SQRT = SpectralFunction.from_name("inverse-sqrt")
_RANK_TOL = 1e-10
_DEDUPE_OVERLAP = 0.9
FEATURE_DIM_CAP = 256


@dataclass(frozen=True)
class ProjectionBasis:
    """Discriminant directions w_r with the whitened intermediates v_r.

    The v_r are pairwise orthonormal; the w_r are generally not orthogonal
    (they are eigenvectors of a non-symmetric product) and carry no norm
    convention beyond being nonzero. ``eigenvalue_estimates`` refer to the
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
        if np.any(np.linalg.norm(w, axis=1) < 1e-12):
            raise DomainRejection("a discriminant direction collapsed to zero")

    @property
    def p(self) -> int:
        return self.directions.shape[0]


def _real_cast(v: np.ndarray) -> np.ndarray:
    if np.max(np.abs(np.imag(v))) > 1e-8:
        raise NumericalFailure("expected a real vector from real-valued data")
    return np.real(v)


def scatter_matrices(data: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
    """Classical (unnormalized) between- and within-class scatter matrices."""
    stats = class_statistics(data)
    d = stats.class_means - stats.global_mean
    s_b = d.T @ d
    s_w = np.zeros((data.N, data.N))
    for c in range(1, data.k + 1):
        dev = data.class_members(c) - stats.class_means[c - 1]
        s_w += dev.T @ dev
    return s_b, s_w


def _whitened_product(
    sb: DensityOperator, sw: DensityOperator, kappa_eff: float
) -> HermitianOperator:
    sb_half = matrix_function(sb, _SQRT, kappa_eff).matrix
    sw_inv = matrix_function(sw, _INV, kappa_eff).matrix
    return HermitianOperator(sb_half @ sw_inv @ sb_half)


def classical_lda_oracle(
    data: LabeledDataset, p: int, kappa_eff: float
) -> ProjectionBasis:
    """Exact spectral-calculus reference for the discriminant directions.

    Builds the unit-trace scatter operators, whitens the within-class
    operator through the between-class square root, takes the top-p
    eigenvectors, and maps them back through the pseudo-inverse square root
    of the between-class operator.
    """
    if p < 1:
        raise DomainRejection("need at least one direction")
    stats = class_statistics(data)
    sb = between_scatter(stats)
    sw = within_scatter(data, stats)
    core = _whitened_product(sb, sw, kappa_eff)
    sol = eig_hermitian(core)
    rank = int(np.sum(sol.eigenvalues > _RANK_TOL * max(sol.eigenvalues[0], 1e-300)))
    if p > rank:
        raise DomainRejection(
            f"requested {p} directions but the whitened operator has rank {rank}"
        )
    trace = float(np.sum(sol.eigenvalues[:rank]))
    back = matrix_function(sb, _INV_SQRT, kappa_eff).matrix
    vs, ws = [], []
    for r in range(p):
        v = _fix_vector_sign(_real_cast(sol.eigenvectors[:, r]))
        w = back @ v
        if np.linalg.norm(w) < 1e-12:
            raise DomainRejection(
                f"direction {r + 1} lies outside the between-class support"
            )
        vs.append(v)
        ws.append(_fix_vector_sign(_real_cast(w)))
    return ProjectionBasis(
        directions=np.array(ws),
        intermediates=np.array(vs),
        eigenvalue_estimates=sol.eigenvalues[:p] / trace,
    )


def qpe_draws(t: int) -> int:
    """Register draws ``quantum_lda`` spends sampling a t-bit eigenvalue register."""
    return max(4096, 64 * (1 << t))


def quantum_lda(
    data: LabeledDataset,
    p: int,
    kappa_eff: float = 100.0,
    eps: float = 0.1,
    t: int = 8,
    seed=None,
) -> ProjectionBasis:
    """Staged-pipeline discriminant directions.

    Builds the scatter operators from the oracle emulation, runs the
    two-stage chain for the whitened product, phase-estimates the chain
    output against itself and samples the top-p eigenpairs, then applies the
    inverse square root of the between-class operator to each sampled vector
    through one prepared chain stage.
    """
    if not 4 <= t <= PHASE_BITS_MAX:
        raise DomainRejection(f"t={t} outside [4, {PHASE_BITS_MAX}]")
    if p < 1:
        raise DomainRejection("need at least one direction")
    stats = class_statistics(data)
    sb = between_scatter(stats)
    # only the spec holds S_W, so S_W and its spectrum are freed when chain_apply returns
    chain = chain_apply(
        ChainSpec(((within_scatter(data, stats), _INV_SQRT), (sb, _SQRT)), kappa_eff, eps, t)
    )
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

    big_t = 1 << t
    floor = 1.0 / big_t
    candidates = [
        s
        for s in samples
        if s.probability >= floor and s.frequency >= 0.5 * s.probability
    ]
    selected = []
    for s in candidates:
        vec = _real_cast(s.vector)
        if any(abs(np.dot(vec, q)) > _DEDUPE_OVERLAP for q, _ in selected):
            continue  # adjacent register bins of one eigenvalue repeat the vector
        estimate = (s.eigenvalue - gamma / n) / (1.0 - gamma)
        selected.append((vec, estimate))
        if len(selected) == p:
            break
    if len(selected) < p:
        raise DomainRejection(
            f"recovered only {len(selected)} of {p} requested directions above "
            "the sampling noise floor"
        )

    back_map = prepare_stage(sb, _INV_SQRT, t, kappa_eff, eps)
    vs, ws, estimates = [], [], []
    for vec, estimate in selected:
        v = _fix_vector_sign(vec)
        vs.append(v)
        ws.append(_fix_vector_sign(back_map.apply_pure(v)))
        estimates.append(estimate)
    return ProjectionBasis(
        directions=np.array(ws),
        intermediates=np.array(vs),
        eigenvalue_estimates=np.array(estimates),
        chain=chain,
    )


def fisher_criterion(source, directions) -> float:
    """Between- over within-class variance of a projection.

    ``source`` is a labeled dataset or a precomputed (S_B, S_W) matrix pair;
    ``directions`` is a single vector, a stack of row vectors, or a
    ProjectionBasis. A single direction gives the classical ratio; several
    give the trace-ratio surrogate tr(W^T S_B W) / tr(W^T S_W W).
    """
    if isinstance(source, LabeledDataset):
        s_b, s_w = scatter_matrices(source)
    else:
        s_b, s_w = (np.asarray(m, dtype=float) for m in source)
    if isinstance(directions, ProjectionBasis):
        w = directions.directions
    else:
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
    """Coordinates of every sample along the unit-normalized directions."""
    w = basis.directions
    if w.shape[1] != data.N:
        raise DomainRejection(
            f"direction dimension {w.shape[1]} does not match data dimension {data.N}"
        )
    unit = w / np.linalg.norm(w, axis=1, keepdims=True)
    return LabeledDataset(
        samples=data.samples @ unit.T,
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
