"""Discriminant-function classification over per-class covariance operators.

The model stores unit-trace covariance operators with their statistical
scale factors, class means and priors, and the classically recorded
inversion products. ``classify_many`` is the one scorer: it inverts every
class mean once per batch (``invert_apply``) and scores the whole batch
against those inversions one class at a time, returning a ``Classification``
of arrays. Discriminant values combine a signed overlap estimate
between the inverted-mean state and the shifted query state with the
recorded norms, so shot-based and exact evaluations share one code path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import DEFAULT_EPS, DEFAULT_KAPPA_EFF, DEFAULT_SHOTS, DEFAULT_T, prepare_stage
from .errors import DomainRejection
from .linalg import DensityOperator, SpectralFunction, matrix_function
from .oracle import LabeledDataset, class_covariance_operator, class_statistics, within_scatter
from .qsim import overlap_test_signed

_INV = SpectralFunction.from_name("inverse")


@dataclass(frozen=True)
class ClassifierModel:
    """Per-class covariance operators, scales, means, priors, and the
    classically recorded inversion products that ``invert_apply`` serves.

    ``covariance_scales[c-1]`` bridges the unit-trace operator to the
    statistical covariance (within-class squared-norm total over M_c - 1;
    pooled over M - k when ``shared_covariance``). ``inverse_directions`` and
    ``inverse_norms`` record the unit vector and length of the statistical
    covariance pseudo-inverse applied to each class mean.
    """

    class_means: np.ndarray
    priors: np.ndarray
    covariance_ops: tuple[DensityOperator, ...]
    covariance_scales: np.ndarray
    inverse_directions: np.ndarray
    inverse_norms: np.ndarray
    kappa_eff: float
    shared_covariance: bool = False

    def __post_init__(self) -> None:
        if abs(float(np.sum(self.priors)) - 1.0) > 1e-9:
            raise DomainRejection("class priors must sum to 1")
        if np.any(~np.isfinite(self.inverse_norms)) or np.any(self.inverse_norms < 0):
            raise DomainRejection("recorded inversion norms must be finite and nonnegative")

    @property
    def k(self) -> int:
        return self.priors.size

    @property
    def dim(self) -> int:
        return self.class_means.shape[1]


@dataclass(frozen=True)
class Classification:
    """A scored query batch: ``discriminants[i, c-1]`` is row i's value for
    class c, ``decisions[i]`` its class (lowest index among equal maxima),
    ``margins[i]`` the gap to the runner-up (``inf`` when k = 1) and ``draws``
    the (row, class) estimates that spent shots (0 on the classical path)."""

    discriminants: np.ndarray
    decisions: np.ndarray
    margins: np.ndarray
    draws: int


def _invert_mean(inv: np.ndarray, scale: float, mu: np.ndarray) -> tuple[np.ndarray, float]:
    product = np.real(inv @ mu) / scale
    norm = float(np.linalg.norm(product))
    if norm < 1e-12:
        raise DomainRejection(
            "class mean lies outside the retained covariance support"
        )
    return product / norm, norm


def fit(
    data: LabeledDataset, kappa_eff: float = DEFAULT_KAPPA_EFF, shared_covariance: bool = False
) -> ClassifierModel:
    """Estimate per-class covariance operators, priors, and inversion products.

    Every class needs at least two members. With ``shared_covariance`` the
    pooled within-class operator (scale: within norm over M - k) replaces
    each per-class operator, which realizes the linear-discriminant variant.
    """
    stats = class_statistics(data)
    k = data.k
    small = [c for c in range(1, k + 1) if stats.class_counts[c - 1] < 2]
    if small:
        raise DomainRejection(
            f"classes {small} have fewer than 2 samples; covariance is undefined"
        )
    if shared_covariance:
        pool_scale = stats.norm_within / (data.M - k)
        ops = (within_scatter(data, stats),) * k
        scales = np.full(k, pool_scale)
    else:
        ops = tuple(
            class_covariance_operator(data, stats, c) for c in range(1, k + 1)
        )
        scales = stats.per_class_norm / (stats.class_counts - 1)
    # operators hash by identity, so a pooled operator is inverted once
    inverses = {op: matrix_function(op, _INV, kappa_eff).matrix for op in dict.fromkeys(ops)}
    directions = np.empty((k, data.N))
    norms = np.empty(k)
    for c in range(1, k + 1):
        directions[c - 1], norms[c - 1] = _invert_mean(
            inverses[ops[c - 1]], float(scales[c - 1]), stats.class_means[c - 1]
        )
    return ClassifierModel(
        class_means=stats.class_means,
        priors=stats.class_counts / data.M,
        covariance_ops=ops,
        covariance_scales=scales,
        inverse_directions=directions,
        inverse_norms=norms,
        kappa_eff=kappa_eff,
        shared_covariance=shared_covariance,
    )


def invert_apply(
    model: ClassifierModel, path: str = "classical", t: int = DEFAULT_T, eps: float = DEFAULT_EPS
) -> list[tuple[np.ndarray, float]]:
    """Unit direction and norm of every class's inverted-covariance mean, in class order.

    Each direction d already points along its class mean, d . mu > 0: the
    classical inverse is a PSD pseudo-inverse, and every quantum stage
    amplitude a_1 = C f(lambda) is >= 0. The quantum path prepares one
    inversion stage per distinct covariance operator (one for all classes
    under ``shared_covariance``) and reads each unit mean's output vector in
    closed form (``apply_pure``); the norm is always the classically
    recorded scalar, as the oracles present it.
    """
    norms = model.inverse_norms.tolist()
    if path == "classical":
        return [(d.copy(), n) for d, n in zip(model.inverse_directions, norms)]
    if path != "quantum":
        raise DomainRejection(f"unknown path {path!r}")
    # operators hash by identity, so a pooled operator is prepared once
    stages = {
        op: prepare_stage(op, _INV, t, model.kappa_eff, eps)
        for op in dict.fromkeys(model.covariance_ops)
    }
    return [
        (stages[op].apply_pure(mu / np.linalg.norm(mu)), n)
        for op, mu, n in zip(model.covariance_ops, model.class_means, norms)
    ]


def classify_many(
    model: ClassifierModel,
    X,
    path: str = "classical",
    shots: int = DEFAULT_SHOTS,
    seed=None,
    t: int = DEFAULT_T,
    prior_mode: str = "log",
    eps: float = DEFAULT_EPS,
) -> Classification:
    """Score every row of X against class inversions computed once per batch.

    Class c's discriminant is the combined inner product of its inverted mean
    with (x - mean/2), rescaled by the recorded norms, plus the prior term:
    log-prior scoring (default) or, with ``prior_mode="linear"``, the literal
    linear prior; both orders coincide for balanced classes. The batch is
    scored one class at a time: on the quantum path one
    ``overlap_test_signed`` call per class takes all rows, row i drawing from
    ``SeedSequence([seed + i, c])`` (unseeded when seed is ``None``). A row
    whose shifted vector vanishes (norm < 1e-14) scores 0 for that class and
    takes no draw. Every product stays one dot per row, so a one-row call
    with seed ``seed + i`` reproduces row i bit for bit.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DomainRejection(f"queries must be a 2-D array of rows, got shape {X.shape}")
    if X.shape[1] != model.dim:
        raise DomainRejection(f"query dimension {X.shape[1]} does not match {model.dim}")
    if not np.all(np.isfinite(X)):
        raise DomainRejection("query vector has non-finite entries")
    if prior_mode not in ("log", "linear"):
        raise DomainRejection(f"unknown prior mode {prior_mode!r}")
    priors = model.priors.tolist()
    prior_terms = [math.log(p) for p in priors] if prior_mode == "log" else priors
    scores = np.zeros((X.shape[0], model.k))
    draws = 0
    for c, (direction, inv_norm) in enumerate(invert_apply(model, path, t, eps), start=1):
        shifted = X - 0.5 * model.class_means[c - 1]
        norms = np.sqrt([s @ s for s in shifted])
        live = np.flatnonzero(norms >= 1e-14)  # a zero vector contributes zero overlap
        if path == "classical":
            scores[live, c - 1] = inv_norm * np.array([direction @ shifted[i] for i in live])
            continue
        draws += live.size
        seeds = [None if seed is None else np.random.SeedSequence([int(seed) + int(i), c])
                 for i in live]
        unit_rows = shifted[live] / norms[live, None]
        estimates = overlap_test_signed(direction, unit_rows, shots, seeds).estimate
        scores[live, c - 1] = inv_norm * norms[live] * estimates
    values = scores + prior_terms
    ranked = np.sort(values, axis=1)
    margins = ranked[:, -1] - ranked[:, -2] if model.k > 1 else np.full(X.shape[0], np.inf)
    return Classification(values, np.argmax(values, axis=1) + 1, margins, draws)
