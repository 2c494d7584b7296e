"""Discriminant-function classification over per-class covariance operators.

The model stores unit-trace covariance operators, class means and priors,
and the classically recorded inversion products. ``classify_many`` is the
one scorer: it takes every class's inverted mean once per batch (recorded,
or on the quantum path from ``invert_apply``), scores the whole batch against
them one class at a time and returns a ``Classification`` of arrays.
Discriminant values combine a signed overlap estimate between the
inverted-mean state and the shifted query state with the recorded norms, so
shot-based and exact evaluations share one code path.
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
    """Per-class covariance operators, means, priors, and the classically
    recorded inversion products that ``classify_many`` reads:
    ``inverse_directions`` and ``inverse_norms`` record the unit vector and
    length of the statistical covariance pseudo-inverse applied to each class
    mean. Means and lengths are in the training data's frame, the data over
    2**``exponent`` (``ClassStatistics``), so training data times 2**k give
    the same record with ``exponent`` moved by k.
    """

    class_means: np.ndarray
    priors: np.ndarray
    covariance_ops: tuple[DensityOperator, ...]
    inverse_directions: np.ndarray
    inverse_norms: np.ndarray
    kappa_eff: float
    exponent: int

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
    ``margins[i]`` the gap to the runner-up (``inf`` when k = 1), ``draws``
    the (row, class) estimates that spent shots and ``copies[c-1]`` the copies
    of class c's covariance operator its inversion consumed (both 0 on the
    classical path)."""

    discriminants: np.ndarray
    decisions: np.ndarray
    margins: np.ndarray
    draws: int
    copies: np.ndarray


def _unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row over its Euclidean norm sqrt(s @ s), and the norms. Each row
    is first divided by the power of two at its largest entry, which is exact,
    so s @ s neither overflows nor underflows; a norm is inf only when the
    norm itself overflows float64. A zero row has norm 0 and a nan unit row."""
    _, exponents = np.frexp(np.abs(rows).max(axis=1))
    scaled = np.ldexp(rows, -exponents[:, None])
    sizes = np.sqrt([s @ s for s in scaled])
    with np.errstate(over="ignore", invalid="ignore"):
        return scaled / sizes[:, None], np.ldexp(sizes, exponents)


def _invert_mean(inv: np.ndarray, scale: float, mu: np.ndarray) -> tuple[np.ndarray, float]:
    product = np.real(inv @ mu)
    _, (size, mu_size) = _unit_rows(np.array([product, mu]))
    # |inv @ mu| against the most it can be, so rescaled data meet the same bound
    if size <= 1e-12 * np.linalg.norm(inv) * mu_size:
        raise DomainRejection("class mean lies outside the retained covariance support")
    units, norms = _unit_rows(product[None] / scale)
    return units[0], float(norms[0])


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
        ops = (within_scatter(data, stats),) * k
        scales = np.full(k, stats.norm_within / (data.M - k))
    else:
        ops = tuple(class_covariance_operator(data, stats, c) for c in range(1, k + 1))
        scales = stats.per_class_norm / (stats.class_counts - 1)
    # operators hash by identity, so a pooled operator is inverted once
    inverses = {op: matrix_function(op, _INV, kappa_eff).matrix for op in dict.fromkeys(ops)}
    pairs = [_invert_mean(inverses[op], float(s), mu)
             for op, s, mu in zip(ops, scales, stats.class_means)]
    return ClassifierModel(
        class_means=stats.class_means,
        priors=stats.class_counts / data.M,
        covariance_ops=ops,
        inverse_directions=np.array([direction for direction, _ in pairs]),
        inverse_norms=np.array([norm for _, norm in pairs]),
        kappa_eff=kappa_eff,
        exponent=stats.exponent,
    )


def invert_apply(
    model: ClassifierModel, t: int = DEFAULT_T, eps: float = DEFAULT_EPS
) -> tuple[np.ndarray, np.ndarray]:
    """Every class's covariance inverse applied to its mean by the quantum
    inversion stage, as a unit row in class order, and the copies of each
    class's covariance operator the inversion consumed.

    One stage is prepared per distinct covariance operator (one for all
    classes under ``shared_covariance``) and reads each unit mean's output
    vector in closed form (``apply_pure``). Each direction d points along its
    class mean, d . mu > 0, since every amplitude a_1 = C f(lambda) is >= 0.
    The norm is the classically recorded ``model.inverse_norms``.
    """
    # operators hash by identity, so a pooled operator is prepared once
    distinct = {op: prepare_stage(op, _INV, t, model.kappa_eff, eps)
                for op in dict.fromkeys(model.covariance_ops)}
    stages = [distinct[op] for op in model.covariance_ops]
    units, _ = _unit_rows(model.class_means)
    directions = np.array([s.apply_pure(mu) for s, mu in zip(stages, units)])
    return directions, np.array([s.copies for s in stages])


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
    linear prior; both orders coincide for balanced classes. Each row is
    scored in the model's frame (``ClassifierModel``); a row whose largest
    entry outgrows that frame is scored in its own power-of-two frame, 2**lift
    above the model's, and its discriminant is multiplied back by 2**lift.
    Every such map is exact, so x - mean/2 never overflows. The batch is
    scored one class at a time: on the quantum path one
    ``overlap_test_signed`` call per class takes all rows, row i drawing from
    ``SeedSequence([seed + i, c])`` (unseeded when seed is ``None``). A row
    whose shifted vector x - mean/2 vanishes (no entry above 1e-14 of
    max|x| + max|mean|/2, a bound that rescales with the data) scores 0 for
    that class and takes no draw. Every product stays one dot per row, so a
    one-row call with seed ``seed + i`` reproduces row i bit for bit. A row
    whose discriminants or margin overflow float64 is rejected.
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
    if path not in ("classical", "quantum"):
        raise DomainRejection(f"unknown path {path!r}")
    priors = model.priors.tolist()
    prior_terms = [math.log(p) for p in priors] if prior_mode == "log" else priors
    scores = np.zeros((X.shape[0], model.k))
    draws = 0
    directions, copies = ((model.inverse_directions, np.zeros(model.k, dtype=int))
                          if path == "classical" else invert_apply(model, t, eps))
    sizes = np.abs(X).max(axis=1)
    # a zero row stays in the model's frame
    lifts = np.where(sizes > 0, np.maximum(np.frexp(sizes)[1] - model.exponent, 0), 0)
    frames = (model.exponent + lifts)[:, None]
    X, sizes = np.ldexp(X, -frames), np.ldexp(sizes, -frames[:, 0])
    for c, (direction, inv_norm) in enumerate(zip(directions, model.inverse_norms), start=1):
        mean = model.class_means[c - 1]
        shifted = np.ldexp(-0.5 * mean, -lifts[:, None])
        shifted += X
        spans = np.abs(shifted).max(axis=1)
        # a zero vector contributes zero overlap
        live = np.flatnonzero(spans > 1e-14 * sizes + np.ldexp(5e-15 * np.abs(mean).max(), -lifts))
        if path == "classical":
            with np.errstate(over="ignore", invalid="ignore"):
                scores[live, c - 1] = inv_norm * np.array([direction @ shifted[i] for i in live])
            continue
        draws += live.size
        seeds = [None if seed is None else np.random.SeedSequence([int(seed) + int(i), c])
                 for i in live]
        unit_rows, norms = _unit_rows(shifted[live])
        estimates = overlap_test_signed(direction, unit_rows, shots, seeds).estimate
        with np.errstate(over="ignore", invalid="ignore"):
            scores[live, c - 1] = inv_norm * norms * estimates
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.ldexp(scores, lifts[:, None]) + prior_terms
        ranked = np.sort(values, axis=1)
        margins = ranked[:, -1] - ranked[:, -2] if model.k > 1 else np.full(X.shape[0], np.inf)
    overflow = ~np.isfinite(values).all(axis=1) | (np.isinf(margins) & (model.k > 1))
    if overflow.any():
        raise DomainRejection(
            f"the discriminants of query row {int(np.argmax(overflow))} overflow float64"
        )
    return Classification(values, np.argmax(values, axis=1) + 1, margins, draws, copies)
