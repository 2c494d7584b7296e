"""Discriminant-function classification over per-class covariance operators.

The model stores unit-trace covariance operators with their statistical
scale factors, class means with norms, and priors. Discriminant values
combine a signed overlap estimate between the inverted-mean state and the
shifted query state with classically recorded norms, so shot-based and
exact evaluations share one code path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import PreparedStage, prepare_stage
from .errors import DomainRejection
from .linalg import DensityOperator, SpectralFunction, matrix_function
from .oracle import LabeledDataset, class_covariance_operator, class_statistics, within_scatter
from .qsim import overlap_test_signed

_INV = SpectralFunction.from_name("inverse")


@dataclass(frozen=True)
class ClassifierModel:
    """Per-class covariance operators, scales, means, priors, and the
    classically recorded inversion products.

    ``covariance_scales[c-1]`` bridges the unit-trace operator to the
    statistical covariance (within-class squared-norm total over M_c - 1;
    pooled over M - k when ``shared_covariance``). ``inverse_directions`` and
    ``inverse_norms`` record the unit vector and length of the statistical
    covariance pseudo-inverse applied to each class mean.
    """

    class_means: np.ndarray
    mean_norms: np.ndarray
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
class DiscriminantResult:
    """Per-class discriminant values with the argmax decision and its margin."""

    values: np.ndarray
    chosen: int
    margin: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.chosen != int(np.argmax(values)) + 1:
            raise DomainRejection("chosen class must be the lowest-index argmax")


def _along(direction: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Orient a unit direction along the class mean."""
    return -direction if float(direction @ mu) < 0.0 else direction


def _invert_mean(inv: np.ndarray, scale: float, mu: np.ndarray) -> tuple[np.ndarray, float]:
    product = np.real(inv @ mu) / scale
    norm = float(np.linalg.norm(product))
    if norm < 1e-12:
        raise DomainRejection(
            "class mean lies outside the retained covariance support"
        )
    return _along(product / norm, mu), norm


def fit(
    data: LabeledDataset, kappa_eff: float = 100.0, shared_covariance: bool = False
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
        pooled = within_scatter(data, stats)
        pool_scale = stats.norm_within / (data.M - k)
        ops = (pooled,) * k
        inverses = (matrix_function(pooled, _INV, kappa_eff).matrix,) * k
        scales = np.full(k, pool_scale)
    else:
        ops = tuple(
            class_covariance_operator(data, stats, c) for c in range(1, k + 1)
        )
        inverses = tuple(matrix_function(op, _INV, kappa_eff).matrix for op in ops)
        scales = stats.per_class_norm / (stats.class_counts - 1)
    directions = np.empty((k, data.N))
    norms = np.empty(k)
    for c in range(1, k + 1):
        directions[c - 1], norms[c - 1] = _invert_mean(
            inverses[c - 1], float(scales[c - 1]), stats.class_means[c - 1]
        )
    return ClassifierModel(
        class_means=stats.class_means,
        mean_norms=np.linalg.norm(stats.class_means, axis=1),
        priors=stats.class_counts / data.M,
        covariance_ops=ops,
        covariance_scales=scales,
        inverse_directions=directions,
        inverse_norms=norms,
        kappa_eff=kappa_eff,
        shared_covariance=shared_covariance,
    )


def invert_apply(
    model: ClassifierModel, c: int, path: str = "classical", t: int = 8
) -> tuple[np.ndarray, float]:
    """Unit direction and norm of the inverted-covariance class mean.

    The quantum path runs one inversion stage on the mean-state projector
    and reads the output vector; the norm is always the classically recorded
    scalar (norms ride along as stored floating-point data, matching how the
    oracles present them).
    """
    if not 1 <= c <= model.k:
        raise DomainRejection(f"class index {c} outside 1..{model.k}")
    if path == "classical":
        return model.inverse_directions[c - 1].copy(), float(model.inverse_norms[c - 1])
    if path != "quantum":
        raise DomainRejection(f"unknown path {path!r}")
    stage = prepare_stage(model.covariance_ops[c - 1], _INV, t, model.kappa_eff)
    return _apply_inversion(model, c, stage)


def _apply_inversion(model, c: int, stage: PreparedStage) -> tuple[np.ndarray, float]:
    """Quantum-path ``invert_apply`` through class c's prepared inversion stage."""
    mu = model.class_means[c - 1]
    mu_norm = float(np.linalg.norm(mu))
    if mu_norm < 1e-12:
        raise DomainRejection(f"class {c} mean vanishes; nothing to invert")
    return _along(stage.apply_pure(mu / mu_norm), mu), float(model.inverse_norms[c - 1])


def _child_seed(seed, c: int):
    return None if seed is None else np.random.SeedSequence([int(seed), c])


def _score(model, x, c, inverted, path, shots, seed, prior_mode) -> float:
    """Class-c discriminant of query x from the class's (direction, norm)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != model.dim:
        raise DomainRejection(f"query dimension {x.size} does not match {model.dim}")
    if not np.all(np.isfinite(x)):
        raise DomainRejection("query vector has non-finite entries")
    if prior_mode not in ("log", "linear"):
        raise DomainRejection(f"unknown prior mode {prior_mode!r}")
    direction, inv_norm = inverted
    shifted = x - 0.5 * model.class_means[c - 1]
    shifted_norm = float(np.linalg.norm(shifted))
    if shifted_norm < 1e-14:
        inner = 0.0  # zero vector has zero overlap contribution by convention
    elif path == "classical":
        inner = inv_norm * float(direction @ shifted)
    else:
        result = overlap_test_signed(
            direction, shifted / shifted_norm, shots, _child_seed(seed, c)
        )
        inner = inv_norm * shifted_norm * result.estimate
    prior = float(model.priors[c - 1])
    return inner + (math.log(prior) if prior_mode == "log" else prior)


def discriminant(
    model: ClassifierModel,
    x,
    c: int,
    path: str = "classical",
    shots: int = 8192,
    seed=None,
    t: int = 8,
    prior_mode: str = "log",
) -> float:
    """Class-c discriminant: the combined inner product of the inverted mean
    with (x - mean/2), rescaled by the recorded norms, plus the prior term.

    ``prior_mode`` selects log-prior scoring (default) or the literal linear
    prior variant; both orders coincide for balanced classes.
    """
    inverted = invert_apply(model, c, path, t)
    return _score(model, x, c, inverted, path, shots, seed, prior_mode)


def classify_many(
    model: ClassifierModel,
    X,
    path: str = "classical",
    shots: int = 8192,
    seed=None,
    t: int = 8,
    prior_mode: str = "log",
) -> list[DiscriminantResult]:
    """Classify each row of X against class inversions computed once per batch.

    Row i is scored with seed ``seed + i`` (``None`` when seed is ``None``).
    Ties break to the lowest class index; the margin is the gap to the
    runner-up.
    """
    if path == "quantum":
        # classes fitted with shared_covariance hold one pooled operator: prepare it once
        ops = {id(op): op for op in model.covariance_ops}
        stages = {key: prepare_stage(op, _INV, t, model.kappa_eff) for key, op in ops.items()}
        inverted = [
            _apply_inversion(model, c, stages[id(op)])
            for c, op in enumerate(model.covariance_ops, start=1)
        ]
    else:
        inverted = [invert_apply(model, c, path, t) for c in range(1, model.k + 1)]
    results = []
    for i, x in enumerate(np.asarray(X, dtype=float)):
        row_seed = None if seed is None else seed + i
        values = [
            _score(model, x, c, inverted[c - 1], path, shots, row_seed, prior_mode)
            for c in range(1, model.k + 1)
        ]
        chosen = int(np.argmax(values)) + 1
        rest = np.delete(values, chosen - 1)
        margin = float(values[chosen - 1] - rest.max()) if rest.size else float("inf")
        results.append(DiscriminantResult(values=values, chosen=chosen, margin=margin))
    return results


def classify(
    model: ClassifierModel,
    x,
    path: str = "classical",
    shots: int = 8192,
    seed=None,
    t: int = 8,
    prior_mode: str = "log",
) -> DiscriminantResult:
    """Evaluate all class discriminants and pick the argmax: ``classify_many`` on one row."""
    x = np.reshape(np.asarray(x, dtype=float), (1, -1))
    return classify_many(model, x, path, shots, seed, t, prior_mode)[0]

