"""Oracle emulation: scatter and covariance density operators from labeled data.

The quantum-RAM oracles are emulated exactly. An oracle prepares the
norm-weighted superposition sum_i ||d_i|| |i>|d_i / ||d_i||> over stored
difference vectors; tracing out its index register leaves the mixture
sum_i d_i d_i^T / sum_i ||d_i||^2. Each operator here is built directly as
that mixture from one Gram product, never through the joint state. No
gate-level QRAM is modeled; norms are read directly from the stored data.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainRejection
from .linalg import DensityOperator

# a squared-norm total at most this share of the data's scatter (within plus
# between) vanishes; a share, unlike a total, stays put when the data are rescaled
_ZERO_SHARE = 1e-24


@dataclass
class LabeledDataset:
    """M real feature vectors of dimension N with class labels in 1..k.

    Every class index in 1..k must own at least one sample. ``label_names``
    optionally records the original label strings in index order (class c
    maps to ``label_names[c - 1]``), and ``feature_names`` one name per
    feature.
    """

    samples: np.ndarray
    labels: np.ndarray
    label_names: tuple[str, ...] | None = None
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        labels = np.asarray(self.labels)
        # an integral float that int64 holds, such as 1.0, names a class;
        # 1.5, nan, 1e20 or "a" never does
        integral = labels.dtype.kind == "f" and (
            (np.abs(labels) < 2.0**63).all() and np.array_equal(labels, np.trunc(labels))
        )
        if labels.dtype.kind not in "iu" and not integral:
            raise DomainRejection("class labels must be integers in 1..k")
        self.labels = labels.astype(int)
        if self.samples.ndim != 2:
            raise DomainRejection("samples must form an M x N matrix")
        if not np.all(np.isfinite(self.samples)):
            raise DomainRejection("samples contain non-finite entries")
        if self.labels.shape != (self.samples.shape[0],):
            raise DomainRejection(
                f"label count {self.labels.shape} does not match sample count "
                f"{self.samples.shape[0]}"
            )
        if self.labels.size == 0:
            raise DomainRejection("dataset is empty")
        if self.labels.min() < 1:
            raise DomainRejection("class labels must be integers in 1..k")
        ordered = np.sort(self.labels)
        distinct = 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
        k = int(ordered[-1])
        if distinct < k:
            # at most `distinct` of 1..distinct + 10 are taken, so counting that
            # range finds the first 10 missing classes, however large k is
            limit = min(k, distinct + 10)
            counts = np.bincount(ordered[ordered <= limit], minlength=limit + 1)
            shown = np.flatnonzero(counts[1:] == 0)[:10] + 1
            rest = k - distinct - shown.size
            more = f" and {rest} more" if rest else ""
            raise DomainRejection(f"classes {shown.tolist()}{more} have no samples")
        for name, count, what in (("label_names", k, "classes"),
                                  ("feature_names", self.N, "features")):
            names = getattr(self, name)
            if names is not None and len(names) != count:
                raise DomainRejection(f"{name} holds {len(names)} names for {count} {what}")

    @property
    def M(self) -> int:
        return self.samples.shape[0]

    @property
    def N(self) -> int:
        return self.samples.shape[1]

    @property
    def k(self) -> int:
        return int(self.labels.max())

    def class_members(self, c: int) -> np.ndarray:
        return self.samples[self.labels == c]


@dataclass(frozen=True)
class ClassStatistics:
    """Per-class means, the global mean and the squared-norm totals that
    weight the oracles, all in one exact frame: the samples over
    2**``exponent``, the ``np.frexp`` exponent of their largest |entry|. So
    no total overflows, and data times 2**k give the same fields bit for bit
    (with ``exponent`` moved by k). ``norm_between`` is sum_c ||mu_c - xbar||^2,
    ``norm_within`` is sum_j ||x_j - mu_{c_j}||^2, and ``per_class_norm[c-1]``
    is the within-class share of class c. ``data`` is the dataset described,
    so every operator builder takes this one record.
    """

    class_means: np.ndarray
    global_mean: np.ndarray
    class_counts: np.ndarray
    norm_between: float
    norm_within: float
    per_class_norm: np.ndarray
    exponent: int
    data: LabeledDataset = field(repr=False, compare=False)


def class_statistics(data: LabeledDataset) -> ClassStatistics:
    """Arithmetic class means, the global sample mean, and the weight norms;
    nonzero deviations whose squared total underflows even in the frame are rejected."""
    _, exponent = np.frexp(np.abs(data.samples).max())
    samples = np.ldexp(data.samples, -exponent)
    k = data.k
    means = np.empty((k, data.N))
    counts = np.empty(k, dtype=int)
    per_class = np.empty(k)
    within = 0.0
    underflow = False
    for c in range(1, k + 1):
        members = samples[data.labels == c]
        counts[c - 1] = members.shape[0]
        means[c - 1] = members.mean(axis=0)
        dev = members - means[c - 1]
        per_class[c - 1] = float(np.sum(dev * dev))
        within += per_class[c - 1]
        underflow |= per_class[c - 1] == 0 and dev.any()
    global_mean = samples.mean(axis=0)
    d = means - global_mean
    between = float(np.sum(d * d))
    if underflow or (between == 0 and d.any()):
        raise DomainRejection(
            "the data's deviations from their means underflow float64 when squared"
        )
    return ClassStatistics(means, global_mean, counts, between, within, per_class, int(exponent),
                           data)


def _deviations(rows: np.ndarray, which, stats: ClassStatistics) -> np.ndarray:
    """Data rows minus ``stats.class_means[which]``, in the frame of ``stats``
    and subtracted in place."""
    deviations = np.ldexp(rows, -stats.exponent)
    deviations -= stats.class_means[which]
    return deviations


def _weighted_projector_mixture(deviations: np.ndarray, total: float) -> DensityOperator:
    """Unit-trace mixture (1/total) sum_i d_i d_i^T; zero rows carry no weight."""
    return DensityOperator(deviations.T @ deviations / total)


def _vanishes(total: float, stats: ClassStatistics) -> bool:
    return total <= _ZERO_SHARE * (stats.norm_within + stats.norm_between)


def between_scatter(stats: ClassStatistics) -> DensityOperator:
    """Norm-weighted mixture of class-mean deviation projectors, unit trace.

    S_B = sum_c (mu_c - xbar)(mu_c - xbar)^T / sum_c ||mu_c - xbar||^2 counts
    each class mean once, not weighted by its sample count M_c as in the
    textbook S_B; the two agree on balanced classes. ``xbar`` is the global
    sample mean.
    """
    if _vanishes(stats.norm_between, stats):
        raise DomainRejection(
            "all class means coincide with the global mean; "
            "no between-class direction exists"
        )
    return _weighted_projector_mixture(stats.class_means - stats.global_mean, stats.norm_between)


def within_scatter(stats: ClassStatistics) -> DensityOperator:
    """Norm-weighted mixture of centered-sample projectors, unit trace."""
    if _vanishes(stats.norm_within, stats):
        raise DomainRejection("every sample equals its class mean; no within-class spread")
    deviations = _deviations(stats.data.samples, stats.data.labels - 1, stats)
    return _weighted_projector_mixture(deviations, stats.norm_within)


def class_covariance_operator(stats: ClassStatistics, c: int) -> DensityOperator:
    """Unit-trace covariance operator of one class.

    The weighted projector mixture of the class's centered samples: the
    index-register trace of the class superposition, without building it.
    """
    if not 1 <= c <= stats.data.k:
        raise DomainRejection(f"class index {c} outside 1..{stats.data.k}")
    a_c = float(stats.per_class_norm[c - 1])
    if _vanishes(a_c, stats):
        raise DomainRejection(
            f"class {c} has zero within-class spread; covariance operator undefined"
        )
    deviations = _deviations(stats.data.class_members(c), c - 1, stats)
    return _weighted_projector_mixture(deviations, a_c)

