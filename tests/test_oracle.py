"""Oracle-emulation contracts: class statistics, scatter operators, and
covariance operators, checked against the joint index x component state."""
from __future__ import annotations

import numpy as np
import pytest

from qdasim.errors import DomainRejection
from qdasim.linalg import DensityOperator
from qdasim.oracle import (
    LabeledDataset,
    _weighted_projector_mixture,
    between_scatter,
    class_covariance_operator,
    class_statistics,
    within_scatter,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def weighted_superposition(vectors) -> np.ndarray:
    """Reference oracle state sum_i ||v_i|| |i>|v_i / ||v_i||>, normalized."""
    arr = np.atleast_2d(np.asarray(vectors, dtype=float))
    return (arr / np.linalg.norm(arr)).reshape(-1)


def trace_out_index(projector: DensityOperator, index_dim: int) -> DensityOperator:
    """Reference trace of a joint index x component state over its index register."""
    d = projector.dim // index_dim
    grid = projector.matrix.reshape(index_dim, d, index_dim, d)
    return DensityOperator(np.einsum("ijik->jk", grid))


def random_dataset(rng, n, k, per_class, spread=1.0):
    samples, labels = [], []
    for c in range(1, k + 1):
        mean = rng.standard_normal(n) * 2.0
        samples.append(mean + spread * rng.standard_normal((per_class, n)))
        labels.extend([c] * per_class)
    return LabeledDataset(np.vstack(samples), np.array(labels))


class TestLabeledDataset:
    def test_missing_class_rejected(self):
        with pytest.raises(DomainRejection, match="classes"):
            LabeledDataset(np.zeros((2, 2)), np.array([1, 3]))

    def test_missing_classes_are_named(self):
        with pytest.raises(DomainRejection) as err:
            LabeledDataset(np.zeros((2, 2)), np.array([1, 3]))
        assert str(err.value) == "classes [2] have no samples"

    @pytest.mark.parametrize("rows, labels, shown, rest", [
        (2, [1, 10**5], list(range(2, 12)), 99988),
        (2, [1, 10**12], list(range(2, 12)), 999999999988),  # never counted up to k
        (30, [1] * 29 + [30], list(range(2, 12)), 18),
    ])
    def test_missing_class_list_is_bounded(self, rows, labels, shown, rest):
        with pytest.raises(DomainRejection) as err:
            LabeledDataset(np.zeros((rows, 2)), labels)
        assert str(err.value) == f"classes {shown} and {rest} more have no samples"

    def test_non_finite_rejected(self):
        with pytest.raises(DomainRejection, match="finite"):
            LabeledDataset(np.array([[np.inf, 0.0]]), np.array([1]))

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(DomainRejection):
            LabeledDataset(np.zeros((3, 2)), np.array([1, 1]))

    # a float label beyond int64 would make numpy warn in the cast
    @pytest.mark.parametrize("bad", [0, 1.5, "a", 1e20, -1e20, 2.0**63])
    def test_non_integer_or_zero_label_rejected(self, bad):
        with pytest.raises(DomainRejection) as err:
            LabeledDataset(np.eye(3), [1, 2, bad])
        assert str(err.value) == "class labels must be integers in 1..k"

    @pytest.mark.parametrize("names, message", [
        ({"label_names": ("a",)}, "label_names holds 1 names for 2 classes"),
        ({"label_names": ("a", "b", "c")}, "label_names holds 3 names for 2 classes"),
        ({"feature_names": ("x",)}, "feature_names holds 1 names for 2 features"),
    ])
    def test_name_tuple_of_the_wrong_length_rejected(self, names, message):
        with pytest.raises(DomainRejection) as err:
            LabeledDataset(np.arange(8.0).reshape(4, 2), [1, 2, 1, 2], **names)
        assert str(err.value) == message

    def test_integral_float_labels_accepted(self):
        data = LabeledDataset(np.eye(3), [1.0, 2.0, 2.0])
        assert data.labels.dtype.kind == "i"
        assert data.labels.tolist() == [1, 2, 2]


class TestClassStatistics:
    def test_single_class_pair(self):
        data = LabeledDataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, 1]))
        stats = class_statistics(data)
        assert np.allclose(stats.class_means[0], [0.0, 0.0])
        assert np.allclose(stats.global_mean, [0.0, 0.0])
        # the totals are taken in the frame of 2**exponent
        assert np.ldexp(stats.norm_between, 2 * stats.exponent) == pytest.approx(0.0)
        assert np.ldexp(stats.norm_within, 2 * stats.exponent) == pytest.approx(2.0)

    def test_one_sample_per_class(self):
        data = LabeledDataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, 2]))
        stats = class_statistics(data)
        assert np.allclose(stats.global_mean, [0.0, 0.0])
        assert np.ldexp(stats.norm_between, 2 * stats.exponent) == pytest.approx(2.0)
        assert np.ldexp(stats.norm_within, 2 * stats.exponent) == pytest.approx(0.0)

    def test_all_samples_identical(self):
        data = LabeledDataset(np.tile([2.0, 3.0], (4, 1)), np.array([1, 1, 2, 2]))
        stats = class_statistics(data)
        assert stats.norm_between == pytest.approx(0.0)
        assert stats.norm_within == pytest.approx(0.0)

    @staticmethod
    def assert_same_in_the_frame(samples, k):
        """The statistics and within-class scatter of samples * 2**k equal
        those of the samples bit for bit, with the frame's exponent shifted by k."""
        labels = np.array([1, 1, 2, 2])
        data, scaled = LabeledDataset(samples, labels), LabeledDataset(np.ldexp(samples, k), labels)
        stats, moved = class_statistics(data), class_statistics(scaled)
        assert moved.exponent == stats.exponent + k
        for name in ("class_means", "global_mean", "norm_between", "norm_within",
                     "per_class_norm"):
            np.testing.assert_array_equal(getattr(moved, name), getattr(stats, name))
        np.testing.assert_array_equal(within_scatter(scaled, moved).matrix,
                                      within_scatter(data, stats).matrix)
        return stats, moved

    def test_squared_norms_past_float64_are_taken_in_the_frame(self):
        # within 2.5e400 and between 6.125e400 in data units; no warning (the
        # suite turns warnings into errors)
        samples = np.array([[1e200, 2.0], [3e200, 4.0], [-1e200, 0.0], [-2e200, 1.0]])
        stats, moved = self.assert_same_in_the_frame(samples, -600)
        np.testing.assert_array_equal(between_scatter(moved).matrix, between_scatter(stats).matrix)
        assert stats.norm_within / stats.norm_between == pytest.approx(2.5 / 6.125, rel=1e-15)

    def test_underflowing_squared_deviations_rejected_without_a_warning(self):
        # within-class deviations of 1e-165 beside entries of 1
        data = LabeledDataset(np.array([[1e-165, 0.0], [-1e-165, 0.0], [1.0, 1.0], [1.0, 1.0]]),
                              np.array([1, 1, 2, 2]))
        with pytest.raises(DomainRejection,
                           match="deviations from their means underflow float64 when squared"):
            class_statistics(data)

    def test_class_means_1e_170_apart_square_inside_the_frame(self):
        # the largest entry is 1e-100, so in the frame the means' offset
        # squares to about 1e-140; the spread lies along the other feature
        samples = np.array([[1e-100, 0.0], [-1e-100, 0.0], [1e-100, 1e-170], [-1e-100, 1e-170]])
        stats, _ = self.assert_same_in_the_frame(samples, 400)
        offset = np.ldexp(1e-170, -stats.exponent)
        assert stats.norm_between == pytest.approx(0.5 * offset**2, rel=1e-15)
        # a share of 1e-140 of the scatter is a vanishing between-class total
        with pytest.raises(DomainRejection, match="all class means coincide"):
            between_scatter(stats)

    def test_counts_sum_to_m(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, 3, 3, 4)
        stats = class_statistics(data)
        assert stats.class_counts.sum() == data.M


class TestBetweenScatter:
    def test_opposite_means_single_ray(self):
        data = LabeledDataset(
            np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, 2])
        )
        s_b = between_scatter(class_statistics(data))
        assert np.allclose(s_b.matrix, np.outer(E1, E1))

    def test_orthogonal_means_equal_weights(self):
        # class means e1 and e2 with global mean forced to zero by symmetry:
        # four samples at +-e1 (class 1 mean e1... ) -- construct directly
        stats = class_statistics(
            LabeledDataset(
                np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                np.array([1, 2, 3, 4]),
            )
        )
        s_b = between_scatter(stats)
        assert np.allclose(s_b.matrix, np.eye(2) / 2.0)

    def test_single_displaced_mean_rank_one(self):
        data = LabeledDataset(
            np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 0.0]]), np.array([1, 1, 2])
        )
        s_b = between_scatter(class_statistics(data))
        w = np.linalg.eigvalsh(s_b.matrix)
        assert w[-1] == pytest.approx(1.0)

    def test_coincident_means_rejected(self):
        data = LabeledDataset(np.tile([1.0, 1.0], (4, 1)), np.array([1, 1, 2, 2]))
        with pytest.raises(DomainRejection, match="between-class"):
            between_scatter(class_statistics(data))


class TestWithinScatter:
    def test_single_ray_deviations(self):
        mu = np.array([3.0, 1.0])
        data = LabeledDataset(np.array([mu + E2, mu - E2]), np.array([1, 1]))
        s_w = within_scatter(data, class_statistics(data))
        assert np.allclose(s_w.matrix, np.outer(E2, E2))

    def test_isotropic_deviations(self):
        mu = np.zeros(2)
        data = LabeledDataset(
            np.array([mu + E1, mu - E1, mu + E2, mu - E2]), np.array([1, 1, 1, 1])
        )
        s_w = within_scatter(data, class_statistics(data))
        assert np.allclose(s_w.matrix, np.eye(2) / 2.0)

    def test_zero_deviation_samples_skipped(self):
        # class 2 contributes nothing: its samples equal its mean
        data = LabeledDataset(
            np.array([[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0], [5.0, 5.0]]),
            np.array([1, 1, 2, 2]),
        )
        s_w = within_scatter(data, class_statistics(data))
        assert np.allclose(s_w.matrix, np.outer(E1, E1))

    def test_degenerate_rejected(self):
        data = LabeledDataset(np.tile([1.0, 2.0], (3, 1)), np.array([1, 1, 1]))
        with pytest.raises(DomainRejection, match="within-class"):
            within_scatter(data, class_statistics(data))


class TestWeightedProjectorMixture:
    @staticmethod
    def outer_loop(deviations, total):
        acc = np.zeros((deviations.shape[1], deviations.shape[1]))
        for d in deviations:
            acc += np.outer(d, d)
        return acc / total

    @pytest.mark.parametrize(
        "shape,zero_rows",
        [((40, 6), (0, 7, 39)), ((3, 10), (1,)), ((1, 5), ()), ((1200, 256), (0, 600))],
        ids=["zero-rows", "m-below-n", "single-row", "1200x256"],
    )
    def test_gram_product_matches_outer_product_loop(self, shape, zero_rows):
        deviations = np.random.default_rng(shape[0]).standard_normal(shape)
        deviations[list(zero_rows)] = 0.0
        total = float(np.sum(deviations * deviations))
        mixture = _weighted_projector_mixture(deviations, total)
        reference = self.outer_loop(deviations, total)
        assert mixture.matrix.dtype == np.float64
        assert np.max(np.abs(mixture.matrix - reference)) <= 1e-14 * np.max(np.abs(reference))


class TestClassCovarianceOperator:
    def test_single_ray(self):
        mu = np.array([4.0, 4.0])
        data = LabeledDataset(np.array([mu + E1, mu - E1]), np.array([1, 1]))
        op = class_covariance_operator(data, class_statistics(data), 1)
        assert np.allclose(op.matrix, np.outer(E1, E1))

    def test_squared_norm_weights(self):
        # deviations e1 (norm 1) and 2 e2 (norm 2): weights 1/5 and 4/5
        members = np.array([[0.5, -1.0], [2.5, 3.0]])  # mean (1.5, 1)
        mu = members.mean(axis=0)
        dev = members - mu
        assert np.allclose(np.abs(dev), [[1.0, 2.0], [1.0, 2.0]])
        # construct a two-sample class with deviations exactly e1 and 2 e2
        data = LabeledDataset(
            np.array([mu + E1, mu - E1, mu + 2 * E2, mu - 2 * E2]),
            np.array([1, 1, 1, 1]),
        )
        op = class_covariance_operator(data, class_statistics(data), 1)
        expected = (2 * np.outer(E1, E1) + 8 * np.outer(E2, E2)) / 10.0
        assert np.allclose(op.matrix, expected)
        assert np.allclose(np.diag(op.matrix).real, [1 / 5, 4 / 5])

    def test_one_sample_class_rejected(self):
        data = LabeledDataset(
            np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.array([1, 2, 2])
        )
        with pytest.raises(DomainRejection, match="class 1"):
            class_covariance_operator(data, class_statistics(data), 1)


class TestProperties:
    def test_scatter_outputs_are_valid_density_operators_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            data = random_dataset(rng, 4, 3, 3)
            stats = class_statistics(data)
            # constructors validate PSD and unit trace
            assert isinstance(between_scatter(stats), DensityOperator)
            assert isinstance(within_scatter(data, stats), DensityOperator)

    def test_superposition_pathway_matches_between_scatter(self):
        rng = np.random.default_rng(12)
        data = random_dataset(rng, 3, 3, 5)
        stats = class_statistics(data)
        deviations = stats.class_means - stats.global_mean
        psi = weighted_superposition(deviations)
        projector = DensityOperator(np.outer(psi, psi.conj()))
        reduced = trace_out_index(projector, data.k)
        direct = between_scatter(stats)
        assert np.max(np.abs(reduced.matrix - direct.matrix)) < 1e-10

    def test_superposition_pathway_matches_class_covariance(self):
        rng = np.random.default_rng(21)
        data = random_dataset(rng, 3, 2, 4)
        stats = class_statistics(data)
        c = 2
        deviations = data.class_members(c) - np.ldexp(stats.class_means[c - 1], stats.exponent)
        psi = weighted_superposition(deviations)
        projector = DensityOperator(np.outer(psi, psi.conj()))
        reduced = trace_out_index(projector, deviations.shape[0])
        direct = class_covariance_operator(data, stats, c)
        assert np.max(np.abs(reduced.matrix - direct.matrix)) < 1e-10

    def test_between_scatter_rank_bound_balanced_classes(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            k = 3
            data = random_dataset(rng, 6, k, 4)
            s_b = between_scatter(class_statistics(data))
            w = np.sort(np.linalg.eigvalsh(s_b.matrix))[::-1]
            assert np.all(w[k - 1 :] < 1e-9)

    def test_scale_bridge_to_classical_within_scatter(self):
        rng = np.random.default_rng(33)
        data = random_dataset(rng, 4, 2, 6)
        stats = class_statistics(data)
        s_w = within_scatter(data, stats)
        classical = np.zeros((4, 4))
        for c in range(1, 3):
            dev = data.class_members(c) - np.ldexp(stats.class_means[c - 1], stats.exponent)
            classical += dev.T @ dev
        norm_within = np.ldexp(stats.norm_within, 2 * stats.exponent)
        assert np.max(np.abs(norm_within * s_w.matrix - classical)) < 1e-9


def _two_class_data() -> LabeledDataset:
    return LabeledDataset(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0], [1.0, 3.0]]),
                          np.array([1, 1, 2, 2]))


@pytest.mark.parametrize("build, message", [
    (lambda: LabeledDataset(np.ones((2, 2, 2)), np.array([1, 1])),
     "samples must form an M x N matrix"),
    (lambda: LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int)), "dataset is empty"),
    (lambda: class_covariance_operator(_two_class_data(), class_statistics(_two_class_data()), 0),
     "class index 0 outside 1..2"),
], ids=["3-d-samples", "no-rows", "class-0"])
def test_oracle_rejection(build, message):
    with pytest.raises(DomainRejection) as info:
        build()
    assert str(info.value) == message
