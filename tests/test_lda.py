"""Discriminant-direction extraction: classical oracle vs staged pipeline,
Fisher criterion, projection, and the polynomial feature map."""
from __future__ import annotations

import weakref

import numpy as np
import pytest

from qdasim import chain, lda
from qdasim.chain import ChainSpec, chain_apply, chain_stage
from qdasim.errors import DomainRejection
from qdasim.linalg import DensityOperator, SpectralFunction, eig_hermitian, trace_distance
from qdasim.lda import (
    ProjectionBasis,
    classical_lda_oracle,
    feature_map,
    fisher_criterion,
    project,
    quantum_lda,
    scatter_matrices,
)
from qdasim.oracle import LabeledDataset, between_scatter, class_statistics
from qdasim.qsim import _fix_vector_sign


def two_class_dataset(seed=1, per_class=200, sep=1.5, sigma=0.3, n=4):
    rng = np.random.default_rng(seed)
    offset = np.zeros(n)
    offset[0] = sep
    samples = np.vstack(
        [
            offset + sigma * rng.standard_normal((per_class, n)),
            -offset + sigma * rng.standard_normal((per_class, n)),
        ]
    )
    return LabeledDataset(samples, np.repeat([1, 2], per_class))


def three_class_dataset(seed=0, per_class=20, n=4, sigma=0.5):
    rng = np.random.default_rng(seed)
    means = np.zeros((3, n))
    means[0, 0] = 2.2
    means[1, 0] = -2.2
    means[2, 1] = 1.6
    samples, labels = [], []
    for c in range(3):
        samples.append(means[c] + sigma * rng.standard_normal((per_class, n)))
        labels.extend([c + 1] * per_class)
    return LabeledDataset(np.vstack(samples), np.array(labels))


def adversarial_dataset(seed=7, per_class=100, separation=1.0):
    """Class separation along e1; within-class variance 10x larger along e2,
    large enough that the top principal component is e2."""
    rng = np.random.default_rng(seed)
    s1 = 0.4 * separation
    s2 = np.sqrt(10.0) * s1
    cols = []
    for sign in (1.0, -1.0):
        cols.append(
            np.column_stack(
                [
                    sign * separation + s1 * rng.standard_normal(per_class),
                    s2 * rng.standard_normal(per_class),
                ]
            )
        )
    return LabeledDataset(np.vstack(cols), np.repeat([1, 2], per_class))


def unit(v):
    return v / np.linalg.norm(v)


def overlap(a, b):
    return abs(float(np.dot(unit(a), unit(b))))


def pca_direction(data: LabeledDataset) -> np.ndarray:
    centered = data.samples - data.samples.mean(axis=0)
    _, vecs = np.linalg.eigh(centered.T @ centered)
    return vecs[:, -1]


class TestClassicalOracle:
    def test_separated_classes_recover_axis(self):
        data = two_class_dataset()
        basis = classical_lda_oracle(data, 1, 100.0)
        angle = np.degrees(np.arccos(min(1.0, overlap(basis.directions[0], np.eye(4)[0]))))
        assert angle <= 2.0

    def test_isotropic_within_scatter_reduces_to_between_directions(self):
        # deviations +-0.3 e_i around each mean make the within operator exactly
        # isotropic, so whitening is a no-op up to scale
        n = 4
        devs = np.vstack([0.3 * np.eye(n), -0.3 * np.eye(n)])
        mu1 = np.array([1.0, 0.0, 0.0, 0.0])
        samples = np.vstack([mu1 + devs, -mu1 + devs])
        data = LabeledDataset(samples, np.repeat([1, 2], 2 * n))
        basis = classical_lda_oracle(data, 1, 100.0)
        assert overlap(basis.directions[0], mu1) >= 1.0 - 1e-9

    def test_adversarial_set_beats_pca(self):
        data = adversarial_dataset()
        basis = classical_lda_oracle(data, 1, 100.0)
        w_pca = pca_direction(data)
        assert overlap(basis.directions[0], np.array([1.0, 0.0])) >= 0.99
        # the principal component is dominated by the noisy axis instead
        assert overlap(w_pca, np.array([0.0, 1.0])) > overlap(w_pca, np.array([1.0, 0.0]))
        assert overlap(w_pca, np.array([0.0, 1.0])) >= 0.9

    def test_rank_rejection_reports_achievable_rank(self):
        data = two_class_dataset()
        with pytest.raises(DomainRejection, match="rank 1"):
            classical_lda_oracle(data, 2, 100.0)


class TestQuantumLda:
    def test_matches_oracle_on_two_classes(self):
        data = two_class_dataset()
        oracle = classical_lda_oracle(data, 1, 100.0)
        quantum = quantum_lda(data, 1, 100.0, 0.1, 8, seed=1)
        assert overlap(quantum.directions[0], oracle.directions[0]) >= 0.98

    def test_rank_shortfall_rejected_with_count(self):
        data = two_class_dataset()
        with pytest.raises(DomainRejection, match="only 1 of 2"):
            quantum_lda(data, 2, 100.0, 0.1, 8, seed=1)

    def test_identical_scatter_operators_fix_the_top_eigenvector(self):
        # both stages fed the same rank-one operator: the chain output is that
        # operator itself, so its top eigenvector survives the pipeline
        rng = np.random.default_rng(3)
        b = unit(rng.standard_normal(4))
        a = DensityOperator(np.outer(b, b))
        spec = ChainSpec(
            stages=(
                (a, SpectralFunction.from_name("inverse-sqrt")),
                (a, SpectralFunction.from_name("sqrt")),
            ),
            kappa_eff=100.0,
            t=8,
        )
        out = chain_apply(spec).output
        assert trace_distance(out, a) < 1e-10

    def test_register_width_validated(self):
        data = two_class_dataset()
        with pytest.raises(DomainRejection, match="t="):
            quantum_lda(data, 1, 100.0, 0.1, 3, seed=0)

    def test_multiclass_directions_match_oracle(self):
        data = three_class_dataset(seed=4)
        oracle = classical_lda_oracle(data, 2, 100.0)
        quantum = quantum_lda(data, 2, 100.0, 0.1, 8, seed=4)
        for r in range(2):
            assert overlap(quantum.directions[r], oracle.directions[r]) >= 0.95
        gram = quantum.intermediates @ quantum.intermediates.T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-6

    def test_sample_vectors_are_read_without_eigh(self, monkeypatch):
        eigh_shapes = []
        eigh = np.linalg.eigh
        sample = lda.sample_eigenpairs

        def counted_eigh(a, *args, **kwargs):
            eigh_shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def sample_and_read_every_vector(*args, **kwargs):
            monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
            samples = sample(*args, **kwargs)
            vectors = [s.vector for s in samples]
            monkeypatch.setattr(np.linalg, "eigh", eigh)
            assert len(vectors) > 2
            return samples

        monkeypatch.setattr(lda, "sample_eigenpairs", sample_and_read_every_vector)
        quantum_lda(three_class_dataset(seed=4), 2, 100.0, 0.1, 8, seed=4)
        assert eigh_shapes == []

    def test_within_scatter_and_its_spectrum_freed_before_sampling(self, monkeypatch):
        # operators take no weak references, so S_W is tracked through its arrays
        refs = []
        within = lda.within_scatter
        sample = lda.sample_eigenpairs

        def tracked_within(*args):
            sw = within(*args)
            refs.extend(weakref.ref(m) for m in (sw.matrix, eig_hermitian(sw).eigenvectors))
            return sw

        def sample_after_release(*args, **kwargs):
            assert len(refs) == 2
            assert [ref() for ref in refs] == [None, None]
            return sample(*args, **kwargs)

        monkeypatch.setattr(lda, "within_scatter", tracked_within)
        monkeypatch.setattr(lda, "sample_eigenpairs", sample_after_release)
        quantum_lda(three_class_dataset(seed=4), 2, 100.0, 0.1, 8, seed=4)

    def test_back_map_stage_prepared_once_for_all_directions(self, monkeypatch):
        analyzed = []
        analyze = chain._analyze_stage

        def counted(a, *args):
            analyzed.append(a)
            return analyze(a, *args)

        monkeypatch.setattr(chain, "_analyze_stage", counted)
        data = three_class_dataset(seed=4)
        basis = quantum_lda(data, 2, 100.0, 0.1, 8, seed=4)
        sb = between_scatter(class_statistics(data))
        # two whitening stages, then one S_B stage for both directions
        assert len(analyzed) == 3
        assert np.array_equal(analyzed[2].matrix, sb.matrix)
        for v, w in zip(basis.intermediates, basis.directions):
            back, _ = chain_stage(DensityOperator(np.outer(v, v)), sb, lda._INV_SQRT, 8, 100.0, 0.1)
            pivot = int(np.argmax(np.diag(back.matrix)))
            column = back.matrix[:, pivot] / np.sqrt(back.matrix[pivot, pivot])
            assert np.array_equal(_fix_vector_sign(column), w)
            # the back-mapped state is rank one, so its column is its top eigenvector
            top = _fix_vector_sign(eig_hermitian(back).eigenvectors[:, 0])
            assert np.max(np.abs(top - w)) < 1e-12


class TestFisherCriterion:
    def test_invariant_under_rescaling(self):
        data = two_class_dataset()
        w = np.array([0.3, -1.0, 0.4, 0.2])
        assert fisher_criterion(data, w) == pytest.approx(fisher_criterion(data, 5.0 * w))

    def test_rayleigh_quotient_with_identity_within(self):
        s_b = np.diag([3.0, 1.0, 0.5])
        s_w = np.eye(3)
        assert fisher_criterion((s_b, s_w), np.array([1.0, 0.0, 0.0])) == pytest.approx(3.0)

    def test_lda_beats_pca_on_adversarial_data(self):
        data = adversarial_dataset()
        basis = classical_lda_oracle(data, 1, 100.0)
        assert fisher_criterion(data, basis.directions[0]) >= 5.0 * fisher_criterion(
            data, pca_direction(data)
        )

    def test_top_direction_is_the_argmax(self):
        data = three_class_dataset(seed=2)
        basis = classical_lda_oracle(data, 1, 100.0)
        best = fisher_criterion(data, basis.directions[0])
        rng = np.random.default_rng(0)
        for _ in range(100):
            w = unit(rng.standard_normal(4))
            assert best >= fisher_criterion(data, w) - 1e-6

    def test_degenerate_within_variance_rejected(self):
        s_b = np.eye(2)
        s_w = np.diag([1.0, 0.0])
        with pytest.raises(DomainRejection, match="within-class"):
            fisher_criterion((s_b, s_w), np.array([0.0, 1.0]))


class TestProject:
    def test_standard_basis_selects_coordinates(self):
        data = two_class_dataset()
        basis = ProjectionBasis(
            directions=np.eye(4)[:2],
            intermediates=np.eye(4)[:2],
            eigenvalue_estimates=np.array([1.0, 0.5]),
        )
        out = project(data, basis)
        assert np.allclose(out.samples, data.samples[:, :2])
        assert np.array_equal(out.labels, data.labels)

    def test_full_basis_preserves_gram_matrix(self):
        data = two_class_dataset(per_class=10)
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
        basis = ProjectionBasis(
            directions=q.T,
            intermediates=q.T,
            eigenvalue_estimates=np.ones(4),
        )
        out = project(data, basis)
        assert np.allclose(out.samples @ out.samples.T, data.samples @ data.samples.T)

    def test_projected_class_gap_on_adversarial_data(self):
        data = adversarial_dataset()
        basis = classical_lda_oracle(data, 1, 100.0)
        out = project(data, basis)
        one = out.samples[out.labels == 1, 0]
        two = out.samples[out.labels == 2, 0]
        gap = abs(one.mean() - two.mean())
        pooled_std = np.sqrt((one.std() ** 2 + two.std() ** 2) / 2.0)
        assert gap >= 4.0 * pooled_std

    def test_scalar_consistency_of_projected_criterion(self):
        data = two_class_dataset()
        basis = classical_lda_oracle(data, 1, 100.0)
        j_original = fisher_criterion(data, basis.directions[0])
        reduced = project(data, basis)
        j_reduced = fisher_criterion(reduced, np.array([1.0]))
        assert j_reduced == pytest.approx(j_original, rel=1e-9)


class TestFeatureMap:
    def test_degree_one_is_identity(self):
        data = two_class_dataset(per_class=5)
        out = feature_map(data, 1)
        assert np.allclose(out.samples, data.samples)

    def test_degree_two_monomial_count_and_values(self):
        data = LabeledDataset(np.array([[2.0, 3.0], [1.0, 1.0]]), np.array([1, 2]))
        out = feature_map(data, 2)
        assert out.N == 5
        assert out.feature_names == ("x1", "x2", "x1*x1", "x1*x2", "x2*x2")
        assert np.allclose(out.samples[0], [2.0, 3.0, 4.0, 6.0, 9.0])

    def test_concentric_circles_become_separable(self):
        rng = np.random.default_rng(5)
        theta = rng.uniform(0.0, 2.0 * np.pi, 120)
        radii = {1: 1.0 + 0.08 * rng.standard_normal(120), 2: 2.0 + 0.08 * rng.standard_normal(120)}
        rows = [
            np.column_stack([radii[c] * np.cos(theta), radii[c] * np.sin(theta)])
            for c in (1, 2)
        ]
        circles = LabeledDataset(np.vstack(rows), np.repeat([1, 2], 120))
        j_flat = fisher_criterion(
            circles, classical_lda_oracle(circles, 1, 100.0).directions[0]
        )
        mapped = feature_map(circles, 2)
        j_mapped = fisher_criterion(
            mapped, classical_lda_oracle(mapped, 1, 100.0).directions[0]
        )
        assert j_mapped >= 10.0 * j_flat

    def test_dimension_cap_enforced(self):
        data = LabeledDataset(
            np.random.default_rng(0).standard_normal((4, 40)), np.array([1, 1, 2, 2])
        )
        with pytest.raises(DomainRejection, match="cap"):
            feature_map(data, 3)

    def test_bad_degree_rejected(self):
        data = two_class_dataset(per_class=3)
        with pytest.raises(DomainRejection, match="degree"):
            feature_map(data, 4)


class TestScatterBridge:
    def test_classical_scatters_match_weighted_operators(self):
        from qdasim.oracle import between_scatter, class_statistics, within_scatter

        data = three_class_dataset(seed=6)
        stats = class_statistics(data)
        s_b, s_w = scatter_matrices(data)
        assert np.max(np.abs(stats.norm_between * between_scatter(stats).matrix - s_b)) < 1e-9
        assert np.max(np.abs(stats.norm_within * within_scatter(data, stats).matrix - s_w)) < 1e-9
