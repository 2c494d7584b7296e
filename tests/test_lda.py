"""Discriminant-direction extraction: classical oracle vs staged pipeline,
Fisher criterion, projection, and the polynomial feature map."""
from __future__ import annotations

import inspect
from pathlib import Path

import numpy as np
import pytest

from qdasim import chain, lda
from qdasim.chain import ChainSpec, chain_apply, prepare_stage
from qdasim.data_io import load_csv, synthetic_preset
from qdasim.errors import DomainRejection, NumericalFailure
from qdasim.linalg import DensityOperator, SpectralFunction, trace_distance
from qdasim.lda import (
    ProjectionBasis,
    classical_lda_oracle,
    feature_map,
    fisher_criterion,
    project,
    quantum_lda,
    whitening_chain,
)
from qdasim.oracle import LabeledDataset, between_scatter, class_statistics, within_scatter
from qdasim.qsim import EigenpairSamples

GOLDEN_CSV = Path(__file__).parent / "golden" / "three_gauss_seed1.csv"


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


def anisotropic_dataset(seed=3, per_class=100):
    """Two classes with means 0 and (1, 1, 1, 1) and per-axis variances 0.1/0.5/1.5/3."""
    rng = np.random.default_rng(seed)
    std = np.sqrt([0.1, 0.5, 1.5, 3.0])
    samples = np.vstack([mean + std * rng.standard_normal((per_class, 4)) for mean in (0.0, 1.0)])
    return LabeledDataset(samples, np.repeat([1, 2], per_class))


def textbook_scatters(data):
    """Equal-weight between-class and per-class-summed within-class scatter."""
    means = np.array([data.class_members(c).mean(axis=0) for c in range(1, data.k + 1)])
    d = means - data.samples.mean(axis=0)
    s_w = sum(
        (data.class_members(c) - means[c - 1]).T @ (data.class_members(c) - means[c - 1])
        for c in range(1, data.k + 1)
    )
    return d.T @ d, s_w


def fisher_ratio(s_b, s_w, w):
    return float(w @ s_b @ w) / float(w @ s_w @ w)


def fisher_over_eigenvalue(data, basis):
    """J(w_r) / lambda_r per direction, lambda_r the r-th largest eigenvalue of
    S_W^(-1/2) S_B S_W^(-1/2): 1 for a Fisher-optimal direction."""
    s_b, s_w = textbook_scatters(data)
    w, v = np.linalg.eigh(s_w)
    root = (v / np.sqrt(w)) @ v.T
    lams = np.linalg.eigvalsh(root @ s_b @ root)[::-1]
    return np.array([fisher_ratio(s_b, s_w, d) / lam for d, lam in zip(basis.directions, lams)])


# the golden CSV and a case whose S_B span is far from the Fisher direction
FISHER_CASES = {"golden-csv": lambda: load_csv(GOLDEN_CSV), "anisotropic": anisotropic_dataset}


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
        # the two-class Fisher direction is S_W^-1 (mu_1 - mu_2), not the mean axis itself
        data = two_class_dataset()
        basis = classical_lda_oracle(whitening_chain(data, 100.0), 1)
        _, s_w = textbook_scatters(data)
        fisher = np.linalg.solve(s_w, data.class_members(1).mean(0) - data.class_members(2).mean(0))
        angle = np.degrees(np.arccos(min(1.0, overlap(basis.directions[0], fisher))))
        assert angle <= 1e-6

    @pytest.mark.parametrize("source", FISHER_CASES)
    def test_directions_reach_the_generalized_eigenvalues(self, source):
        data = FISHER_CASES[source]()
        basis = classical_lda_oracle(whitening_chain(data, 100.0), data.k - 1)
        assert np.max(np.abs(fisher_over_eigenvalue(data, basis) - 1.0)) <= 1e-9

    def test_isotropic_within_scatter_reduces_to_between_directions(self):
        # deviations +-0.3 e_i around each mean make the within operator exactly
        # isotropic, so whitening is a no-op up to scale
        n = 4
        devs = np.vstack([0.3 * np.eye(n), -0.3 * np.eye(n)])
        mu1 = np.array([1.0, 0.0, 0.0, 0.0])
        samples = np.vstack([mu1 + devs, -mu1 + devs])
        data = LabeledDataset(samples, np.repeat([1, 2], 2 * n))
        basis = classical_lda_oracle(whitening_chain(data, 100.0), 1)
        assert overlap(basis.directions[0], mu1) >= 1.0 - 1e-9

    def test_adversarial_set_beats_pca(self):
        data = adversarial_dataset()
        basis = classical_lda_oracle(whitening_chain(data, 100.0), 1)
        w_pca = pca_direction(data)
        assert overlap(basis.directions[0], np.array([1.0, 0.0])) >= 0.99
        # the principal component is dominated by the noisy axis instead
        assert overlap(w_pca, np.array([0.0, 1.0])) > overlap(w_pca, np.array([1.0, 0.0]))
        assert overlap(w_pca, np.array([0.0, 1.0])) >= 0.9

    def test_takes_the_chain_and_a_direction_count(self):
        assert list(inspect.signature(classical_lda_oracle).parameters) == ["spec", "p"]

    def test_each_stage_function_evaluated_once(self, monkeypatch):
        evaluated = []
        for module in (chain, lda):
            evaluate = module.matrix_function
            monkeypatch.setattr(
                module, "matrix_function",
                lambda a, f, *rest, evaluate=evaluate: evaluated.append(f.name)
                or evaluate(a, f, *rest),
            )
        spec = whitening_chain(load_csv(GOLDEN_CSV), 100.0, 0.1, 8)
        classical_lda_oracle(spec, 2)
        # the oracle's S_B^(1/2) factor serves the back-map too
        assert evaluated == ["inverse-sqrt", "sqrt", "inverse"]

    def test_rank_rejection_reports_achievable_rank(self):
        data = two_class_dataset()
        with pytest.raises(DomainRejection, match="rank 1"):
            classical_lda_oracle(whitening_chain(data, 100.0), 2)


class TestQuantumLda:
    def test_matches_oracle_on_two_classes(self):
        data = two_class_dataset()
        oracle = classical_lda_oracle(whitening_chain(data, 100.0), 1)
        quantum = quantum_lda(whitening_chain(data, 100.0, 0.1, 8), 1, seed=1)
        assert overlap(quantum.directions[0], oracle.directions[0]) >= 0.98

    @pytest.mark.parametrize("source", FISHER_CASES)
    def test_directions_reach_the_generalized_eigenvalues_at_t12(self, source):
        data = FISHER_CASES[source]()
        basis = quantum_lda(whitening_chain(data, 100.0, 0.1, 12), data.k - 1, seed=1)
        assert np.min(fisher_over_eigenvalue(data, basis)) >= 0.9999

    def test_takes_the_chain_a_direction_count_and_a_seed(self):
        assert list(inspect.signature(quantum_lda).parameters) == ["spec", "p", "seed"]

    # each chain once per builder: quantum_lda, and its classical oracle ("oracle-")
    @pytest.mark.parametrize(
        "build, stages",
        [pytest.param(build, stages, id=prefix + name)
         for prefix, build in (("", lambda spec: quantum_lda(spec, 1, seed=1)),
                               ("oracle-", lambda spec: classical_lda_oracle(spec, 1)))
         for name, stages in (("one-stage", ("inverse-sqrt",)),
                              ("swapped", ("sqrt", "inverse-sqrt")),
                              ("inverse-first", ("inverse", "sqrt")),
                              ("three-stages", ("inverse-sqrt", "sqrt", "sqrt")))],
    )
    def test_rejects_a_chain_that_is_not_the_whitening_chain(self, build, stages):
        (sw, _), (sb, _) = whitening_chain(two_class_dataset(), 100.0).stages
        ops = (sw, sb, sb)
        spec = ChainSpec(tuple((a, SpectralFunction.from_name(f)) for a, f in zip(ops, stages)))
        with pytest.raises(DomainRejection,
                           match="needs the whitening chain: inverse-sqrt, then sqrt"):
            build(spec)

    def test_rejects_whitening_stages_of_two_dimensions(self):
        # the chain spec itself rejects a stage whose dimension differs from stage 1's
        (sw, f_w), _ = whitening_chain(two_class_dataset(), 100.0).stages
        with pytest.raises(DomainRejection, match="^chain stages have mismatched dimensions$"):
            ChainSpec(((sw, f_w), (DensityOperator(np.eye(2) / 2.0), lda._SQRT)))

    def test_rank_shortfall_rejected_with_count(self):
        data = two_class_dataset()
        with pytest.raises(DomainRejection, match="only 1 of 2"):
            quantum_lda(whitening_chain(data, 100.0, 0.1, 8), 2, seed=1)

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

    @pytest.mark.parametrize("t, draws", [(4, 4096), (8, 16384), (12, 262144)])
    def test_qpe_draws_at_register_widths(self, t, draws):
        assert lda.qpe_draws(t) == draws

    @pytest.mark.parametrize("t", [6, 8])
    def test_draws_are_the_register_draws_sampling_spent(self, monkeypatch, t):
        spent = []
        sample = lda.sample_eigenpairs
        monkeypatch.setattr(
            lda, "sample_eigenpairs",
            lambda joint, draws, seed: spent.append(draws) or sample(joint, draws, seed=seed),
        )
        data = two_class_dataset()
        basis = quantum_lda(whitening_chain(data, 100.0, 0.1, t), 1, seed=1)
        assert basis.draws == lda.qpe_draws(t) == spent[0]
        assert classical_lda_oracle(whitening_chain(data, 100.0, 0.1, t), 1).draws == 0

    def test_register_width_validated(self):
        data = two_class_dataset()
        with pytest.raises(DomainRejection, match="t="):
            quantum_lda(whitening_chain(data, 100.0, 0.1, 3), 1, seed=0)

    def test_multiclass_directions_match_oracle(self):
        data = three_class_dataset(seed=4)
        oracle = classical_lda_oracle(whitening_chain(data, 100.0), 2)
        quantum = quantum_lda(whitening_chain(data, 100.0, 0.1, 8), 2, seed=4)
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
            joint = args[0]
            vectors = [joint.vectors[:, i] for i in samples.eigenvector_indices]
            monkeypatch.setattr(np.linalg, "eigh", eigh)
            assert len(vectors) > 2
            return samples

        monkeypatch.setattr(lda, "sample_eigenpairs", sample_and_read_every_vector)
        quantum_lda(whitening_chain(three_class_dataset(seed=4), 100.0, 0.1, 8), 2, seed=4)
        assert eigh_shapes == []

    def test_back_map_reuses_the_chain_spectra_after_sampling(self, monkeypatch):
        # the caller's spec keeps S_W and S_B with their spectra, so nothing is
        # diagonalized once the eigenpairs are sampled
        after_sampling = []
        eigh = np.linalg.eigh
        sample = lda.sample_eigenpairs

        def sample_then_count(*args, **kwargs):
            samples = sample(*args, **kwargs)
            monkeypatch.setattr(
                np.linalg, "eigh", lambda *a, **k: after_sampling.append(1) or eigh(*a, **k)
            )
            return samples

        monkeypatch.setattr(lda, "sample_eigenpairs", sample_then_count)
        quantum_lda(whitening_chain(three_class_dataset(seed=4), 100.0, 0.1, 8), 2, seed=4)
        assert after_sampling == []

    def test_highest_qualifying_bin_of_each_eigenvector_kept(self, monkeypatch):
        # t = 8: a bin qualifies with probability >= 2^-8 and frequency >= half of it
        outcomes = [  # (m, eigenvector index, probability, frequency)
            (200, 2, 0.002, 0.002),  # below the 2^-t probability floor
            (180, 0, 0.3, 0.1),  # drawn less than half as often as expected
            (170, 1, 0.3, 0.3),
            (169, 1, 0.4, 0.4),  # index 1 owns a higher bin, but this one is its mode
            (150, 0, 0.2, 0.2),
            (100, 3, 0.1, 0.1),
        ]
        m, index, probability, frequency = (np.array(col) for col in zip(*outcomes))
        record = EigenpairSamples(m, m / 256, frequency, probability, index)
        joints = []
        monkeypatch.setattr(
            lda, "sample_eigenpairs", lambda joint, *a, **k: joints.append(joint) or record
        )
        spec = whitening_chain(three_class_dataset(seed=4), 100.0, 0.1, 8)
        basis = quantum_lda(spec, 2, seed=4)
        gamma, n = 2.0**-8, spec.stages[0][0].dim
        assert np.array_equal(basis.eigenvalue_estimates,
                              [(m / 256 - gamma / n) / (1 - gamma) for m in (169, 150)])
        overlaps = basis.intermediates @ joints[0].vectors[:, [1, 0]]
        assert np.max(np.abs(np.abs(overlaps) - np.eye(2))) < 1e-12
        with pytest.raises(DomainRejection, match="recovered only 3 of 4"):
            quantum_lda(spec, 4, seed=4)

    @pytest.mark.parametrize("t", [8, 12])
    def test_estimates_lie_within_two_bins_of_the_oracle(self, t):
        spec = whitening_chain(load_csv(GOLDEN_CSV), 100.0, 0.1, t)
        quantum = quantum_lda(spec, 2, seed=1).eigenvalue_estimates
        oracle = classical_lda_oracle(spec, 2).eigenvalue_estimates
        assert np.max(np.abs(quantum - oracle)) * 2**t <= 2.0

    def test_back_map_stage_prepared_once_for_all_directions(self, monkeypatch):
        analyzed = []
        decompose = chain.eig_hermitian

        def counted(a):
            analyzed.append(a)
            return decompose(a)

        monkeypatch.setattr(chain, "eig_hermitian", counted)
        data = three_class_dataset(seed=4)
        basis = quantum_lda(whitening_chain(data, 100.0, 0.1, 8), 2, seed=4)
        stats = class_statistics(data)
        sb, sw = between_scatter(stats), within_scatter(data, stats)
        # two whitening stages, then one (S_W, inverse) stage for both directions;
        # the back-map reuses the chain's (S_B, sqrt) stage
        assert len(analyzed) == 3
        assert np.array_equal(analyzed[1].matrix, sb.matrix)
        assert np.array_equal(analyzed[2].matrix, sw.matrix)
        inverse = SpectralFunction.from_name("inverse")
        for v, w in zip(basis.intermediates, basis.directions):
            # the same two stages on the density matrix |v><v|: a rank-one output
            rho = DensityOperator(np.outer(v, v))
            for a, f in ((sb, lda._SQRT), (sw, inverse)):
                rho = prepare_stage(a, f, 8, 100.0, 0.1).apply(rho).state
            assert np.max(np.abs(np.outer(w, w) - rho.matrix)) < 1e-12


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
        basis = classical_lda_oracle(whitening_chain(data, 100.0), 1)
        assert fisher_criterion(data, basis.directions[0]) >= 5.0 * fisher_criterion(
            data, pca_direction(data)
        )

    def test_top_direction_is_the_argmax(self):
        data = three_class_dataset(seed=2)
        basis = classical_lda_oracle(whitening_chain(data, 100.0), 1)
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

    def test_directions_of_three_axes_rejected(self):
        with pytest.raises(DomainRejection, match=r"got shape \(1, 4, 1\)"):
            fisher_criterion(two_class_dataset(), np.ones((1, 4, 1)))


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
        basis = classical_lda_oracle(whitening_chain(data, 100.0), 1)
        out = project(data, basis)
        one = out.samples[out.labels == 1, 0]
        two = out.samples[out.labels == 2, 0]
        gap = abs(one.mean() - two.mean())
        pooled_std = np.sqrt((one.std() ** 2 + two.std() ** 2) / 2.0)
        assert gap >= 4.0 * pooled_std

    def test_scalar_consistency_of_projected_criterion(self):
        data = two_class_dataset()
        basis = classical_lda_oracle(whitening_chain(data, 100.0), 1)
        j_original = fisher_criterion(data, basis.directions[0])
        reduced = project(data, basis)
        j_reduced = fisher_criterion(reduced, np.array([1.0]))
        assert j_reduced == pytest.approx(j_original, rel=1e-9)


class TestFeatureMap:
    def test_degree_one_is_identity(self):
        # up to the one scale of the map, the samples' largest |entry|
        data = two_class_dataset(per_class=5)
        out = feature_map(data, 1)
        assert np.allclose(out.samples, data.samples / np.max(np.abs(data.samples)))

    def test_degree_two_monomial_count_and_values(self):
        data = LabeledDataset(np.array([[2.0, 3.0], [1.0, 1.0]]), np.array([1, 2]))
        out = feature_map(data, 2)
        assert out.N == 5
        assert out.feature_names == ("x1", "x2", "x1*x1", "x1*x2", "x2*x2")
        # the row [2, 3] over the largest entry 3
        assert np.allclose(out.samples[0], [2 / 3, 1.0, 4 / 9, 2 / 3, 1.0])

    @pytest.mark.parametrize("degree", [2, 3])
    @pytest.mark.parametrize("preset", ["two-gauss", "three-gauss", "adversarial"])
    def test_fisher_value_does_not_depend_on_the_data_units(self, preset, degree):
        # 1e110 cubed would overflow float64 in data units; 2**100 is an exact rescale
        data = synthetic_preset(preset, seed=0)

        def top_fisher(scale):
            mapped = feature_map(LabeledDataset(scale * data.samples, data.labels), degree)
            basis = classical_lda_oracle(whitening_chain(mapped, 100.0), 1)
            return fisher_criterion(mapped, basis.directions[0])

        values = {scale: top_fisher(scale) for scale in (1.0, 3.0, 1e60, 1e-60, 2.0**100, 1e110)}
        for scale, value in values.items():
            assert value == pytest.approx(values[1.0], rel=1e-9), scale
        assert values[2.0**100] == values[1.0]

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
            circles, classical_lda_oracle(whitening_chain(circles, 100.0), 1).directions[0]
        )
        mapped = feature_map(circles, 2)
        j_mapped = fisher_criterion(
            mapped, classical_lda_oracle(whitening_chain(mapped, 100.0), 1).directions[0]
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
        data = three_class_dataset(seed=6)
        stats = class_statistics(data)
        s_b, s_w = textbook_scatters(data)
        # the totals are taken in the frame of 2**exponent
        norm_between, norm_within = np.ldexp([stats.norm_between, stats.norm_within],
                                             2 * stats.exponent)
        assert np.max(np.abs(norm_between * between_scatter(stats).matrix - s_b)) < 1e-9
        assert np.max(np.abs(norm_within * within_scatter(data, stats).matrix - s_w)) < 1e-9

    def test_dataset_criterion_is_the_textbook_ratio(self):
        data = three_class_dataset(seed=6)
        w = np.array([0.3, -1.0, 0.4, 0.2])
        assert fisher_criterion(data, w) == pytest.approx(
            fisher_ratio(*textbook_scatters(data), w), rel=1e-12
        )


def _complex_whitening_chain() -> ChainSpec:
    s_w = DensityOperator(np.array([[2, 1j], [-1j, 1]]) / 3)
    s_b = DensityOperator(np.array([[1, -0.5j], [0.5j, 1]]) / 2)
    return ChainSpec(((s_w, SpectralFunction.from_name("inverse-sqrt")),
                      (s_b, SpectralFunction.from_name("sqrt"))), 100.0)


_DATA4 = LabeledDataset(np.array([[0.0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]),
                        np.array([1, 1, 2, 2]))
_E3 = np.eye(3)[:1]


@pytest.mark.parametrize("build, kind, message", [
    (lambda: ProjectionBasis(np.ones((1, 3)) / np.sqrt(3), np.eye(2)[:1], [1.0]),
     DomainRejection, "projection basis fields disagree in shape"),
    (lambda: ProjectionBasis(np.eye(2), np.array([[1.0, 0.0], [1.0, 0.0]]), [1.0, 0.5]),
     DomainRejection, "intermediate vectors are not orthonormal"),
    (lambda: ProjectionBasis(2 * np.eye(2), np.eye(2), [1.0, 0.5]),
     DomainRejection, "discriminant directions are not unit vectors"),
    (lambda: classical_lda_oracle(_complex_whitening_chain(), 1),
     NumericalFailure, "expected a real vector from real-valued data"),
    (lambda: fisher_criterion(_DATA4, np.ones(3)),
     DomainRejection, "direction dimension 3 does not match scatter dimension 4"),
    (lambda: project(_DATA4, ProjectionBasis(_E3, _E3, [1.0])),
     DomainRejection, "direction dimension 3 does not match data dimension 4"),
], ids=["basis-shapes", "basis-intermediates", "basis-directions", "complex-chain",
        "fisher-dimension", "project-dimension"])
def test_lda_rejection(build, kind, message):
    with pytest.raises(kind) as info:
        build()
    assert str(info.value) == message
