"""Covariance-discriminant classification: model fitting, inversion paths,
discriminant values, and argmax decisions against a from-scratch oracle."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qdasim import chain, qda
from qdasim.errors import DomainRejection
from qdasim.oracle import LabeledDataset
from qdasim.qda import classify_many, fit, invert_apply
from qdasim.qsim import overlap_test_signed

E1 = np.array([1.0, 0.0, 0.0, 0.0])


def gauss3(seed=0, per_class=40, sigma=0.7):
    rng = np.random.default_rng(seed)
    means = np.array(
        [[2.5, 0.0, 0.0, 0.0], [-2.5, 0.5, 0.0, 0.0], [0.0, 2.5, 0.0, 0.0]]
    )
    samples, labels = [], []
    for c in range(3):
        samples.append(means[c] + sigma * rng.standard_normal((per_class, 4)))
        labels.extend([c + 1] * per_class)
    return LabeledDataset(np.vstack(samples), np.array(labels)), means


def isotropic_two_class(scale_target=1.0):
    """Two symmetric classes whose statistical covariance is exactly
    scale_target * identity (deviation pattern +-a e_i, a^2 = 7/8 * scale)."""
    n = 4
    a = np.sqrt(scale_target * (2 * n - 1) / 2.0)
    devs = np.vstack([a * np.eye(n), -a * np.eye(n)])
    mu = np.array([2.0, 0.0, 0.0, 0.0])
    samples = np.vstack([mu + devs, -mu + devs])
    return LabeledDataset(samples, np.repeat([1, 2], 2 * n)), mu


def oracle_discriminants(data: LabeledDataset, x: np.ndarray) -> np.ndarray:
    """From-scratch dense reference: no shared code with the package paths."""
    values = []
    for c in range(1, data.k + 1):
        members = data.samples[data.labels == c]
        mu = members.mean(axis=0)
        centered = members - mu
        cov = centered.T @ centered / (len(members) - 1)
        icov = np.linalg.inv(cov)
        values.append(
            float(x @ icov @ mu - 0.5 * mu @ icov @ mu + np.log(len(members) / data.M))
        )
    return np.array(values)


class TestFit:
    def test_balanced_priors(self):
        data, _ = gauss3()
        model = fit(data, 100.0)
        assert np.allclose(model.priors, [1 / 3, 1 / 3, 1 / 3])
        assert np.sum(model.priors) == pytest.approx(1.0)

    def test_two_sample_class_covariance_scale(self):
        # deviations +-e1: statistical covariance 2 e1 e1^T, unit-trace
        # operator |e1><e1| with scale 2
        mu = np.array([3.0, 1.0, 0.0, 0.0])
        samples = np.vstack([mu + E1, mu - E1, -mu + E1, -mu - E1])
        data = LabeledDataset(samples, np.array([1, 1, 2, 2]))
        model = fit(data, 100.0)
        assert model.covariance_scales[0] == pytest.approx(2.0)
        assert np.allclose(model.covariance_ops[0].matrix, np.outer(E1, E1))

    def test_scale_bridges_to_statistical_covariance_50_seeds(self):
        for seed in range(50):
            data, _ = gauss3(seed=seed, per_class=12)
            model = fit(data, 100.0)
            for c in range(1, 4):
                members = data.class_members(c)
                mu = members.mean(axis=0)
                centered = members - mu
                cov = centered.T @ centered / (len(members) - 1)
                rebuilt = model.covariance_scales[c - 1] * model.covariance_ops[c - 1].matrix
                assert np.max(np.abs(rebuilt - cov)) < 1e-9

    def test_undersized_class_rejected_by_name(self):
        data = LabeledDataset(
            np.vstack([np.eye(2), [[5.0, 5.0]]]), np.array([1, 1, 2])
        )
        with pytest.raises(DomainRejection, match=r"\[2\]"):
            fit(data, 100.0)


class TestSharedCovarianceFit:
    def test_pooled_inverse_computed_once_with_same_bits(self, monkeypatch):
        data, _ = gauss3(seed=6, per_class=15)
        calls = []
        inverse = qda.matrix_function
        monkeypatch.setattr(
            qda, "matrix_function", lambda *args: calls.append(args) or inverse(*args)
        )
        model = fit(data, 100.0, shared_covariance=True)
        assert len(calls) == 1
        pooled = model.covariance_ops[0]
        assert all(op is pooled for op in model.covariance_ops)
        for c in range(1, 4):
            inv = inverse(pooled, qda._INV, 100.0).matrix
            direction, norm = qda._invert_mean(
                inv, float(model.covariance_scales[c - 1]), model.class_means[c - 1]
            )
            assert np.array_equal(direction, model.inverse_directions[c - 1])
            assert norm == model.inverse_norms[c - 1]


class TestInvertApply:
    def test_isotropic_covariance_keeps_mean_direction(self):
        data, mu = isotropic_two_class()
        model = fit(data, 100.0)
        direction, _ = invert_apply(model, "classical")[0]
        assert abs(np.dot(direction, mu / np.linalg.norm(mu))) == pytest.approx(1.0)

    def test_diagonal_covariance_reweights_mean(self):
        # statistical covariance diag(1, 1/2): inverse applied to (1,1)/sqrt(2)
        # points along (1, 2)/sqrt(5)
        a = np.sqrt(3.0 / 2.0)
        b = np.sqrt(3.0 / 4.0)
        devs = np.vstack(
            [a * np.eye(2)[:1], -a * np.eye(2)[:1], b * np.eye(2)[1:], -b * np.eye(2)[1:]]
        )
        mu = np.array([1.0, 1.0]) / np.sqrt(2.0)
        samples = np.vstack([mu + devs, -mu + devs])
        data = LabeledDataset(samples, np.repeat([1, 2], 4))
        model = fit(data, 100.0)
        assert np.allclose(
            model.covariance_scales[0] * model.covariance_ops[0].matrix,
            np.diag([1.0, 0.5]),
            atol=1e-12,
        )
        direction, norm = invert_apply(model, "classical")[0]
        expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert np.allclose(direction, expected)
        assert norm == pytest.approx(np.linalg.norm([1.0, 2.0]) / np.sqrt(2.0))

    def test_quantum_path_matches_classical_20_seeds(self):
        for seed in range(20):
            data, _ = gauss3(seed=seed, per_class=15)
            model = fit(data, 100.0)
            inverted = zip(invert_apply(model, "classical"), invert_apply(model, "quantum", t=8))
            for (vc, nc), (vq, nq) in inverted:
                assert abs(np.dot(vc, vq)) >= 0.99
                assert nq == nc  # quantum path reuses the recorded norm


class TestDiscriminant:
    def test_identity_covariance_closed_form(self):
        data, mu = isotropic_two_class()
        model = fit(data, 100.0)
        x = np.array([1.0, 0.5, 0.0, 0.0])
        value = classify_many(model, [x], "classical").discriminants[0, 0]
        expected = float(x @ mu - 0.5 * mu @ mu) + np.log(0.5)
        assert value == pytest.approx(expected)

    def test_query_at_class_mean(self):
        data, mu = isotropic_two_class()
        model = fit(data, 100.0)
        value = classify_many(model, [mu], "classical").discriminants[0, 0]
        assert value == pytest.approx(0.5 * float(mu @ mu) + np.log(0.5))

    def test_query_at_half_mean_leaves_only_prior(self):
        data, mu = isotropic_two_class()
        model = fit(data, 100.0)
        value = classify_many(model, [0.5 * mu], "classical").discriminants[0, 0]
        assert value == pytest.approx(np.log(0.5))

    def test_linear_prior_variant(self):
        data, mu = isotropic_two_class()
        model = fit(data, 100.0)
        log_v = classify_many(model, [mu], "classical", prior_mode="log").discriminants[0, 0]
        lin_v = classify_many(model, [mu], "classical", prior_mode="linear").discriminants[0, 0]
        assert lin_v - log_v == pytest.approx(0.5 - np.log(0.5))

    def test_shot_estimates_within_three_standard_errors(self):
        data, _ = gauss3()
        model = fit(data, 100.0)
        x = np.array([1.0, 0.4, -0.2, 0.1])
        hits = 0
        trials = 1000
        c = 1
        classical = classify_many(model, [x], "classical").discriminants[0, c - 1]
        # row i is seeded 0 + i, so the batch replays trials 0..999
        batch = classify_many(model, np.tile(x, (trials, 1)), "quantum", shots=512, seed=0)
        direction, inv_norm = invert_apply(model, "classical")[c - 1]
        shifted = x - 0.5 * model.class_means[c - 1]
        shifted_norm = np.linalg.norm(shifted)
        seeds = [np.random.SeedSequence([seed, c]) for seed in range(trials)]
        probe = overlap_test_signed(
            direction, np.tile(shifted / shifted_norm, (trials, 1)), 512, seeds
        )
        for quantum, standard_error in zip(batch.discriminants[:, c - 1], probe.standard_error):
            scale = inv_norm * shifted_norm
            if abs(quantum - classical) <= 3.0 * scale * standard_error:
                hits += 1
        assert hits / trials >= 0.99

    def test_shot_noise_shrinks_with_sqrt_shots(self):
        data, _ = gauss3()
        model = fit(data, 100.0)
        x = np.array([1.0, 0.4, -0.2, 0.1])
        stds = {}
        for shots in (512, 1024):
            batch = classify_many(model, np.tile(x, (50, 1)), "quantum", shots=shots, seed=2000)
            stds[shots] = np.std(batch.discriminants[:, 0])
        assert 1.25 <= stds[512] / stds[1024] <= 1.6


class TestClassify:
    def test_query_at_class_mean_chooses_that_class(self):
        data, mu = isotropic_two_class()
        model = fit(data, 100.0)
        results = classify_many(model, [mu, -mu], "classical")
        assert results.decisions.tolist() == [1, 2]

    def test_equidistant_query_ties_to_class_one(self):
        data, _ = isotropic_two_class()
        model = fit(data, 100.0)
        result = classify_many(model, np.zeros((1, 4)), "classical")
        assert result.decisions[0] == 1
        assert result.margins[0] == pytest.approx(0.0, abs=1e-12)

    def test_classical_path_reproduces_oracle_decisions(self):
        data, means = gauss3()
        model = fit(data, 100.0)
        rng = np.random.default_rng(99)
        queries = []
        for _ in range(200):
            c_true = int(rng.integers(1, 4))
            queries.append(means[c_true - 1] + 0.8 * rng.standard_normal(4))
        result = classify_many(model, queries, "classical")
        for x, chosen, values in zip(queries, result.decisions, result.discriminants):
            oracle = oracle_discriminants(data, x)
            assert chosen == int(np.argmax(oracle)) + 1
            assert np.allclose(values, oracle, atol=1e-9)

    def test_quantum_path_agreement(self):
        data, means = gauss3()
        model = fit(data, 100.0)
        queries = []
        for i in range(100):
            rng = np.random.default_rng(5000 + i)
            c_true = int(rng.integers(1, 4))
            queries.append(means[c_true - 1] + 0.8 * rng.standard_normal(4))
        results = classify_many(model, queries, "quantum", shots=8192, seed=5000)
        agree = sum(
            chosen == int(np.argmax(oracle_discriminants(data, x))) + 1
            for x, chosen in zip(queries, results.decisions)
        )
        assert agree / 100 >= 0.95

    def test_argmax_invariant_under_constant_shift(self):
        data, means = gauss3()
        model = fit(data, 100.0)
        result = classify_many(model, [means[2] * 0.9], "classical")
        shifted = result.discriminants[0] + 123.456
        assert int(np.argmax(shifted)) + 1 == result.decisions[0]


class TestClassifyMany:
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("path", ["quantum", "classical"])
    def test_rows_match_per_query_classify_bitwise(self, monkeypatch, path, shared):
        data, means = gauss3(seed=2, per_class=20)
        model = fit(data, 100.0, shared_covariance=shared)
        rng = np.random.default_rng(3)
        queries = means[rng.integers(0, 3, size=12)] + 0.8 * rng.standard_normal((12, 4))
        expected = [
            classify_many(model, [x], path, shots=256, seed=40 + i, t=8)
            for i, x in enumerate(queries)
        ]
        calls = []
        invert = qda.invert_apply
        monkeypatch.setattr(
            qda, "invert_apply", lambda *args: calls.append(args) or invert(*args)
        )
        results = classify_many(model, queries, path, shots=256, seed=40, t=8)
        assert len(calls) == 1
        assert len(results.decisions) == len(queries)
        for i, want in enumerate(expected):
            assert np.array_equal(results.discriminants[i], want.discriminants[0])
            assert (results.decisions[i], results.margins[i]) == (
                want.decisions[0], want.margins[0]
            )

    @pytest.mark.parametrize("shared, stages", [(True, 1), (False, 3)])
    def test_one_stage_prepared_per_distinct_operator(self, monkeypatch, shared, stages):
        data, means = gauss3(seed=2, per_class=20)
        model = fit(data, 100.0, shared_covariance=shared)
        analyses = []
        rotate = chain.rotation_amplitudes
        monkeypatch.setattr(
            chain, "rotation_amplitudes",
            lambda *args, **kwargs: analyses.append(args) or rotate(*args, **kwargs),
        )
        classify_many(model, means, "quantum", shots=64, seed=5, t=8)
        assert len(analyses) == stages

    def test_unseeded_rows_stay_unseeded(self, monkeypatch):
        data, means = gauss3(seed=2, per_class=20)
        model = fit(data, 100.0)
        seeds = []
        overlap = qda.overlap_test_signed
        monkeypatch.setattr(
            qda, "overlap_test_signed",
            lambda a, rows, shots, row_seeds: seeds.extend(row_seeds) or overlap(
                a, rows, shots, row_seeds
            ),
        )
        classify_many(model, means, "quantum", shots=64, seed=None)
        assert seeds == [None] * 9

    @pytest.mark.parametrize("shared", [False, True])
    def test_one_overlap_test_per_class_over_all_rows(self, monkeypatch, shared):
        data, means = gauss3(seed=2, per_class=20)
        model = fit(data, 100.0, shared_covariance=shared)
        rows = []
        overlap = qda.overlap_test_signed
        monkeypatch.setattr(
            qda, "overlap_test_signed",
            lambda a, batch, shots, seeds: rows.append(len(batch)) or overlap(
                a, batch, shots, seeds
            ),
        )
        classify_many(model, np.tile(means, (4, 1)), "quantum", shots=64, seed=5, t=8)
        assert rows == [12] * model.k

    def test_zero_shifted_row_scores_zero_without_a_draw(self, monkeypatch):
        data, means = gauss3(seed=2, per_class=20)
        model = fit(data, 100.0)
        queries = means + 0.8 * np.random.default_rng(7).standard_normal((3, 4))
        queries[1] = 0.5 * model.class_means[2]  # class 3's shifted vector is zero
        rows = []
        overlap = qda.overlap_test_signed
        monkeypatch.setattr(
            qda, "overlap_test_signed",
            lambda a, batch, shots, seeds: rows.append(len(batch)) or overlap(
                a, batch, shots, seeds
            ),
        )
        result = classify_many(model, queries, "quantum", shots=256, seed=40, t=8)
        assert rows == [3, 3, 2]
        assert result.draws == 8
        assert result.discriminants[1, 2] == math.log(model.priors[2])  # the prior alone
        for i, x in enumerate(queries):
            alone = classify_many(model, [x], "quantum", shots=256, seed=40 + i, t=8)
            assert np.array_equal(result.discriminants[i], alone.discriminants[0])

    def test_ties_decide_for_lowest_class_index(self):
        data, means = gauss3(seed=2, per_class=20)
        twin = data.samples[data.labels == 2]
        # classes 2 and 3 hold the same samples, so they score alike bit for bit
        tied = LabeledDataset(
            np.vstack([data.samples[data.labels == 1], twin, twin]), np.repeat([1, 2, 3], 20)
        )
        result = classify_many(fit(tied, 100.0), [means[1], means[0]], "classical")
        assert result.discriminants[0, 1] == result.discriminants[0, 2]
        assert result.decisions.tolist() == [2, 1]
        assert result.margins[0] == 0.0 < result.margins[1]

    @pytest.mark.parametrize("path", ["classical", "quantum"])
    def test_single_class_margin_is_infinite(self, path):
        data, means = gauss3(seed=2, per_class=20)
        one = LabeledDataset(data.samples[data.labels == 1], np.ones(20, dtype=int))
        result = classify_many(fit(one, 100.0), means, path, shots=64, seed=3, t=8)
        assert result.discriminants.shape == (3, 1)
        assert result.decisions.tolist() == [1, 1, 1]
        assert np.all(result.margins == np.inf)

    def test_bad_query_rejected(self):
        data, means = gauss3(seed=2, per_class=20)
        model = fit(data, 100.0)
        with pytest.raises(DomainRejection, match="non-finite"):
            classify_many(model, np.vstack([means[0], [np.nan] * 4]))
        with pytest.raises(DomainRejection, match="query dimension 3"):
            classify_many(model, np.zeros((2, 3)))
        with pytest.raises(DomainRejection, match=r"shape \(4,\)"):
            classify_many(model, means[0])
        with pytest.raises(DomainRejection, match="prior mode"):
            classify_many(model, means, prior_mode="uniform")
        with pytest.raises(DomainRejection, match="unknown path"):
            classify_many(model, means, "hybrid")


class TestLdaClassify:
    """Linear-discriminant decisions: ``classify_many`` over a shared-covariance model."""

    def test_matches_qda_under_equal_class_covariances(self):
        # identical deviation patterns per class: per-class and pooled
        # covariances coincide, so both pipelines score alike
        rng = np.random.default_rng(11)
        base = rng.standard_normal((30, 4))
        base -= base.mean(axis=0)
        means = np.array([[2.0, 0, 0, 0], [-2.0, 0.5, 0, 0]])
        samples = np.vstack([means[0] + base, means[1] + base])
        data = LabeledDataset(samples, np.repeat([1, 2], 30))
        qda_model = fit(data, 100.0)
        lda_model = fit(data, 100.0, shared_covariance=True)
        queries = [
            means[i % 2] + 0.9 * np.random.default_rng(i).standard_normal(4) for i in range(100)
        ]
        a = classify_many(qda_model, queries, "classical")
        b = classify_many(lda_model, queries, "classical")
        agree = int(np.sum(a.decisions == b.decisions))
        assert agree / 100 >= 0.98

    def test_isotropic_shared_covariance_is_nearest_mean(self):
        data, mu = isotropic_two_class()
        model = fit(data, 100.0, shared_covariance=True)
        rng = np.random.default_rng(4)
        queries = [3.0 * rng.standard_normal(4) for _ in range(50)]
        for x, decided in zip(queries, classify_many(model, queries, "classical").decisions):
            nearest = 1 if np.linalg.norm(x - mu) <= np.linalg.norm(x + mu) else 2
            assert decided == nearest

    def test_global_mean_query_has_zero_margin(self):
        data, _ = isotropic_two_class()
        model = fit(data, 100.0, shared_covariance=True)
        result = classify_many(model, np.zeros((1, 4)), "classical")
        assert result.margins[0] == pytest.approx(0.0, abs=1e-12)


class TestResultInvariants:
    def test_priors_logs_finite(self):
        data, _ = gauss3(per_class=3)
        model = fit(data, 100.0)
        assert np.all(np.isfinite(np.log(model.priors)))
