"""Simulation primitives: swap-interaction step, phase estimation, register
sampling, shot-based overlap tests, and postselection."""
from __future__ import annotations

import numpy as np
import pytest

from qdasim.errors import DomainRejection, NumericalFailure
from qdasim.linalg import DensityOperator, trace_distance
from qdasim.lda import qpe_draws
from qdasim.qsim import (
    POSTSELECT_FLOOR,
    _register_weights,
    density_exponentiation_step,
    overlap_test_signed,
    phase_estimation,
    postselect_ancilla,
    sample_eigenpairs,
)

from conftest import (
    one_expression_profiles,
    random_density,
    random_density_spectrum,
    random_unit_vector,
    traced_peak,
)


def exact_conjugation(a: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    u = (v * np.exp(-1j * w * dt)) @ v.conj().T
    return u @ b @ u.conj().T


class TestDensityExponentiationStep:
    def test_maximally_mixed_generator_leaves_target(self):
        rng = np.random.default_rng(0)
        target = random_density(rng, 4)
        gen = DensityOperator(np.eye(4) / 4.0)
        out = density_exponentiation_step(gen, target, 3e-7)
        assert np.max(np.abs(out.matrix - target.matrix)) < 1e-12

    def test_commuting_diagonal_pair(self):
        gen = DensityOperator(np.diag([0.7, 0.3]))
        target = DensityOperator(np.diag([0.2, 0.8]))
        out = density_exponentiation_step(gen, target, 3e-7)
        assert np.max(np.abs(out.matrix - target.matrix)) < 1e-12

    def test_quadratic_error_measured_by_halving(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        gen = DensityOperator(np.outer(plus, plus))
        target = DensityOperator(np.diag([1.0, 0.0]))

        def deviation(dt):
            out = density_exponentiation_step(gen, target, dt)
            return np.max(np.abs(out.matrix - exact_conjugation(gen.matrix, target.matrix, dt)))

        d1, d2 = deviation(0.01), deviation(0.005)
        assert d1 < 1e-3
        assert 3.5 <= d1 / d2 <= 4.5

    def test_quadratic_error_signature_20_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            gen = random_density(rng, 4)
            target = random_density(rng, 4)

            def deviation(dt):
                out = density_exponentiation_step(gen, target, dt)
                return np.max(
                    np.abs(out.matrix - exact_conjugation(gen.matrix, target.matrix, dt))
                )

            assert deviation(0.02) / deviation(0.01) >= 3.5

    def test_rejections(self):
        a = DensityOperator(np.eye(2) / 2.0)
        b = DensityOperator(np.eye(3) / 3.0)
        with pytest.raises(DomainRejection, match="dimension"):
            density_exponentiation_step(a, b, 0.1)
        with pytest.raises(DomainRejection, match="dt"):
            density_exponentiation_step(a, a, 1.5)


class TestPhaseEstimation:
    def test_representable_eigenvalue_reads_exactly(self):
        gen = DensityOperator(np.diag([0.25, 0.75]))
        inp = DensityOperator(np.diag([0.0, 1.0]))
        joint = phase_estimation(gen, inp, 2)
        marginal = joint.register_marginal()
        # 0.75 in two bits is .11, register value 3
        assert marginal[3] == pytest.approx(1.0, abs=1e-12)

    def test_uniform_mixture_splits_evenly(self):
        gen = DensityOperator(np.diag([0.25, 0.75]))
        joint = phase_estimation(gen, DensityOperator(np.eye(2) / 2.0), 2)
        marginal = joint.register_marginal()
        assert marginal[1] == pytest.approx(0.5, abs=1e-12)
        assert marginal[3] == pytest.approx(0.5, abs=1e-12)

    def test_unrepresentable_eigenvalue_concentrates(self):
        gen = DensityOperator(np.diag([0.3, 0.7]))
        inp = DensityOperator(np.diag([1.0, 0.0]))
        joint = phase_estimation(gen, inp, 8)
        marginal = joint.register_marginal()
        near = np.abs(np.arange(256) / 256.0 - 0.3) <= 2.0**-8
        assert marginal[near].sum() >= 0.8

    def test_register_width_rejected(self):
        gen = DensityOperator(np.eye(2) / 2.0)
        with pytest.raises(DomainRejection, match="register width"):
            phase_estimation(gen, gen, 1)
        with pytest.raises(DomainRejection, match="register width"):
            phase_estimation(gen, gen, 13)

    def test_unit_eigenvalue_rejected_with_rescaling_hint(self):
        pure = DensityOperator(np.diag([1.0, 0.0]))
        with pytest.raises(DomainRejection, match="rescale"):
            phase_estimation(pure, pure, 4)

    def test_exact_path_deterministic_on_grid_spectra(self):
        # random rotations of unit-trace spectra drawn exactly on the t-bit grid
        for seed in range(10):
            rng = np.random.default_rng(seed)
            t = int(rng.integers(3, 9))
            big_t = 1 << t
            n = 4
            while True:
                cuts = np.sort(rng.choice(np.arange(1, big_t), size=n - 1, replace=False))
                parts = np.diff(np.concatenate([[0], cuts, [big_t]]))
                if np.all(parts > 0) and np.all(parts < big_t):
                    break
            grid_vals = parts / big_t  # sums to 1, every value on the grid
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            gen = DensityOperator((q * grid_vals) @ q.T)
            joint = phase_estimation(gen, gen, t)
            marginal = joint.register_marginal()
            bins = np.unique((grid_vals * big_t).astype(int))
            assert marginal[bins].sum() == pytest.approx(1.0, abs=1e-9)

    def test_simulated_path_high_fidelity_at_64_slices(self):
        # spectrum exactly on the 4-bit grid (sums to 1), input on one eigenvector
        t = 4
        gen = DensityOperator(np.diag([1 / 16, 3 / 16, 5 / 16, 7 / 16]))
        inp = DensityOperator(np.diag([0.0, 0.0, 0.0, 1.0]))
        exact = phase_estimation(gen, inp, t).register_marginal()
        sim = phase_estimation(gen, inp, t, steps=64).register_marginal()
        assert exact[7] == pytest.approx(1.0, abs=1e-12)
        assert sim[7] >= 0.99

    def test_simulated_path_improves_with_steps(self):
        gen = DensityOperator(np.diag([1 / 8, 3 / 8, 4 / 8]))
        inp = DensityOperator(np.diag([0.0, 1.0, 0.0]))
        errs = []
        for steps in (16, 64, 256):
            marginal = phase_estimation(gen, inp, 5, steps=steps)
            errs.append(1.0 - marginal.register_marginal()[12])
        assert errs[0] > errs[1] > errs[2]

    def test_min_slice_count_enforced(self):
        gen = DensityOperator(np.diag([0.25, 0.75]))
        with pytest.raises(DomainRejection, match="slices"):
            phase_estimation(gen, gen, 4, steps=2)


class TestRegisterProfiles:
    @pytest.mark.parametrize("t", range(2, 13))
    def test_row_blocks_equal_one_expression(self, t):
        rng = np.random.default_rng(t)
        big_t = 1 << t
        values = np.arange(big_t)
        for n in (1, 15, 16, 17, 300):
            phases = rng.uniform(0.0, 1.0, n)
            # exact bin centres, where den = 0 at their own bin, the top one included
            centres = [1.0 - 2.0**-t, 0.0, 1.0 / big_t, 0.5]
            phases[: len(centres)] = centres[:n]
            weights = _register_weights(phases, t, values)
            assert weights.dtype == np.float64
            reference = np.abs(one_expression_profiles(phases, t)) ** 2
            assert np.max(np.abs(weights - reference)) <= 1e-15
            own_bins = np.rint(np.asarray(centres[:n]) * big_t).astype(int)
            assert np.all(weights[np.arange(own_bins.size), own_bins] == 1.0)
            subset = rng.choice(big_t, size=min(big_t, 7), replace=False)
            assert np.array_equal(_register_weights(phases, t, subset), weights[:, subset])

    def test_phase_estimation_peak_memory_is_near_its_result(self):
        # no call builds an (N, 2^t) array: that alone would be 8 MiB here
        rng = np.random.default_rng(6)
        gen = random_density_spectrum(rng, 256)
        joint, peak = traced_peak(phase_estimation, gen, gen, 12)
        assert peak <= 4 << 20
        _, peak = traced_peak(joint.register_marginal)
        assert peak <= 4 << 20
        _, peak = traced_peak(sample_eigenpairs, joint, 4096, seed=1)
        assert peak <= 4 << 20


def clustered_generator(rng, n: int) -> DensityOperator:
    """Real unit-trace generator shaped like a reduce chain output: two large
    eigenvalues, two clusters of eigenvalues closer together than one t=12
    register bin, and a floor of nearly equal small eigenvalues."""
    w = np.concatenate(
        [
            [0.40, 0.25],
            0.02 + 1e-6 * rng.standard_normal(6),
            0.01 + 2.0**-14 * rng.uniform(-1.0, 1.0, 8),
        ]
    )
    floor = (1.0 - w.sum()) / (n - w.size)
    w = np.concatenate([w, floor * (1.0 + 1e-3 * rng.standard_normal(n - w.size))])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return DensityOperator((q * (w / w.sum())) @ q.T)


def dense_table_samples(joint, draws: int, seed):
    """Reference sampling rule over the materialized (N, 2^t) table |a_l(m)|^2:
    the marginal, the multinomial draw, and the column argmax_l beta_ll |a_l(m)|^2."""
    table = np.abs(one_expression_profiles(joint.phases, joint.t)) ** 2
    populations = np.real(np.diag(joint.beta))
    weights = np.maximum(populations @ table, 0.0)
    counts = np.random.default_rng(seed).multinomial(draws, weights / weights.sum())
    samples = [
        (int(m), counts[m] / draws, joint.vectors[:, np.argmax(populations * table[:, m])])
        for m in np.nonzero(counts)[0]
        if weights[m] > POSTSELECT_FLOOR
    ]
    return weights, samples


def two_pass_samples(joint, draws: int, seed):
    """Reference sampling rule in two streamed passes: the register marginal,
    the multinomial draw, then the Fejer weights of the drawn outcomes again,
    in column blocks, for the column argmax_l beta_ll |a_l(m)|^2."""
    populations = np.real(np.diag(joint.beta))
    weights = joint.register_marginal()
    counts = np.random.default_rng(seed).multinomial(draws, weights / weights.sum())
    drawn = np.nonzero((counts > 0) & (weights > POSTSELECT_FLOOR))[0]
    width = max(1, (1 << 16) // populations.size)
    tops = []
    for lo in range(0, drawn.size, width):
        w = _register_weights(joint.phases, joint.t, drawn[lo : lo + width])
        tops.extend(np.argmax(populations[:, None] * w, axis=0))
    return [
        (int(m), counts[m] / draws, joint.vectors[:, top])
        for m, top in zip(drawn, tops)
    ]


class TestStreamedRegisterAtBenchmarkScale:
    @pytest.mark.parametrize("n, t, seed", [(256, 12, 3), (256, 12, 8), (5, 6, 1), (12, 9, 2)])
    def test_one_pass_samples_match_two_pass_reference_bitwise(self, n, t, seed):
        gen = clustered_generator(np.random.default_rng(n + t), n) if n > 16 else (
            random_density_spectrum(np.random.default_rng(n + t), n, 0.1, 1.0)
        )
        joint = phase_estimation(gen, gen, t)
        draws = qpe_draws(t)
        reference = two_pass_samples(joint, draws, seed)
        samples = sample_eigenpairs(joint, draws, seed=seed)
        assert samples.register_values.size == len(reference) > 1
        outcomes = zip(samples.register_values, samples.frequencies, samples.eigenvector_indices)
        for (m_s, f_s, l_s), (m, frequency, vector) in zip(
            outcomes, sorted(reference, key=lambda r: -r[0])
        ):
            assert (m_s, f_s) == (m, frequency)
            assert np.array_equal(joint.vectors[:, l_s], vector)

    def test_streamed_marginal_and_samples_match_dense_table(self):
        gen = clustered_generator(np.random.default_rng(21), 256)
        joint = phase_estimation(gen, gen, 12)
        weights, reference = dense_table_samples(joint, qpe_draws(12), seed=3)
        assert np.max(np.abs(joint.register_marginal() - weights)) <= 1e-15
        samples = sample_eigenpairs(joint, qpe_draws(12), seed=3)
        assert samples.register_values.size == len(reference) > 10
        reference.sort(key=lambda r: -r[0])  # samples come by descending eigenvalue
        outcomes = zip(samples.register_values, samples.frequencies, samples.eigenvector_indices)
        for (m_s, f_s, l_s), (m, frequency, column) in zip(outcomes, reference):
            assert (m_s, f_s) == (m, frequency)
            assert np.array_equal(joint.vectors[:, l_s], column)


class TestSampleEigenpairs:
    def test_deterministic_single_outcome(self):
        gen = DensityOperator(np.diag([0.25, 0.75]))
        inp = DensityOperator(np.diag([1.0, 0.0]))
        samples = sample_eigenpairs(phase_estimation(gen, inp, 4), 500, seed=0)
        assert samples.register_values.size == 1
        assert samples.frequencies[0] == 1.0
        assert samples.eigenvalues[0] == pytest.approx(0.25)

    def test_uniform_mixture_frequencies(self):
        gen = DensityOperator(np.diag([0.25, 0.75]))
        joint = phase_estimation(gen, DensityOperator(np.eye(2) / 2.0), 4)
        samples = sample_eigenpairs(joint, 10_000, seed=1)
        assert samples.register_values.size == 2
        for frequency in samples.frequencies:
            assert abs(frequency - 0.5) <= 0.02

    def test_rank_one_input_recovers_eigenvector(self):
        rng = np.random.default_rng(9)
        gen = random_density_spectrum(rng, 4, low=0.2, high=1.0)
        w, v = np.linalg.eigh(gen.matrix)
        target = v[:, -1]
        inp = DensityOperator(np.outer(target, target.conj()))
        joint = phase_estimation(gen, inp, 8)
        samples = sample_eigenpairs(joint, 4096, seed=3)
        top = samples.eigenvector_indices[np.argmax(samples.frequencies)]
        assert abs(np.vdot(joint.vectors[:, top], target)) >= 0.99

    def test_zero_draws_rejected(self):
        gen = DensityOperator(np.diag([0.25, 0.75]))
        joint = phase_estimation(gen, gen, 3)
        with pytest.raises(DomainRejection, match="draws"):
            sample_eigenpairs(joint, 0)

    def test_input_not_commuting_with_generator_rejected(self):
        rng = np.random.default_rng(11)
        gen = random_density_spectrum(rng, 6, low=0.2, high=1.0)
        joint = phase_estimation(gen, random_density(rng, 6), 6)
        with pytest.raises(DomainRejection, match="commute"):
            sample_eigenpairs(joint, 4096, seed=2)


class TestOverlapTestSigned:
    def test_identical_and_negated(self):
        v = random_unit_vector(np.random.default_rng(1), 3)
        same = overlap_test_signed(v, [v], shots=64, seeds=[0])
        assert same.estimate[0] == pytest.approx(1.0)
        assert same.standard_error[0] == 0.0
        assert overlap_test_signed(v, [-v], shots=64, seeds=[0]).estimate[0] == pytest.approx(-1.0)

    def test_negative_overlap_concentration(self):
        a = np.array([1.0, 0.0])
        b = np.array([-0.6, 0.8])
        out = overlap_test_signed(a, [b], shots=10_000, seeds=[7])
        assert out.estimate[0] == pytest.approx(-0.6, abs=0.02)

    def test_requires_real_amplitudes(self):
        with pytest.raises(DomainRejection, match="real"):
            overlap_test_signed([1j, 0.0], [[1.0, 0.0]], shots=8, seeds=[None])

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainRejection, match="norm"):
            overlap_test_signed([1.0, 1.0], [[1.0, 0.0]], shots=8, seeds=[None])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DomainRejection, match="dimension mismatch"):
            overlap_test_signed([1.0, 0.0], [[1.0, 0.0, 0.0]], shots=8, seeds=[None])

    def test_estimator_within_three_standard_errors(self):
        hits = 0
        trials = 1000
        a = np.array([1.0, 0.0])
        b = np.array([-0.6, 0.8])
        for seed in range(trials):
            out = overlap_test_signed(a, [b], shots=1024, seeds=[seed])
            if abs(out.estimate[0] - (-0.6)) <= 3.0 * out.standard_error[0]:
                hits += 1
        assert hits / trials >= 0.99

    def test_shots_bounded_by_int64(self):
        out = overlap_test_signed([1.0, 0.0], [[0.0, 1.0]], shots=2**63 - 1, seeds=[1])
        assert out.shots == 2**63 - 1
        assert abs(out.estimate[0]) < 1e-6
        with pytest.raises(DomainRejection, match=r"shots must be at most 2\^63 - 1"):
            overlap_test_signed([1.0, 0.0], [[0.0, 1.0]], shots=2**63, seeds=[1])

    def test_standard_error_bound(self):
        out = overlap_test_signed([1.0, 0.0], [[0.0, 1.0]], shots=400, seeds=[1])
        assert out.standard_error[0] <= 1.0 / np.sqrt(400) + 1e-12


class TestPostselectAncilla:
    def test_ancilla_already_one(self):
        rng = np.random.default_rng(3)
        sys = random_density(rng, 3)
        joint = DensityOperator(np.kron(sys.matrix, np.diag([0.0, 1.0])))
        reduced, prob = postselect_ancilla(joint, 1)
        assert prob == pytest.approx(1.0)
        assert trace_distance(reduced, sys) < 1e-12

    def test_unentangled_superposed_ancilla(self):
        rng = np.random.default_rng(4)
        sys = random_density(rng, 2)
        plus = np.full((2, 2), 0.5)
        joint = DensityOperator(np.kron(sys.matrix, plus))
        reduced, prob = postselect_ancilla(joint, 1)
        assert prob == pytest.approx(0.5)
        assert trace_distance(reduced, sys) < 1e-12

    def test_inversion_shaped_state_probability(self):
        # ancilla amplitudes C*f(lambda) for f = inverse on spectrum {1, 0.5}
        rng = np.random.default_rng(5)
        c_const = 0.45
        lams = np.array([1.0, 0.5])
        f_vals = 1.0 / lams
        rho = random_density(rng, 2)
        beta = rho.matrix
        columns = np.empty((4, 2), dtype=complex)
        for l in range(2):
            psi = np.array([np.sqrt(1 - (c_const * f_vals[l]) ** 2), c_const * f_vals[l]])
            e = np.zeros(2)
            e[l] = 1.0
            columns[:, l] = np.kron(e, psi)
        joint = DensityOperator(columns @ beta @ columns.conj().T)
        _, prob = postselect_ancilla(joint, 1)
        expected = sum(beta[l, l].real * (c_const * f_vals[l]) ** 2 for l in range(2))
        assert prob == pytest.approx(expected, abs=1e-12)

    def test_vanishing_branch_rejected(self):
        joint = DensityOperator(np.kron(np.eye(2) / 2.0, np.diag([1.0, 0.0])))
        message = r"vanishing postselection branch: P\(ancilla=1\)"
        with pytest.raises(NumericalFailure, match=message):
            postselect_ancilla(joint, 1)

    def test_non_qubit_ancilla_rejected(self):
        with pytest.raises(DomainRejection, match="system x qubit"):
            postselect_ancilla(DensityOperator(np.eye(3) / 3.0), 0)
        for outcome in (-1, 2):
            with pytest.raises(DomainRejection, match="outcome 0 or 1"):
                postselect_ancilla(DensityOperator(np.eye(4) / 4.0), outcome)

    def test_output_preserves_state_invariants(self):
        # output of postselection revalidates PSD and unit trace on construction
        rng = np.random.default_rng(6)
        joint = random_density(rng, 6)
        reduced, prob = postselect_ancilla(joint, 0)
        assert 0.0 < prob <= 1.0
        assert isinstance(reduced, DensityOperator)

    @pytest.mark.parametrize("real", [True, False])
    def test_branches_are_strided_blocks_of_the_joint_state(self, real):
        rng = np.random.default_rng(7)
        joint = random_density(rng, 10)
        if real:
            joint = DensityOperator(joint.matrix.real)
        probs = []
        for o in (0, 1):
            reduced, prob = postselect_ancilla(joint, o)
            assert np.array_equal(reduced.matrix, joint.matrix[o::2, o::2] / prob)
            probs.append(prob)
        assert abs(sum(probs) - 1.0) < 1e-12

    def test_one_dimensional_system(self):
        joint = DensityOperator(np.array([[0.25, 0.25], [0.25, 0.75]]))
        reduced, prob = postselect_ancilla(joint, 1)
        assert reduced.dim == 1
        assert prob == 0.75
        assert reduced.matrix[0, 0] == 1.0


class TestMaterializedQpeState:
    def test_materialized_qpe_state_matches_factored_marginal(self):
        # dense joint state sum beta[l,l'] |a_l x u_l><a_l' x u_l'| as the reference
        rng = np.random.default_rng(12)
        for n in (2, 3, 4):
            for t in range(2, 6):
                gen = random_density_spectrum(rng, n, low=0.2, high=1.0)
                joint = phase_estimation(gen, random_density(rng, n), t)
                profiles = one_expression_profiles(joint.phases, joint.t)
                k = np.column_stack(
                    [np.kron(profiles[l], joint.vectors[:, l]) for l in range(n)]
                )
                dense = (k @ joint.beta @ k.conj().T).reshape(1 << t, n, 1 << t, n)
                traces = np.einsum("mimi->m", dense).real
                assert abs(traces.sum() - 1.0) < 1e-9
                assert np.max(np.abs(traces - joint.register_marginal())) < 1e-12


_QUARTER = DensityOperator(np.eye(4) / 4)


@pytest.mark.parametrize("build, message", [
    (lambda: phase_estimation(_QUARTER, DensityOperator(np.eye(2) / 2), 4),
     "generator and input dimensions differ"),
    # a negative slice count is rejected, not read as the exact spectrum
    (lambda: phase_estimation(_QUARTER, _QUARTER, 4, steps=-5),
     "need at least 5 slices, got -5"),
    (lambda: overlap_test_signed(np.array([1.0, 0.0]), np.eye(2), 16, [0]),
     "1 seeds for 2 rows; need one per row"),
], ids=["dimensions", "negative-steps", "one-seed-two-rows"])
def test_qsim_rejection(build, message):
    with pytest.raises(DomainRejection) as info:
        build()
    assert str(info.value) == message
