"""Real operators run in real arithmetic: float64 results agree with the same
computation on complex copies, and real data never promotes the pipeline to
complex."""
from __future__ import annotations

import numpy as np
import pytest

from qdasim.chain import ChainSpec, chain_apply, classical_chain_oracle, prepare_stage
from qdasim.linalg import DensityOperator, SpectralFunction, matrix_function
from qdasim.lda import quantum_lda, whitening_chain
from qdasim.oracle import (
    LabeledDataset,
    between_scatter,
    class_covariance_operator,
    class_statistics,
    within_scatter,
)
from qdasim.qda import fit
from qdasim.qsim import phase_estimation, sample_eigenpairs

from conftest import one_expression_profiles

FUNCTIONS = [SpectralFunction.from_name(n) for n in ("identity", "inverse", "sqrt", "inverse-sqrt")]
TOL = 1e-12
T = 8
KAPPA = 100.0


def real_psd(rng, n: int, rank: int) -> np.ndarray:
    """Unit-trace real symmetric PSD matrix of the given rank; the nonzero
    eigenvalues are spread evenly over [0.23, 1] before normalization, so
    kappa^2 / eps^3 sits away from an integer and the copy count is well
    defined."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.zeros(n)
    w[:rank] = np.linspace(1.0, 0.23, rank) if rank > 1 else 1.0
    m = (q * (w / w.sum())) @ q.T
    return (m + m.T) / 2.0


CASES = [(n, rank) for n in (2, 7, 64) for rank in (n, max(1, n // 2))]


def pair(m: np.ndarray) -> tuple[DensityOperator, DensityOperator]:
    """The operator in float64 and its complex copy."""
    real, cplx = DensityOperator(m), DensityOperator(m.astype(complex))
    assert real.matrix.dtype == np.float64 and cplx.matrix.dtype == np.complex128
    return real, cplx


def close(a: np.ndarray, b: np.ndarray) -> bool:
    return float(np.max(np.abs(a - b))) <= TOL


@pytest.mark.parametrize("n,rank", CASES)
class TestRealMatchesComplexReference:
    def test_matrix_function(self, n, rank):
        real, cplx = pair(real_psd(np.random.default_rng(n + rank), n, rank))
        for f in FUNCTIONS:
            out_r, out_c = matrix_function(real, f, KAPPA), matrix_function(cplx, f, KAPPA)
            assert out_r.matrix.dtype == np.float64
            assert close(out_r.matrix, out_c.matrix), f.name

    def test_prepared_stage_apply(self, n, rank):
        rng = np.random.default_rng(10 + n + rank)
        a_r, a_c = pair(real_psd(rng, n, rank))
        rho_r, rho_c = pair(real_psd(rng, n, n))
        for f in FUNCTIONS:
            stage_r = prepare_stage(a_r, f, T, KAPPA)
            stage_c = prepare_stage(a_c, f, T, KAPPA)
            assert np.array_equal(stage_r.registers, stage_c.registers)
            assert stage_r.copies == stage_c.copies
            out_r, out_c = stage_r.apply(rho_r), stage_c.apply(rho_c)
            assert out_r.state.matrix.dtype == np.float64
            assert close(out_r.state.matrix, out_c.state.matrix), f.name
            assert abs(out_r.probability - out_c.probability) <= TOL
            assert abs(out_r.floor - out_c.floor) <= TOL

    def test_chain_apply_and_oracle(self, n, rank):
        rng = np.random.default_rng(20 + n + rank)
        ops = [pair(real_psd(rng, n, r)) for r in (rank, n, rank)]
        reports = {}
        for side in (0, 1):
            stages = tuple((ops[j][side], FUNCTIONS[j + 1]) for j in range(3))
            spec = ChainSpec(stages=stages, kappa_eff=KAPPA, t=T)
            reports[side] = (classical_chain_oracle(spec), chain_apply(spec))
        (oracle_r, chain_r), (oracle_c, chain_c) = reports[0], reports[1]
        assert oracle_r.matrix.dtype == chain_r.output.matrix.dtype == np.float64
        assert close(oracle_r.matrix, oracle_c.matrix)
        assert close(chain_r.output.matrix, chain_c.output.matrix)
        assert close(chain_r.stage_success_probabilities, chain_c.stage_success_probabilities)
        assert close(chain_r.stage_bounds, chain_c.stage_bounds)
        assert np.array_equal(chain_r.copies_used, chain_c.copies_used)

    def test_phase_estimation_and_samples(self, n, rank):
        m = real_psd(np.random.default_rng(30 + n + rank), n, rank)
        # the depolarizing blend quantum_lda uses keeps the spectrum below 1
        gamma = 2.0**-T
        gen_r, gen_c = pair((1.0 - gamma) * m + gamma * np.eye(n) / n)
        qpe_r, qpe_c = phase_estimation(gen_r, gen_r, T), phase_estimation(gen_c, gen_c, T)
        assert qpe_r.beta.dtype == qpe_r.vectors.dtype == np.float64
        profiles_r = one_expression_profiles(qpe_r.phases, qpe_r.t)
        assert close(profiles_r, one_expression_profiles(qpe_c.phases, qpe_c.t))
        assert close(qpe_r.beta, qpe_c.beta)
        assert close(qpe_r.register_marginal(), qpe_c.register_marginal())
        samples_r = sample_eigenpairs(qpe_r, 4096, seed=5)
        samples_c = sample_eigenpairs(qpe_c, 4096, seed=5)
        for name in ("register_values", "frequencies", "eigenvalues"):
            assert np.array_equal(getattr(samples_r, name), getattr(samples_c, name))
        spectrum = np.linalg.eigvalsh(gen_r.matrix)
        assert np.all(np.abs(samples_r.probabilities - samples_c.probabilities) <= TOL)
        for l_r, l_c in zip(samples_r.eigenvector_indices, samples_c.eigenvector_indices):
            v_r = qpe_r.vectors[:, l_r]
            v_c = qpe_c.vectors[:, l_c]
            assert v_r.dtype == np.float64
            # a vector from the degenerate null space is any basis vector of it
            lam = float(v_r @ gen_r.matrix @ v_r)
            if np.sum(np.abs(spectrum - lam) < 1e-9) == 1:
                assert close(v_r, v_c)


def labeled(rng) -> LabeledDataset:
    means = np.array([[2.0, 0.0, 0.0, 0.0], [-2.0, 0.5, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
    samples = np.vstack([mu + 0.6 * rng.standard_normal((20, 4)) for mu in means])
    return LabeledDataset(samples, np.repeat([1, 2, 3], 20))


class TestRealDataStaysReal:
    def test_scatter_and_covariance_operators(self):
        data = labeled(np.random.default_rng(0))
        stats = class_statistics(data)
        assert within_scatter(stats).matrix.dtype == np.float64
        assert between_scatter(stats).matrix.dtype == np.float64
        for c in (1, 2, 3):
            assert class_covariance_operator(stats, c).matrix.dtype == np.float64

    @pytest.mark.parametrize("shared", [False, True])
    def test_fitted_covariance_operators(self, shared):
        model = fit(labeled(np.random.default_rng(1)), KAPPA, shared_covariance=shared)
        assert all(op.matrix.dtype == np.float64 for op in model.covariance_ops)

    def test_quantum_lda_chain_output(self):
        spec = whitening_chain(class_statistics(labeled(np.random.default_rng(2))), KAPPA, 0.1, T)
        basis = quantum_lda(spec, 2, seed=2)
        assert basis.chain.output.matrix.dtype == np.float64
