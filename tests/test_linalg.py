"""Core linear-algebra contracts: eigensolver, filtered spectral functions,
trace distance."""
from __future__ import annotations

import numpy as np
import pytest

from qdasim.errors import DomainRejection
from qdasim.linalg import (
    PSD_TOL,
    DensityOperator,
    HermitianOperator,
    SpectralFunction,
    _filter_mask,
    eig_hermitian,
    matrix_function,
    trace_distance,
)

from conftest import random_density, random_hermitian


class TestHermitianOperator:
    def test_symmetrizes_small_drift(self):
        m = np.array([[1.0, 0.5 + 1e-12j], [0.5 - 3e-12j, 2.0]])
        h = HermitianOperator(m)
        assert np.allclose(h.matrix, h.matrix.conj().T)

    def test_rejects_large_asymmetry_with_report(self):
        m = np.array([[1.0, 0.5], [0.7, 2.0]])
        with pytest.raises(DomainRejection, match="asymmetry"):
            HermitianOperator(m)

    def test_rejects_non_square(self):
        with pytest.raises(DomainRejection):
            HermitianOperator(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "matrix",
        [np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([[2, 1], [1, 3]]), [[2.0, 1], [1, 3.0]]],
        ids=["float", "int", "nested-list"],
    )
    def test_real_input_stays_float64(self, matrix):
        h = HermitianOperator(matrix)
        assert h.matrix.dtype == np.float64
        assert np.array_equal(h.matrix, [[2.0, 1.0], [1.0, 3.0]])

    def test_complex_input_stays_complex128(self):
        h = HermitianOperator(np.array([[2.0, 1j], [-1j, 3.0]]))
        assert h.matrix.dtype == np.complex128
        assert HermitianOperator(np.eye(2, dtype=complex)).matrix.dtype == np.complex128

    # finite entries whose sum leaves the float64 range: a rejection naming the
    # overflow, with no numpy warning (the suite turns warnings into errors)
    def test_symmetrization_overflow_rejected(self):
        with pytest.raises(DomainRejection, match="overflow float64 when symmetrized"):
            HermitianOperator(np.diag([1e308, 1e308]))

    def test_trace_overflow_rejected(self):
        h = HermitianOperator(np.diag([8e307, 8e307, 8e307]))
        with pytest.raises(DomainRejection, match="trace overflows float64"):
            h.trace()


class TestDensityOperator:
    def test_accepts_valid_state(self):
        DensityOperator(np.diag([0.5, 0.5]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainRejection, match="semidefinite"):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(DomainRejection, match="trace"):
            DensityOperator(np.diag([0.7, 0.7]))

    @pytest.mark.parametrize("n", [2, 8, 64, 256])
    @pytest.mark.parametrize("rank_two", [False, True])
    def test_psd_rule_matches_min_eigenvalue_at_the_tolerance(self, n, rank_two):
        # states with a prescribed minimum eigenvalue in a random complex basis; the
        # accept/reject decision and the message agree with the eigvalsh rule
        rng = np.random.default_rng(n + rank_two)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for lam_min in (0.0, -5e-11, -9e-11, -1.1e-10, -2e-10, -1e-6):
            w = np.zeros(n) if rank_two else rng.uniform(0.5, 1.0, n)
            w[:2] = rng.uniform(0.5, 1.0, 2)
            w *= (1.0 - lam_min) / w[:-1].sum()
            w[-1] = lam_min
            m = (q * w) @ q.conj().T
            reference = np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0]
            assert (reference >= -PSD_TOL) == (lam_min > -PSD_TOL)
            if lam_min > -PSD_TOL:
                DensityOperator(m)
            else:
                with pytest.raises(DomainRejection, match="semidefinite") as err:
                    DensityOperator(m)
                assert f"min eigenvalue {reference:.3e}" in str(err.value)

    def test_valid_state_needs_no_eigensolver(self, monkeypatch):
        rng = np.random.default_rng(4)
        m = random_density(rng, 64).matrix
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: pytest.fail("eigvalsh called"))
        DensityOperator(m)
        DensityOperator(np.diag([1.0, 0.0, 0.0]))


class TestEigHermitian:
    def test_identity(self):
        sol = eig_hermitian(HermitianOperator(np.eye(2)))
        assert np.allclose(sol.eigenvalues, [1.0, 1.0])
        # any orthonormal basis is acceptable
        assert np.allclose(sol.eigenvectors @ sol.eigenvectors.conj().T, np.eye(2))

    def test_diagonal_sorted_descending(self):
        sol = eig_hermitian(HermitianOperator(np.diag([3.0, 2.0, 1.0])))
        assert np.allclose(sol.eigenvalues, [3.0, 2.0, 1.0])
        assert np.allclose(np.abs(sol.eigenvectors), np.eye(3)[:, [0, 1, 2]])

    def test_reconstruction_seed7(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 4)
        sol = eig_hermitian(h)
        rebuilt = (sol.eigenvectors * sol.eigenvalues) @ sol.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - h.matrix)) < 1e-8

    def test_orthonormality(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 6)
        sol = eig_hermitian(h)
        gram = sol.eigenvectors.conj().T @ sol.eigenvectors
        assert np.max(np.abs(gram - np.eye(6))) < 1e-9

    def test_result_stored_on_the_operator(self, monkeypatch):
        h = random_hermitian(np.random.default_rng(3), 5)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append(1) or eigh(*a))
        assert eig_hermitian(h) is eig_hermitian(h)
        assert len(calls) == 1

    def test_matrix_and_stored_spectrum_are_read_only(self):
        m = np.array([[0.7, 0.1], [0.1, 0.3]])
        rho = DensityOperator(m)
        sol = eig_hermitian(rho)
        for array in (rho.matrix, sol.eigenvalues, sol.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        m[0, 0] = 0.5  # the caller's input stays writable
        assert rho.matrix[0, 0] == 0.7


class TestSpectralFunction:
    def test_named_forms(self):
        assert SpectralFunction.from_name("inverse")(0.5) == pytest.approx(2.0)
        assert SpectralFunction.from_name("sqrt")(4.0) == pytest.approx(2.0)
        assert SpectralFunction.from_name("inverse-sqrt")(4.0) == pytest.approx(0.5)
        assert SpectralFunction.from_name("identity")(0.3) == pytest.approx(0.3)
        assert SpectralFunction.from_name("power(2)")(3.0) == pytest.approx(9.0)
        assert SpectralFunction.power(0)(0.123) == pytest.approx(1.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainRejection):
            SpectralFunction.from_name("log")

    @pytest.mark.parametrize(
        "make",
        [lambda: SpectralFunction.from_name("power(inf)"),
         lambda: SpectralFunction.from_name("power(-inf)"),
         lambda: SpectralFunction.from_name("power(nan)"),
         lambda: SpectralFunction.from_name("power(1e400)"),
         lambda: SpectralFunction.power(float("-inf")),
         lambda: SpectralFunction("custom", float("nan"))],
        ids=["inf", "-inf", "nan", "1e400", "power-classmethod", "constructor"],
    )
    def test_non_finite_exponent_rejected(self, make):
        with pytest.raises(DomainRejection, match="exponent must be finite"):
            make()

    def test_overflow_rejected_naming_the_function(self):
        f = SpectralFunction.from_name("power(-400)")
        with pytest.raises(DomainRejection, match=r"^power\(-400\) overflows"):
            f(np.array([0.4, 0.3, 0.2, 0.1]))

    def test_finite_on_filter_window(self):
        f = SpectralFunction.from_name("inverse")
        for kappa in (1.0, 10.0, 1e6):
            x = np.linspace(1.0 / kappa, 1.0, 7)
            assert np.all(np.isfinite(f(x)))

    def test_taylor_coefficients_match_finite_differences(self):
        # oracle: central finite differences of x**r at x0
        f = SpectralFunction.power(-0.5)
        x0, h = 0.7, 1e-3
        c = f.derivative_coefficients(x0, 2)
        d1 = (f(x0 + h) - f(x0 - h)) / (2 * h)
        d2 = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h**2
        assert c[0] == pytest.approx(f(x0), rel=1e-12)
        assert c[1] == pytest.approx(d1, rel=1e-5)
        assert c[2] == pytest.approx(d2 / 2.0, rel=1e-4)

    def test_coefficients_past_float64_are_inf_or_nan(self):
        # 1e-3**(r - i) overflows near i = 100 + r: +-inf where the binomial
        # factor is nonzero, NaN past the degree of power(3), never an OverflowError
        inverse = SpectralFunction.from_name("inverse").derivative_coefficients(1e-3, 200)
        assert np.all(np.isfinite(inverse[:100])) and inverse[-1] == np.inf
        cubic = SpectralFunction.power(3.0).derivative_coefficients(1e-3, 300)
        np.testing.assert_array_equal(cubic[4:100], 0.0)
        assert np.isnan(cubic[-1])


class TestMatrixFunction:
    def test_diagonal_inverse(self):
        h = HermitianOperator(np.diag([1.0, 0.5]))
        out = matrix_function(h, SpectralFunction.from_name("inverse"), 10.0)
        assert np.allclose(out.matrix, np.diag([1.0, 2.0]))

    def test_diagonal_sqrt(self):
        h = HermitianOperator(np.diag([4.0, 1.0]))
        out = matrix_function(h, SpectralFunction.from_name("sqrt"), 10.0)
        assert np.allclose(out.matrix, np.diag([2.0, 1.0]))

    def test_filter_slack_is_a_rounding_allowance(self):
        # lambda_max / kappa_eff to within 1e-13 is kept; 0.05% below it is not
        kappa_eff = 100.0
        eigenvalues = np.array([1.0, (1.0 - 1e-13) / kappa_eff, 0.9995 / kappa_eff])
        assert _filter_mask(eigenvalues, kappa_eff).tolist() == [True, True, False]

    def test_relative_threshold_filters(self):
        # 0.04 / 1.0 < 1/10, so that eigenvalue is projected out even under inverse-sqrt
        h = HermitianOperator(np.diag([1.0, 0.04]))
        out = matrix_function(h, SpectralFunction.from_name("inverse-sqrt"), 10.0)
        assert np.allclose(out.matrix, np.diag([1.0, 0.0]))

    def test_all_filtered_rejected(self):
        h = HermitianOperator(np.zeros((2, 2)))
        with pytest.raises(DomainRejection, match="rank collapse"):
            matrix_function(h, SpectralFunction.from_name("identity"), 10.0)

    def test_non_psd_rejected(self):
        h = HermitianOperator(np.diag([1.0, -0.5]))
        with pytest.raises(DomainRejection, match="PSD"):
            matrix_function(h, SpectralFunction.from_name("sqrt"), 10.0)

    def test_identity_restriction_property(self):
        rng = np.random.default_rng(0)
        f_id = SpectralFunction.from_name("identity")
        for _ in range(20):
            rho = random_density(rng, 5)
            out = matrix_function(rho, f_id, 50.0)
            w, v = np.linalg.eigh(rho.matrix)
            keep = w >= w[-1] / 50.0 * (1 - 1e-12)
            restricted = (v[:, keep] * w[keep]) @ v[:, keep].conj().T
            assert np.max(np.abs(out.matrix - restricted)) < 1e-10

    def test_sqrt_squares_to_identity_function(self):
        rng = np.random.default_rng(1)
        f_sqrt = SpectralFunction.from_name("sqrt")
        f_id = SpectralFunction.from_name("identity")
        for _ in range(20):
            rho = random_density(rng, 4)
            s = matrix_function(rho, f_sqrt, 100.0).matrix
            plain = matrix_function(rho, f_id, 100.0).matrix
            assert np.max(np.abs(s @ s - plain)) < 1e-8


class TestTraceDistance:
    def test_identical_states(self):
        rho = DensityOperator(np.diag([0.3, 0.7]))
        assert trace_distance(rho, rho) == pytest.approx(0.0)

    def test_orthogonal_projectors(self):
        a = DensityOperator(np.diag([1.0, 0.0]))
        b = DensityOperator(np.diag([0.0, 1.0]))
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_hand_computed_diagonal(self):
        # difference diag(0.1, -0.1): half the absolute eigenvalue sum is 0.1
        a = DensityOperator(np.diag([0.6, 0.4]))
        b = DensityOperator(np.diag([0.5, 0.5]))
        assert trace_distance(a, b) == pytest.approx(0.1)

    def test_symmetry_and_triangle_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            a, b, c = (random_density(rng, 3) for _ in range(3))
            dab = trace_distance(a, b)
            assert dab == pytest.approx(trace_distance(b, a))
            assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12
            assert 0.0 <= dab <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        a = DensityOperator(np.eye(2) / 2.0)
        b = DensityOperator(np.eye(3) / 3.0)
        with pytest.raises(DomainRejection):
            trace_distance(a, b)


@pytest.mark.parametrize("build, message", [
    (lambda: HermitianOperator(np.zeros((0, 0))), "operator dimension must be >= 1"),
    (lambda: SpectralFunction.from_name("power(x)"), "unparseable power exponent in 'power(x)'"),
], ids=["empty-operator", "power-of-a-name"])
def test_linalg_rejection(build, message):
    with pytest.raises(DomainRejection) as info:
        build()
    assert str(info.value) == message
