"""Chain engine: exact spectral oracle, staged pipeline, success accounting
and copy counts."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from qdasim import chain
from qdasim.chain import (
    DEFAULT_EPS,
    ChainSpec,
    chain_apply,
    chain_stage,
    classical_chain_oracle,
    prepare_stage,
)
from qdasim.errors import DomainRejection, NumericalFailure
from qdasim.linalg import (
    DensityOperator,
    HermitianOperator,
    SpectralFunction,
    matrix_function,
    trace_distance,
)
from qdasim.qsim import postselect_ancilla
from qdasim.rotation import rotation_amplitudes

from conftest import random_density_spectrum

IDENTITY = SpectralFunction.from_name("identity")
INVERSE = SpectralFunction.from_name("inverse")
SQRT = SpectralFunction.from_name("sqrt")
INV_SQRT = SpectralFunction.from_name("inverse-sqrt")
ONE = SpectralFunction.power(0)


def spectrum_density(values) -> DensityOperator:
    w = np.asarray(values, dtype=float)
    return DensityOperator(np.diag(w / w.sum()))


def joint_route_stage(rho, a, f, t, kappa_eff, eps=DEFAULT_EPS):
    """Reference stage: build the 2N x 2N system x ancilla state after the
    eigenvalue-controlled rotation, then postselect the ancilla on |1>. The
    |0> amplitude sqrt(1 - a_1^2) only fills the branch postselection drops."""
    stage = prepare_stage(a, f, t, kappa_eff, eps)
    n = a.dim
    pairs = np.zeros((n, 2))
    pairs[:, 0] = 1.0
    for l in np.nonzero(stage.resolved)[0]:
        a1 = rotation_amplitudes(float(stage.registers[l]), f, stage.c_const)
        pairs[l] = (math.sqrt(1.0 - a1 * a1), a1)
    v = stage.eigenvectors
    beta = v.conj().T @ rho.matrix @ v
    columns = np.empty((2 * n, n), dtype=complex)
    for l in range(n):
        columns[:, l] = np.kron(v[:, l], pairs[l])
    return postselect_ancilla(DensityOperator(columns @ beta @ columns.conj().T), 1)


def random_rank_density(rng, n: int, rank: int, real: bool) -> DensityOperator:
    g = rng.standard_normal((n, rank))
    if not real:
        g = g + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def outcome(route, *args):
    """(state, probability) of a stage route, or the class of its rejection."""
    try:
        return route(*args)
    except (DomainRejection, NumericalFailure) as err:
        return type(err)


class TestClassicalChainOracle:
    def test_single_identity_stage_squares_operator(self):
        rng = np.random.default_rng(0)
        a = random_density_spectrum(rng, 4)
        spec = ChainSpec(stages=((a, IDENTITY),), kappa_eff=100.0)
        out = classical_chain_oracle(spec)
        sq = a.matrix @ a.matrix
        assert trace_distance(out, DensityOperator(sq / np.trace(sq).real)) < 1e-12

    def test_inverse_of_maximally_mixed(self):
        a = DensityOperator(np.diag([0.5, 0.5]))
        spec = ChainSpec(stages=((a, INVERSE),), kappa_eff=10.0)
        out = classical_chain_oracle(spec)
        assert trace_distance(out, DensityOperator(np.eye(2) / 2.0)) < 1e-12

    def test_sqrt_cancels_inverse_sqrt_on_shared_operator(self):
        rng = np.random.default_rng(1)
        a = random_density_spectrum(rng, 5)
        spec = ChainSpec(stages=((a, INV_SQRT), (a, SQRT)), kappa_eff=100.0)
        out = classical_chain_oracle(spec)
        assert trace_distance(out, DensityOperator(np.eye(5) / 5.0)) < 1e-10

    def test_annihilating_chain_rejected(self):
        a1 = DensityOperator(np.diag([1.0, 0.0]))
        a2 = DensityOperator(np.diag([0.0, 1.0]))
        spec = ChainSpec(stages=((a1, IDENTITY), (a2, IDENTITY)), kappa_eff=2.0)
        with pytest.raises(DomainRejection, match="annihilates"):
            classical_chain_oracle(spec)

    def test_commuting_chain_matches_function_composition(self):
        # shared eigenbasis: the chain equals composed matrix functions on rho0
        rng = np.random.default_rng(2)
        w1 = rng.uniform(0.4, 1.0, 4)
        w2 = rng.uniform(0.4, 1.0, 4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a1 = DensityOperator((q * (w1 / w1.sum())) @ q.T)
        a2 = DensityOperator((q * (w2 / w2.sum())) @ q.T)
        spec = ChainSpec(stages=((a1, INV_SQRT), (a2, SQRT)), kappa_eff=50.0)
        f_mat = (
            matrix_function(a2, SQRT, 50.0).matrix
            @ matrix_function(a1, INV_SQRT, 50.0).matrix
        )
        composed = f_mat @ (np.eye(4) / 4.0) @ f_mat.conj().T
        composed /= np.trace(composed).real
        out = classical_chain_oracle(spec)
        assert np.max(np.abs(out.matrix - composed)) < 1e-8


class TestChainStage:
    def test_constant_one_function_is_a_no_op(self):
        rho = DensityOperator(np.diag([0.3, 0.7]))
        a = DensityOperator(np.diag([0.6, 0.4]))
        out, prob = chain_stage(rho, a, ONE, t=8, kappa_eff=100.0)
        # the default C = (1 - eps) / max|f| rotates every eigenvalue alike
        assert prob == pytest.approx((1.0 - DEFAULT_EPS) ** 2, abs=1e-4)
        assert trace_distance(out, rho) < 1e-12

    def test_inverse_stage_matches_hand_summation(self):
        a = DensityOperator(np.diag([1.0, 0.5]) / 1.5)
        rho = DensityOperator(np.eye(2) / 2.0)
        out, prob = chain_stage(rho, a, INVERSE, t=8, kappa_eff=100.0)
        # register-truncated eigenvalues at t = 8
        lam_t = np.array([math.floor(2 / 3 * 256) / 256, math.floor(1 / 3 * 256) / 256])
        f_vals = 1.0 / lam_t
        c_const = 0.9 / f_vals.max()
        expected_prob = float(np.sum(0.5 * (c_const * f_vals) ** 2))
        assert prob == pytest.approx(expected_prob, abs=1e-4)
        expected = np.diag((c_const * f_vals) ** 2 * 0.5)
        expected /= np.trace(expected)
        assert trace_distance(out, DensityOperator(expected)) < 1e-4

    def test_success_ratio_bound_for_condition_ten_spectrum(self):
        # spectral ratio 10 under inverse: (min|f| / max|f|)^2 = 0.01
        a = spectrum_density([10.0, 1.0])
        w = np.array([10.0, 1.0]) / 11.0
        f_vals = 1.0 / w
        ratio_sq = (f_vals.min() / f_vals.max()) ** 2
        assert ratio_sq == pytest.approx(0.01)
        _, prob = chain_stage(
            DensityOperator(np.eye(2) / 2.0), a, INVERSE, t=10, kappa_eff=100.0
        )
        # measured success respects the ratio bound with the (1 - eps)^2 constant
        assert prob >= 0.81 * ratio_sq * (1.0 - 0.05)

    def test_fully_filtered_spectrum_rejected(self):
        rho = DensityOperator(np.eye(2) / 2.0)
        a = DensityOperator(np.diag([1.0, 0.0]))
        with pytest.raises(NumericalFailure, match="postselection"):
            # rho has weight outside the rank-1 support and kappa keeps only
            # the unit eigenvalue; an orthogonal input dies at postselection
            chain_stage(
                DensityOperator(np.diag([0.0, 1.0])), a, SQRT, t=8, kappa_eff=2.0
            )

    def test_unresolvable_register_rejected(self):
        # all eigenvalues of I/8 sit below the 2-bit register quantum 1/4
        a = DensityOperator(np.eye(8) / 8.0)
        with pytest.raises(DomainRejection, match="resolvable"):
            chain_stage(
                DensityOperator(np.eye(8) / 8.0), a, IDENTITY, t=2, kappa_eff=1e6
            )


class TestClosedFormStage:
    FUNCTIONS = (IDENTITY, INVERSE, SQRT, INV_SQRT, ONE)

    def test_matches_joint_route_reference(self):
        rng = np.random.default_rng(5)
        compared = 0
        for n in (1, 2, 3, 4, 7, 8, 16, 31, 32, 64):
            low = max(1, n // 2)
            for rho_rank, a_rank in ((n, n), (low, n), (n, low), (low, low)):
                real = bool(rng.random() < 0.5)
                rho = random_rank_density(rng, n, rho_rank, real)
                a = random_rank_density(rng, n, a_rank, not real)
                for f in self.FUNCTIONS:
                    args = (rho, a, f, 8, 100.0)
                    closed = outcome(chain_stage, *args)
                    joint = outcome(joint_route_stage, *args)
                    if isinstance(joint, type):
                        assert closed is joint, (n, rho_rank, a_rank, f.name)
                        continue
                    (state, prob), (ref_state, ref_prob) = closed, joint
                    assert abs(prob - ref_prob) <= 1e-14
                    assert np.max(np.abs(state.matrix - ref_state.matrix)) <= 1e-14
                    compared += 1
        assert compared >= 190

    def test_both_routes_reject_alike(self):
        a = DensityOperator(np.diag([1.0, 0.0]))
        orthogonal = DensityOperator(np.diag([0.0, 1.0]))
        flat = DensityOperator(np.eye(8) / 8.0)
        cases = (
            ((orthogonal, a, SQRT, 8, 2.0), NumericalFailure),
            ((flat, flat, IDENTITY, 2, 1e6), DomainRejection),
        )
        for args, error in cases:
            assert outcome(chain_stage, *args) is error
            assert outcome(joint_route_stage, *args) is error

    def test_stage_copies_match_chain_report(self):
        rng = np.random.default_rng(6)
        ops = [random_rank_density(rng, 6, rank, False) for rank in (6, 3)]
        spec = ChainSpec(stages=tuple((a, INVERSE) for a in ops), kappa_eff=50.0, eps=0.2)
        report = chain_apply(spec)
        assert list(report.copies_used) == [
            prepare_stage(a, INVERSE, spec.t, 50.0, 0.2).copies for a in ops
        ]


class TestPreparedStage:
    def test_one_preparation_serves_many_states_bitwise(self):
        rng = np.random.default_rng(8)
        n = 6
        a = random_rank_density(rng, n, n, False)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        states = (
            DensityOperator(np.outer(v, v.conj()) / np.vdot(v, v).real),  # pure
            random_density_spectrum(rng, n),  # full-rank mixed
            random_rank_density(rng, n, 2, True),  # rank-deficient
            DensityOperator(np.eye(n) / n),
        )
        for f in (INVERSE, SQRT, INV_SQRT):
            prepared = prepare_stage(a, f, 8, 100.0)
            for rho in states:
                result = prepared.apply(rho)
                state, prob = chain_stage(rho, a, f, 8, 100.0)
                assert np.array_equal(result.state.matrix, state.matrix)
                assert result.probability == prob

    def test_apply_pure_is_the_column_read_of_apply(self):
        rng = np.random.default_rng(12)
        n = 6
        a = random_rank_density(rng, n, n, True)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        for f in (INVERSE, SQRT, INV_SQRT):
            prepared = prepare_stage(a, f, 8, 100.0)
            out = prepared.apply(DensityOperator(np.outer(v, v))).state.matrix
            pivot = int(np.argmax(np.diag(out)))
            column = out[:, pivot] / np.sqrt(out[pivot, pivot])
            w = prepared.apply_pure(v)
            # the closed-form read is that column up to its sign, and it
            # reproduces the rank-one output state
            assert np.max(np.abs(np.sign(w @ column) * w - column)) < 1e-12
            assert np.max(np.abs(np.outer(w, w) - out)) < 1e-12

    def test_apply_pure_rejects_a_vanishing_postselection_like_apply(self):
        prepared = prepare_stage(DensityOperator(np.diag([1.0, 0.0])), SQRT, 8, 2.0)
        for run in (lambda: prepared.apply(DensityOperator(np.diag([0.0, 1.0]))),
                    lambda: prepared.apply_pure(np.array([0.0, 1.0]))):
            with pytest.raises(NumericalFailure, match="vanishing postselection branch"):
                run()

    def test_apply_rejects_mismatched_dimension(self):
        prepared = prepare_stage(spectrum_density([1.0, 2.0, 3.0]), INVERSE, 8, 100.0)
        with pytest.raises(DomainRejection, match="does not match operator 3"):
            prepared.apply(DensityOperator(np.eye(2) / 2.0))

    def test_apply_pure_rejects_mismatched_dimension_like_apply(self):
        prepared = prepare_stage(DensityOperator(np.eye(4) / 4.0), INVERSE, 8, 10.0)
        with pytest.raises(DomainRejection,
                           match="^state dimension 3 does not match operator 4$"):
            prepared.apply_pure(np.ones(3))

    def test_one_rotation_per_distinct_register_value(self, monkeypatch):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        # repeated eigenvalues: 8 eigenvalues over 3 and 4 distinct values
        ops = [
            DensityOperator((q * w) @ q.T / w.sum())
            for w in (np.repeat([1.0, 2.0, 4.0], [3, 3, 2]), np.repeat([3.0, 1.0, 2.0, 5.0], 2))
        ]
        spec = ChainSpec(stages=((ops[0], INVERSE), (ops[1], SQRT)), kappa_eff=50.0, t=10)
        distinct = [
            np.unique(s.registers[s.resolved])
            for s in (prepare_stage(a, f, 10, 50.0) for a, f in spec.stages)
        ]
        calls = []
        rotate = chain.rotation_amplitudes

        def counted(lam, *args, **kwargs):
            calls.append(lam)
            return rotate(lam, *args, **kwargs)

        monkeypatch.setattr(chain, "rotation_amplitudes", counted)
        chain_apply(spec)
        assert sum(values.size for values in distinct) < 16
        # one call per stage, carrying each distinct register value once
        assert len(calls) == len(distinct)
        for lam, values in zip(calls, distinct):
            assert np.array_equal(np.asarray(lam), values)

    def test_one_hashable_rotation_call_per_stage(self, monkeypatch):
        # bench/tracer.py keys each rotation_amplitudes call by a set entry of
        # its arguments, so an unhashable argument (an ndarray) breaks tracing
        keys, calls = set(), []
        rotate = chain.rotation_amplitudes

        def keyed(*args, **kwargs):
            keys.add((args, tuple(sorted(kwargs.items()))))
            calls.append(args)
            return rotate(*args, **kwargs)

        monkeypatch.setattr(chain, "rotation_amplitudes", keyed)
        rng = np.random.default_rng(14)
        ops = [random_rank_density(rng, 6, 6, real) for real in (True, False, True)]
        prepare_stage(ops[0], INVERSE, 8, 100.0)
        assert len(calls) == 1
        chain_apply(ChainSpec(stages=tuple(zip(ops, (INVERSE, SQRT, INV_SQRT))), t=8))
        assert len(calls) == 4

    @pytest.mark.parametrize("t", [2, 8, 12])
    def test_pure_state_reads_the_top_register_value(self, t):
        # eigenvalue exactly 1 saturates at 2^t - 1 of 2^t instead of wrapping to 0
        prepared = prepare_stage(DensityOperator(np.diag([1.0, 0.0])), SQRT, t, 2.0)
        assert prepared.registers[prepared.resolved].tolist() == [1.0 - 2.0**-t]

    def test_amplitudes_match_per_eigenvalue_rotation_bitwise(self):
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        w = np.repeat([0.5, 1.0, 1.5, 2.0], 3) + np.repeat([0.0, 1e-9], 6)
        a = DensityOperator((q * w) @ q.T / w.sum())
        for f in (INVERSE, SQRT, INV_SQRT):
            prepared = prepare_stage(a, f, 8, 100.0)
            resolved = prepared.registers[prepared.resolved]
            c_const = (1.0 - DEFAULT_EPS) / float(np.max(np.abs(f(resolved))))
            assert prepared.c_const == c_const
            expected = np.zeros(12)
            for l in np.nonzero(prepared.resolved)[0]:
                expected[l] = rotation_amplitudes(float(prepared.registers[l]), f, c_const)
            assert np.array_equal(prepared.a1, expected)


def even_spectrum_operator(n: int, basis: str) -> DensityOperator:
    """Unit-trace operator with eigenvalues spread evenly over [0.2, 1] before
    normalization, so kappa = 5 exactly and kappa^2 / eps^3 = 25000 at eps = 0.1."""
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n))
    if basis == "unitary":
        g = g + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    w = np.linspace(1.0, 0.2, n)
    m = (q * (w / w.sum())) @ q.conj().T
    return DensityOperator(m.astype(complex) if basis == "complex-copy" else m)


class TestCopyCount:
    @pytest.mark.parametrize("basis", ["real", "complex-copy", "unitary"])
    @pytest.mark.parametrize("n", [5, 8, 16, 32])
    def test_integer_ratio_is_not_moved_by_last_bit_of_kappa(self, n, basis):
        a = even_spectrum_operator(n, basis)
        assert prepare_stage(a, INVERSE, 8, 100.0, 0.1).copies == 25000

    def test_non_integer_ratio_rounds_up(self):
        a = spectrum_density([1.0, 0.5, 0.3])
        assert prepare_stage(a, INVERSE, 8, 100.0, 0.1).copies == math.ceil(
            (1.0 / 0.3) ** 2 / 0.1**3
        )

    @pytest.mark.parametrize("kept, eps", [
        ([2.0, 1.0], 1e-7),  # past int64
        ([1e200, 1.0], 0.1),  # kappa^2 past float64
        ([1.5, 1.0], 1e-120),  # eps^3 below float64
        ([1.0, 5.562684646268e-309], 0.1),  # kappa itself past float64
    ])
    def test_count_of_any_size_is_the_exact_ceiling(self, kept, eps):
        # each ratio's fraction exceeds 1/2, where the near-integer rule agrees
        count = chain._copies(np.array(kept), eps)
        assert type(count) is int
        assert count == math.ceil((Fraction(kept[0]) / Fraction(kept[1])) ** 2
                                  / Fraction(eps) ** 3)

    @pytest.mark.parametrize("eps", [1.5e-4, 9e-5, 5.5e-5])
    def test_count_below_the_near_integer_slack_is_the_ceiling(self, eps):
        # 4 / eps**3 lies between 5e11 and 5e13 with a fraction between 0.18 and 0.49:
        # outside 1e-14 relative of an integer, within 1e-12
        exact = Fraction(4) / Fraction(eps) ** 3
        assert 5e11 < exact < 5e13 and exact - math.floor(exact) < 0.5
        assert chain._copies(np.array([2.0, 1.0]), eps) == math.ceil(exact) == round(exact) + 1

    def test_count_above_the_near_integer_slack_is_the_nearest_integer(self):
        # every ratio above 5e13 lies within 1e-14 relative of an integer; the
        # fraction of 4 / 1e-6**3 is 0.023, so its ceiling is one more
        exact = Fraction(4) / Fraction(1e-6) ** 3
        assert chain._copies(np.array([2.0, 1.0]), 1e-6) == round(exact) == math.ceil(exact) - 1


class TestKappaRule:
    @pytest.mark.parametrize("kappa_eff", [0.0, 0.5, -1.0, math.nan])
    def test_stage_and_copy_count_reject_kappa_below_one(self, kappa_eff):
        a = spectrum_density([0.6, 0.3, 0.1])
        with pytest.raises(DomainRejection, match="kappa_eff must be >= 1"):
            prepare_stage(a, INVERSE, 8, kappa_eff)

    def test_infinite_kappa_rejected_before_any_arithmetic(self):
        # an infinite cutoff would keep the exact-zero eigenvalue and divide by it
        a = DensityOperator(np.diag([1.0, 0.0]))
        for reject in (lambda: prepare_stage(a, SQRT, 8, math.inf),
                       lambda: matrix_function(a, INVERSE, math.inf)):
            with pytest.raises(DomainRejection, match="kappa_eff must be finite, got inf"):
                reject()

    def test_fully_filtered_operator_rejected_alike_everywhere(self):
        # lambda_max at or below PSD_TOL leaves nothing for the window to keep
        a = HermitianOperator(np.diag([1e-11, 0.0]))
        messages = set()
        for reject in (lambda: matrix_function(a, INVERSE, 100.0),
                       lambda: prepare_stage(a, INVERSE, 8, 100.0)):
            with pytest.raises(DomainRejection, match="rank collapse") as err:
                reject()
            messages.add(str(err.value))
        assert messages == {
            "condition-number filter removed the full spectrum (rank collapse); "
            "lambda_max = 1.000e-11"
        }


class TestChainApply:
    def test_empty_chain_without_state_rejected(self):
        # the spec itself rejects it, so chain_apply never sees an empty chain
        with pytest.raises(DomainRejection, match="^empty chain has no operator content$"):
            ChainSpec(stages=())

    def test_constant_one_chain_returns_initial_state_exactly(self):
        rng = np.random.default_rng(3)
        ops = tuple(
            (random_density_spectrum(rng, 3, low=0.4), ONE) for _ in range(3)
        )
        spec = ChainSpec(stages=ops, kappa_eff=100.0)
        report = chain_apply(spec)
        assert report.stage_success_probabilities == pytest.approx(
            [(1.0 - DEFAULT_EPS) ** 2] * 3, abs=1e-4
        )
        assert trace_distance(report.output, DensityOperator(np.eye(3) / 3.0)) < 1e-12

    def test_lda_shaped_chain_tracks_oracle(self):
        from qdasim.oracle import (
            LabeledDataset,
            between_scatter,
            class_statistics,
            within_scatter,
        )

        rng = np.random.default_rng(1)
        samples = np.vstack(
            [
                rng.standard_normal((10, 4)) * 0.5 + np.array([2.0, 0, 0, 0]),
                rng.standard_normal((10, 4)) * 0.5 - np.array([2.0, 0, 0, 0]),
            ]
        )
        data = LabeledDataset(samples, np.repeat([1, 2], 10))
        stats = class_statistics(data)
        spec = ChainSpec(
            stages=(
                (within_scatter(stats), INV_SQRT),
                (between_scatter(stats), SQRT),
            ),
            kappa_eff=100.0,
            eps=0.1,
            t=8,
        )
        report = chain_apply(spec)
        assert trace_distance(report.output, classical_chain_oracle(spec)) <= 0.05

    def test_copy_counts_follow_squared_condition_number(self):
        a = spectrum_density([1.0, 0.5, 0.25])
        spec = ChainSpec(stages=((a, SQRT),), kappa_eff=100.0, eps=0.1, t=8)
        report = chain_apply(spec)
        assert report.copies_used[0] == math.ceil(4.0**2 / 0.1**3)

    def test_amplified_floor_is_the_root_of_a_fully_resolved_stage_floor(self):
        # every eigenvalue is kept and resolved, so I/N lies in the resolved
        # support (weight 1) and the floors are min_amp and min_amp^2
        a = spectrum_density(np.linspace(1.0, 2.0, 8))
        report = chain_apply(ChainSpec(stages=((a, INVERSE),), kappa_eff=100.0, t=8))
        assert report.stages[0].resolved.all()
        assert report.amplified_bound_stage1 == pytest.approx(
            math.sqrt(report.stage_bounds[0]), rel=1e-12)

    def test_measured_success_never_undershoots_floor(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 4))
            f = [IDENTITY, INVERSE, SQRT, INV_SQRT][int(rng.integers(0, 4))]
            stages = tuple(
                (random_density_spectrum(rng, 4, low=0.5), f) for _ in range(k)
            )
            report = chain_apply(ChainSpec(stages=stages, kappa_eff=16.0, t=8))
            assert np.all(
                report.stage_success_probabilities
                >= report.stage_bounds * (1.0 - 1e-9)
            )

    def test_trace_distance_shrinks_with_register_width(self):
        rng = np.random.default_rng(4)
        a = random_density_spectrum(rng, 4, low=0.5)
        distances = []
        for t in (4, 6, 8, 10):
            spec = ChainSpec(stages=((a, INVERSE),), kappa_eff=16.0, t=t)
            report = chain_apply(spec)
            distances.append(trace_distance(report.output, classical_chain_oracle(spec)))
        assert distances[0] > distances[-1]
        assert distances[-1] <= 0.01


class TestOneSpectrumPerOperator:
    def test_oracle_pipeline_and_score_share_one_eigendecomposition(self, monkeypatch):
        rng = np.random.default_rng(15)
        ops = [random_rank_density(rng, 8, 8, real) for real in (True, False, True)]
        stages = tuple(zip(ops, (INVERSE, SQRT, INV_SQRT)))
        # the reference runs on copies: an operator stores its spectrum, and the
        # counted run below must start from undecomposed operators

        def copies():
            return tuple((DensityOperator(a.matrix), f) for a, f in stages)

        fresh = (
            classical_chain_oracle(ChainSpec(stages=copies(), t=10)).matrix,
            chain_apply(ChainSpec(stages=copies(), t=10)).output.matrix,
        )
        shapes = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        spec = ChainSpec(stages=stages, t=10)
        shared = (
            classical_chain_oracle(spec).matrix,
            chain_apply(spec).output.matrix,
        )
        assert shapes == [(8, 8)] * 3
        assert np.array_equal(shared[0], fresh[0])
        assert np.array_equal(shared[1], fresh[1])


class TestChainSpecValidation:
    def test_bad_eps_rejected(self):
        a = DensityOperator(np.eye(2) / 2.0)
        with pytest.raises(DomainRejection, match="eps"):
            ChainSpec(stages=((a, IDENTITY),), eps=1.5)

    def test_nan_kappa_rejected(self):
        a = DensityOperator(np.eye(2) / 2.0)
        with pytest.raises(DomainRejection, match="kappa_eff must be >= 1"):
            ChainSpec(stages=((a, IDENTITY),), kappa_eff=math.nan)

    def test_non_density_stage_rejected(self):
        with pytest.raises(DomainRejection, match="DensityOperator"):
            ChainSpec(stages=((np.eye(2), IDENTITY),))


_QUARTER = DensityOperator(np.eye(4) / 4)
_SQRT = SpectralFunction.from_name("sqrt")


@pytest.mark.parametrize("build, message", [
    (lambda: ChainSpec(((_QUARTER, "sqrt"),), 10.0),
     "stage 1 function is not a SpectralFunction"),
    (lambda: classical_chain_oracle(ChainSpec((), 10.0)), "empty chain has no operator content"),
    (lambda: classical_chain_oracle(
        ChainSpec(((_QUARTER, _SQRT), (DensityOperator(np.eye(2) / 2), _SQRT)), 10.0)),
     "chain stages have mismatched dimensions"),
], ids=["function-name", "empty-chain", "dimensions-4-and-2"])
def test_chain_rejection(build, message):
    with pytest.raises(DomainRejection) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("dims, message", [
    ((), "empty chain has no operator content"),
    ((4, 2), "chain stages have mismatched dimensions"),
], ids=["empty-chain", "dimensions-4-and-2"])
def test_chain_shape_rejected_before_any_decomposition(dims, message):
    # the shape rules belong to the spec: no stage operator is diagonalized
    ops = [DensityOperator(np.eye(n) / n) for n in dims]
    with pytest.raises(DomainRejection) as info:
        ChainSpec(tuple((a, _SQRT) for a in ops), 10.0)
    assert str(info.value) == message
    assert all(a._eig is None for a in ops)
