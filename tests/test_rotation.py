"""Fixed-point rotation pipeline: shift-add products, Taylor evaluation,
arcsin series, and the amplitude pair."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from qdasim.errors import DomainRejection
from qdasim.linalg import SpectralFunction
from qdasim.rotation import (
    DEFAULT_GUARD_BITS,
    DEFAULT_INTEGER_BITS,
    FixedPointValue,
    TaylorSpec,
    _Lanes,
    _preconditioned_coefficients,
    arcsin_angle,
    arcsin_series_coefficients,
    arcsin_series_reference,
    arcsin_terms_for_budget,
    rotation_amplitudes,
    shift_add_multiply,
    taylor_eval,
)


def fp(x, ib=4, fb=16):
    return FixedPointValue.from_float(x, ib, fb)


def shift_add_reference(a, b, ib, fb):
    """Grade-school product: add left-shifted copies of a per set bit of b,
    then truncate once to Q(ib).(fb) and flag lost high bits."""
    acc = 0
    rest = b.magnitude
    shift = 0
    while rest:
        if rest & 1:
            acc += a.magnitude << shift
        rest >>= 1
        shift += 1
    drop = a.fraction_bits + b.fraction_bits - fb
    mag = acc >> drop if drop >= 0 else acc << -drop
    limit = 1 << (ib + fb)
    overflow = a.overflow or b.overflow or mag >= limit
    if mag >= limit:
        mag &= limit - 1
    return FixedPointValue(a.sign * b.sign if mag else 1, mag, ib, fb, overflow)


def _dyadic_window(lam: float) -> tuple[int, float]:
    """Window level j with lam in (2^-j-1, 2^-j]; midpoint x0 = 3 * 2^-j-2."""
    j = 0
    while lam <= 2.0 ** -(j + 1):
        j += 1
    return j, 3.0 * 2.0 ** -(j + 2)


def scalar_windowed_series(x, f, c_const, order, integer_bits, working_bits):
    """Reference: C * f(x) for one positive fixed-point x via its window's series."""
    j, x0 = _dyadic_window(x.value)
    if j + 2 > working_bits:
        raise DomainRejection(
            f"value {x.value:.3g} is below the resolution of {working_bits} fraction bits"
        )
    x0_reg = FixedPointValue.from_float(x0, integer_bits, working_bits)
    d = x.widen(integer_bits, working_bits) - x0_reg
    d_shifted = FixedPointValue(
        d.sign, d.magnitude << (j + 2), integer_bits, working_bits, d.overflow
    )
    third = FixedPointValue.from_float(1.0 / 3.0, integer_bits, 2 * working_bits)
    u = shift_add_multiply(d_shifted, third, integer_bits, working_bits)
    coeff_vals = _preconditioned_coefficients(f, c_const, x0, order)
    if any(abs(c) >= float(1 << integer_bits) for c in coeff_vals):
        raise DomainRejection(
            f"preconditioned Taylor coefficients overflow the {integer_bits}-bit "
            "integer field"
        )
    coeffs = tuple(
        FixedPointValue.from_float(c, integer_bits, working_bits) for c in coeff_vals
    )
    spec = TaylorSpec(
        coefficients=coeffs,
        expansion_point=FixedPointValue(1, 0, integer_bits, working_bits),
        radius=0.5,
    )
    return taylor_eval(spec, u)


def scalar_rotation_amplitudes(lam, f, c_const, *, fraction_bits=16, order=8, arcsin_terms=None):
    """Reference: the fixed-point pipeline for one eigenvalue, one register
    value at a time through the scalar primitives."""
    if not 0.0 < lam <= 1.0:
        raise DomainRejection(f"lambda must lie in (0, 1], got {lam}")
    target = c_const * float(f(lam))
    if abs(target) > 1.0 + 1e-12:
        raise DomainRejection(
            f"|C f(lambda)| = {abs(target):.6g} exceeds 1; no valid rotation exists"
        )
    wb = fraction_bits + DEFAULT_GUARD_BITS
    ib = DEFAULT_INTEGER_BITS
    lam_reg = FixedPointValue.from_float(lam, ib, fraction_bits)
    g = scalar_windowed_series(lam_reg, f, c_const, order, ib, wb)
    if abs(g.value) >= 1.0:
        return 0.0, float(g.sign)
    split = math.sqrt(0.5)
    half_pi = FixedPointValue.from_float(math.pi / 2.0, ib, wb)
    if abs(g.value) <= split:
        terms = arcsin_terms if arcsin_terms is not None else arcsin_terms_for_budget(
            abs(g.value), fraction_bits
        )
        theta_wide = arcsin_angle(g, terms)
    else:
        one = FixedPointValue(1, 1 << wb, ib, wb)
        s = one - shift_add_multiply(g, g, ib, wb)
        if s.value < 2.0 ** -(wb - 2):
            theta_wide = half_pi if g.sign > 0 else -half_pi
        else:
            root = scalar_windowed_series(
                s, SpectralFunction.from_name("sqrt"), 1.0, order, ib, wb
            )
            terms = arcsin_terms if arcsin_terms is not None else arcsin_terms_for_budget(
                min(abs(root.value), split + 2.0**-10), fraction_bits
            )
            complement = half_pi - arcsin_angle(root, terms)
            theta_wide = complement if g.sign > 0 else -complement
    theta = theta_wide.truncate(ib, fraction_bits)
    return math.cos(theta.value), math.sin(theta.value)


def rejection(fn, *args, **kwargs) -> str:
    with pytest.raises(DomainRejection) as err:
        fn(*args, **kwargs)
    return str(err.value)


class TestFixedPointValue:
    def test_value_round_trip(self):
        v = fp(0.625, 4, 8)
        assert v.value == 0.625

    def test_truncates_toward_zero(self):
        assert fp(0.9999, 4, 2).value == 0.75
        assert fp(-0.9999, 4, 2).value == -0.75

    def test_overflow_flagged_not_silent(self):
        v = FixedPointValue.from_float(20.0, 4, 4)
        assert v.overflow

    def test_addition_exact_and_flag_propagates(self):
        a, b = fp(1.25, 4, 8), fp(2.5, 4, 8)
        assert (a + b).value == 3.75
        tainted = FixedPointValue.from_float(20.0, 4, 4)
        assert (a + tainted).overflow


class TestShiftAddMultiply:
    def test_integer_product(self):
        out = shift_add_multiply(fp(3, 8, 0), fp(5, 8, 0))
        assert out.value == 15.0
        assert not out.overflow

    def test_fraction_product(self):
        out = shift_add_multiply(fp(0.5, 4, 8), fp(0.5, 4, 8))
        assert out.value == 0.25

    def test_overflow_flagged(self):
        out = shift_add_multiply(fp(7.0, 3, 4), fp(7.0, 3, 4))
        assert out.overflow

    def test_truncation_bound_100_seeds(self):
        # |result - exact product of the quantized operands| <= partial products * 2^-b
        b = 12
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x, y = rng.uniform(-3, 3, size=2)
            a, c = fp(x, 8, b), fp(y, 8, b)
            out = shift_add_multiply(a, c)
            partials = max(1, bin(c.magnitude).count("1"))
            assert abs(out.value - a.value * c.value) <= partials * 2.0**-b


    def test_matches_shift_add_reference_at_mixed_widths(self):
        rng = np.random.default_rng(0)
        overflowed = 0
        for _ in range(2000):
            operands = []
            for _ in range(2):
                ib, fb = int(rng.integers(0, 9)), int(rng.integers(0, 40))
                mag = int(rng.integers(0, 1 << (ib + fb))) if ib + fb else 0
                sign = int(rng.choice([-1, 1])) if mag else 1
                operands.append(FixedPointValue(sign, mag, ib, fb, bool(rng.random() < 0.05)))
            a, b = operands
            if rng.random() < 0.5:
                ib, fb = None, None
                ref_ib = max(a.integer_bits, b.integer_bits)
                ref_fb = max(a.fraction_bits, b.fraction_bits)
            else:
                ib, fb = int(rng.integers(0, 6)), int(rng.integers(0, 60))
                ref_ib, ref_fb = ib, fb
            out = shift_add_multiply(a, b, ib, fb)
            assert out == shift_add_reference(a, b, ref_ib, ref_fb)
            overflowed += out.overflow and not (a.overflow or b.overflow)
        assert overflowed > 100  # truncated outputs are part of the sample


class TestTaylorEval:
    def test_identity_series_is_exact(self):
        spec = TaylorSpec((fp(0.0), fp(1.0)), fp(0.0))
        lam = fp(0.4375)
        assert taylor_eval(spec, lam).value == lam.value

    def test_inverse_around_one_hand_value(self):
        # 1/x at x0=1, n=3, lam=0.9: partial sum 1.111 vs true 1.1111...
        coeffs = tuple(fp(c, 4, 20) for c in (1.0, -1.0, 1.0, -1.0))
        spec = TaylorSpec(coeffs, fp(1.0, 4, 20), radius=1.0)
        out = taylor_eval(spec, fp(0.9, 4, 20))
        assert out.value == pytest.approx(1.111, abs=1e-4)

    def test_rounding_budget_random_series(self):
        # against the same truncated series in float arithmetic: only the
        # per-operation truncations remain, bounded by 3n * 2^-b
        b = 14
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            cs = rng.uniform(-1, 1, size=n + 1) * 0.5 ** np.arange(n + 1)
            x = float(rng.uniform(-0.4, 0.4))
            spec = TaylorSpec(tuple(fp(c, 4, b) for c in cs), fp(0.0, 4, b))
            out = taylor_eval(spec, fp(x, 4, b))
            oracle = sum(fp(c, 4, b).value * fp(x, 4, b).value ** i for i, c in enumerate(cs))
            assert abs(out.value - oracle) <= 3 * n * 2.0**-b

    def test_radius_enforced(self):
        spec = TaylorSpec((fp(1.0), fp(-1.0)), fp(1.0), radius=0.5)
        with pytest.raises(DomainRejection, match="radius"):
            taylor_eval(spec, fp(0.2))

    def test_alternating_series_error_monotone_in_order(self):
        # 1/(1+x) around 0: alternating signs; more terms never hurt on the grid
        b = 30
        for x in (0.05, 0.15, 0.25, 0.35):
            errs = []
            for n in range(2, 9):
                coeffs = tuple(fp((-1.0) ** i, 4, b) for i in range(n + 1))
                out = taylor_eval(TaylorSpec(coeffs, fp(0.0, 4, b)), fp(x, 4, b))
                errs.append(abs(out.value - 1.0 / (1.0 + x)))
            for e_prev, e_next in zip(errs, errs[1:]):
                assert e_next <= e_prev + 2.0 ** -(b - 2)


class TestArcsinAngle:
    def test_zero(self):
        assert arcsin_angle(fp(0.0), 4).value == 0.0

    def test_leading_coefficients_exact(self):
        assert arcsin_series_coefficients(4) == [
            Fraction(1),
            Fraction(1, 6),
            Fraction(3, 40),
            Fraction(5, 112),
        ]

    def test_four_terms_at_half_exact_arithmetic(self):
        val = arcsin_series_reference(0.5, 4)
        assert val == pytest.approx(0.523526, abs=1e-6)
        assert abs(val - math.asin(0.5)) < 1e-4

    def test_four_terms_at_half_fixed_point_budget(self):
        out = arcsin_angle(fp(0.5, 4, 16), 4)
        assert abs(out.value - arcsin_series_reference(0.5, 4)) <= 12 * 2.0**-16

    def test_odd_exactly(self):
        for x in (0.125, 0.3, 0.6875, 0.9):
            pos = arcsin_angle(fp(x), 6)
            neg = arcsin_angle(fp(-x), 6)
            assert neg.value == -pos.value
            assert neg.magnitude == pos.magnitude

    def test_rejects_arguments_at_or_beyond_one(self):
        with pytest.raises(DomainRejection, match="radius"):
            arcsin_angle(fp(1.0), 4)

    def test_more_terms_reduce_truncation_error(self):
        x = 0.9
        e1 = abs(arcsin_series_reference(x, 6) - math.asin(x))
        e2 = abs(arcsin_series_reference(x, 12) - math.asin(x))
        assert e2 < e1


class TestRotationAmplitudes:
    def test_identity_at_one_exact(self):
        f = SpectralFunction.from_name("identity")
        a0, a1 = rotation_amplitudes(1.0, f, 1.0, method="exact")
        assert (a0, a1) == (0.0, 1.0)

    def test_pythagorean_pair(self):
        f = SpectralFunction.from_name("identity")
        a0, a1 = rotation_amplitudes(0.6, f, 1.0, method="exact")
        assert (a0, a1) == (pytest.approx(0.8), pytest.approx(0.6))
        a0f, a1f = rotation_amplitudes(0.6, f, 1.0)
        assert a1f == pytest.approx(0.6, abs=2.0**-13)

    def test_rejects_overlarge_cf(self):
        f = SpectralFunction.from_name("inverse")
        with pytest.raises(DomainRejection, match="exceeds 1"):
            rotation_amplitudes(0.1, f, 1.0)

    def test_normalization_exact_path(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            lam = float(rng.uniform(0.02, 1.0))
            r = float(rng.uniform(-1.5, 1.5))
            f = SpectralFunction.power(r)
            c = 0.95 / float(abs(f(lam)))
            a0, a1 = rotation_amplitudes(lam, f, c, method="exact")
            assert a0 * a0 + a1 * a1 == pytest.approx(1.0, abs=1e-12)

    def test_fixed_vs_exact_within_budget_b16(self):
        grid = [m / 256 for m in range(3, 257, 7)]
        for name in ("identity", "inverse", "inverse-sqrt"):
            f = SpectralFunction.from_name(name)
            c = 0.9 / float(np.max(np.abs(f(np.array(grid)))))
            for lam in grid:
                a0, a1 = rotation_amplitudes(lam, f, c)
                _, a1e = rotation_amplitudes(lam, f, c, method="exact")
                assert abs(a1 - a1e) <= 2.0 ** (-16 + 3)

    def test_error_shrinks_geometrically_in_fraction_bits(self):
        f = SpectralFunction.from_name("inverse-sqrt")
        grid = [m / 256 for m in range(3, 257, 3)]
        c = 0.9 / float(np.max(np.abs(f(np.array(grid)))))

        def max_err(bits):
            errs = []
            for lam in grid:
                _, a1 = rotation_amplitudes(lam, f, c, fraction_bits=bits)
                errs.append(abs(a1 - c * float(f(lam))))
            return max(errs)

        assert max_err(8) / max_err(16) >= 100.0


STAGE_FUNCTIONS = ("identity", "inverse", "sqrt", "inverse-sqrt", "power(0.3)", "power(-1.5)")


class TestBatchedRotation:
    @pytest.mark.parametrize("name", STAGE_FUNCTIONS)
    def test_every_register_value_matches_scalar_reference_bitwise(self, name):
        f = SpectralFunction.from_name(name)
        for t in range(2, 13):
            values = np.arange(1, 1 << t) / (1 << t)
            c = (1.0 - 0.1) / float(np.max(np.abs(f(values))))
            a0, a1 = rotation_amplitudes(tuple(values.tolist()), f, c)
            expected = np.array([scalar_rotation_amplitudes(v, f, c) for v in values.tolist()])
            assert np.array_equal(a0, expected[:, 0]), t
            assert np.array_equal(a1, expected[:, 1]), t

    @pytest.mark.parametrize("bits", [8, 24])
    def test_other_register_widths_match_scalar_reference_bitwise(self, bits):
        # at 24 fraction bits the lanes hold Python integers: products need > 63 bits
        values = np.arange(1, 256) / 256
        for name in ("inverse", "sqrt"):
            f = SpectralFunction.from_name(name)
            c = 0.9 / float(np.max(np.abs(f(values))))
            for terms in (None, 3):
                a0, a1 = rotation_amplitudes(
                    values, f, c, fraction_bits=bits, arcsin_terms=terms
                )
                for k, v in enumerate(values.tolist()):
                    ref = scalar_rotation_amplitudes(
                        v, f, c, fraction_bits=bits, arcsin_terms=terms
                    )
                    assert (a0[k], a1[k]) == ref

    def test_saturation_and_quarter_turn_lanes_match_scalar_reference_bitwise(self):
        # |C f| within a few working-register steps of 1, with both signs of C:
        # the inverse series overshoots 1 and saturates (a0 = 0); identity
        # lanes take the exact quarter turn or the complement branch
        cases = (
            ("identity", (1.0, 1.0 - 2.0**-16, 1.0 - 2.0**-15)),
            ("inverse", (1.0,)),
        )
        saturated = set()
        for name, values in cases:
            f = SpectralFunction.from_name(name)
            for k in range(64):
                for sign in (1.0, -1.0):
                    c = sign * (1.0 - k * 2.0**-24)
                    a0, a1 = rotation_amplitudes(values, f, c)
                    for lam, b0, b1 in zip(values, a0, a1):
                        assert (b0, b1) == scalar_rotation_amplitudes(lam, f, c)
                        saturated.add((bool(b0 == 0.0), math.copysign(1.0, b1)))
        assert saturated == {(True, 1.0), (True, -1.0), (False, 1.0), (False, -1.0)}

    def test_scalar_input_gives_floats_and_shape_follows_input(self):
        f = SpectralFunction.from_name("inverse")
        a0, a1 = rotation_amplitudes(0.5, f, 0.4)
        assert isinstance(a0, float) and isinstance(a1, float)
        b0, b1 = rotation_amplitudes([[0.5, 0.25]], f, 0.2)
        assert b0.shape == b1.shape == (1, 2)

    def test_rejection_messages_match_scalar_reference(self):
        inverse = SpectralFunction.from_name("inverse")
        steep = SpectralFunction.power(-6.0)
        # |C f| > 1, and one bad value among good ones still rejects the batch
        assert rejection(rotation_amplitudes, (1.0, 0.1), inverse, 1.0) == rejection(
            scalar_rotation_amplitudes, 0.1, inverse, 1.0
        )
        assert "exceeds 1" in rejection(rotation_amplitudes, 0.1, inverse, 1.0)
        # coefficients of C f(x0 (1 + u)) beyond the 4-bit integer field
        message = rejection(rotation_amplitudes, 1.0, steep, 1.0)
        assert message == rejection(scalar_rotation_amplitudes, 1.0, steep, 1.0)
        assert "overflow the 4-bit integer field" in message
        # below the window resolution of the working register
        x = FixedPointValue.from_float(2.0**-10, 4, 16)
        lanes = np.array([x.magnitude], dtype=np.int64)
        message = rejection(_Lanes(4, 8).series, lanes, 16, inverse, 2.0**-11, 8)
        assert message == rejection(scalar_windowed_series, x, inverse, 2.0**-11, 8, 4, 8)
        assert "below the resolution of 8 fraction bits" in message
        # an eigenvalue under one register step is rejected, not looped on
        assert "below the resolution" in rejection(rotation_amplitudes, 2.0**-20, inverse, 1e-7)
