"""Fixed-point rotation pipeline: the batched integer lanes of
``qdasim.rotation`` against a scalar register reference kept here.

The reference holds one value per register: ``FixedPointValue`` arithmetic,
``shift_add_multiply``, ``TaylorSpec``/``taylor_eval`` and ``arcsin_angle``,
which record lost high bits in an ``overflow`` flag. Every lane of
``rotation_amplitudes`` must equal it bit for bit."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from qdasim.errors import DomainRejection, NumericalFailure
from qdasim.linalg import SpectralFunction
from qdasim.rotation import (
    DEFAULT_FRACTION_BITS,
    DEFAULT_GUARD_BITS,
    DEFAULT_INTEGER_BITS,
    _ARCSIN_FLOATS,
    _MAX_ARCSIN_TERMS,
    _Lanes,
    _preconditioned_coefficients,
    arcsin_series_reference,
    arcsin_terms_for_budget,
    rotation_amplitudes,
)


@dataclass(frozen=True)
class FixedPointValue:
    """Signed fixed-point number: value = sign * magnitude * 2**-fraction_bits.

    ``overflow`` records that some operation on the way to this value lost
    high bits; it propagates through arithmetic and is never raised silently.
    """

    sign: int
    magnitude: int
    integer_bits: int
    fraction_bits: int
    overflow: bool = False

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise DomainRejection("sign must be +1 or -1")
        if self.magnitude < 0:
            raise DomainRejection("magnitude must be a non-negative integer")
        if self.integer_bits < 0 or self.fraction_bits < 0:
            raise DomainRejection("register widths must be non-negative")
        if self.magnitude >= 1 << (self.integer_bits + self.fraction_bits):
            raise DomainRejection(
                f"magnitude {self.magnitude} does not fit in "
                f"{self.integer_bits}+{self.fraction_bits} bits"
            )

    @classmethod
    def from_float(
        cls,
        x: float,
        integer_bits: int = DEFAULT_INTEGER_BITS,
        fraction_bits: int = DEFAULT_FRACTION_BITS,
    ) -> "FixedPointValue":
        """Quantize a real number by truncation toward zero; overflow is flagged."""
        if not math.isfinite(x):
            raise DomainRejection(f"cannot represent non-finite value {x!r}")
        sign = -1 if x < 0 else 1
        mag = int(abs(x) * (1 << fraction_bits))  # int() truncates toward zero
        limit = 1 << (integer_bits + fraction_bits)
        overflow = mag >= limit
        if overflow:
            mag &= limit - 1
        return cls(sign, mag, integer_bits, fraction_bits, overflow)

    @property
    def value(self) -> float:
        return self.sign * self.magnitude / (1 << self.fraction_bits)

    def widen(self, integer_bits: int, fraction_bits: int) -> "FixedPointValue":
        """Exact width extension (both fields must grow or stay equal)."""
        if integer_bits < self.integer_bits or fraction_bits < self.fraction_bits:
            raise DomainRejection("widen cannot shrink a register")
        return FixedPointValue(
            self.sign,
            self.magnitude << (fraction_bits - self.fraction_bits),
            integer_bits,
            fraction_bits,
            self.overflow,
        )

    def truncate(self, integer_bits: int, fraction_bits: int) -> "FixedPointValue":
        """Truncate toward zero to narrower widths; lost high bits set the flag."""
        mag = self.magnitude
        if fraction_bits < self.fraction_bits:
            mag >>= self.fraction_bits - fraction_bits
        else:
            mag <<= fraction_bits - self.fraction_bits
        limit = 1 << (integer_bits + fraction_bits)
        overflow = self.overflow or mag >= limit
        if mag >= limit:
            mag &= limit - 1
        return FixedPointValue(self.sign if mag else 1, mag, integer_bits, fraction_bits, overflow)

    def __neg__(self) -> "FixedPointValue":
        if self.magnitude == 0:
            return self
        return FixedPointValue(
            -self.sign, self.magnitude, self.integer_bits, self.fraction_bits, self.overflow
        )

    def __add__(self, other: "FixedPointValue") -> "FixedPointValue":
        """Exact signed addition at the joint widths; overflow flagged."""
        fb = max(self.fraction_bits, other.fraction_bits)
        ib = max(self.integer_bits, other.integer_bits)
        a = self.sign * (self.magnitude << (fb - self.fraction_bits))
        b = other.sign * (other.magnitude << (fb - other.fraction_bits))
        s = a + b
        sign = -1 if s < 0 else 1
        mag = abs(s)
        limit = 1 << (ib + fb)
        overflow = self.overflow or other.overflow or mag >= limit
        if mag >= limit:
            mag &= limit - 1
        return FixedPointValue(sign if mag else 1, mag, ib, fb, overflow)

    def __sub__(self, other: "FixedPointValue") -> "FixedPointValue":
        return self + (-other)

    def __repr__(self) -> str:
        flag = ", overflow" if self.overflow else ""
        return (
            f"FixedPointValue({self.value!r}, Q{self.integer_bits}.{self.fraction_bits}{flag})"
        )


def shift_add_multiply(
    a: FixedPointValue,
    b: FixedPointValue,
    integer_bits: int | None = None,
    fraction_bits: int | None = None,
) -> FixedPointValue:
    """Exact integer product of the magnitudes, truncated once to the output width.

    The product is exact; the single truncation to the output width happens
    at the end, so |result - exact| <= 2**-fraction_bits.
    Overflow beyond the output integer width is flagged, never silent.
    """
    ib = max(a.integer_bits, b.integer_bits) if integer_bits is None else integer_bits
    fb = max(a.fraction_bits, b.fraction_bits) if fraction_bits is None else fraction_bits
    acc = a.magnitude * b.magnitude
    # acc carries a.fraction_bits + b.fraction_bits fractional bits
    drop = a.fraction_bits + b.fraction_bits - fb
    mag = acc >> drop if drop >= 0 else acc << -drop
    sign = a.sign * b.sign
    limit = 1 << (ib + fb)
    overflow = a.overflow or b.overflow or mag >= limit
    if mag >= limit:
        mag &= limit - 1
    return FixedPointValue(sign if mag else 1, mag, ib, fb, overflow)


@dataclass(frozen=True)
class TaylorSpec:
    """Truncated Taylor expansion: coefficients f^(i)(x0)/i! around x0.

    ``radius`` optionally records the convergence radius in the deviation
    variable; evaluations outside it are rejected.
    """

    coefficients: tuple[FixedPointValue, ...]
    expansion_point: FixedPointValue
    radius: float | None = None

    def __post_init__(self) -> None:
        if len(self.coefficients) < 2:
            raise DomainRejection("a Taylor spec needs order n >= 1")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1


def taylor_eval(spec: TaylorSpec, lam: FixedPointValue) -> FixedPointValue:
    """Evaluate the series with a running power register and a running total.

    Structure per series term: one multiply updating the power register, one
    multiply by the stored coefficient, one exact accumulate. No Horner
    rewriting, so the register usage matches a reversible-arithmetic layout.
    """
    fb = max(
        lam.fraction_bits,
        spec.expansion_point.fraction_bits,
        max(c.fraction_bits for c in spec.coefficients),
    )
    ib = max(
        lam.integer_bits,
        spec.expansion_point.integer_bits,
        max(c.integer_bits for c in spec.coefficients),
    )
    aux = lam.widen(ib, fb) - spec.expansion_point.widen(ib, fb)
    if spec.radius is not None and abs(aux.value) >= spec.radius:
        raise DomainRejection(
            f"deviation {aux.value:.6g} outside convergence radius {spec.radius:.6g}"
        )
    power = FixedPointValue(1, 1 << fb, ib, fb)
    total = spec.coefficients[0].widen(ib, fb)
    for coeff in spec.coefficients[1:]:
        power = shift_add_multiply(power, aux, ib, fb)
        term = shift_add_multiply(power, coeff.widen(ib, fb), ib, fb)
        total = total + term
    return total


@functools.lru_cache(maxsize=None)
def _arcsin_coefficient(j: int) -> Fraction:
    return Fraction(math.comb(2 * j, j), 4**j * (2 * j + 1))


def arcsin_series_coefficients(terms: int) -> list[Fraction]:
    """Exact Maclaurin coefficients of arcsin: x + x^3/6 + 3x^5/40 + 5x^7/112 + ...

    Entry j multiplies x**(2j + 1).
    """
    if terms < 1:
        raise DomainRejection("need at least one arcsin series term")
    return [_arcsin_coefficient(j) for j in range(terms)]


def arcsin_angle(cf: FixedPointValue, terms: int) -> FixedPointValue:
    """theta = arcsin(cf) by the Maclaurin series around 0, in fixed point.

    Only odd powers appear; magnitude arithmetic truncates toward zero, so
    the result is exactly odd in cf.
    """
    if abs(cf.value) >= 1.0:
        raise DomainRejection(
            f"|Cf| = {abs(cf.value):.6g} is outside the arcsin convergence radius"
        )
    fracs = arcsin_series_coefficients(terms)
    ib, fb = cf.integer_bits, cf.fraction_bits
    coeffs = []
    for j in range(terms):
        coeffs.append(FixedPointValue(1, 0, ib, fb))  # even power: zero coefficient
        coeffs.append(FixedPointValue.from_float(float(fracs[j]), ib, fb))
    # leading zero constant term, then alternating (0, a_j) up to x^(2*terms-1)
    spec = TaylorSpec(
        coefficients=tuple(coeffs),
        expansion_point=FixedPointValue(1, 0, ib, fb),
        radius=1.0,
    )
    return taylor_eval(spec, cf)


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
        return float(g.sign)
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
    return math.sin(theta.value)


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
        # the pipeline's floats are the correctly rounded exact coefficients
        exact = arcsin_series_coefficients(_MAX_ARCSIN_TERMS)
        assert list(_ARCSIN_FLOATS) == [float(c) for c in exact]

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
        assert np.clip(1.0 * f(1.0), -1.0, 1.0) == 1.0

    def test_pythagorean_pair(self):
        f = SpectralFunction.from_name("identity")
        assert np.clip(1.0 * f(0.6), -1.0, 1.0) == pytest.approx(0.6)
        assert rotation_amplitudes(0.6, f, 1.0) == pytest.approx(0.6, abs=2.0**-13)

    def test_rejects_overlarge_cf(self):
        f = SpectralFunction.from_name("inverse")
        with pytest.raises(DomainRejection, match="exceeds 1"):
            rotation_amplitudes(0.1, f, 1.0)

    def test_fixed_vs_exact_within_budget_b16(self):
        grid = [m / 256 for m in range(3, 257, 7)]
        for name in ("identity", "inverse", "inverse-sqrt"):
            f = SpectralFunction.from_name(name)
            c = 0.9 / float(np.max(np.abs(f(np.array(grid)))))
            for lam in grid:
                a1 = rotation_amplitudes(lam, f, c)
                a1e = np.clip(c * f(lam), -1.0, 1.0)
                assert abs(a1 - a1e) <= 2.0 ** (-16 + 3)

    def test_error_shrinks_geometrically_in_fraction_bits(self):
        f = SpectralFunction.from_name("inverse-sqrt")
        grid = [m / 256 for m in range(3, 257, 3)]
        c = 0.9 / float(np.max(np.abs(f(np.array(grid)))))

        def max_err(bits):
            errs = []
            for lam in grid:
                a1 = rotation_amplitudes(lam, f, c, fraction_bits=bits)
                errs.append(abs(a1 - c * float(f(lam))))
            return max(errs)

        assert max_err(8) / max_err(16) >= 100.0


def _binomial(r: float, i: int) -> Fraction:
    """The generalized binomial coefficient binom(r, i), exact in the float r."""
    out = Fraction(1)
    for k in range(i):
        out *= (Fraction(r) - k) / (k + 1)
    return out


class TestPreconditionedCoefficients:
    @pytest.mark.parametrize("r", [-1.0, -0.5, 0.0, 0.5, 3.0])
    def test_binomial_series_of_the_window(self, r):
        f, c_const, x0, order = SpectralFunction.power(r), 0.37, 3.0 * 2.0**-5, 8
        coeffs = _preconditioned_coefficients(f, c_const, x0, order)
        scale = c_const * float(f(x0))
        assert len(coeffs) == order + 1
        for i, c in enumerate(coeffs):
            exact = scale * float(_binomial(r, i))
            assert c == pytest.approx(exact, rel=1e-14, abs=0.0)
        # Lagrange remainder of (1 + u)**r after the u**8 term, at |u| <= 1/3:
        # |binom(r, 9)| |u|^9 max (1 + xi)**(r - 9) with (1 + xi) in [2/3, 4/3]
        u = np.linspace(-1.0 / 3.0, 1.0 / 3.0, 41)
        factor = max((2.0 / 3.0) ** (r - order - 1), (4.0 / 3.0) ** (r - order - 1))
        bound = abs(scale * float(_binomial(r, order + 1))) * np.abs(u) ** (order + 1) * factor
        series = sum(c * u**i for i, c in enumerate(coeffs))
        err = np.abs(series - c_const * f(x0 * (1.0 + u)))
        assert np.all(err <= bound + 1e-14 * abs(scale))

    def test_integer_power_series_ends_at_its_degree(self):
        # binom(3, i) = 0 past i = 3, so no order makes a coefficient overflow
        coeffs = _preconditioned_coefficients(SpectralFunction.power(3.0), 1.0, 3.0 * 2.0**-42, 300)
        assert coeffs[4:] == [0.0] * 297
        assert coeffs[:4] == pytest.approx([27.0 * 2.0**-126 * b for b in (1, 3, 3, 1)],
                                           rel=1e-15, abs=0.0)


STAGE_FUNCTIONS = ("identity", "inverse", "sqrt", "inverse-sqrt", "power(0.3)", "power(-1.5)")


class TestBatchedRotation:
    @pytest.mark.parametrize("name", STAGE_FUNCTIONS)
    def test_every_register_value_matches_scalar_reference_bitwise(self, name):
        f = SpectralFunction.from_name(name)
        for t in range(2, 13):
            values = np.arange(1, 1 << t) / (1 << t)
            c = (1.0 - 0.1) / float(np.max(np.abs(f(values))))
            a1 = rotation_amplitudes(tuple(values.tolist()), f, c)
            expected = np.array([scalar_rotation_amplitudes(v, f, c) for v in values.tolist()])
            assert np.array_equal(a1, expected), t

    @pytest.mark.parametrize("bits", [8, 19, 20, 24, 60])
    def test_other_register_widths_match_scalar_reference_bitwise(self, bits):
        # a product of two registers needs 62 bits at 19 fraction bits and 64 at
        # 20; at 60 a register alone is wider than a float's 53-bit significand
        values = np.arange(1, 256) / 256
        for name in ("inverse", "sqrt"):
            f = SpectralFunction.from_name(name)
            c = 0.9 / float(np.max(np.abs(f(values))))
            for terms in (None, 3):
                a1 = rotation_amplitudes(values, f, c, fraction_bits=bits, arcsin_terms=terms)
                for k, v in enumerate(values.tolist()):
                    ref = scalar_rotation_amplitudes(
                        v, f, c, fraction_bits=bits, arcsin_terms=terms
                    )
                    assert a1[k] == ref

    def test_saturation_and_quarter_turn_lanes_match_scalar_reference_bitwise(self):
        # |C f| within a few working-register steps of 1, with both signs of C:
        # the inverse series overshoots 1 and saturates (|a1| = 1); identity
        # lanes take the exact quarter turn or the complement branch. A rotated
        # lane's angle register stays below pi/2, so only saturation gives |a1| = 1
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
                    a1 = rotation_amplitudes(values, f, c)
                    for lam, b1 in zip(values, a1):
                        assert b1 == scalar_rotation_amplitudes(lam, f, c)
                        saturated.add((bool(abs(b1) == 1.0), math.copysign(1.0, b1)))
        assert saturated == {(True, 1.0), (True, -1.0), (False, 1.0), (False, -1.0)}

    def test_scalar_input_gives_floats_and_shape_follows_input(self):
        f = SpectralFunction.from_name("inverse")
        assert isinstance(rotation_amplitudes(0.5, f, 0.4), float)
        assert rotation_amplitudes([[0.5, 0.25]], f, 0.2).shape == (1, 2)

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
        # register widths and series lengths the scalar types refuse
        for kwargs in ({"order": 0}, {"order": -1}, {"arcsin_terms": 0}):
            message = rejection(rotation_amplitudes, 0.5, inverse, 0.4, **kwargs)
            assert message == rejection(scalar_rotation_amplitudes, 0.5, inverse, 0.4, **kwargs)
        assert rejection(rotation_amplitudes, 0.5, inverse, 0.4, fraction_bits=-2) == rejection(
            FixedPointValue, 1, 0, DEFAULT_INTEGER_BITS, -2
        )
        assert "must be finite" in rejection(rotation_amplitudes, 0.5, inverse, math.nan)

    @pytest.mark.parametrize("bits", [16, 60])
    def test_arcsin_terms_past_the_last_nonzero_power_change_no_bit(self, bits):
        # a million terms, or more than an int64 holds, costs what a thousand
        # do: the series stops building terms once every lane's power reads 0
        values = np.arange(1, 256) / 256
        for name in ("identity", "inverse-sqrt"):
            f = SpectralFunction.from_name(name)
            c = 0.9 / float(np.max(np.abs(f(values))))
            ref = rotation_amplitudes(values, f, c, fraction_bits=bits, arcsin_terms=1000)
            for terms in (10**6, 10**20):
                a1 = rotation_amplitudes(values, f, c, fraction_bits=bits, arcsin_terms=terms)
                assert np.array_equal(a1, ref)

    def test_arcsin_terms_beyond_the_budget_table_match_scalar_reference_bitwise(self):
        f = SpectralFunction.from_name("identity")
        values = np.arange(1, 64) / 64
        a1 = rotation_amplitudes(values, f, 0.9, arcsin_terms=_MAX_ARCSIN_TERMS + 12)
        for k, v in enumerate(values.tolist()):
            ref = scalar_rotation_amplitudes(v, f, 0.9, arcsin_terms=_MAX_ARCSIN_TERMS + 12)
            assert a1[k] == ref


class TestLostBits:
    """A value that does not fit its lane register raises; nothing is masked."""

    def test_product_beyond_the_register_raises(self):
        # 31 * 31 at Q1.4 is 60.06, which needs 7 magnitude bits of the 5
        lanes = _Lanes(1, 4)
        with pytest.raises(NumericalFailure, match="Q1.4"):
            lanes.multiply(np.array([31]), np.array([31]))
        with pytest.raises(NumericalFailure):
            lanes.multiply(np.array([3, -31]), np.array([3, 31]))
        assert lanes.multiply(np.array([16, -31]), np.array([16, 16])).tolist() == [16, -31]

    def test_sum_at_the_register_limit_raises(self):
        lanes = _Lanes(1, 4)
        for v in (32, -32, 31 + 31):
            with pytest.raises(NumericalFailure):
                lanes.checked(np.array([0, v]))
        assert lanes.checked(np.array([31, -31, 0])).tolist() == [31, -31, 0]

    def test_real_number_beyond_the_register_raises(self):
        lanes = _Lanes(1, 4)
        with pytest.raises(NumericalFailure):
            lanes.fixed(2.0)
        assert lanes.fixed(-1.99) == -31
        assert lanes.fixed(0.9999) == 15


_INVERSE = SpectralFunction.from_name("inverse")


@pytest.mark.parametrize("build, message", [
    (lambda: arcsin_series_reference(0.5, 0), "need at least one arcsin series term"),
    (lambda: rotation_amplitudes((0.0,), _INVERSE, 0.1), "lambda must lie in (0, 1], got 0.0"),
    (lambda: rotation_amplitudes((1.5,), _INVERSE, 0.1), "lambda must lie in (0, 1], got 1.5"),
], ids=["no-arcsin-terms", "lambda-0", "lambda-1.5"])
def test_rotation_rejection(build, message):
    with pytest.raises(DomainRejection) as info:
        build()
    assert str(info.value) == message
