"""Fixed-point emulation of the controlled-rotation angle pipeline.

Registers are signed binary fixed-point numbers. The pipeline evaluates a
spectral function through a windowed Taylor expansion, feeds the result into
the arcsin Maclaurin series to obtain the rotation angle theta, and then
produces the ancilla amplitudes (cos theta, sin theta). Every arithmetic
step truncates toward zero at the declared register widths, so the
fixed-point path has a fully accountable error budget; an exact-arithmetic
reference path runs alongside it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction


from .errors import DomainRejection
from .linalg import SpectralFunction

DEFAULT_FRACTION_BITS = 16
DEFAULT_INTEGER_BITS = 4
DEFAULT_TAYLOR_ORDER = 8
DEFAULT_ARCSIN_TERMS = 6
# working registers carry guard bits below the declared fraction width so the
# ~2 truncations per series term stay below the final output quantum
DEFAULT_GUARD_BITS = 8

_MAX_ARCSIN_TERMS = 48


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


def arcsin_series_reference(x: float, terms: int) -> float:
    """Exact-arithmetic (float) evaluation of the truncated arcsin series."""
    return float(sum(float(c) * x ** (2 * j + 1) for j, c in enumerate(arcsin_series_coefficients(terms))))


def arcsin_terms_for_budget(x_max: float, fraction_bits: int) -> int:
    """Smallest term count whose series tail at |x| <= x_max stays below
    a quarter of the output quantum 2**-fraction_bits."""
    if x_max >= 1.0:
        return _MAX_ARCSIN_TERMS
    budget = 2.0 ** -(fraction_bits + 2)
    coeffs = arcsin_series_coefficients(_MAX_ARCSIN_TERMS)
    ratio = x_max * x_max
    for m in range(1, _MAX_ARCSIN_TERMS):
        tail = float(coeffs[m]) * x_max ** (2 * m + 1) / (1.0 - ratio)
        if tail <= budget:
            return max(m, 2)
    return _MAX_ARCSIN_TERMS


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


def _dyadic_window(lam: float) -> tuple[int, float]:
    """Window level j with lam in (2^-j-1, 2^-j]; midpoint x0 = 3 * 2^-j-2.

    Dyadic halving keeps the relative deviation |lam - x0| / x0 <= 1/3, so the
    binomial series of every power function converges geometrically on each
    window regardless of how small lam is.
    """
    j = 0
    while lam <= 2.0 ** -(j + 1):
        j += 1
    return j, 3.0 * 2.0 ** -(j + 2)


def _preconditioned_coefficients(
    f: SpectralFunction, c_const: float, x0: float, order: int
) -> list[float]:
    """Coefficients of u -> C * f(x0 * (1 + u)) as a series in u = (lam - x0)/x0.

    Scaling by x0**i keeps every stored register value O(1) even when the raw
    Taylor coefficients of f blow up at small x0 (e.g. inverse powers).
    """
    raw = f.derivative_coefficients(x0, order)
    return [c_const * raw[i] * x0**i for i in range(order + 1)]


def _windowed_series(
    x: FixedPointValue,
    f: SpectralFunction,
    c_const: float,
    order: int,
    integer_bits: int,
    working_bits: int,
) -> FixedPointValue:
    """C * f(x) for positive fixed-point x in (0, 1] via the per-window series.

    The deviation u = (x - x0)/x0 is produced by an exact subtraction, an
    exact shift, and one multiply by a double-precision reciprocal-of-3
    constant, so |u| <= 1/3 and every power function converges geometrically.
    """
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


def rotation_amplitudes(
    lam: float,
    f: SpectralFunction,
    c_const: float,
    *,
    fraction_bits: int = DEFAULT_FRACTION_BITS,
    order: int = DEFAULT_TAYLOR_ORDER,
    arcsin_terms: int | None = None,
    method: str = "fixed",
) -> tuple[float, float]:
    """Ancilla amplitudes (sqrt(1 - C^2 f(lam)^2), C f(lam)) for the stage rotation.

    method="fixed" runs the full register pipeline: window lookup, scaled
    Taylor evaluation of g = C*f, arcsin series, then sin/cos of the
    truncated angle register. Above |g| = 1/sqrt(2) the angle is computed
    through the complementary form pi/2 - arcsin(sqrt(1 - g^2)) (the square
    root runs through the same windowed series), which keeps the arcsin
    argument well inside its convergence radius all the way to |g| = 1.
    method="exact" is the reference arithmetic path.
    """
    if not 0.0 < lam <= 1.0:
        raise DomainRejection(f"lambda must lie in (0, 1], got {lam}")
    target = c_const * float(f(lam))
    if abs(target) > 1.0 + 1e-12:
        raise DomainRejection(
            f"|C f(lambda)| = {abs(target):.6g} exceeds 1; no valid rotation exists"
        )
    if method == "exact":
        a1 = min(max(target, -1.0), 1.0)
        return math.sqrt(max(0.0, 1.0 - a1 * a1)), a1
    if method != "fixed":
        raise DomainRejection(f"unknown rotation method {method!r}")

    wb = fraction_bits + DEFAULT_GUARD_BITS
    ib = DEFAULT_INTEGER_BITS
    lam_reg = FixedPointValue.from_float(lam, ib, fraction_bits)
    g = _windowed_series(lam_reg, f, c_const, order, ib, wb)
    if abs(g.value) >= 1.0:
        # the rotation saturates at a quarter turn
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
            # complement below register resolution: the input sits within one
            # ulp of |g| = 1, where the quarter-turn constant is exact
            theta_wide = half_pi if g.sign > 0 else -half_pi
        else:
            root = _windowed_series(s, SpectralFunction.from_name("sqrt"), 1.0, order, ib, wb)
            terms = arcsin_terms if arcsin_terms is not None else arcsin_terms_for_budget(
                min(abs(root.value), split + 2.0**-10), fraction_bits
            )
            complement = half_pi - arcsin_angle(root, terms)
            theta_wide = complement if g.sign > 0 else -complement
    theta = theta_wide.truncate(ib, fraction_bits)
    a1 = math.sin(theta.value)
    a0 = math.cos(theta.value)
    return a0, a1
