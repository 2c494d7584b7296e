"""Fixed-point emulation of the controlled-rotation angle pipeline.

Registers are signed binary fixed-point numbers. The pipeline evaluates a
spectral function through a windowed Taylor expansion, feeds the result into
the arcsin Maclaurin series to obtain the rotation angle theta, and then
produces the ancilla-|1> amplitude sin theta. Every arithmetic
step truncates toward zero at the declared register widths, so the
fixed-point path has a fully accountable error budget against the exact
amplitude C f(lambda).

``rotation_amplitudes`` runs the pipeline over a whole array of eigenvalues
at once, in the Python-integer lanes of ``_Lanes``; a chain stage rotates all
of its register values in one call. A value that does not fit its register is
never dropped silently: a lost high bit raises ``NumericalFailure``.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainRejection, NumericalFailure
from .linalg import SpectralFunction

DEFAULT_FRACTION_BITS = 16
DEFAULT_INTEGER_BITS = 4
DEFAULT_TAYLOR_ORDER = 8
# working registers carry guard bits below the declared fraction width so the
# ~2 truncations per series term stay below the final output quantum
DEFAULT_GUARD_BITS = 8
# the 1/3 constant of ``_Lanes.series`` passes through a float at twice the
# working width, which must stay inside the float exponent range
_MAX_FRACTION_BITS = (sys.float_info.max_exp - 1) // 2 - DEFAULT_GUARD_BITS

_MAX_ARCSIN_TERMS = 48
_TRUNCATE = np.frompyfunc(int, 1, 1)  # int() toward zero, elementwise into Python integers
_SQRT = SpectralFunction.from_name("sqrt")


def _arcsin_coefficient(j: int) -> float:
    """Maclaurin coefficient j of arcsin = x + x^3/6 + 3x^5/40 + 5x^7/112 + ...,
    the one of x**(2j + 1); integer true division rounds the exact ratio
    correctly to the nearest float."""
    return math.comb(2 * j, j) / (4**j * (2 * j + 1))


_ARCSIN_FLOATS = tuple(map(_arcsin_coefficient, range(_MAX_ARCSIN_TERMS)))


def arcsin_series_reference(x: float, terms: int) -> float:
    """Exact-arithmetic (float) evaluation of the truncated arcsin series."""
    if terms < 1:
        raise DomainRejection("need at least one arcsin series term")
    return float(sum(_arcsin_coefficient(j) * x ** (2 * j + 1) for j in range(terms)))


def arcsin_terms_for_budget(x_max: float, fraction_bits: int) -> int:
    """Smallest term count whose series tail at |x| <= x_max stays below
    a quarter of the output quantum 2**-fraction_bits."""
    if x_max >= 1.0:
        return _MAX_ARCSIN_TERMS
    budget = 2.0 ** -(fraction_bits + 2)
    ratio = x_max * x_max
    for m in range(1, _MAX_ARCSIN_TERMS):
        tail = _ARCSIN_FLOATS[m] * x_max ** (2 * m + 1) / (1.0 - ratio)
        if tail <= budget:
            return max(m, 2)
    return _MAX_ARCSIN_TERMS


def _preconditioned_coefficients(
    f: SpectralFunction, c_const: float, x0: float, order: int
) -> list[float]:
    """Coefficients of u -> C * f(x0 * (1 + u)) as a series in u = (lam - x0)/x0.

    f is the pure power x**r, so C f(x0 (1 + u)) = C f(x0) (1 + u)**r and
    coefficient i is C f(x0) binom(r, i): no power of x0 other than f(x0)
    itself is formed, however small x0 or large the order.
    """
    r = f.exponent
    scale = c_const * float(f(x0))
    coeffs, binomial = [], 1.0
    for i in range(order + 1):
        coeffs.append(scale * binomial)
        binomial *= (r - i) / (i + 1)
    return coeffs


def _signed(v: np.ndarray, magnitude: np.ndarray) -> np.ndarray:
    """Lanes with the signs of v and the given magnitudes (zero stays zero)."""
    return np.where(v < 0, -magnitude, magnitude)


def _float_values(v: np.ndarray, fraction_bits: int) -> np.ndarray:
    """The ``.value`` of each lane with ``fraction_bits`` fraction bits."""
    return (v / (1 << fraction_bits)).astype(float)


@dataclass(frozen=True)
class _Lanes:
    """Arrays of Python integers, signed fixed-point values v = sign *
    magnitude, all at Q(DEFAULT_INTEGER_BITS).(fraction_bits). Products are
    exact, every operation truncates toward zero, and a magnitude that reaches
    the register limit raises ``NumericalFailure`` rather than losing its high bits."""

    fraction_bits: int

    @property
    def limit(self) -> int:
        return 1 << (DEFAULT_INTEGER_BITS + self.fraction_bits)

    def checked(self, v):
        """v itself; a lane whose magnitude reaches the register limit raises."""
        if np.asarray(abs(v) >= self.limit).any():
            raise NumericalFailure(
                f"a value overflows the Q{DEFAULT_INTEGER_BITS}.{self.fraction_bits} "
                "register: high bits would be lost"
            )
        return v

    def fixed(self, x):
        """Register values of real numbers (a scalar or an array), truncated toward zero."""
        return self.checked(_TRUNCATE(x * (1 << self.fraction_bits)))

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The exact integer product of the operands, truncated once to this width."""
        p = a * b
        return self.checked(_signed(p, np.abs(p) >> self.fraction_bits))

    def taylor(self, column, count: int, aux: np.ndarray) -> np.ndarray:
        """The series around 0: lane k sums column(i)[k] * aux[k]**i over
        i < count with a running power register and a running total. A
        product of truncations only shrinks, so once the power register reads
        0 in every lane each later term adds 0, and its column is never built."""
        power = np.full(aux.shape, 1 << self.fraction_bits, dtype=object)
        total = column(0)
        for i in range(1, count):
            power = self.multiply(power, aux)
            if not power.any():
                break
            total = self.checked(total + self.multiply(power, column(i)))
        return total

    def series(
        self, x: np.ndarray, x_bits: int, f: SpectralFunction, c_const: float, order: int
    ) -> np.ndarray:
        """C * f(x) for positive lanes x with ``x_bits`` fraction bits.

        Each lane uses the series of u -> C f(x0 (1 + u)) on its dyadic window
        x in (2^-j-1, 2^-j], x0 = 3 * 2^-j-2, where |u| = |x - x0| / x0 <= 1/3,
        so every power function converges geometrically however small x is.
        Each lane is >= 2^-(wb-2) (a lambda lane is at least one declared
        register step, a complement lane has s >= 4), so j + 2 <= wb.
        """
        ib, wb = DEFAULT_INTEGER_BITS, self.fraction_bits
        # value = m 2^e with m in [1/2, 1) lies in window j = -e, or 1 - e at m = 1/2
        mantissa, exponent = np.frexp(_float_values(x, x_bits))
        level = (mantissa == 0.5) - exponent
        windows, which = np.unique(level, return_inverse=True)
        table = []
        for j in windows.tolist():
            coeffs = _preconditioned_coefficients(f, c_const, 3.0 * 2.0 ** -(j + 2), order)
            if not all(abs(c) < float(1 << ib) for c in coeffs):
                raise DomainRejection(
                    f"preconditioned Taylor coefficients overflow the {ib}-bit integer field"
                )
            table.append([self.fixed(c) for c in coeffs])
        coeffs = np.array(table, dtype=object).reshape(-1, order + 1)[which]
        level = level.astype(object)
        # u = (x - x0) 2^(j+2) / 3: an exact subtraction and shift, then one
        # exact multiply by 1/3 held at 2 wb fraction bits, truncated once
        d = ((x << (wb - x_bits)) - (3 << (wb - 2 - level))) * (1 << (level + 2))
        third = _Lanes(2 * wb).fixed(1.0 / 3.0)
        u = self.checked(_signed(d, (np.abs(d) * third) >> (2 * wb)))
        return self.taylor(lambda i: coeffs[:, i], order + 1, u)

    def arcsin(self, x: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """theta = arcsin(x) by the Maclaurin series around 0, with terms[k]
        series terms in lane k. Only odd powers appear, and magnitudes
        truncate toward zero, so the result is exactly odd in x. A term past
        the last power register that is nonzero in some lane is never built."""

        def column(i):
            j, odd = divmod(i, 2)
            coefficient = self.fixed(_arcsin_coefficient(j)) if odd else 0
            return (j < terms) * np.array(coefficient, dtype=object)

        return self.taylor(column, 2 * int(terms.max(initial=1)), x)


def _fixed_point_amplitudes(
    lam: np.ndarray,
    f: SpectralFunction,
    c_const: float,
    fraction_bits: int,
    order: int,
    arcsin_terms: int | None,
) -> np.ndarray:
    """The register pipeline of ``rotation_amplitudes``: a_1 = sin theta per lane of lam."""
    wb = fraction_bits + DEFAULT_GUARD_BITS
    lanes, declared = _Lanes(wb), _Lanes(fraction_bits)
    one = 1 << wb
    g = lanes.series(declared.fixed(lam), fraction_bits, f, c_const, order)
    # a lane at |g| >= 1 saturates at a quarter turn
    saturated = np.abs(g) >= one
    split = math.sqrt(0.5)
    direct = ~saturated & (np.abs(_float_values(g, wb)) <= split)
    # above |g| = 1/sqrt(2) the angle is pi/2 - arcsin(sqrt(1 - g^2)), which
    # keeps the arcsin argument well inside its convergence radius; where
    # 1 - g^2 is below 2^-(wb-2), the quarter-turn constant is exact
    s = one - lanes.multiply(g, g)
    complement = ~saturated & ~direct & (s >= 4)
    arg = g.copy()
    arg[complement] = lanes.series(s[complement], wb, _SQRT, 1.0, order)
    rotated = direct | complement
    if arcsin_terms is None:
        x_max = np.abs(_float_values(arg, wb))
        x_max[complement] = np.minimum(x_max[complement], split + 2.0**-10)
        terms = np.array(
            [arcsin_terms_for_budget(v, fraction_bits) for v in x_max[rotated].tolist()],
            dtype=np.int64,
        )
    else:
        # any count: the series builds no term past the last nonzero power
        terms = np.full(int(rotated.sum()), arcsin_terms, dtype=object)
    theta = np.zeros(g.shape, dtype=object)
    theta[rotated] = lanes.arcsin(arg[rotated], terms)
    # every other lane turns by sign(g) (pi/2 - arcsin), a quarter turn with no
    # arcsin; a saturated lane's angle is never read
    turned = lanes.checked(lanes.fixed(math.pi / 2.0) - theta[~direct])
    theta[~direct] = _signed(g[~direct], turned)
    # truncate the angle register to the declared fraction width
    theta = declared.checked(_signed(theta, np.abs(theta) >> DEFAULT_GUARD_BITS))
    a1 = np.array([math.sin(v) for v in _float_values(theta, fraction_bits).tolist()])
    a1[saturated] = np.where(g[saturated] > 0, 1.0, -1.0)
    return a1


def rotation_amplitudes(
    lam,
    f: SpectralFunction,
    c_const: float,
    *,
    fraction_bits: int = DEFAULT_FRACTION_BITS,
    order: int = DEFAULT_TAYLOR_ORDER,
    arcsin_terms: int | None = None,
):
    """The ancilla-|1> amplitude a_1 = C f(lam) of the stage rotation.

    Postselection keeps only the |1> branch, so a_0 is never built. ``lam``
    is one eigenvalue or a sequence of them; a_1 has its shape (a float for
    a float), and the whole sequence runs through the register pipeline at once.

    The pipeline: window lookup, scaled Taylor evaluation of g = C*f, arcsin
    series, then sin of the truncated angle register. Above |g| = 1/sqrt(2)
    the angle is computed through the complementary form
    pi/2 - arcsin(sqrt(1 - g^2)) (the square root runs through the same
    windowed series), which keeps the arcsin argument well inside its
    convergence radius all the way to |g| = 1. The exact reference is
    ``np.clip(c_const * f(lam), -1.0, 1.0)``. A lambda below one register
    step 2^-fraction_bits would read 0 in the register, and is refused.
    """
    if fraction_bits < 0:
        raise DomainRejection("register widths must be non-negative")
    if fraction_bits > _MAX_FRACTION_BITS:
        raise DomainRejection(f"fraction_bits above {_MAX_FRACTION_BITS} overflow the float range")
    if order < 1:
        raise DomainRejection("a Taylor spec needs order n >= 1")
    if arcsin_terms is not None and arcsin_terms < 1:
        raise DomainRejection("need at least one arcsin series term")
    if not math.isfinite(c_const):
        raise DomainRejection(f"the rotation constant C must be finite, got {c_const!r}")
    values = np.asarray(lam, dtype=float)
    flat = values.ravel()
    outside = ~((flat > 0.0) & (flat <= 1.0))
    if outside.any():
        raise DomainRejection(f"lambda must lie in (0, 1], got {float(flat[outside][0])}")
    target = c_const * f(flat)
    over = np.abs(target) > 1.0 + 1e-12
    if over.any():
        raise DomainRejection(
            f"|C f(lambda)| = {abs(float(target[over][0])):.6g} exceeds 1; "
            "no valid rotation exists"
        )
    low = flat < 2.0**-fraction_bits
    if low.any():
        raise DomainRejection(
            f"lambda {float(flat[low][0]):.3g} is below the resolution of "
            f"{fraction_bits} fraction bits"
        )
    a1 = _fixed_point_amplitudes(flat, f, c_const, fraction_bits, order, arcsin_terms)
    return a1.reshape(values.shape)[()]
