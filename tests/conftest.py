"""Shared random-object generators for the test suite."""
from __future__ import annotations

import tracemalloc
import warnings

import numpy as np

from qdasim.linalg import DensityOperator, HermitianOperator

# hypothesis's report of a failing example imports libcst, whose import of
# mypy_extensions.TypedDict warns; imported here once, that warning cannot turn
# the report into an internal error when every warning is an error
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


def random_hermitian(rng: np.random.Generator, n: int) -> HermitianOperator:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianOperator((a + a.conj().T) / 2.0)


def random_density(rng: np.random.Generator, n: int) -> DensityOperator:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = a @ a.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_density_spectrum(
    rng: np.random.Generator, n: int, low: float = 0.5, high: float = 1.0
) -> DensityOperator:
    """Density operator with eigenvalues drawn uniform on [low, high] then normalized."""
    w = rng.uniform(low, high, size=n)
    w /= w.sum()
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return DensityOperator((q * w) @ q.conj().T)


def random_unit_vector(rng: np.random.Generator, n: int, real: bool = True) -> np.ndarray:
    v = rng.standard_normal(n) if real else rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def traced_peak(fn, *args, **kwargs):
    """Call fn and return (result, peak bytes tracemalloc saw allocated during the call).

    The peak counts everything the call holds at once, its result included;
    what the arguments held before the call is not counted.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - base


def one_expression_profiles(phases: np.ndarray, t: int) -> np.ndarray:
    """Reference QPE register amplitudes a_m(phi) = (1/T) sum_tau e^{2 pi i tau (phi - m/T)}
    as one complex (N, 2^t) table, evaluated over all rows at once."""
    big_t = 1 << t
    m = np.arange(big_t)
    delta = phases[:, None] - m[None, :] / big_t
    num = np.sin(np.pi * big_t * delta)
    den = big_t * np.sin(np.pi * delta)
    phase = np.exp(1j * np.pi * (big_t - 1) * delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = np.where(np.abs(den) < 1e-14, 1.0, num / np.where(den == 0.0, 1.0, den))
    return phase * amp
