"""Dense Hermitian linear algebra, real or complex.

Eigendecomposition, spectral matrix functions with condition-number
filtering, and the trace distance. Everything here is a pure function of its
inputs; matrices are dense and desk-sized (the benchmark's widest is N=256).
An operator keeps the arithmetic of its input: real symmetric input is
stored as float64 and stays real through every function here, complex input
as complex128.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainRejection

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-9


class HermitianOperator:
    """Dense N x N Hermitian matrix: float64 for real input, complex128 otherwise.

    Asymmetry below ``HERMITICITY_TOL`` is absorbed by symmetrizing
    (H + H†)/2 on ingest; anything larger is rejected with the measured
    asymmetry, so floating-point drift is tolerated without masking bugs.
    The matrix is read-only; ``eig_hermitian`` stores its result in ``_eig``.
    """

    __slots__ = ("matrix", "_eig")

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=complex if np.iscomplexobj(matrix) else float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainRejection(f"operator must be a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise DomainRejection("operator dimension must be >= 1")
        if not np.all(np.isfinite(m)):
            raise DomainRejection("operator has non-finite entries")
        with np.errstate(over="ignore"):
            asym = float(np.max(np.abs(m - m.conj().T)))
            self.matrix = (m + m.conj().T) / 2.0
        if asym > HERMITICITY_TOL:
            raise DomainRejection(
                f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds {HERMITICITY_TOL:.0e}"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise DomainRejection("operator entries overflow float64 when symmetrized")
        self.matrix.flags.writeable = False
        self._eig = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        with np.errstate(over="ignore"):
            tr = float(np.trace(self.matrix).real)
        if not np.isfinite(tr):
            raise DomainRejection("operator trace overflows float64")
        return tr

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class DensityOperator(HermitianOperator):
    """Positive-semidefinite, unit-trace Hermitian operator.

    This is the simulator's state currency; construction re-validates the
    PSD and trace invariants so a ``DensityOperator`` is always a valid state.
    """

    __slots__ = ()

    def __init__(self, matrix) -> None:
        super().__init__(matrix)
        try:
            # a Cholesky factor of rho + PSD_TOL * I certifies lambda_min >= -PSD_TOL
            np.linalg.cholesky(self.matrix + PSD_TOL * np.eye(self.dim))
        except np.linalg.LinAlgError:
            w = np.linalg.eigvalsh(self.matrix)
            if w[0] < -PSD_TOL:
                raise DomainRejection(
                    f"not positive semidefinite: min eigenvalue {w[0]:.3e} below -{PSD_TOL:.0e}"
                ) from None
        tr = self.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise DomainRejection(f"trace {tr!r} differs from 1 by more than {TRACE_TOL:.0e}")


@dataclass(frozen=True)
class EigenSolution:
    """Full spectrum (sorted descending) with column-aligned orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class SpectralFunction:
    """A function applied to the spectrum of a PSD operator.

    All supported functions are pure powers f(x) = x**exponent, evaluated on
    positive reals only; named forms are ``identity`` (x), ``inverse`` (1/x),
    ``sqrt``, ``inverse-sqrt``, and ``power(r)`` for any finite real r.
    ``power(0)`` is the constant-one function, the neutral element of a
    function chain. A value that overflows to infinity is rejected.
    """

    name: str
    exponent: float

    _NAMED = {
        "identity": 1.0,
        "inverse": -1.0,
        "sqrt": 0.5,
        "inverse-sqrt": -0.5,
    }

    @classmethod
    def from_name(cls, name: str) -> "SpectralFunction":
        key = name.strip().lower()
        if key in cls._NAMED:
            return cls(key, cls._NAMED[key])
        if key.startswith("power(") and key.endswith(")"):
            try:
                r = float(key[6:-1])
            except ValueError:
                raise DomainRejection(f"unparseable power exponent in {name!r}") from None
            return cls.power(r)
        raise DomainRejection(
            f"unknown spectral function {name!r}; expected one of "
            f"{sorted(cls._NAMED)} or power(r)"
        )

    def __post_init__(self) -> None:
        if not np.isfinite(self.exponent):
            raise DomainRejection(f"spectral function exponent must be finite, got {self.exponent}")

    @classmethod
    def power(cls, r: float) -> "SpectralFunction":
        return cls(f"power({r:g})", float(r))

    def __call__(self, x):
        with np.errstate(over="ignore", divide="ignore"):
            y = np.asarray(x, dtype=float) ** self.exponent
        if not np.isfinite(y).all():
            raise DomainRejection(f"{self.name} overflows on the given values")
        return y


def eig_hermitian(h: HermitianOperator) -> EigenSolution:
    """Eigendecompose a Hermitian operator, eigenvalues sorted descending.

    The first call stores the read-only result on h; later calls return it."""
    if h._eig is None:
        w, v = np.linalg.eigh(h.matrix)
        w, v = w[::-1].copy(), v[:, ::-1].copy()
        w.flags.writeable = v.flags.writeable = False
        h._eig = EigenSolution(eigenvalues=w, eigenvectors=v)
    return h._eig


def _check_kappa_eff(kappa_eff: float) -> None:
    if not kappa_eff >= 1.0:
        raise DomainRejection(f"kappa_eff must be >= 1, got {kappa_eff}")
    if kappa_eff == np.inf:
        raise DomainRejection(f"kappa_eff must be finite, got {kappa_eff}")


def _filter_mask(eigenvalues: np.ndarray, kappa_eff: float) -> np.ndarray:
    """Relative condition-number filter: keep lambda / lambda_max >= 1/kappa_eff.

    A tiny multiplicative slack makes exact-threshold eigenvalues robust to
    rounding. Eigenvalues below the cutoff (including any slightly negative
    ones) are treated as zero under every spectral function. A kappa_eff
    below 1, NaN or infinite, is rejected.
    """
    _check_kappa_eff(kappa_eff)
    lam_max = float(eigenvalues[0])
    if lam_max <= PSD_TOL:
        return np.zeros_like(eigenvalues, dtype=bool)
    return eigenvalues >= lam_max / kappa_eff * (1.0 - 1e-12)


def _kappa_window(eigenvalues: np.ndarray, kappa_eff: float) -> tuple[np.ndarray, np.ndarray]:
    """An operator's eigenvalues (descending) clipped at 0, and their
    condition-number filter; a filter that keeps nothing is a rank collapse."""
    w = np.clip(eigenvalues, 0.0, None)
    keep = _filter_mask(w, kappa_eff)
    if not keep.any():
        raise DomainRejection(
            "condition-number filter removed the full spectrum (rank collapse); "
            f"lambda_max = {float(eigenvalues[0]):.3e}"
        )
    return w, keep


def matrix_function(h: HermitianOperator, f: SpectralFunction, kappa_eff: float) -> HermitianOperator:
    """Apply f to the spectrum of a PSD operator with pseudo-inverse semantics.

    Eigenvalues with lambda / lambda_max < 1/kappa_eff are projected out
    (they map to 0 under every f, including inverse powers), so inverse
    functions never blow up on near-null directions.
    """
    sol = eig_hermitian(h)
    w = sol.eigenvalues
    scale = max(abs(float(w[0])), 1.0)
    if w[-1] < -1e-8 * scale:
        raise DomainRejection(
            f"operator is not PSD within tolerance: min eigenvalue {w[-1]:.3e}"
        )
    w, keep = _kappa_window(w, kappa_eff)
    vk = sol.eigenvectors[:, keep]
    fw = f(w[keep])
    return HermitianOperator((vk * fw) @ vk.conj().T)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(1/2)||rho - sigma||_1 via the eigenvalues of the difference."""
    if rho.dim != sigma.dim:
        raise DomainRejection(
            f"dimension mismatch: {rho.dim} vs {sigma.dim}"
        )
    w = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(0.5 * np.sum(np.abs(w)))
