"""Independent references for the benchmark's correctness checks.

Each reference is computed here from the generated inputs with numpy alone;
nothing in this module calls into the program under test. A check returns
the accuracy figure it measured and raises ``CheckFailed`` when a report
breaks a bound.
"""
from __future__ import annotations

import numpy as np

CHAIN_TRACE_DISTANCE_MAX = 0.05
DIRECTION_COS_MIN = 0.95
QUANTUM_AGREEMENT_MIN = 0.95
PSD_TOL = 1e-10
TRACE_TOL = 1e-9
FLOOR_SLACK = 1e-9


class CheckFailed(Exception):
    """A report disagrees with its independent reference."""


def read_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    """Samples and integer labels from a CSV written by ``inputs.write_csv``."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, :-1], table[:, -1].astype(int)


def _power(a: np.ndarray, exponent: float) -> np.ndarray:
    """a**exponent through numpy's eigh; a positive power treats the
    rounding-level negative eigenvalues of a singular PSD matrix as zero."""
    w, v = np.linalg.eigh(a)
    if exponent > 0:
        w = np.clip(w, 0.0, None)
    return (v * w**exponent) @ v.conj().T


def chain_reference(operators, exponents) -> np.ndarray:
    """F F^dagger / tr with F = A_k^(r_k) ... A_1^(r_1); stage 1 acts first,
    each A_j normalized to unit trace as the program's input contract says."""
    n = len(operators[0])
    f = np.eye(n, dtype=complex)
    for a, r in zip(operators, exponents):
        a = np.asarray(a, dtype=float)
        f = _power(a / np.trace(a), r) @ f
    product = f @ f.conj().T
    return product / np.trace(product).real


def whitening_reference(samples: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """S_B^1/2 S_W^-1 S_B^1/2 at unit trace, from the textbook scatter
    matrices: the chain S_W^-1/2 then S_B^1/2. The classes are balanced, so
    the class-count weights of S_B only rescale it."""
    classes = np.unique(labels)
    means = np.array([samples[labels == c].mean(axis=0) for c in classes])
    dev = means - samples.mean(axis=0)
    centered = samples - means[np.searchsorted(classes, labels)]
    return chain_reference([centered.T @ centered, dev.T @ dev], [-0.5, 0.5])


def top_eigenvectors(a: np.ndarray, p: int) -> np.ndarray:
    """Eigenvectors (rows) of the p largest eigenvalues of a Hermitian matrix."""
    w, v = np.linalg.eigh(a)
    return np.real(v[:, ::-1][:, :p].T)


def angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle (rad) between two nonzero vectors or matrices (Hilbert-Schmidt
    inner product), taken as 2 asin(|a/|a| - b/|b||/2) so that it stays
    accurate near zero, where acos of the cosine does not."""
    chord = np.linalg.norm(a / np.linalg.norm(a) - b / np.linalg.norm(b))
    return float(2.0 * np.arcsin(min(1.0, chord / 2.0)))


def chain_output(report: dict) -> np.ndarray:
    """The quantum chain output of a ``chain`` report."""
    matrix = report["outputs"]["quantum"]
    return np.array(matrix["real"]) + 1j * np.array(matrix["imag"])


def check_chain(report: dict, reference: np.ndarray) -> float:
    """Trace distance of the quantum output to the reference, after checking
    that the output is a state and that every stage met its success floor."""
    rho = chain_output(report)
    if np.max(np.abs(rho - rho.conj().T)) > PSD_TOL:
        raise CheckFailed("chain output is not Hermitian")
    w = np.linalg.eigvalsh(rho)
    if w[0] < -PSD_TOL:
        raise CheckFailed(f"chain output is not PSD: min eigenvalue {w[0]:.3e}")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
        raise CheckFailed(f"chain output trace {np.trace(rho).real!r} is not 1")
    success = np.asarray(report["metrics"]["stage_success"], dtype=float)
    bounds = np.asarray(report["metrics"]["stage_bounds"], dtype=float)
    if success.shape != bounds.shape or np.any(success < bounds * (1.0 - FLOOR_SLACK)):
        raise CheckFailed(f"stage success {success} below floors {bounds}")
    distance = float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - reference))))
    if distance > CHAIN_TRACE_DISTANCE_MAX:
        raise CheckFailed(
            f"trace distance {distance:.4f} exceeds {CHAIN_TRACE_DISTANCE_MAX}"
        )
    return distance


def check_directions(report: dict, reference: np.ndarray) -> float:
    """Worst angle (rad) between each returned intermediate vector and the
    matching reference eigenvector; vectors are compared up to sign."""
    vs = np.atleast_2d(np.array(report["outputs"]["quantum"]["intermediates"], dtype=float))
    if vs.shape != reference.shape:
        raise CheckFailed(f"intermediates shape {vs.shape}, expected {reference.shape}")
    dots = np.sum(vs * reference, axis=1)
    cos = np.abs(dots) / (np.linalg.norm(vs, axis=1) * np.linalg.norm(reference, axis=1))
    if np.any(cos < DIRECTION_COS_MIN):
        raise CheckFailed(f"direction |cos| {cos} below {DIRECTION_COS_MIN}")
    return max(angle(v, np.sign(d) * r) for v, d, r in zip(vs, dots, reference))


def lda_decisions(train_x, train_y, queries) -> np.ndarray:
    """Textbook pooled-covariance LDA: argmax_c x^T S^-1 mu_c - mu_c^T S^-1 mu_c / 2
    + log pi_c, with S the pooled within-class covariance over M - k; classes
    are numbered from 1 in label order."""
    classes = np.unique(train_y)
    means = np.array([train_x[train_y == c].mean(axis=0) for c in classes])
    centered = train_x - means[np.searchsorted(classes, train_y)]
    pooled = centered.T @ centered / (train_x.shape[0] - classes.size)
    inv_means = np.linalg.solve(pooled, means.T)
    priors = np.array([np.mean(train_y == c) for c in classes])
    scores = queries @ inv_means - 0.5 * np.sum(means.T * inv_means, axis=0) + np.log(priors)
    return np.argmax(scores, axis=1) + 1


def check_classify(report: dict, reference: np.ndarray) -> float:
    """Classical decisions must equal the reference on every query; returns
    the share of quantum decisions that agree with it."""
    classical = np.asarray(report["outputs"]["classical"]["decisions"])
    quantum = np.asarray(report["outputs"]["quantum"]["decisions"])
    if classical.shape != reference.shape or quantum.shape != reference.shape:
        raise CheckFailed("decision count differs from the query count")
    wrong = int(np.sum(classical != reference))
    if wrong:
        raise CheckFailed(f"{wrong} classical decisions differ from the LDA reference")
    agreement = float(np.mean(quantum == reference))
    if agreement < QUANTUM_AGREEMENT_MIN:
        raise CheckFailed(
            f"quantum decisions agree on {agreement:.3f} < {QUANTUM_AGREEMENT_MIN}"
        )
    return agreement
