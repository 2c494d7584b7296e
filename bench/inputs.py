"""Seeded inputs for the benchmark workloads.

Each workload has one base problem, drawn once from ``BASE_SEED``. The
workload seed draws a random orthogonal change of basis that is applied to
the whole problem. Every quantity the program's work depends on (spectra,
phase-register outcomes, the number of distinct rotation inputs) is
invariant under that change of basis, so each seed gives different input
files that cost the same work; every figure a seed can move is rounding or
shot noise. The same seed gives byte-identical files.
"""
from __future__ import annotations

import json

import numpy as np

BASE_SEED = 1510


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random orthogonal matrix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _gaussian_classes(rng, means, factor, per_class):
    samples = np.vstack(
        [mu + rng.standard_normal((per_class, mu.size)) @ factor.T for mu in means]
    )
    labels = np.repeat(np.arange(1, len(means) + 1), per_class)
    return samples, labels


def write_csv(path, samples: np.ndarray, labels: np.ndarray) -> None:
    """Dataset CSV in the program's layout: feature columns, then ``label``.

    Rows are grouped by class in label order, so the program's
    first-appearance class indices equal the labels written here.
    """
    n = samples.shape[1]
    header = ",".join([f"x{i + 1}" for i in range(n)] + ["label"])
    table = np.column_stack([samples, labels])
    np.savetxt(path, table, fmt=["%.17g"] * n + ["%d"], delimiter=",",
               header=header, comments="")


def classify_stream(seed: int, train_path, test_path) -> None:
    """N=8, k=3 classes sharing one anisotropic covariance (variances 0.25
    to 1 in a random basis); 100 training and 100 test samples per class."""
    base = _rng(BASE_SEED, 1)
    n = 8
    factor = _rotation(base, n) * np.sqrt(np.geomspace(0.25, 1.0, n))
    means = 1.2 * base.standard_normal((3, n))
    train_x, train_y = _gaussian_classes(base, means, factor, 100)
    test_x, test_y = _gaussian_classes(base, means, factor, 100)
    q = _rotation(_rng(seed, 1), n)
    write_csv(train_path, train_x @ q.T, train_y)
    write_csv(test_path, test_x @ q.T, test_y)


def reduce_wide(seed: int, path) -> None:
    """N=256 (the program's cap), k=3 balanced classes of 400 samples with
    anisotropic within-class covariance (variances 1 to 3 in a random
    basis). The class means lie in a random plane with between-class spreads
    18 and 3.4 along its axes, so the two discriminant directions are well
    separated."""
    base = _rng(BASE_SEED, 2)
    n = 256
    factor = _rotation(base, n) * np.sqrt(np.geomspace(1.0, 3.0, n))
    plane = _rotation(base, n)[:, :2]
    means = np.array([[3.0, 0.75], [-3.0, 0.75], [0.0, -1.5]]) @ plane.T
    samples, labels = _gaussian_classes(base, means, factor, 400)
    q = _rotation(_rng(seed, 2), n)
    write_csv(path, samples @ q.T, labels)


def chain_deep(seed: int, path) -> None:
    """Three N=128 operators, eigenvalues uniform on [0.5, 1], each in its
    own random basis."""
    base = _rng(BASE_SEED, 3)
    n = 128
    ops = []
    for _ in range(3):
        v = _rotation(base, n)
        ops.append((v * base.uniform(0.5, 1.0, n)) @ v.T)
    q = _rotation(_rng(seed, 3), n)
    rotated = [q @ a @ q.T for a in ops]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"operators": [((m + m.T) / 2.0).tolist() for m in rotated]}, handle)
