"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS line with the measured figure once its assertions
hold, so `pytest tests/test_acceptance.py -v -s` reads as a checklist.
"""
from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np
import pytest

from qdasim.chain import ChainSpec, chain_apply, classical_chain_oracle
from qdasim.cli import EXIT_OK, main
from qdasim.linalg import DensityOperator, SpectralFunction, trace_distance
from qdasim.lda import (classical_lda_oracle, fisher_criterion, project, quantum_lda,
                        whitening_chain)
from qdasim.oracle import LabeledDataset
from qdasim.qda import classify_many, fit
from qdasim.qsim import density_exponentiation_step, phase_estimation
from qdasim.rotation import arcsin_series_reference, rotation_amplitudes

CHAIN_MENU_N = (2, 4, 8)
CHAIN_MENU_K = (1, 2, 3)
CHAIN_MENU_F = ("identity", "sqrt", "inverse-sqrt", "inverse")
CHAIN_KAPPA = 16.0
CHAIN_EPS = 0.1
CHAIN_T = 8


def menu_operator(rng: np.random.Generator, n: int) -> DensityOperator:
    """Well-conditioned random operator: spectrum uniform on [0.5, 1], rotated."""
    w = rng.uniform(0.5, 1.0, size=n)
    w /= w.sum()
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return DensityOperator((q * w) @ q.T)


def chain_menu_runs():
    for n in CHAIN_MENU_N:
        for k in CHAIN_MENU_K:
            for fname in CHAIN_MENU_F:
                f = SpectralFunction.from_name(fname)
                yield n, k, fname, f


def benchmark_dataset(seed: int, n: int, k: int, per_class: int = 30) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    means = np.zeros((k, n))
    means[0, 0] = 2.4 + 0.2 * rng.uniform()
    means[1, 0] = -2.0 - 0.2 * rng.uniform()
    if k == 3:
        means[2, 1] = 1.7 + 0.2 * rng.uniform()
        means[1, 1] = 0.4
    samples, labels = [], []
    for c in range(k):
        samples.append(means[c] + 0.5 * rng.standard_normal((per_class, n)))
        labels.extend([c + 1] * per_class)
    return LabeledDataset(np.vstack(samples), np.array(labels))


def adversarial_dataset(seed: int = 7, per_class: int = 100) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    s1, s2 = 0.4, 0.4 * math.sqrt(10.0)
    blocks = []
    for sign in (1.0, -1.0):
        blocks.append(
            np.column_stack(
                [sign + s1 * rng.standard_normal(per_class), s2 * rng.standard_normal(per_class)]
            )
        )
    return LabeledDataset(np.vstack(blocks), np.repeat([1, 2], per_class))


@pytest.fixture(scope="module")
def chain_menu_results():
    """Shared by criteria 1 and 2: the full matrix with per-case timing."""
    results = []
    for n, k, fname, f in chain_menu_runs():
        start = time.perf_counter()
        case_reports = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            stages = tuple((menu_operator(rng, n), f) for _ in range(k))
            spec = ChainSpec(stages=stages, kappa_eff=CHAIN_KAPPA, eps=CHAIN_EPS, t=CHAIN_T)
            report = chain_apply(spec)
            distance = trace_distance(report.output, classical_chain_oracle(spec))
            case_reports.append((report, distance))
        results.append(
            {
                "case": (n, k, fname),
                "runtime": time.perf_counter() - start,
                "reports": case_reports,
            }
        )
    return results


class TestAcceptance:
    def test_01_chain_oracle_convergence(self, chain_menu_results):
        worst_mean = 0.0
        for entry in chain_menu_results:
            mean_distance = float(np.mean([d for _, d in entry["reports"]]))
            assert mean_distance <= 0.05, (entry["case"], mean_distance)
            worst_mean = max(worst_mean, mean_distance)
        median_runtime = statistics.median(e["runtime"] for e in chain_menu_results)
        assert median_runtime < 5.0
        print(
            f"\nACCEPTANCE 1 PASS: chain trace distance <= 0.05 on all "
            f"{len(chain_menu_results)} cases (worst mean {worst_mean:.4f}); "
            f"median case runtime {median_runtime * 1000:.0f} ms"
        )

    def test_02_stage_success_never_below_bound(self, chain_menu_results):
        runs = 0
        for entry in chain_menu_results:
            for report, _ in entry["reports"]:
                assert np.all(
                    report.stage_success_probabilities
                    >= report.stage_bounds * (1.0 - 1e-12)
                ), entry["case"]
                runs += 1
        print(
            f"\nACCEPTANCE 2 PASS: measured stage success >= success floor in "
            f"100% of {runs} chain runs"
        )

    def test_03_lda_direction_recovery(self):
        cases = [(n, k, seed) for n in (4, 8) for k in (2, 3) for seed in range(5)]
        overlaps_by_t = {6: [], 8: [], 10: []}
        for n, k, seed in cases:
            data = benchmark_dataset(seed, n, k)
            p = k - 1
            oracle = classical_lda_oracle(whitening_chain(data, 100.0), p)
            for t in overlaps_by_t:
                basis = quantum_lda(whitening_chain(data, 100.0, 0.1, t), p, seed=seed)
                for r in range(p):
                    num = abs(float(np.dot(basis.directions[r], oracle.directions[r])))
                    den = float(
                        np.linalg.norm(basis.directions[r])
                        * np.linalg.norm(oracle.directions[r])
                    )
                    overlaps_by_t[t].append(num / den)
        assert min(overlaps_by_t[8]) >= 0.95
        means = {t: float(np.mean(v)) for t, v in overlaps_by_t.items()}
        assert means[8] >= means[6] - 1e-9
        assert means[10] >= means[8] - 1e-9
        print(
            f"\nACCEPTANCE 3 PASS: 20 datasets, min overlap at t=8 is "
            f"{min(overlaps_by_t[8]):.4f} (>= 0.95); mean overlap "
            f"{means[6]:.6f} -> {means[8]:.6f} -> {means[10]:.6f} over t = 6, 8, 10"
        )

    def test_04_lda_beats_pca(self):
        data = adversarial_dataset()
        basis = classical_lda_oracle(whitening_chain(data, 100.0), 1)
        centered = data.samples - data.samples.mean(axis=0)
        pca = np.linalg.eigh(centered.T @ centered)[1][:, -1]
        ratio = fisher_criterion(data, basis.directions[0]) / fisher_criterion(data, pca)
        assert ratio >= 5.0
        reduced = project(data, basis)
        one = reduced.samples[reduced.labels == 1, 0]
        two = reduced.samples[reduced.labels == 2, 0]
        gap = abs(one.mean() - two.mean())
        pooled = math.sqrt((one.std() ** 2 + two.std() ** 2) / 2.0)
        assert gap >= 4.0 * pooled
        print(
            f"\nACCEPTANCE 4 PASS: J(lda)/J(pca) = {ratio:.1f} (>= 5); projected "
            f"class-mean gap = {gap / pooled:.2f} within-class deviations (>= 4)"
        )

    def test_05_qda_agreement(self):
        def oracle_decision(data, x):
            best, best_c = -np.inf, 0
            for c in range(1, data.k + 1):
                members = data.samples[data.labels == c]
                mu = members.mean(axis=0)
                centered = members - mu
                cov = centered.T @ centered / (len(members) - 1)
                icov = np.linalg.inv(cov)
                value = x @ icov @ mu - 0.5 * mu @ icov @ mu + math.log(
                    len(members) / data.M
                )
                if value > best:
                    best, best_c = value, c
            return best_c

        quantum_rates, classical_rates = [], []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            means = np.array(
                [[2.5, 0.0, 0.0, 0.0], [-2.5, 0.5, 0.0, 0.0], [0.0, 2.5, 0.0, 0.0]]
            )
            samples, labels = [], []
            for c in range(3):
                samples.append(means[c] + 0.7 * rng.standard_normal((40, 4)))
                labels.extend([c + 1] * 40)
            train = LabeledDataset(np.vstack(samples), np.array(labels))
            model = fit(train, 100.0)
            queries = []
            for i in range(200):
                c_true = int(rng.integers(1, 4))
                queries.append(means[c_true - 1] + 0.8 * rng.standard_normal(4))
            truths = [oracle_decision(train, x) for x in queries]
            # row i is seeded seed * 1000 + i
            quantum = classify_many(model, queries, "quantum", shots=8192, seed=seed * 1000, t=8)
            classical = classify_many(model, queries, "classical")
            q_hits = int(np.sum(quantum.decisions == truths))
            c_hits = int(np.sum(classical.decisions == truths))
            quantum_rates.append(q_hits / 200)
            classical_rates.append(c_hits / 200)
        assert min(quantum_rates) >= 0.95
        assert min(classical_rates) == 1.0
        print(
            f"\nACCEPTANCE 5 PASS: quantum-path agreement "
            f"{[round(r, 3) for r in quantum_rates]} (all >= 0.95); classical "
            f"path 100% on all 5 seeds"
        )

    def test_06_rotation_pipeline(self):
        worst = {}
        for fname in ("identity", "inverse", "inverse-sqrt"):
            f = SpectralFunction.from_name(fname)
            grid = [m / 256 for m in range(1, 257) if m / 256 >= 1 / 100.0]
            c_const = 0.9 / float(np.max(np.abs(f(np.array(grid)))))
            errors = []
            for lam in grid:
                a1 = rotation_amplitudes(lam, f, c_const, fraction_bits=16)
                theta_fixed = math.asin(min(max(a1, -1.0), 1.0))
                errors.append(abs(theta_fixed - math.asin(c_const * float(f(lam)))))
            worst[fname] = max(errors)
            assert worst[fname] <= 2.0**-13, (fname, worst[fname])
        series_value = arcsin_series_reference(0.5, 4)
        assert series_value == pytest.approx(0.523526, abs=1e-6)
        print(
            "\nACCEPTANCE 6 PASS: fixed-point theta errors "
            + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
            + f" (all <= 2^-13); 4-term arcsin(0.5) = {series_value:.6f}"
        )

    def test_07_phase_estimation_exactness(self):
        exact_ok = simulated_ok = 0
        cases = 50
        for seed in range(cases):
            rng = np.random.default_rng(seed)
            t = int(2 + seed % 4)  # slice-distortion envelope holds for t <= 5
            big_t = 1 << t
            n = 3 if big_t >= 8 else 2
            while True:
                cuts = np.sort(rng.choice(np.arange(1, big_t), size=n - 1, replace=False))
                parts = np.diff(np.concatenate([[0], cuts, [big_t]]))
                if np.all(parts > 0):
                    break
            grid_vals = parts / big_t
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            generator = DensityOperator((q * grid_vals) @ q.T)
            pick = int(rng.integers(0, n))
            vec = q[:, pick]
            input_state = DensityOperator(np.outer(vec, vec))
            target_bin = int(round(grid_vals[pick] * big_t))
            exact = phase_estimation(generator, input_state, t)
            p_exact = exact.register_marginal()[target_bin]
            simulated = phase_estimation(generator, input_state, t, steps=64)
            p_sim = simulated.register_marginal()[target_bin]
            exact_ok += p_exact >= 1.0 - 1e-9
            simulated_ok += p_sim >= 0.99
        assert exact_ok == cases
        assert simulated_ok == cases
        print(
            f"\nACCEPTANCE 7 PASS: {cases}/{cases} seeded cases recover "
            "grid eigenvalues deterministically (exact path) and with "
            "probability >= 0.99 (simulated path, 64 slices)"
        )

    def test_08_simulation_trick_error_order(self):
        def exact_conjugation(a, b, dt):
            w, v = np.linalg.eigh(a)
            u = (v * np.exp(-1j * w * dt)) @ v.conj().T
            return u @ b @ u.conj().T

        ratios = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            mats = []
            for _ in range(2):
                a = rng.standard_normal((4, 4))
                m = a @ a.T
                mats.append(DensityOperator(m / np.trace(m)))
            gen, target = mats

            def deviation(dt):
                out = density_exponentiation_step(gen, target, dt)
                return float(
                    np.max(np.abs(out.matrix - exact_conjugation(gen.matrix, target.matrix, dt)))
                )

            ratios.append(deviation(0.02) / deviation(0.01))
        assert min(ratios) >= 3.5
        print(
            f"\nACCEPTANCE 8 PASS: halving dt shrinks the swap-step deviation by "
            f"{min(ratios):.2f}x at worst over 20 seeds (>= 3.5x)"
        )

    def test_09_cli_determinism(self, tmp_path):
        ops_file = tmp_path / "ops.json"
        ops_file.write_text(
            json.dumps({"operators": [np.diag([0.7, 0.3]).tolist()]})
        )
        data_file = tmp_path / "data.csv"
        assert (
            main(
                ["gen", "--synthetic", "three-gauss", "--per-class", "12",
                 "--out", str(data_file), "--seed", "5",
                 "--output", str(tmp_path / "gen.json")]
            )
            == EXIT_OK
        )
        commands = {
            "reduce": ["reduce", "--synthetic", "two-gauss", "--p", "1", "--t", "8",
                       "--seed", "1", "--path", "both"],
            "classify": ["classify", "--data", str(data_file), "--test", str(data_file),
                         "--shots", "512", "--seed", "2"],
            "chain": ["chain", "--operators", str(ops_file), "--functions",
                      "inverse", "--seed", "3"],
            "rotate-check": ["rotate-check", "--function", "inverse-sqrt",
                             "--bits", "16", "--seed", "4"],
            "gen": ["gen", "--synthetic", "adversarial", "--per-class", "6",
                    "--out", str(tmp_path / "g.csv"), "--seed", "6"],
        }
        for name, argv in commands.items():
            out = tmp_path / f"{name}.json"
            first_code = main(argv + ["--output", str(out)])
            assert first_code == EXIT_OK, name
            first = [
                line
                for line in out.read_bytes().splitlines()
                if b'"timestamp"' not in line
            ]
            second_code = main(argv + ["--output", str(out)])
            assert second_code == EXIT_OK, name
            second = [
                line
                for line in out.read_bytes().splitlines()
                if b'"timestamp"' not in line
            ]
            assert first == second, f"{name} report is not reproducible"
        print(
            "\nACCEPTANCE 9 PASS: all five subcommands emit byte-identical "
            "reports (modulo timestamp) across consecutive seeded runs"
        )
