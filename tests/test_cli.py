"""Command-line surface: subcommands, report content, exit codes, determinism."""
from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qdasim.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, build_parser, main


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def strip_timestamp(report: dict) -> dict:
    trimmed = dict(report)
    trimmed.pop("timestamp")
    return trimmed


class TestReduce:
    def test_both_paths_overlap(self, tmp_path):
        code, report = run_cli(
            ["reduce", "--synthetic", "two-gauss", "--p", "1", "--t", "8",
             "--seed", "1", "--path", "both"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert report["metrics"]["per_direction_overlap"][0] >= 0.98
        assert report["metrics"]["chain_stage_success"]

    def test_rank_excess_exits_with_domain_code(self, tmp_path, capsys):
        code = main(["reduce", "--synthetic", "two-gauss", "--p", "3", "--seed", "1"])
        assert code == EXIT_DOMAIN
        assert "rank" in capsys.readouterr().err

    def test_classical_path_is_deterministic(self, tmp_path):
        out = tmp_path / "report.json"
        args = ["reduce", "--synthetic", "two-gauss", "--p", "1",
                "--path", "classical", "--seed", "4", "--output", str(out)]
        assert main(args) == EXIT_OK
        first = json.loads(out.read_text())
        assert main(args) == EXIT_OK
        second = json.loads(out.read_text())
        assert strip_timestamp(first) == strip_timestamp(second)

    def test_report_matches_stored_golden_bytes(self, capsys, monkeypatch):
        # seeded runs must reproduce the stored reports byte for byte (timestamp cleared);
        # run from the repository root so the CSV path recorded in the report is stable
        monkeypatch.chdir(Path(__file__).parent.parent)
        goldens = {
            "reduce_three_gauss_p2_t8_seed1.json": [
                "reduce", "--synthetic", "three-gauss", "--p", "2", "--t", "8",
                "--seed", "1", "--path", "both"],
            "chain_three_gauss_t10_seed1.json": [
                "chain", "--synthetic", "three-gauss", "--t", "10", "--seed", "1"],
            "classify_three_gauss_n10_t8_seed1.json": [
                "classify", "--synthetic", "three-gauss", "--test-count", "10",
                "--path", "both", "--t", "8", "--seed", "1"],
            "classify_lda_three_gauss_n10_t8_seed1.json": [
                "classify", "--synthetic", "three-gauss", "--test-count", "10", "--lda",
                "--path", "both", "--t", "8", "--seed", "1"],
            "reduce_csv_three_gauss_p2_t12_seed1.json": [
                "reduce", "--data", "tests/golden/three_gauss_seed1.csv", "--path", "both",
                "--p", "2", "--t", "12", "--seed", "1"],
        }
        for name, args in goldens.items():
            golden = Path(__file__).parent / "golden" / name
            assert main(args) == EXIT_OK
            out = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', capsys.readouterr().out)
            assert out.encode("utf-8") == golden.read_bytes(), name

    def test_feature_map_degree(self, tmp_path):
        code, report = run_cli(
            ["reduce", "--synthetic", "adversarial", "--degree", "2",
             "--path", "classical", "--seed", "0"],
            tmp_path,
        )
        assert code == EXIT_OK
        # 2-d input maps to 5 monomial features
        assert len(report["outputs"]["classical"]["directions"][0]) == 5


class TestClassify:
    def test_quantum_and_classical_agree(self, tmp_path):
        code, report = run_cli(
            ["classify", "--synthetic", "three-gauss", "--test-count", "15",
             "--shots", "2048", "--seed", "3"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert report["metrics"]["path_agreement"] >= 0.95
        assert report["metrics"]["shots_consumed"] == 2048 * 3 * 45
        assert len(report["metrics"]["copies_used"]) == 3

    def test_lda_flag_routes_to_shared_covariance(self, tmp_path):
        code, report = run_cli(
            ["classify", "--lda", "--synthetic", "three-gauss", "--test-count", "5",
             "--path", "classical", "--seed", "7"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert report["parameters"]["lda"] is True

    @pytest.mark.parametrize("lda, decompositions", [(True, 1), (False, 3)])
    def test_each_covariance_operator_diagonalized_once_per_use(
        self, tmp_path, monkeypatch, lda, decompositions
    ):
        # one per distinct operator, shared by its pseudo-inverse in fit, its inversion
        # stage and its copy count; the rank-one inverted means need no eigendecomposition
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        code, report = run_cli(
            ["classify", "--synthetic", "three-gauss", "--test-count", "5",
             "--path", "quantum", "--seed", "7"] + (["--lda"] if lda else []),
            tmp_path,
        )
        assert code == EXIT_OK
        assert len(report["metrics"]["copies_used"]) == 3
        assert len(calls) == decompositions

    def test_missing_test_source_is_usage_error(self, capsys):
        code = main(["classify", "--synthetic", "three-gauss", "--seed", "3"])
        assert code == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_missing_test_file_is_usage_error(self, capsys):
        code = main(
            ["classify", "--synthetic", "three-gauss", "--test", "/nonexistent.csv"]
        )
        assert code == EXIT_USAGE


class TestChain:
    def test_identity_single_stage_has_zero_distance(self, tmp_path):
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"operators": [[[1.0, 0.0], [0.0, 1.0]]]}))
        code, report = run_cli(
            ["chain", "--operators", str(ops), "--functions", "identity", "--seed", "0"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert report["metrics"]["trace_distance"] == pytest.approx(0.0, abs=1e-12)

    def test_discriminant_shaped_chain_from_dataset(self, tmp_path):
        code, report = run_cli(
            ["chain", "--synthetic", "two-gauss", "--t", "8", "--seed", "2"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert report["metrics"]["trace_distance"] <= 0.05
        assert report["parameters"]["functions"] == ["inverse-sqrt", "sqrt"]

    def test_bounds_never_exceed_measured_success(self, tmp_path):
        ops = tmp_path / "ops.json"
        rng = np.random.default_rng(5)
        mats = []
        for _ in range(3):
            w = rng.uniform(0.4, 1.0, 4)
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            mats.append(((q * w) @ q.T).tolist())
        ops.write_text(json.dumps({"operators": mats}))
        code, report = run_cli(
            ["chain", "--operators", str(ops),
             "--functions", "inverse,sqrt,inverse-sqrt", "--seed", "0"],
            tmp_path,
        )
        assert code == EXIT_OK
        success = report["metrics"]["stage_success"]
        bounds = report["metrics"]["stage_bounds"]
        assert all(s >= b * (1 - 1e-9) for s, b in zip(success, bounds))

    def test_real_operators_report_complex_layout(self, tmp_path):
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"operators": [[[0.6, 0.1], [0.1, 0.4]], [[0.5, -0.2], [-0.2, 0.7]]]}))
        code, report = run_cli(
            ["chain", "--operators", str(ops), "--functions", "inverse,sqrt", "--seed", "0"],
            tmp_path,
        )
        assert code == EXIT_OK
        for path in ("classical", "quantum"):
            matrix = report["outputs"][path]
            assert set(matrix) == {"real", "imag"}
            assert np.shape(matrix["real"]) == np.shape(matrix["imag"]) == (2, 2)
            assert all(x == 0.0 for row in matrix["imag"] for x in row)

    def test_function_count_mismatch_is_usage_error(self, tmp_path, capsys):
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"operators": [[[1.0, 0.0], [0.0, 1.0]]]}))
        code = main(["chain", "--operators", str(ops), "--functions", "sqrt,sqrt"])
        assert code == EXIT_USAGE


class TestRotateCheck:
    def test_sixteen_bit_sweep_within_budget(self, tmp_path):
        code, report = run_cli(
            ["rotate-check", "--function", "inverse", "--bits", "16", "--seed", "0"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert report["metrics"]["within_budget"] is True
        assert report["metrics"]["max_error"] <= 2.0**-13

    def test_identity_with_unit_constant_is_plain_arcsin(self, tmp_path):
        code, report = run_cli(
            ["rotate-check", "--function", "identity", "--c-const", "1.0",
             "--bits", "16", "--seed", "0"],
            tmp_path,
        )
        assert code == EXIT_OK
        grid = report["outputs"]["lambda_grid"]
        exact = report["outputs"]["theta_exact"]
        assert np.allclose(exact, np.arcsin(grid), atol=1e-12)
        assert report["metrics"]["within_budget"] is True

    def test_grid_point_at_the_kappa_threshold_is_kept(self, tmp_path):
        # 1/4 lies 6.3e-15 below 1/kappa_eff; the shared kappa filter
        # (linalg._filter_mask) keeps it through its 1e-12 relative slack
        code, report = run_cli(
            ["rotate-check", "--function", "inverse", "--grid-bits", "2",
             "--kappa-eff", "3.9999999999999", "--seed", "0"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert np.array_equal(report["outputs"]["lambda_grid"], [0.25, 0.5, 0.75, 1.0])

    def test_more_arcsin_terms_reduce_truncation_error(self, tmp_path):
        base = ["rotate-check", "--function", "identity", "--c-const", "0.9",
                "--bits", "24", "--seed", "0"]
        _, few = run_cli(base + ["--arcsin-terms", "4"], tmp_path, "few.json")
        _, many = run_cli(base + ["--arcsin-terms", "8"], tmp_path, "many.json")
        assert many["metrics"]["max_error"] < few["metrics"]["max_error"]


class TestGen:
    def test_round_trip_through_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        code = main(
            ["gen", "--synthetic", "adversarial", "--per-class", "8",
             "--out", str(out), "--seed", "5", "--output", str(tmp_path / "r.json")]
        )
        assert code == EXIT_OK
        from qdasim.data_io import load_csv

        data = load_csv(out)
        assert (data.M, data.N, data.k) == (16, 2, 2)

    def test_same_seed_gives_identical_csv_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["gen", "--synthetic", "two-gauss", "--per-class", "6",
                  "--out", str(path), "--seed", "9",
                  "--output", str(tmp_path / "r.json")])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_preset_is_usage_error(self, tmp_path, capsys):
        code = main(["gen", "--synthetic", "spiral", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE


class TestSeedFallback:
    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QDASIM_SEED", "31")
        code, report = run_cli(
            ["gen", "--synthetic", "two-gauss", "--per-class", "4",
             "--out", str(tmp_path / "d.csv")],
            tmp_path,
        )
        assert code == EXIT_OK
        assert report["seed"] == 31


class TestFlagSurface:
    def test_each_subcommand_accepts_only_the_flags_it_reads(self, tmp_path, capsys):
        (commands,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        options = {
            name: {flag for action in sub._actions for flag in action.option_strings}
            for name, sub in commands.choices.items()
        }
        shared = {"-h", "--help", "--seed", "--output"}
        assert options == {
            "reduce": shared | {"--data", "--synthetic", "--per-class", "--p", "--degree",
                                "--kappa-eff", "--eps", "--t", "--path"},
            "classify": shared | {"--data", "--synthetic", "--per-class", "--test",
                                  "--test-count", "--lda", "--prior", "--kappa-eff",
                                  "--eps", "--t", "--shots", "--path"},
            "chain": shared | {"--operators", "--data", "--synthetic", "--per-class",
                               "--functions", "--x-cost", "--kappa-eff", "--eps", "--t"},
            "rotate-check": shared | {"--function", "--c-const", "--bits", "--order",
                                      "--arcsin-terms", "--grid-bits", "--kappa-eff",
                                      "--eps"},
            "gen": shared | {"--synthetic", "--per-class", "--out"},
        }
        removed = {
            "reduce": ["--shots"],
            "chain": ["--shots", "--path"],
            "rotate-check": ["--t", "--shots", "--path"],
            "gen": ["--kappa-eff", "--eps", "--t", "--shots", "--path"],
        }
        valid = {
            "reduce": ["reduce", "--synthetic", "two-gauss", "--path", "classical"],
            "chain": ["chain", "--synthetic", "two-gauss"],
            "rotate-check": ["rotate-check", "--function", "inverse"],
            "gen": ["gen", "--synthetic", "two-gauss", "--out", str(tmp_path / "d.csv")],
        }
        values = {"--path": "quantum"}
        for command, flags in removed.items():
            for flag in flags:
                code = main(valid[command] + [flag, values.get(flag, "8"), "--seed", "1"])
                assert code == EXIT_USAGE, (command, flag)
                assert "unrecognized arguments" in capsys.readouterr().err
