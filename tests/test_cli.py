"""Command-line surface: subcommands, report content, exit codes, determinism."""
from __future__ import annotations

import argparse
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qdasim import chain, cli, lda, qda
from qdasim.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, UNECHOED, build_parser, main
from qdasim.data_io import load_csv
from qdasim.lda import quantum_lda, whitening_chain

GOLDEN_CSV = str(Path(__file__).parent / "golden" / "three_gauss_seed1.csv")


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def strip_timestamp(report: dict) -> dict:
    trimmed = dict(report)
    trimmed.pop("timestamp")
    return trimmed


def first_difference(name: str, expected: str, actual: str) -> str:
    """``name``, the first line number where the two texts differ, and both lines there."""
    old, new = expected.splitlines(keepends=True), actual.splitlines(keepends=True)
    line = next(
        (i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new))
    )

    def at(lines):
        return repr(lines[line]) if line < len(lines) else "<end of text>"

    return f"{name}: line {line + 1}: golden {at(old)}, run {at(new)}"


_ABSENT = object()


def differing_paths(expected, actual, keys: tuple = ()) -> list[str]:
    """Dotted key paths at which two parsed JSON values differ; objects are
    compared key by key, any other value (a list included) as a whole."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        return [
            path
            for key in sorted(expected.keys() | actual.keys())
            for path in differing_paths(
                expected.get(key, _ABSENT), actual.get(key, _ABSENT), (*keys, key)
            )
        ]
    return [] if expected == actual else [".".join(keys) or "<root>"]


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

    @pytest.mark.parametrize("t", ["8", "12"])
    def test_both_paths_report_unit_directions_and_one_fisher_value(self, t, tmp_path):
        # the trace-ratio criterion weights each row by its squared norm, so the two
        # paths agree on it only when both return unit rows
        code, report = run_cli(
            ["reduce", "--data", GOLDEN_CSV, "--path", "both", "--p", "2", "--t", t,
             "--seed", "1"],
            tmp_path,
        )
        assert code == EXIT_OK
        for path in ("classical", "quantum"):
            rows = np.array(report["outputs"][path]["directions"])
            np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0, atol=1e-12)
        metrics = report["metrics"]
        assert metrics["fisher_classical"] == pytest.approx(metrics["fisher_quantum"], rel=1e-3)

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
            "rotate_check_inverse_seed0.json": [
                "rotate-check", "--function", "inverse", "--seed", "0"],
        }
        differing = []
        for name, args in goldens.items():
            golden = Path(__file__).parent / "golden" / name
            assert main(args) == EXIT_OK, name
            out = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', capsys.readouterr().out)
            if out.encode("utf-8") != golden.read_bytes():
                stored = golden.read_text("utf-8")
                paths = differing_paths(json.loads(stored), json.loads(out))
                differing.append(f"{first_difference(name, stored, out)}; fields {paths}")
        # every golden is compared, so one run names all that moved, where and which fields
        assert differing == [], "\n".join(differing)

    def test_first_difference_names_line_and_both_lines(self):
        golden = '{\n  "a": 1,\n  "b": 2\n}\n'
        assert first_difference("g.json", golden, golden.replace('"b": 2', '"b": 3')) == (
            "g.json: line 3: golden '  \"b\": 2\\n', run '  \"b\": 3\\n'"
        )
        assert first_difference("g.json", golden, golden + "extra\n") == (
            "g.json: line 5: golden <end of text>, run 'extra\\n'"
        )

    def test_differing_paths_name_every_changed_field(self):
        golden = {"outputs": {"quantum": {"directions": [[1.0, 0.0]], "intermediates": [[1.0]]}},
                  "metrics": {"fisher_quantum": 2.0, "copies_used": [4]}, "seed": 1}
        run = json.loads(json.dumps(golden))
        assert differing_paths(golden, run) == []
        run["outputs"]["quantum"]["directions"][0][1] = 1e-17
        run["metrics"]["fisher_quantum"] = 2.5
        del run["seed"]
        run["metrics"]["extra"] = None
        assert differing_paths(golden, run) == [
            "metrics.extra", "metrics.fisher_quantum", "outputs.quantum.directions", "seed"
        ]
        assert differing_paths([1], [2]) == ["<root>"]

    @pytest.mark.parametrize("t", ["2", "3"])
    def test_quantum_register_rule_checked_before_any_path_runs(self, t, tmp_path, monkeypatch,
                                                                 capsys):
        def never(*args, **kwargs):
            raise AssertionError("the classical path ran before --t was checked")

        monkeypatch.setattr(cli, "classical_lda_oracle", never)
        code, report = run_cli(
            ["reduce", "--synthetic", "three-gauss", "--path", "both", "--t", t, "--seed", "0"],
            tmp_path,
        )
        assert (code, report) == (EXIT_DOMAIN, None)
        assert f"t={t} outside [4, 12]" in capsys.readouterr().err

    @pytest.mark.parametrize("path, decompositions", [("both", 4), ("quantum", 3)])
    def test_one_whitening_chain_per_run(self, path, decompositions, tmp_path, monkeypatch):
        # S_W and S_B once each, shared by every path and back-map, plus the chain
        # output (classical) and the phase-estimation generator (quantum)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        code, _ = run_cli(
            ["reduce", "--data", GOLDEN_CSV, "--path", path, "--p", "2", "--t", "8",
             "--seed", "1"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert len(calls) == decompositions

    @pytest.mark.parametrize("path, stages", [("classical", 0), ("quantum", 3), ("both", 3)])
    def test_each_scatter_operator_and_stage_built_once_per_run(
        self, path, stages, tmp_path, monkeypatch
    ):
        # the Fisher metric rescales the chain's own pair; the back-map reuses the
        # chain's (S_B, sqrt) stage and prepares only (S_W, inverse)
        calls = dict.fromkeys(("within_scatter", "between_scatter", "prepare_stage"), 0)

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in ((lda, "within_scatter"), (lda, "between_scatter"),
                             (chain, "prepare_stage"), (lda, "prepare_stage")):
            count(module, name)
        code, _ = run_cli(
            ["reduce", "--data", GOLDEN_CSV, "--path", path, "--p", "2", "--t", "8",
             "--seed", "1"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert calls == {"within_scatter": 1, "between_scatter": 1, "prepare_stage": stages}

    def test_feature_map_degree(self, tmp_path):
        code, report = run_cli(
            ["reduce", "--synthetic", "adversarial", "--degree", "2",
             "--path", "classical", "--seed", "0"],
            tmp_path,
        )
        assert code == EXIT_OK
        # 2-d input maps to 5 monomial features
        assert len(report["outputs"]["classical"]["directions"][0]) == 5

    @pytest.mark.parametrize("degree", ["0", "-3"])
    def test_degree_outside_feature_map_range_exits_with_domain_code(self, degree, tmp_path, capsys):
        # a degree below 1 must not run degree 1 and echo the flag it ignored
        code, report = run_cli(
            ["reduce", "--synthetic", "two-gauss", "--degree", degree,
             "--path", "classical", "--seed", "0"],
            tmp_path,
        )
        assert (code, report) == (EXIT_DOMAIN, None)
        assert "degree must be 1, 2, or 3" in capsys.readouterr().err


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

    def test_eps_reaches_every_inversion_stage(self, tmp_path, monkeypatch):
        prepare = qda.prepare_stage
        signature = inspect.signature(prepare)
        eps = []
        monkeypatch.setattr(
            qda,
            "prepare_stage",
            lambda *a, **k: eps.append(signature.bind(*a, **k).arguments.get("eps"))
            or prepare(*a, **k),
        )
        code, _ = run_cli(
            ["classify", "--synthetic", "three-gauss", "--test-count", "5",
             "--path", "quantum", "--eps", "0.3", "--seed", "7"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert eps == [0.3] * 3

    @pytest.mark.parametrize("eps", ["0", "1", "1.5"])
    def test_eps_outside_unit_interval_exits_with_domain_code(self, eps, tmp_path, capsys):
        code, report = run_cli(
            ["classify", "--synthetic", "three-gauss", "--test-count", "5",
             "--path", "quantum", "--eps", eps, "--seed", "7"],
            tmp_path,
        )
        assert (code, report) == (EXIT_DOMAIN, None)
        assert "eps must lie in (0, 1)" in capsys.readouterr().err

    def test_test_labels_matched_to_training_classes_by_name(self, tmp_path):
        # the same rows with class "3" listed first: the file numbers "3" as its class 1
        header, *rows = Path(GOLDEN_CSV).read_text().splitlines(keepends=True)
        reordered = tmp_path / "reordered.csv"
        reordered.write_text(header + "".join(reversed(rows)))
        agreement = []
        for test in (GOLDEN_CSV, str(reordered)):
            code, report = run_cli(
                ["classify", "--data", GOLDEN_CSV, "--test", test, "--path", "classical",
                 "--seed", "0"],
                tmp_path,
            )
            assert code == EXIT_OK
            agreement.append(report["metrics"]["test_truth_agreement"]["classical"])
        assert agreement[0] > 0.8
        assert agreement[1] == agreement[0]

    def test_shots_consumed_counts_only_the_draws_taken(self, tmp_path):
        # a test row at mu_3 / 2 has a vanishing shifted vector for class 3: no draw
        header, *rows = Path(GOLDEN_CSV).read_text().splitlines(keepends=True)
        half_mean = 0.5 * qda.fit(load_csv(GOLDEN_CSV)).class_means[2]
        test = tmp_path / "half_mean.csv"
        test.write_text(header + "".join(rows[:5])
                        + ",".join(repr(float(x)) for x in half_mean) + ",3\n")
        code, report = run_cli(
            ["classify", "--data", GOLDEN_CSV, "--test", str(test), "--path", "quantum",
             "--shots", "64", "--seed", "0"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert report["metrics"]["shots_consumed"] == 64 * (3 * 6 - 1)

    def test_test_label_missing_from_training_exits_with_domain_code(self, tmp_path, capsys):
        test = tmp_path / "unknown.csv"
        test.write_text("f1,f2,f3,f4,label\n1,2,3,4,1\n1,2,3,5,d\n")
        code, report = run_cli(
            ["classify", "--data", GOLDEN_CSV, "--test", str(test), "--path", "classical",
             "--seed", "0"],
            tmp_path,
        )
        assert (code, report) == (EXIT_DOMAIN, None)
        assert "test label 'd' is not a class of the training set" in capsys.readouterr().err

    def test_missing_test_source_is_usage_error(self, capsys):
        code = main(["classify", "--synthetic", "three-gauss", "--seed", "3"])
        assert code == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_missing_test_file_is_usage_error(self, capsys):
        code = main(
            ["classify", "--synthetic", "three-gauss", "--test", "/nonexistent.csv"]
        )
        assert code == EXIT_USAGE

    def test_zero_test_count_names_the_sample_floor(self, capsys):
        code = main(["classify", "--synthetic", "three-gauss", "--test-count", "0"])
        assert code == EXIT_USAGE
        assert "every class needs at least 2 samples" in capsys.readouterr().err


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

    def test_dataset_chain_is_the_chain_reduce_runs(self, tmp_path):
        code, report = run_cli(
            ["chain", "--data", GOLDEN_CSV, "--kappa-eff", "50", "--eps", "0.2", "--t", "8"],
            tmp_path,
        )
        assert code == EXIT_OK
        spec = whitening_chain(load_csv(GOLDEN_CSV), 50.0, 0.2, 8)
        output = quantum_lda(spec, 2, seed=1).chain.output
        quantum = report["outputs"]["quantum"]
        assert np.array_equal(np.array(quantum["real"]), output.matrix)
        assert not np.any(quantum["imag"])

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

    def test_one_stage_analysis_per_stage(self, tmp_path, monkeypatch):
        # the copy count reads each operator's kappa window and never rotates;
        # each prepared stage rotates once
        analyses = []
        rotate = chain.rotation_amplitudes
        monkeypatch.setattr(
            chain, "rotation_amplitudes", lambda *a, **k: analyses.append(a) or rotate(*a, **k)
        )
        code, report = run_cli(
            ["chain", "--synthetic", "two-gauss", "--t", "8", "--seed", "2"], tmp_path
        )
        assert code == EXIT_OK
        assert len(report["parameters"]["functions"]) == 2
        assert len(analyses) == 2

    def test_function_count_mismatch_is_usage_error(self, tmp_path, capsys):
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"operators": [[[1.0, 0.0], [0.0, 1.0]]]}))
        code = main(["chain", "--operators", str(ops), "--functions", "sqrt,sqrt"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("functions", ["sqrt", "bogus"])
    @pytest.mark.parametrize("source", [["--data", GOLDEN_CSV], ["--synthetic", "two-gauss"]])
    def test_functions_with_dataset_source_is_usage_error(self, source, functions, tmp_path, capsys):
        # a chain built from a dataset is always the whitening pair, so no
        # function name is read, known or not
        code, report = run_cli(["chain", *source, "--functions", functions, "--seed", "0"], tmp_path)
        assert (code, report) == (EXIT_USAGE, None)
        assert "--functions applies only with --operators" in capsys.readouterr().err


    def test_report_carries_no_cost_score(self, tmp_path):
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"operators": [[[0.6, 0.1], [0.1, 0.4]]]}))
        for source in (["--synthetic", "two-gauss"],
                       ["--operators", str(ops), "--functions", "inverse"]):
            code, report = run_cli(["chain", *source, "--seed", "0"], tmp_path)
            assert code == EXIT_OK
            assert "complexity_score" not in report["metrics"]
            assert "x_cost" not in report["parameters"]

    @pytest.mark.parametrize("entry", [[[1, 0], [0]], [["a", "b"], ["c", "d"]], {}],
                             ids=["ragged-row", "strings", "object"])
    def test_malformed_operator_entry_exits_with_domain_code(self, entry, tmp_path, capsys):
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"operators": [[[1.0, 0.0], [0.0, 1.0]], entry]}))
        code, report = run_cli(
            ["chain", "--operators", str(ops), "--functions", "sqrt,sqrt", "--seed", "0"],
            tmp_path,
        )
        assert (code, report) == (EXIT_DOMAIN, None)
        assert "operator 2 is not a numeric matrix" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, reason",
        [(None, "operator must be a square matrix, got shape ()"),
         ([[1, 0, 0], [0, 1, 0]], "operator must be a square matrix, got shape (2, 3)"),
         ([[1, 0], [0, float("nan")]], "operator has non-finite entries")],
        ids=["null", "2x3", "nan"],
    )
    def test_operator_rejection_names_the_operator(self, entry, reason, tmp_path, capsys):
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"operators": [[[1.0, 0.0], [0.0, 1.0]], entry]}))
        code, report = run_cli(
            ["chain", "--operators", str(ops), "--functions", "sqrt,sqrt", "--seed", "0"],
            tmp_path,
        )
        assert (code, report) == (EXIT_DOMAIN, None)
        assert f"domain rejection: operator 2: {reason}" in capsys.readouterr().err


class TestUndecodableInput:
    """A Latin-1 byte in an input file is a rejection naming the file, not a traceback."""

    def test_dataset_file_exits_with_domain_code(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"u,v,label\n1,2,a\n3,4,caf\xe9\n")
        code, report = run_cli(["reduce", "--data", str(data), "--seed", "0"], tmp_path)
        assert (code, report) == (EXIT_DOMAIN, None)
        assert f"{data}: file is not UTF-8 text" in capsys.readouterr().err

    def test_test_file_exits_with_domain_code(self, tmp_path, capsys):
        test = tmp_path / "latin1.csv"
        test.write_bytes(Path(GOLDEN_CSV).read_bytes().replace(b"\n", b",\xe9\n", 1))
        code, report = run_cli(
            ["classify", "--data", GOLDEN_CSV, "--test", str(test), "--path", "classical",
             "--seed", "0"],
            tmp_path,
        )
        assert (code, report) == (EXIT_DOMAIN, None)
        assert f"{test}: file is not UTF-8 text" in capsys.readouterr().err

    def test_operator_file_is_usage_error(self, tmp_path, capsys):
        ops = tmp_path / "latin1.json"
        ops.write_bytes(b'{"operators": [[[1, 0], [0, 1]]], "note": "caf\xe9"}')
        code, report = run_cli(
            ["chain", "--operators", str(ops), "--functions", "sqrt", "--seed", "0"], tmp_path
        )
        assert (code, report) == (EXIT_USAGE, None)
        assert f"{ops}: invalid JSON" in capsys.readouterr().err


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

    @pytest.mark.parametrize("flag, value", [
        ("--order", "0"), ("--order", "-1"), ("--arcsin-terms", "0"),
        ("--bits", "-2"), ("--grid-bits", "-1"), ("--c-const", "nan"),
        # a stage only rotates values of a t-bit register, t <= qsim.PHASE_BITS_MAX = 12
        ("--grid-bits", "13"), ("--grid-bits", "40"),
        # the 1/3 register of the windowed series would pass 2^1024 as a float
        ("--bits", "504"),
    ])
    def test_invalid_register_setting_exits_with_domain_code(self, flag, value, tmp_path, capsys):
        code, report = run_cli(["rotate-check", flag, value, "--seed", "0"], tmp_path)
        assert (code, report) == (EXIT_DOMAIN, None)
        assert "domain rejection" in capsys.readouterr().err


    @pytest.mark.parametrize("bits", ["55", "503"])
    def test_wide_register_sweep_runs(self, bits, tmp_path):
        # from 55 bits on, pi/2 in the working register no longer fits an int64
        code, report = run_cli(
            ["rotate-check", "--bits", bits, "--grid-bits", "4", "--seed", "0"], tmp_path
        )
        assert code == EXIT_OK
        assert np.all(np.isfinite(report["outputs"]["theta_fixed"]))

    @pytest.mark.parametrize("kappa_eff", ["0", "-1", "nan"])
    def test_kappa_below_one_exits_with_domain_code(self, kappa_eff, tmp_path, capsys):
        code, report = run_cli(
            ["rotate-check", "--kappa-eff", kappa_eff, "--seed", "0"], tmp_path
        )
        assert (code, report) == (EXIT_DOMAIN, None)
        assert "kappa_eff must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["0", "1", "1.5"])
    def test_eps_outside_unit_interval_exits_with_domain_code(self, eps, tmp_path, capsys):
        code, report = run_cli(
            ["rotate-check", "--eps", eps, "--grid-bits", "3", "--seed", "0"], tmp_path
        )
        assert (code, report) == (EXIT_DOMAIN, None)
        assert "eps must lie in (0, 1)" in capsys.readouterr().err

    def test_widest_register_grid_runs(self, tmp_path):
        code, report = run_cli(["rotate-check", "--grid-bits", "12", "--seed", "0"], tmp_path)
        assert code == EXIT_OK
        assert len(report["outputs"]["lambda_grid"]) == 4096 - 40  # kappa_eff 100 keeps >= 41/4096


class TestCopyCountRange:
    """A copy count ceil(kappa^2 / eps^3) beyond int64 is a rejection, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["chain", "--synthetic", "three-gauss", "--eps", "1e-7"],
        ["chain", "--synthetic", "three-gauss", "--eps", "1e-120"],
        ["classify", "--synthetic", "three-gauss", "--test-count", "3", "--path", "quantum",
         "--shots", "64", "--eps", "1e-120"],
        ["reduce", "--synthetic", "three-gauss", "--p", "2", "--path", "quantum",
         "--kappa-eff", "1e300"],
    ])
    def test_exits_with_domain_code_naming_kappa_and_eps(self, argv, tmp_path, capsys):
        code, report = run_cli(argv + ["--seed", "0"], tmp_path)
        assert (code, report) == (EXIT_DOMAIN, None)
        err = capsys.readouterr().err
        assert "copy count ceil(kappa^2 / eps^3) does not fit in int64 at kappa = " in err
        assert re.search(r"eps = (1e-07|1e-120|0\.1)$", err.strip())


class TestDataSourceFlags:
    @pytest.mark.parametrize("argv", [
        ["reduce", "--data", GOLDEN_CSV, "--per-class", "9"],
        ["classify", "--data", GOLDEN_CSV, "--test", GOLDEN_CSV, "--per-class", "3",
         "--path", "classical"],
        ["chain", "--data", GOLDEN_CSV, "--per-class", "9"],
    ])
    def test_per_class_without_synthetic_is_usage_error(self, argv, tmp_path, capsys):
        code, report = run_cli(argv + ["--seed", "0"], tmp_path)
        assert (code, report) == (EXIT_USAGE, None)
        assert "--per-class sizes synthetic data" in capsys.readouterr().err

    @pytest.mark.parametrize("train", [["--data", GOLDEN_CSV], ["--synthetic", "three-gauss"]])
    def test_test_count_with_test_file_is_usage_error(self, train, tmp_path, capsys):
        code, report = run_cli(
            ["classify", *train, "--test", GOLDEN_CSV, "--test-count", "5", "--path", "classical",
             "--seed", "0"],
            tmp_path,
        )
        assert (code, report) == (EXIT_USAGE, None)
        assert "--test-count sizes synthetic test data" in capsys.readouterr().err

    @pytest.mark.parametrize("per_class, recorded", [([], 50), (["--per-class", "7"], 7)])
    def test_synthetic_per_class_recorded(self, per_class, recorded, tmp_path):
        code, report = run_cli(
            ["reduce", "--synthetic", "two-gauss", "--path", "classical", *per_class,
             "--seed", "1"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert report["parameters"]["dataset"]["per_class"] == recorded


SHARED_FLAG_REJECTIONS = [
    ("--eps", "7", "eps must lie in (0, 1), got 7.0"),
    ("--t", "1", "phase register width t=1 outside [2, 12]"),
    ("--shots", "-3", "shots must be a positive integer"),
    ("--kappa-eff", "0.5", "kappa_eff must be >= 1, got 0.5"),
]


class TestSharedFlagChecks:
    @pytest.mark.parametrize("flag, value, message", SHARED_FLAG_REJECTIONS)
    def test_classical_classify_checks_each_shared_flag(
        self, flag, value, message, tmp_path, capsys
    ):
        code, report = run_cli(
            ["classify", "--synthetic", "three-gauss", "--test-count", "5", "--path", "classical",
             flag, value, "--seed", "0"],
            tmp_path,
        )
        assert (code, report) == (EXIT_DOMAIN, None)
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", SHARED_FLAG_REJECTIONS[:2])
    def test_classical_reduce_checks_each_shared_flag(self, flag, value, message, tmp_path, capsys):
        code, report = run_cli(
            ["reduce", "--synthetic", "two-gauss", "--path", "classical", flag, value,
             "--seed", "0"],
            tmp_path,
        )
        assert (code, report) == (EXIT_DOMAIN, None)
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", SHARED_FLAG_REJECTIONS)
    def test_shared_flag_checked_before_the_data_source_is_read(
        self, flag, value, message, tmp_path, capsys
    ):
        code, report = run_cli(
            ["classify", "--data", str(tmp_path / "missing.csv"), "--test-count", "5",
             flag, value, "--seed", "0"],
            tmp_path,
        )
        assert (code, report) == (EXIT_DOMAIN, None)
        assert message in capsys.readouterr().err


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

    def test_non_integer_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QDASIM_SEED", "abc")
        code, report = run_cli(
            ["gen", "--synthetic", "two-gauss", "--out", str(tmp_path / "x.csv")], tmp_path
        )
        assert (code, report) == (EXIT_USAGE, None)
        assert "QDASIM_SEED must be an integer, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_negative_flag_seed_is_usage_error(self, tmp_path, capsys):
        code, report = run_cli(
            ["reduce", "--synthetic", "two-gauss", "--path", "quantum", "--seed", "-3"], tmp_path
        )
        assert (code, report) == (EXIT_USAGE, None)
        err = capsys.readouterr().err
        assert "--seed must be a non-negative integer, got -3" in err
        assert "Traceback" not in err

    def test_negative_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QDASIM_SEED", "-1")
        code, report = run_cli(
            ["gen", "--synthetic", "two-gauss", "--out", str(tmp_path / "x.csv")], tmp_path
        )
        assert (code, report) == (EXIT_USAGE, None)
        err = capsys.readouterr().err
        assert "QDASIM_SEED must be a non-negative integer, got -1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()


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
                               "--functions", "--kappa-eff", "--eps", "--t"},
            "rotate-check": shared | {"--function", "--c-const", "--bits", "--order",
                                      "--arcsin-terms", "--grid-bits", "--kappa-eff",
                                      "--eps"},
            "gen": shared | {"--synthetic", "--per-class", "--out"},
        }
        removed = {
            "reduce": ["--shots"],
            "chain": ["--shots", "--path", "--x-cost"],
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

    def test_each_run_default_is_its_library_constant(self):
        (commands,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        constants = {"kappa_eff": chain.DEFAULT_KAPPA_EFF, "eps": chain.DEFAULT_EPS,
                     "t": chain.DEFAULT_T, "shots": chain.DEFAULT_SHOTS}
        parsed = {
            (command, action.dest): action.default
            for command, sub in commands.choices.items()
            for action in sub._actions
            if action.dest in constants
        }
        # classify registers every shared flag, so each constant is checked at least once
        assert {dest for _, dest in parsed} == set(constants)
        assert parsed == {key: constants[key[1]] for key in parsed}
        signatures = [chain.ChainSpec, whitening_chain, qda.fit, qda.invert_apply,
                      qda.classify_many]
        library = {
            (fn.__name__, name): param.default
            for fn in signatures
            for name, param in inspect.signature(fn).parameters.items()
            if name in constants and param.default is not param.empty
        }
        assert library == {key: constants[key[1]] for key in library}
        assert len(library) == 11

    def test_report_parameters_echo_every_registered_flag(self, tmp_path):
        (commands,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        runs = {
            "reduce": ["--synthetic", "two-gauss", "--p", "1", "--degree", "2",
                       "--path", "classical", "--kappa-eff", "50"],
            "classify": ["--synthetic", "two-gauss", "--test-count", "2", "--lda",
                         "--prior", "linear", "--path", "classical", "--shots", "64"],
            "chain": ["--synthetic", "two-gauss", "--t", "6", "--eps", "0.2"],
            "rotate-check": ["--function", "sqrt", "--grid-bits", "3", "--bits", "12",
                             "--arcsin-terms", "5"],
            "gen": ["--synthetic", "two-gauss", "--per-class", "3",
                    "--out", str(tmp_path / "d.csv")],
        }
        # what each handler works out itself rather than echoes
        recorded = {
            "reduce": {"dataset"},
            "classify": {"train", "test"},
            "chain": {"stages", "functions"},
            "rotate-check": {"function", "c_const"},
            "gen": {"preset", "per_class"},
        }
        assert set(runs) == set(commands.choices)
        # report fields, delivery, and the data-source flags the descriptors replace
        assert UNECHOED == {"command", "seed", "output", "data", "synthetic", "per_class",
                            "test", "test_count", "operators"}
        for command, flags in runs.items():
            argv = [command] + flags + ["--seed", "2"]
            code, report = run_cli(argv, tmp_path, f"{command}.json")
            assert code == EXIT_OK, command
            dests = {
                action.dest for action in commands.choices[command]._actions
                if action.dest != "help"
            }
            echoed = dests - UNECHOED - recorded[command]
            assert set(report["parameters"]) == echoed | recorded[command], command
            parsed = vars(build_parser().parse_args(argv))
            assert {k: report["parameters"][k] for k in echoed} == {
                k: parsed[k] for k in echoed
            }, command
