"""Command-line surface: subcommands, report content, exit codes, determinism."""
from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdasim
from qdasim import chain, cli, lda, qda
from qdasim.cli import (EXIT_DOMAIN, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, UNECHOED, build_parser,
                        main)
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

    @pytest.mark.parametrize("path", ["quantum", "classical", "both"])
    def test_zero_directions_exits_with_domain_code(self, path, tmp_path, capsys):
        code, report = run_cli(
            ["reduce", "--synthetic", "two-gauss", "--p", "0", "--path", path, "--seed", "0"],
            tmp_path,
        )
        assert (code, report) == (EXIT_DOMAIN, None)
        assert "domain rejection: need at least one direction" in capsys.readouterr().err

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

    def test_one_feature_exits_naming_the_quantum_path_rule(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "one.csv"
        data.write_text("u,label\n1.0,a\n1.5,a\n-1.0,b\n-1.4,b\n")
        code, report = run_cli(["reduce", "--data", str(data), "--p", "1", "--path", "classical",
                                "--seed", "0"], tmp_path)
        assert code == EXIT_OK
        assert report["outputs"]["classical"]["directions"] == [[1.0]]

        def never(*args, **kwargs):
            raise AssertionError("the classical path ran before the feature count was checked")

        monkeypatch.setattr(cli, "classical_lda_oracle", never)
        for path in ("quantum", "both"):
            code, report = run_cli(["reduce", "--data", str(data), "--p", "1", "--path", path,
                                    "--seed", "0"], tmp_path, f"{path}.json")
            assert (code, report) == (EXIT_DOMAIN, None)
            assert capsys.readouterr().err == (
                "qdasim: domain rejection: quantum_lda needs at least 2 features: a one-feature "
                "chain output has the single eigenvalue 1, which wraps the phase register\n")


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
        model = qda.fit(load_csv(GOLDEN_CSV))
        half_mean = 0.5 * np.ldexp(model.class_means[2], model.exponent)
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

    @pytest.mark.parametrize("path", ["quantum", "classical", "both"])
    def test_test_set_of_another_dimension_exits_with_domain_code(self, path, tmp_path,
                                                                  capsys):
        test = tmp_path / "narrow.csv"
        test.write_text("f1,f2,f3,label\n1,2,3,1\n")
        code, report = run_cli(
            ["classify", "--data", GOLDEN_CSV, "--test", str(test), "--path", path,
             "--seed", "0"],
            tmp_path,
        )
        assert (code, report) == (EXIT_DOMAIN, None)
        err = capsys.readouterr().err
        assert "domain rejection: query dimension 3 does not match 4" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("operators, functions, code, message", [
        ([], ["--functions", "sqrt"], EXIT_USAGE, "expected a non-empty operator list"),
        ([[[-1.0, 0.0], [0.0, 0.0]]], ["--functions", "sqrt"], EXIT_DOMAIN,
         "domain rejection: operator 1: has non-positive trace -1.0"),
        ([[[1.0, 0.0], [0.0, 1.0]]], [], EXIT_USAGE, "--functions is required with --operators"),
    ], ids=["empty-list", "negative-trace", "no-functions"])
    def test_operator_file_rejection(self, operators, functions, code, message, tmp_path,
                                     capsys):
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"operators": operators}))
        exit_code, report = run_cli(["chain", "--operators", str(ops), *functions, "--seed", "0"],
                                    tmp_path)
        assert (exit_code, report) == (code, None)
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("file", ["non-psd", "missing"])
    def test_missing_functions_rejected_before_the_file_is_read(self, file, tmp_path, capsys):
        ops = tmp_path / "ops.json"
        if file == "non-psd":
            # the README's file, whose second operator alone would exit 2
            ops.write_text('{"operators": [[[0.5, 0], [0, 0.5]], [[0.9, 0], [0, -0.1]]]}')
        code, report = run_cli(["chain", "--operators", str(ops), "--seed", "0"], tmp_path)
        assert (code, report) == (EXIT_USAGE, None)
        assert capsys.readouterr().err.endswith(
            "qdasim: error: --functions is required with --operators\n")

    def test_vanished_stage_postselection_exits_with_numeric_code(self, tmp_path, capsys):
        # at t=8 stage 1 cannot resolve its 1e-5 eigenvalue, so its output is
        # exactly |0>, which stage 2 (resolving only |1>) postselects with probability 0
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps(
            {"operators": [[[0.99999, 0], [0, 0.00001]], [[0.001, 0], [0, 0.999]]]}
        ))
        code, report = run_cli(
            ["chain", "--operators", str(ops), "--functions", "identity,identity",
             "--kappa-eff", "1e6", "--seed", "0"],
            tmp_path,
        )
        assert (code, report) == (EXIT_NUMERIC, None)
        err = capsys.readouterr().err
        assert "numerical failure: stage postselection vanished" in err
        assert "P(ancilla=1) = 0.000e+00" in err

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


    @pytest.mark.parametrize("function, reason", [
        ("power(-400)", "power(-400) overflows"),
        ("power(-inf)", "exponent must be finite, got -inf"),
        ("power(inf)", "exponent must be finite, got inf"),
        ("power(nan)", "exponent must be finite, got nan"),
    ])
    def test_non_finite_function_exits_with_domain_code(self, function, reason, tmp_path,
                                                        capsys):
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"operators": [np.diag([0.4, 0.3, 0.2, 0.1]).tolist()]}))
        code, report = run_cli(["chain", "--operators", str(ops), "--functions", function,
                                "--kappa-eff", "10", "--seed", "0"], tmp_path)
        assert (code, report) == (EXIT_DOMAIN, None)
        assert reason in capsys.readouterr().err

    def test_report_carries_no_cost_score(self, tmp_path):
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"operators": [[[0.6, 0.1], [0.1, 0.4]]]}))
        for source in (["--synthetic", "two-gauss"],
                       ["--operators", str(ops), "--functions", "inverse"]):
            code, report = run_cli(["chain", *source, "--seed", "0"], tmp_path)
            assert code == EXIT_OK
            assert "complexity_score" not in report["metrics"]
            assert "x_cost" not in report["parameters"]

    # numpy would read a quoted number or a boolean as a number; the file format does not
    @pytest.mark.parametrize("entry", [[[1, 0], [0]], [["a", "b"], ["c", "d"]], {},
                                       [["1", "0"], ["0", "1"]], [[True, False], [False, True]]],
                             ids=["ragged-row", "strings", "object", "quoted-numbers", "booleans"])
    def test_malformed_operator_entry_exits_with_domain_code(self, entry, tmp_path, capsys):
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"operators": [[[1.0, 0.0], [0.0, 1.0]], entry]}))
        code, report = run_cli(
            ["chain", "--operators", str(ops), "--functions", "sqrt,sqrt", "--seed", "0"],
            tmp_path,
        )
        assert (code, report) == (EXIT_DOMAIN, None)
        assert "domain rejection: operator 2: not a numeric matrix" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, reason",
        [(None, "not a numeric matrix"),
         ([[1, 0, 0], [0, 1, 0]], "operator must be a square matrix, got shape (2, 3)"),
         ([[1, 0], [0, float("nan")]], "operator has non-finite entries"),
         ([[0.9, 0], [0, -0.1]], "not positive semidefinite: min eigenvalue -1.250e-01")],
        ids=["null", "2x3", "nan", "indefinite"],
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


class TestMissingInputFile:
    """A missing input file is the OSError of opening it: exit 1, naming the
    path, the same as a directory or an unreadable file."""

    @pytest.mark.parametrize("args", [
        ["reduce", "--data", "{missing}"],
        ["classify", "--data", "{missing}", "--test", GOLDEN_CSV],
        ["classify", "--data", GOLDEN_CSV, "--test", "{missing}"],
        ["chain", "--data", "{missing}"],
        ["chain", "--operators", "{missing}", "--functions", "sqrt"],
    ], ids=["reduce-data", "classify-data", "classify-test", "chain-data", "chain-operators"])
    def test_exits_with_usage_code_naming_the_path(self, args, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        code, report = run_cli([a.format(missing=missing) for a in args] + ["--seed", "0"],
                               tmp_path)
        assert (code, report) == (EXIT_USAGE, None)
        err = capsys.readouterr().err
        assert err == f"qdasim: error: [Errno 2] No such file or directory: {missing!r}\n"


class TestUnwritableOutput:
    """A report path that cannot be written is an error naming it, not a
    traceback after the run."""

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_exits_with_usage_code_naming_the_path(self, where, tmp_path, capsys):
        output = tmp_path / "missing" / "r.json" if where == "missing-directory" else tmp_path
        code = main(["gen", "--synthetic", "two-gauss", "--out", str(tmp_path / "x.csv"),
                     "--output", str(output)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("qdasim: error: ") and str(output) in err


class TestOverflowingInput:
    """Finite inputs whose arithmetic leaves the float64 range exit 2 naming
    the overflow, with no numpy warning (the suite turns warnings into errors).
    Training data are not such inputs: ``class_statistics`` takes their
    statistics, and ``classify`` its scores, in the exact frame of their
    largest entry."""

    @pytest.mark.parametrize("matrix, reason", [
        (np.diag([1e308, 1e308]), "operator 1: operator entries overflow float64 when symmetrized"),
        (np.diag([8e307, 8e307, 8e307]), "operator 1: operator trace overflows float64"),
        ([[1e-300, 1e10], [1e10, 1e-300]], "operator 1: overflows float64 when divided by its trace"),
        # a 400-digit integer literal reads as inf, not as an int that float() overflows on
        ([[10**399, 0], [0, 1]], "operator 1: operator has non-finite entries"),
    ], ids=["symmetrized", "trace", "unit-trace", "integer-past-float64"])
    def test_operator_file(self, matrix, reason, tmp_path, capsys):
        ops = tmp_path / "big.json"
        ops.write_text(json.dumps({"operators": [np.asarray(matrix).tolist()]}))
        code, report = run_cli(
            ["chain", "--operators", str(ops), "--functions", "sqrt", "--seed", "0"], tmp_path
        )
        assert (code, report) == (EXIT_DOMAIN, None)
        assert f"domain rejection: {reason}" in capsys.readouterr().err

    def test_dataset_file(self, tmp_path):
        # squared norms near 1e400 give the report of the same rows times
        # 2**-600, an exact rescale
        rows = [(1e200, 2.0, "a"), (3e200, 4.0, "a"), (-1e200, 0.0, "b"), (-2e200, 1.0, "b")]
        reports = []
        for k in (0, -600):
            data = write_rows(tmp_path, f"big{k}.csv",
                              [(math.ldexp(u, k), math.ldexp(v, k), c) for u, v, c in rows])
            code, report = run_cli(["reduce", "--data", data, "--path", "classical", "--seed", "0"],
                                   tmp_path, f"reduce{k}.json")
            assert code == EXIT_OK
            reports.append(report)
        assert reports[0]["outputs"] == reports[1]["outputs"]
        assert reports[0]["metrics"] == reports[1]["metrics"]

    def test_training_data_at_the_top_of_float64(self, tmp_path):
        # two-gauss with its largest entry at 1.7e308: reduce and chain run,
        # and classify scores every row as the same set times 2**-600 does,
        # though x - mean/2 in data units would overflow for some row
        data = qdasim.synthetic_preset("two-gauss", per_class=50, seed=0)
        path, low = str(tmp_path / "top.csv"), str(tmp_path / "low.csv")
        top = 1.7e308 / np.abs(data.samples).max()
        for name, samples in ((path, top * data.samples),
                              (low, np.ldexp(top * data.samples, -600))):
            qdasim.save_csv(qdasim.LabeledDataset(samples, data.labels, data.label_names), name)
        for argv in (["reduce", "--p", "1"], ["chain"]):
            code, _ = run_cli([*argv, "--data", path, "--seed", "0"], tmp_path)
            assert code == EXIT_OK, argv
        for mode in ([], ["--lda"]):
            reports = []
            for name in (path, low):
                code, report = run_cli(["classify", *mode, "--data", name, "--test", name,
                                        "--seed", "0"], tmp_path, "classify.json")
                assert code == EXIT_OK, (mode, name)
                reports.append(report)
            assert reports[0]["outputs"] == reports[1]["outputs"]
            assert reports[0]["metrics"] == reports[1]["metrics"]


    @pytest.mark.parametrize("path", ["quantum", "classical"])
    def test_query_row(self, path, tmp_path, capsys):
        train = str(tmp_path / "train.csv")
        assert main(["gen", "--synthetic", "two-gauss", "--per-class", "5", "--seed", "0",
                     "--out", train, "--output", str(tmp_path / "gen.json")]) == EXIT_OK
        rows = {"big": "1e200,0,0,0", "huge": "1.7e308,1.7e308,1.7e308,1.7e308"}
        for name, row in rows.items():
            (tmp_path / f"{name}.csv").write_text(f"f1,f2,f3,f4,label\n{row},1\n")
        args = ["classify", "--data", train, "--path", path, "--shots", "256", "--seed", "0"]
        # a squared norm past float64 is rescaled: the row is scored as the classical path does
        code, report = run_cli([*args, "--test", str(tmp_path / "big.csv")], tmp_path)
        assert code == EXIT_OK
        assert report["outputs"][path]["decisions"] == [1]
        code, report = run_cli([*args, "--test", str(tmp_path / "huge.csv")], tmp_path,
                               name="huge.json")
        assert (code, report) == (EXIT_DOMAIN, None)
        assert capsys.readouterr().err == (
            "qdasim: domain rejection: the discriminants of query row 0 overflow float64\n"
        )


def rescaled_three_gauss(scale: float, tmp_path) -> str:
    """The three-gauss preset (50 a class, seed 1) times ``scale``, as a CSV path."""
    data = qdasim.synthetic_preset("three-gauss", per_class=50, seed=1)
    path = tmp_path / f"three_gauss_{scale:g}.csv"
    qdasim.save_csv(qdasim.LabeledDataset(scale * data.samples, data.labels, data.label_names), path)
    return str(path)


def write_rows(tmp_path, name: str, rows) -> str:
    path = tmp_path / name
    path.write_text("u,v,label\n" + "".join(f"{u!r},{v!r},{c}\n" for u, v, c in rows))
    return str(path)


class TestRescaledData:
    """Discriminant analysis does not depend on the units of the data: every
    degeneracy check is relative to the size of what it guards."""

    SCALES = [10.0**k for k in (-13, -9, 0, 13)]

    def run_both(self, path, tmp_path):
        code, reduced = run_cli(["reduce", "--data", path, "--path", "classical", "--p", "2",
                                 "--seed", "0"], tmp_path, "reduce.json")
        assert code == EXIT_OK
        code, classified = run_cli(["classify", "--lda", "--data", path, "--test", path,
                                    "--path", "classical", "--seed", "0"], tmp_path, "classify.json")
        assert code == EXIT_OK
        return (np.array(reduced["outputs"]["classical"]["directions"]),
                reduced["metrics"]["fisher_classical"],
                classified["outputs"]["classical"]["decisions"])

    @pytest.mark.parametrize("scale", SCALES)
    def test_same_directions_fisher_value_and_decisions_as_at_scale_one(self, scale, tmp_path):
        directions, fisher, decisions = self.run_both(rescaled_three_gauss(scale, tmp_path),
                                                      tmp_path)
        ref_directions, ref_fisher, ref_decisions = self.run_both(
            rescaled_three_gauss(1.0, tmp_path), tmp_path)
        assert np.max(np.abs(directions - ref_directions)) < 1e-9
        assert fisher == pytest.approx(ref_fisher, rel=1e-12)
        assert decisions == ref_decisions

    def test_degree_three_feature_map_of_data_times_1e110(self, tmp_path):
        # the map forms its monomials from the samples over their largest
        # entry, so cubes of 1e110 never leave float64
        data = qdasim.synthetic_preset("two-gauss", seed=0)
        fisher = []
        for scale in (1.0, 1e110):
            path = tmp_path / f"two_gauss_{scale:g}.csv"
            qdasim.save_csv(qdasim.LabeledDataset(scale * data.samples, data.labels,
                                                  data.label_names), path)
            code, report = run_cli(["reduce", "--data", str(path), "--degree", "3",
                                    "--path", "both", "--seed", "0"], tmp_path)
            assert code == EXIT_OK, scale
            fisher.append(report["metrics"]["fisher_classical"])
        assert fisher[1] == pytest.approx(fisher[0], rel=1e-9)

    @pytest.mark.parametrize("mode", [[], ["--lda"]], ids=["per-class", "lda"])
    def test_classify_near_the_bottom_of_float64(self, mode, tmp_path):
        def run(scale):
            path = rescaled_three_gauss(scale, tmp_path)
            return run_cli(["classify", *mode, "--data", path, "--test", path, "--path", "both",
                            "--seed", "0"], tmp_path, f"classify_{scale:g}.json")

        _, reference = run(1.0)
        # squared deviations of 1e-165 data fall below the float64 range in
        # data units, but not in the frame of the largest entry
        for scale in (1e-155, 1e-160, 1e-165):
            code, report = run(scale)
            assert code == EXIT_OK
            for path in ("classical", "quantum"):
                outputs, expected = report["outputs"][path], reference["outputs"][path]
                assert outputs["decisions"] == expected["decisions"], (scale, path)
                np.testing.assert_allclose(outputs["discriminants"], expected["discriminants"],
                                           rtol=1e-12, atol=1e-12, err_msg=f"{scale} {path}")

    @pytest.mark.parametrize("scale", SCALES)
    def test_exactly_degenerate_inputs_rejected(self, scale, tmp_path, capsys):
        s = scale
        cases = {
            # class means and the global mean are all exactly 0
            "coincide.csv": ([(s, 0.0, 1), (-s, 0.0, 1), (0.0, s, 2), (0.0, -s, 2)],
                             ["reduce"], "all class means coincide"),
            # three copies of one point a class: the mean's rounding is the only spread
            "copies.csv": ([(0.1 * s, 0.7 * s, 1)] * 3 + [(0.3 * s, -0.9 * s, 2)] * 3,
                           ["reduce"], "every sample equals its class mean"),
            # the pooled spread lies along u, the class means along v
            "support.csv": ([(s, 5 * s, 1), (-s, 5 * s, 1), (s, -5 * s, 2), (-s, -5 * s, 2)],
                            ["classify", "--lda"], "outside the retained covariance support"),
        }
        for name, (rows, argv, message) in cases.items():
            path = write_rows(tmp_path, name, rows)
            test = ["--test", path] if argv[0] == "classify" else []
            code, _ = run_cli([*argv, "--data", path, *test, "--path", "classical", "--seed", "0"],
                              tmp_path)
            assert code == EXIT_DOMAIN, name
            assert message in capsys.readouterr().err, name
        # within-class spread along u only, so none along v
        data = load_csv(write_rows(tmp_path, "flat.csv",
                                   [(s, s, 1), (-s, s, 1), (2 * s, -s, 2), (0.0, -s, 2)]))
        with pytest.raises(qdasim.DomainRejection, match="within-class variance vanishes"):
            lda.fisher_criterion(data, [0.0, 1.0])
        # a query at half a class mean has a zero shifted vector for that class: no draw
        model = qda.fit(load_csv(rescaled_three_gauss(s, tmp_path)))
        result = qda.classify_many(model, 0.5 * np.ldexp(model.class_means[2:], model.exponent),
                                   "quantum", shots=16, seed=0)
        assert result.draws == 2
        assert result.discriminants[0, 2] == math.log(model.priors[2])


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
        # x0**-201 overflows float64 in the series of the narrowest windows
        ("--order", "200"),
    ])
    def test_invalid_register_setting_exits_with_domain_code(self, flag, value, tmp_path, capsys):
        code, report = run_cli(["rotate-check", flag, value, "--seed", "0"], tmp_path)
        assert (code, report) == (EXIT_DOMAIN, None)
        assert "domain rejection" in capsys.readouterr().err


    @pytest.mark.parametrize("function, reason", [
        ("power(inf)", "exponent must be finite, got inf"),
        ("power(-inf)", "exponent must be finite, got -inf"),
        ("power(nan)", "exponent must be finite, got nan"),
        ("power(1e400)", "exponent must be finite, got inf"),
        ("power(-400)", "power(-400) overflows"),
        # finite, but its Taylor coefficients overflow to inf and NaN
        ("power(1e300)", "Taylor coefficients overflow"),
    ])
    def test_non_finite_function_exits_with_domain_code(self, function, reason, tmp_path,
                                                        capsys):
        code, report = run_cli(["rotate-check", "--function", function, "--seed", "0"], tmp_path)
        assert (code, report) == (EXIT_DOMAIN, None)
        assert reason in capsys.readouterr().err

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

    @pytest.mark.parametrize("test_flags, message", [
        ([], "classify needs --test FILE, or --synthetic with --test-count"),
        (["--test", GOLDEN_CSV, "--test-count", "5"],
         "--test-count sizes synthetic test data; it does not apply with --test"),
    ], ids=["no-test-source", "test-count-with-test"])
    def test_test_source_rules_precede_reading_the_training_file(self, test_flags, message,
                                                                  tmp_path, capsys):
        # a training file whose non-numeric cell alone would exit 2
        bad = tmp_path / "bad.csv"
        bad.write_text("u,v,label\n1,x,a\n3,4,b\n")
        code, report = run_cli(["classify", "--data", str(bad), *test_flags, "--seed", "0"],
                               tmp_path)
        assert (code, report) == (EXIT_USAGE, None)
        assert capsys.readouterr().err.endswith(f"qdasim: error: {message}\n")

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

    @pytest.mark.parametrize("argv", [
        ["chain", "--synthetic", "two-gauss"],
        ["reduce", "--synthetic", "two-gauss", "--path", "classical"],
    ])
    def test_infinite_kappa_exits_with_domain_code(self, argv, tmp_path, capsys):
        code, report = run_cli(argv + ["--kappa-eff", "inf", "--seed", "0"], tmp_path)
        assert (code, report) == (EXIT_DOMAIN, None)
        assert "kappa_eff must be finite, got inf" in capsys.readouterr().err


class TestShotsRange:
    @pytest.mark.parametrize("path", ["quantum", "classical"])
    def test_shots_beyond_int64_rejected_on_every_path(self, path, tmp_path, capsys):
        code, report = run_cli(
            ["classify", "--synthetic", "three-gauss", "--per-class", "10", "--test-count", "5",
             "--path", path, "--shots", str(2**63), "--seed", "0"],
            tmp_path,
        )
        assert (code, report) == (EXIT_DOMAIN, None)
        assert f"shots must be at most 2^63 - 1, got {2**63}" in capsys.readouterr().err

    def test_largest_int64_shots_run(self, tmp_path):
        code, report = run_cli(
            ["classify", "--synthetic", "three-gauss", "--per-class", "10", "--test-count", "5",
             "--path", "quantum", "--shots", str(2**63 - 1), "--seed", "0"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert report["metrics"]["shots_consumed"] == (2**63 - 1) * 3 * 15


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
    def test_version_prints_the_package_version_and_exits_0(self, capsys):
        expected = f"qdasim {qdasim.__version__}\n"
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out == expected
        env = dict(os.environ, PYTHONPATH=str(Path(qdasim.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "qdasim.cli", "--version"], capture_output=True, text=True, env=env
        )
        assert (done.returncode, done.stdout) == (0, expected), done.stderr

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
