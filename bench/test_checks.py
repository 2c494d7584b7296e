"""Each benchmark check accepts its reference and rejects a wrong report.

    PYTHONPATH=src python3 -m pytest bench -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.csv"
    test = path.with_name("test.csv")
    inputs.classify_stream(7, path, test)
    return checks.read_dataset(path), checks.read_dataset(test)


def _complex(m):
    return {"real": np.real(m).tolist(), "imag": np.imag(m).tolist()}


def _chain_report(rho, success=(0.5, 0.4), bounds=(0.3, 0.2)):
    return {
        "outputs": {"quantum": _complex(rho)},
        "metrics": {"stage_success": list(success), "stage_bounds": list(bounds)},
    }


def _random_state(rng, n):
    a = rng.standard_normal((n, n))
    m = a @ a.T + n * np.eye(n)
    return m / np.trace(m)


def test_chain_reference_is_accepted_with_zero_distance():
    rng = np.random.default_rng(0)
    ops = [_random_state(rng, 6) for _ in range(3)]
    ref = checks.chain_reference(ops, [-1.0, 0.5, -0.5])
    assert checks.check_chain(_chain_report(ref), ref) == pytest.approx(0.0, abs=1e-12)


def test_chain_reference_matches_commuting_closed_form():
    w = np.array([0.5, 0.3, 0.2])
    ref = checks.chain_reference([np.diag(w), np.diag(w)], [-1.0, 0.5])
    expected = w**-1.0
    np.testing.assert_allclose(np.diag(ref).real, expected / expected.sum(), atol=1e-14)


def test_chain_check_rejects_perturbed_matrix():
    rng = np.random.default_rng(1)
    ref = _random_state(rng, 6)
    other = _random_state(rng, 6)
    perturbed = 0.8 * ref + 0.2 * other  # still a state, but 0.2-far at most
    assert checks.check_chain(_chain_report(0.99 * ref + 0.01 * other), ref) < 0.05
    with pytest.raises(checks.CheckFailed, match="trace distance"):
        checks.check_chain(_chain_report(np.diag([1.0, 0, 0, 0, 0, 0])), ref)
    with pytest.raises(checks.CheckFailed, match="is not 1"):
        checks.check_chain(_chain_report(1.1 * perturbed), ref)
    negative = ref - 0.5 * np.diag([0, 0, 0, 0, 0, 1.0]) + 0.5 * np.diag([1.0, 0, 0, 0, 0, 0])
    with pytest.raises(checks.CheckFailed, match="PSD"):
        checks.check_chain(_chain_report(negative), ref)


def test_chain_check_rejects_success_below_floor():
    ref = np.eye(4) / 4
    with pytest.raises(checks.CheckFailed, match="floors"):
        checks.check_chain(_chain_report(ref, success=(0.5, 0.1), bounds=(0.3, 0.2)), ref)


def test_direction_check_rejects_rotated_vector(dataset):
    (x, y), _ = dataset
    ref = checks.top_eigenvectors(checks.whitening_reference(x, y), 2)
    report = {"outputs": {"quantum": {"intermediates": (-ref).tolist()}}}
    assert checks.check_directions(report, ref) == pytest.approx(0.0, abs=1e-7)
    angle = 0.4  # cos 0.4 = 0.921 < 0.95
    rotated = np.array([
        np.cos(angle) * ref[0] + np.sin(angle) * ref[1],
        ref[1],
    ])
    report = {"outputs": {"quantum": {"intermediates": rotated.tolist()}}}
    with pytest.raises(checks.CheckFailed, match="cos"):
        checks.check_directions(report, ref)


def test_whitening_reference_is_a_rank_two_state(dataset):
    (x, y), _ = dataset
    ref = checks.whitening_reference(x, y)
    assert np.trace(ref).real == pytest.approx(1.0)
    assert np.linalg.matrix_rank(ref, tol=1e-10) == 2  # k - 1 for three classes


def _classify_report(classical, quantum):
    return {
        "outputs": {
            "classical": {"decisions": list(classical)},
            "quantum": {"decisions": list(quantum)},
        }
    }


def test_classify_check_rejects_flipped_decisions(dataset):
    (x, y), (qx, _) = dataset
    ref = checks.lda_decisions(x, y, qx)
    assert checks.check_classify(_classify_report(ref, ref), ref) == 1.0
    flipped = ref.copy()
    flipped[0] = flipped[0] % 3 + 1
    with pytest.raises(checks.CheckFailed, match="classical"):
        checks.check_classify(_classify_report(flipped, ref), ref)
    many = ref.copy()
    many[: len(ref) // 10] = many[: len(ref) // 10] % 3 + 1
    with pytest.raises(checks.CheckFailed, match="quantum"):
        checks.check_classify(_classify_report(ref, many), ref)


def test_lda_reference_separates_the_generated_classes(dataset):
    (x, y), (qx, qy) = dataset
    assert np.mean(checks.lda_decisions(x, y, qx) == qy) > 0.9


def test_inputs_repeat_per_seed_and_keep_their_spectra_across_seeds(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    inputs.chain_deep(3, a)
    inputs.chain_deep(3, b)
    assert a.read_bytes() == b.read_bytes()
    inputs.chain_deep(4, b)
    assert a.read_bytes() != b.read_bytes()
    ops_a, ops_b = (json.loads(p.read_text())["operators"] for p in (a, b))
    for m_a, m_b in zip(ops_a, ops_b):
        np.testing.assert_allclose(np.linalg.eigvalsh(m_a), np.linalg.eigvalsh(m_b), atol=1e-12)


def test_tracer_self_time_subtracts_direct_children():
    import tracer

    recorder = tracer.Recorder()
    recorder.spans = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 4.0, 0],
        ["inner", 5.0, 6.0, 0],
        ["leaf", 2.0, 3.5, 1],
    ]
    figures = recorder.summary()
    assert figures["outer.s"] == pytest.approx(6.0)
    assert figures["inner.s"] == pytest.approx(2.5)
    assert figures["inner.calls"] == 2
    assert figures["outer.inclusive_s"] == pytest.approx(10.0)


def test_run_prints_the_metrics_benchmark_json_declares():
    import run

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    for section, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[section]} == units
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
