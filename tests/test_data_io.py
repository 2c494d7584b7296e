"""Dataset ingestion, synthetic generation, and report serialization."""
from __future__ import annotations

import json

import numpy as np
import pytest

from qdasim.data_io import (
    RunReport,
    SyntheticSpec,
    generate,
    load_csv,
    save_csv,
    synthetic_preset,
)
from qdasim.errors import DomainRejection
from qdasim.oracle import LabeledDataset

from conftest import traced_peak


class TestLoadCsv:
    def test_basic_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("u,v,label\n1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        data = load_csv(path)
        assert (data.M, data.N, data.k) == (3, 2, 2)
        assert list(data.labels) == [1, 2, 1]
        assert data.label_names == ("a", "b")
        assert data.feature_names == ("u", "v")

    def test_non_numeric_cell_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u,v,label\n1.0,2.0,a\n1.0,oops,b\n")
        with pytest.raises(DomainRejection, match="line 3"):
            load_csv(path)

    def test_ragged_row_cites_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("u,v,label\n1.0,2.0,a\n1.0,a\n")
        with pytest.raises(DomainRejection, match="line 3"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("u,v,w\n1.0,2.0,3.0\n")
        with pytest.raises(DomainRejection, match="label"):
            load_csv(path)

    def test_round_trip_is_identity(self, tmp_path):
        rng = np.random.default_rng(8)
        data = LabeledDataset(
            rng.standard_normal((7, 3)) * np.pi,
            np.array([1, 2, 1, 3, 2, 1, 3]),
            label_names=("lo", "mid", "hi"),
        )
        path = tmp_path / "round.csv"
        save_csv(data, path)
        back = load_csv(path)
        assert np.array_equal(back.samples, data.samples)
        assert np.array_equal(back.labels, data.labels)
        assert back.label_names == data.label_names

    def test_cells_parse_as_python_float(self, tmp_path):
        cells = [["  1.5", "1_000 ", "-0.0"], ["2e-3", "+.5", " -7E+2 "], ["1e-320", "0.1", "3"]]
        path = tmp_path / "cells.csv"
        path.write_bytes(
            b" u , v ,w,label\r\n"
            b"  1.5,1_000 ,-0.0,\"lo, mid\"\r\n"
            b"\r\n"
            b"2e-3,+.5, -7E+2 ,hi\r\n"
            b"1e-320,0.1,3,\"lo, mid\"\r\n"
            b"\r\n"
        )
        data = load_csv(path)
        expected = np.array([[float(c) for c in row] for row in cells])
        assert np.array_equal(data.samples, expected)
        assert np.array_equal(np.signbit(data.samples), np.signbit(expected))
        assert list(data.labels) == [1, 2, 1]
        assert data.label_names == ("lo, mid", "hi")
        assert data.feature_names == ("u", "v", "w")

    @pytest.mark.parametrize(
        "row, where",
        [
            ("1.0,0x10,3,a", "line 4: non-numeric feature value '0x10' in column 'v'"),
            ("1.0,2.0,,a", "line 4: non-numeric feature value '' in column 'w'"),
            ("1 0,2.0,3,a", "line 4: non-numeric feature value '1 0' in column 'u'"),
            ("1.0,2.0,a", "line 4: expected 4 cells, found 3"),
        ],
    )
    def test_bad_row_cites_line_and_column(self, tmp_path, row, where):
        path = tmp_path / "bad.csv"
        path.write_text(f"u,v,w,label\r\n1,2,3,a\r\n\r\n{row}\r\n")
        with pytest.raises(DomainRejection) as err:
            load_csv(path)
        assert where in str(err.value)

    def test_peak_memory_is_near_the_samples(self, tmp_path):
        rng = np.random.default_rng(5)
        data = LabeledDataset(rng.standard_normal((1200, 256)), np.repeat([1, 2, 3], 400))
        path = tmp_path / "wide.csv"
        save_csv(data, path)
        back, peak = traced_peak(load_csv, path)
        assert np.array_equal(back.samples, data.samples)
        assert peak <= 4 * back.samples.nbytes


class TestGenerate:
    def test_zero_covariance_pins_samples_to_means(self):
        spec = SyntheticSpec(
            class_means=np.array([[1.0, 2.0], [-1.0, 0.0]]),
            class_covariances=np.zeros((2, 2, 2)),
            class_counts=(3, 3),
            seed=0,
        )
        data = generate(spec)
        assert np.allclose(data.class_members(1), [1.0, 2.0])
        assert np.allclose(data.class_members(2), [-1.0, 0.0])

    def test_identity_covariance_concentrates(self):
        spec = SyntheticSpec(
            class_means=np.zeros((1, 2)),
            class_covariances=np.eye(2)[None, :, :],
            class_counts=(10_000,),
            seed=1,
        )
        data = generate(spec)
        sample_cov = np.cov(data.samples.T)
        assert np.linalg.norm(sample_cov - np.eye(2), "fro") < 0.05

    def test_same_seed_reproduces_bits(self):
        spec = synthetic_preset("three-gauss", per_class=9, seed=13)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)

    def test_non_psd_covariance_rejected(self):
        with pytest.raises(DomainRejection, match="eigenvalue"):
            SyntheticSpec(
                class_means=np.zeros((1, 2)),
                class_covariances=np.diag([1.0, -0.5])[None, :, :],
                class_counts=(5,),
            )

    def test_undersized_class_rejected(self):
        with pytest.raises(DomainRejection, match="at least 2"):
            SyntheticSpec(
                class_means=np.zeros((1, 2)),
                class_covariances=np.eye(2)[None, :, :],
                class_counts=(1,),
            )

    def test_unknown_preset_rejected(self):
        with pytest.raises(DomainRejection, match="preset"):
            synthetic_preset("spiral")

    def test_adversarial_preset_shape(self):
        data = generate(synthetic_preset("adversarial", per_class=30, seed=2))
        assert (data.N, data.k, data.M) == (2, 2, 60)


class TestRunReport:
    def test_json_round_trip_is_lossless(self):
        values = [0.1 + 0.2, 1.0 / 3.0, 2.0**-52, 123456.789012345678]
        report = RunReport(
            command="qdasim chain --t 8",
            parameters={"t": 8, "eps": 0.1},
            outputs={"matrix": np.array([[values[0], values[1]], [values[2], values[3]]])},
            metrics={"trace_distance": values[1]},
            seed=7,
        )
        back = RunReport.from_json(report.to_json())
        assert back.outputs["matrix"] == [
            [values[0], values[1]],
            [values[2], values[3]],
        ]
        assert back.metrics["trace_distance"] == values[1]
        assert back.seed == 7

    def test_serialization_is_stable(self):
        report = RunReport(
            command="x", parameters={"b": 1, "a": 2}, outputs={}, metrics={}, seed=0
        )
        assert report.to_json() == report.to_json()
        keys = list(json.loads(report.to_json()))
        assert keys == sorted(keys)

    def test_complex_matrices_serialize_as_real_imag(self):
        report = RunReport(
            command="x",
            parameters={},
            outputs={"op": np.array([[1 + 2j]])},
            metrics={},
            seed=0,
        )
        back = json.loads(report.to_json())
        assert back["outputs"]["op"] == {"real": [[1.0]], "imag": [[2.0]]}
