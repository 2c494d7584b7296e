"""Dataset ingestion, the synthetic presets, and report serialization."""
from __future__ import annotations

import csv
import hashlib
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qdasim import data_io
from qdasim.data_io import (
    RunReport,
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

    @pytest.mark.parametrize("text", [
        b"u,v\xe9,label\n1,2,a\n",
        b"u,v,label\n1,2,caf\xe9\n3,4,a\n",
        # past the first read buffer, so the header reads cleanly and the C reader meets it
        b"u,v,label\n" + b"1,2,a\n" * 4000 + b"3,4,caf\xe9\n",
    ], ids=["header", "first-row", "past-first-buffer"])
    def test_non_utf8_file_is_one_rejection_naming_the_file(self, tmp_path, text):
        path = tmp_path / "latin1.csv"
        path.write_bytes(text)
        with pytest.raises(DomainRejection) as caught:
            load_csv(path)
        assert str(caught.value) == f"{path}: file is not UTF-8 text"

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


def row_loop(path) -> LabeledDataset:
    """``load_csv`` with numpy's C reader refusing every input, so that the
    row loop reads the whole file."""

    def refuse(*args, **kwargs):
        raise ValueError("not a plain table")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_io.np, "loadtxt", refuse)
        return load_csv(path)


def outcome(load, path):
    """The dataset a loader returns, or the message of its rejection.

    ``csv.Error`` counts as a rejection: before Python 3.11 ``csv`` refuses
    a NUL anywhere in a row, on either path.
    """
    try:
        return load(path)
    except (DomainRejection, csv.Error) as err:
        return f"{type(err).__name__}: {err}"


def assert_same_outcome(path) -> None:
    fast, rows = outcome(load_csv, path), outcome(row_loop, path)
    if isinstance(rows, str) or isinstance(fast, str):
        assert fast == rows
        return
    assert fast.samples.dtype == rows.samples.dtype == np.float64
    assert fast.samples.shape == rows.samples.shape
    assert np.array_equal(fast.samples.view(np.uint64), rows.samples.view(np.uint64))
    assert np.array_equal(np.signbit(fast.samples), np.signbit(rows.samples))
    assert np.array_equal(fast.labels, rows.labels)
    assert fast.label_names == rows.label_names
    assert fast.feature_names == rows.feature_names


CORPUS = {
    "crlf": b"u,v,label\r\n1,2,a\r\n3,4,b\r\n",
    "cr-only": b"u,v,label\r1,2,a\r3,4,b\r",
    "blank-lines": b"u,v,label\n\n1,2,a\n\n\n3,4,b\n\n",
    "blank-crlf-lines": b"u,v,label\r\n\r\n1,2,a\r\n\r\n",
    "whitespace-line": b"u,v,label\n1,2,a\n   \n3,4,b\n",
    "tab-line": b"u,v,label\n1,2,a\n\t\n",
    "hash-line": b"u,v,label\n# note\n1,2,a\n",
    "hash-cell": b"u,v,label\n1,#2,a\n",
    "hash-label": b"u,v,label\n1,2,#a\n3,4,b\n",
    "quoted-number": b'u,v,label\n"1.5",2,a\n',
    "quoted-label": b'u,v,label\n1,2,"a"\n3,4,a\n',
    "quoted-label-comma": b'u,v,label\n1,2,"lo, mid"\n3,4,hi\n5,6,"lo, mid"\n',
    "spaced-quote-label": b'u,v,label\n1,2, "a"\n3,4,"a"\n',
    "quoted-newline-label": b'u,v,label\n1,2,"a\nb"\n3,4,c\n',
    "quote-splits-numbers": b'u,v,label\n1,2,a\n1,"2,3",a\n',
    "tabs-and-spaces": b"u,v,label\n\t1 , 2\t,\ta \n 3,4 , b\n",
    "nan": b"u,v,label\n1,2,a\nnan,2,a\n",
    "minus-infinity": b"u,v,label\n-Infinity,2,a\n",
    "overflow": b"u,v,label\n1e400,2,a\n",
    "signed-zero-subnormal-plus": b"u,v,label\n-0.0,1e-320,a\n+.5,-0,b\n",
    "exponents": b"u,v,label\n1E5,-7E+2,a\n2e-3,.25e1,b\n",
    "hex": b"u,v,label\n1,2,a\n0x1,2,a\n",
    "underscore": b"u,v,label\n1_0,2,a\n3,4_000.5,b\n",
    "full-width-digits": "u,v,label\n\uff11\uff12,2,a\n3,4,b\n".encode(),
    "nbsp-padding": "u,v,label\n\xa01.5\xa0,2,a\n3,\xa04,b\n".encode(),
    "non-ascii-label": "u,v,label\n1,2,\u00fcn\u00ef\n3,4,\u2003a\u2003\n5,6,a\n".encode(),
    "trailing-comma": b"u,v,label\n1,2,a,\n",
    "trailing-comma-later": b"u,v,label\n1,2,a\n3,4,b,\n",
    "extra-column": b"u,v,label\n1,2,a,5\n3,4,b,6\n",
    "empty-label": b"u,v,label\n1,2,\n3,4,a\n5,6,\n",
    "empty-feature": b"u,v,label\n1,,a\n",
    "short-row": b"u,v,label\n1,a\n",
    "short-row-later": b"u,v,label\n1,2,a\n1,a\n",
    "bad-cell-later": b"u,v,label\n1,2,a\n3,x,b\n",
    "numeric-labels": b"u,v,label\n1,2,1.5\n3,4,2\n5,6,1.5\n",
    "bom-header": "\ufeffu,v,label\n1,2,a\n".encode(),
    "nul-in-label": b"u,v,label\n1,2,a\x00b\n3,4,a\n",
    "nul-in-number": b"u,v,label\n1\x00,2,a\n",
    "form-feed-in-label": b"u,v,label\n1,2,\x0ca\n3,4,a\x0c\n5,6,a\x0cb\n",
    "separator-in-label": b"u,v,label\n1,2,a\x1cb\n3,4,a\x0bb\n",
    "header-only": b"u,v,label\n",
    "header-only-blank-lines": b"u,v,label\n\n\r\n",
    "header-no-newline": b"u,v,label",
    "empty-file": b"",
    "bad-header": b"u,v,w\n1,2,3\n",
    "one-row": b"u,v,label\n1,2,a\n",
    "one-row-no-newline": b"u,v,label\n1,2,a",
    "one-column": b"u,label\n1,a\n2,b\n",
}


class TestFastReader:
    """``load_csv`` reads through numpy's C reader and falls back to the row
    loop; the two must agree on every input, bit for bit or message for
    message."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_matches_row_loop(self, tmp_path, name):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(CORPUS[name])
        assert_same_outcome(path)

    @pytest.mark.parametrize("fmt", ["%r", "%.17g", "%.6e", "%.3f", "%g"])
    def test_random_values_match_row_loop(self, tmp_path, fmt):
        rng = np.random.default_rng(21)
        values = rng.standard_normal((40, 5)) * 10.0 ** rng.integers(-310, 300, (40, 5))
        values[0, :3] = [-0.0, 5e-324, 1.7976931348623157e308]
        lines = ["a,b,c,d,e,label"] + [
            ",".join(fmt % v for v in row) + f",c{i % 3}" for i, row in enumerate(values.tolist())
        ]
        path = tmp_path / "random.csv"
        path.write_text("\n".join(lines) + "\n")
        assert_same_outcome(path)
        assert load_csv(path).label_names == ("c0", "c1", "c2")

    def test_no_data_rows_is_a_rejection_without_a_warning(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("u,v,label\n\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainRejection, match="no data rows"):
                load_csv(path)
        assert caught == []

    def test_plain_table_takes_the_fast_path(self, tmp_path, monkeypatch):
        def no_fallback(handle, path):
            raise AssertionError("row loop ran on a plain numeric table")

        monkeypatch.setattr(data_io, "_load_rows", no_fallback)
        path = tmp_path / "plain.csv"
        path.write_text("u,v,label\n1.5,-2,b\n3e1,4,a\n5,6,b\n")
        data = load_csv(path)
        assert np.array_equal(data.samples, [[1.5, -2.0], [30.0, 4.0], [5.0, 6.0]])
        assert list(data.labels) == [1, 2, 1]
        assert data.label_names == ("b", "a")

    def test_fast_path_runs_under_numpy_1x_default_encoding(self, tmp_path, monkeypatch):
        # numpy 1.x defaults loadtxt to encoding="bytes", which hands
        # converters latin-1 bytes; load_csv must not depend on the default
        def no_fallback(handle, path):
            raise AssertionError("row loop ran on a plain numeric table")

        loadtxt = np.loadtxt

        def bytes_by_default(*args, **kwargs):
            return loadtxt(*args, **{"encoding": "bytes", **kwargs})

        monkeypatch.setattr(data_io, "_load_rows", no_fallback)
        monkeypatch.setattr(data_io.np, "loadtxt", bytes_by_default)
        path = tmp_path / "plain.csv"
        path.write_text("u,v,label\n1.5,-2,b\n3e1,4,a\n")
        data = load_csv(path)
        assert np.array_equal(data.samples, [[1.5, -2.0], [30.0, 4.0]])
        assert data.label_names == ("b", "a")

    def test_loading_does_not_import_numpy_ma(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("u,v,label\n1,2,a\n3,4,b\n")
        src = str(Path(data_io.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r})\n"
            "from qdasim.data_io import load_csv\n"
            f"load_csv({str(path)!r})\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


# sha256 of samples.tobytes() + labels.astype(np.int64).tobytes() at
# per_class=7, seed=3: any change to a preset's draws fails here
PRESET_DIGESTS = {
    "two-gauss": "56b5e8bd17380397c3fe6ee5d32dc8b07e0864fc04b82d0687b78b5b91b9c4a9",
    "three-gauss": "a251f7a06428438a0340ae7b3393a2ebade3748f0b5fb34ec2a4e69620eb523d",
    "adversarial": "af6c368b7375a8fce7ecdd1c0e46ea9647c51494b32524edfca17aef3bdc87a4",
}


class TestGenerate:
    @pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
    def test_preset_bits_are_pinned(self, name):
        d = synthetic_preset(name, per_class=7, seed=3)
        digest = hashlib.sha256(d.samples.tobytes() + d.labels.astype(np.int64).tobytes())
        assert digest.hexdigest() == PRESET_DIGESTS[name]
        assert d.label_names == tuple(str(c) for c in range(1, d.k + 1))

    def test_identity_covariance_concentrates(self):
        data = synthetic_preset("three-gauss", per_class=10_000, seed=1)
        sample_cov = np.cov(data.class_members(1).T)
        assert np.linalg.norm(sample_cov - 0.49 * np.eye(4), "fro") < 0.05

    def test_same_seed_reproduces_bits(self):
        a = synthetic_preset("three-gauss", per_class=9, seed=13)
        b = synthetic_preset("three-gauss", per_class=9, seed=13)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)

    def test_undersized_class_rejected(self):
        with pytest.raises(DomainRejection, match="every class needs at least 1 sample"):
            synthetic_preset("two-gauss", per_class=0)

    @pytest.mark.parametrize("per_class", [2.5, 7.0, "7"])
    def test_non_integer_class_size_rejected(self, per_class):
        with pytest.raises(DomainRejection, match="per_class must be an integer"):
            synthetic_preset("two-gauss", per_class=per_class)

    def test_unknown_preset_rejected(self):
        with pytest.raises(DomainRejection, match="preset"):
            synthetic_preset("spiral")

    def test_adversarial_preset_shape(self):
        data = synthetic_preset("adversarial", per_class=30, seed=2)
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
        back = json.loads(report.to_json())
        assert back["outputs"]["matrix"] == [
            [values[0], values[1]],
            [values[2], values[3]],
        ]
        assert back["metrics"]["trace_distance"] == values[1]
        assert back["seed"] == 7

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
