"""Dataset ingestion, the three seeded synthetic presets, and run-report
serialization.

CSV files carry a header of feature names plus a final ``label`` column;
labels are arbitrary strings mapped to class indices in first-appearance
order, and each feature cell is read by the grammar of Python ``float()``.
``load_csv`` parses with numpy's C text reader and falls back to a
row-by-row loop for any input that reader does not take as a plain table;
both readers share its one class-numbering rule and its one dataset
construction. Reports serialize the fields of ``RunReport`` as JSON with
stable key order, every number written by the json encoder, so identical
seeds reproduce byte-identical files (modulo the timestamp field).
"""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import DomainRejection
from .oracle import LabeledDataset

DEFAULT_PER_CLASS = 50


def synthetic_preset(name: str, per_class: int = DEFAULT_PER_CLASS, seed: int = 0) -> LabeledDataset:
    """A named Gaussian layout sampled with ``np.random.default_rng(seed)``:
    ``per_class`` draws for each class in turn, labelled 1..k.

    two-gauss: two 4-d classes separated along the first axis.
    three-gauss: three overlapping 4-d classes for classifier benchmarks.
    adversarial: separation along the first axis with 10x within-class
    variance along the second, so the principal component misses the
    discriminating direction.
    """
    key = name.strip().lower()
    if key == "two-gauss":
        means = np.zeros((2, 4))
        means[0, 0], means[1, 0] = 1.5, -1.5
        cov = np.eye(4) * 0.09
    elif key == "three-gauss":
        means = np.array(
            [[2.5, 0.0, 0.0, 0.0], [-2.5, 0.5, 0.0, 0.0], [0.0, 2.5, 0.0, 0.0]]
        )
        cov = np.eye(4) * 0.49
    elif key == "adversarial":
        means = np.array([[1.0, 0.0], [-1.0, 0.0]])
        cov = np.diag([0.16, 1.6])
    else:
        raise DomainRejection(
            f"unknown synthetic preset {name!r}; expected two-gauss, three-gauss, "
            "or adversarial"
        )
    if not isinstance(per_class, (int, np.integer)):
        raise DomainRejection(f"per_class must be an integer, got {per_class!r}")
    if per_class < 1:
        raise DomainRejection("every class needs at least 1 sample")
    rng = np.random.default_rng(seed)
    factor = np.linalg.cholesky(cov)
    k, n = means.shape
    return LabeledDataset(
        samples=np.vstack([m + rng.standard_normal((per_class, n)) @ factor.T for m in means]),
        labels=np.repeat(np.arange(1, k + 1), per_class),
        label_names=tuple(str(c) for c in range(1, k + 1)),
    )


def _read_header(reader, path) -> list[str]:
    """The stripped header cells: feature names plus a final ``label``."""
    first = next(reader, None)
    if first is None:
        raise DomainRejection(f"{path}: file is empty")
    header = [cell.strip() for cell in first]
    if len(header) < 2 or header[-1].lower() != "label":
        raise DomainRejection(
            f"{path}: line 1: header must name feature columns plus a final 'label' column"
        )
    return header


def _load_rows(handle, path, header, class_index) -> tuple[list, list]:
    """Read the data rows after ``header`` one by one; every rejection names
    the offending line.

    This loop defines the accepted grammar: ``csv`` quoting, and Python
    ``float()`` for each feature cell.
    """
    reader = csv.reader(handle)
    next(reader)  # the header, already checked
    samples, labels = [], []
    for i, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DomainRejection(
                f"{path}: line {i}: expected {len(header)} cells, found {len(row)}"
            )
        try:
            # numpy parses each str cell with Python float(): same grammar, same bits
            samples.append(np.array(row[:-1], dtype=float))
        except ValueError:
            for j, cell in enumerate(row[:-1]):
                try:
                    float(cell)
                except ValueError:
                    raise DomainRejection(
                        f"{path}: line {i}: non-numeric feature value {cell!r} "
                        f"in column {header[j]!r}"
                    ) from None
        labels.append(class_index(row[-1]))
    if not samples:
        raise DomainRejection(f"{path}: no data rows")
    return samples, labels


def load_csv(path) -> LabeledDataset:
    """Read a dataset with numpy's C text reader, falling back to the row loop.

    The fast reader converts each ASCII feature cell with the correctly
    rounded routine behind Python ``float()``, so it gives the same bits. Any
    input it does not take as a plain table (a quoted cell, a NUL character,
    ``1_000``, non-ASCII digits, a ragged or malformed row, no data rows) is
    read again by ``_load_rows``, which defines the grammar and cites the
    line of every rejection. A file that is not UTF-8 text is rejected whole.
    """
    order: dict[str, int] = {}

    def class_index(cell: str) -> int:
        return order.setdefault(cell.strip(), len(order) + 1)

    def plain_class_index(cell: str) -> int:
        if '"' in cell or "\x00" in cell:
            # csv's quoting rules apply, and csv before Python 3.11 rejects NUL
            raise ValueError("label for the row loop")
        return class_index(cell)

    try:
        with open(path, newline="", encoding="utf-8") as handle:
            header = _read_header(csv.reader(handle), path)
            try:
                with warnings.catch_warnings():
                    # no data rows: loadtxt warns and returns an empty table
                    warnings.simplefilter("error", UserWarning)
                    # an explicit text encoding: numpy 1.x otherwise hands converters bytes
                    table = np.loadtxt(
                        handle, delimiter=",", comments=None, quotechar=None, ndmin=2,
                        converters={len(header) - 1: plain_class_index}, encoding="utf-8",
                    )
            except (ValueError, UserWarning):
                table = None
            if table is not None and table.shape[1] == len(header):
                samples, labels = table[:, :-1], table[:, -1]
            else:
                order.clear()  # the labels the C reader numbered before it gave up
                handle.seek(0)
                samples, labels = _load_rows(handle, path, header, class_index)
    except UnicodeDecodeError:
        # raised by whichever read meets the byte first: header, C reader or row loop
        raise DomainRejection(f"{path}: file is not UTF-8 text") from None
    return LabeledDataset(
        samples=np.ascontiguousarray(samples),
        labels=labels,
        label_names=tuple(order),
        feature_names=tuple(header[:-1]),
    )


def save_csv(data: LabeledDataset, path) -> None:
    """Write a dataset in the interchange layout load_csv reads back."""
    names = data.feature_names or tuple(f"f{i + 1}" for i in range(data.N))
    label_names = data.label_names or tuple(str(c) for c in range(1, data.k + 1))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(names) + ["label"])
        for row, label in zip(data.samples, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [label_names[label - 1]])


_INDENT = "  "


def _entry_texts(a: np.ndarray) -> np.ndarray:
    """The JSON text of each entry of a real float, integer or bool array,
    all written by one call of the encoder.

    Each distinct float is formatted once, told apart by its bits so that
    -0.0 stays apart from 0.0: a Hermitian output repeats each off-diagonal
    entry, and the imaginary part of a real one is all zeros.
    """
    flat, where = a.reshape(-1), slice(None)
    if a.dtype.kind == "f":
        bits, where = np.unique(flat.astype(np.float64, copy=False).view(np.uint64),
                                return_inverse=True)
        flat = bits.view(np.float64)
    # the encoder separates list items with ", ", which no number's text holds
    texts = json.dumps(flat.tolist())[1:-1].split(", ") if flat.size else []
    return np.array(texts, dtype=object)[where].reshape(a.shape)


def _rows_text(rows: list, ndim: int, depth: int) -> str:
    """Nested lists ``ndim`` deep of entry texts as indented JSON arrays."""
    if not rows:
        return "[]"
    inner = "\n" + _INDENT * (depth + 1)
    items = rows if ndim == 1 else [_rows_text(row, ndim - 1, depth + 1) for row in rows]
    return "[" + inner + ("," + inner).join(items) + "\n" + _INDENT * depth + "]"


def _write(obj, depth: int, out: list) -> None:
    """Append the text of ``json.dumps(obj, sort_keys=True, indent=2)`` at the
    given nesting depth, reading numpy containers directly: a complex array
    becomes {"imag": ..., "real": ...}, numpy scalars their Python values, and
    dict keys their str()."""
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = {"real": obj.real, "imag": obj.imag}
        elif obj.ndim and obj.dtype.kind in "fiub":
            out.append(_rows_text(_entry_texts(obj).tolist(), obj.ndim, depth))
            return
        else:
            obj = obj.tolist()
    elif isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, dict):
        opening, closing = "{", "}"
        items = {str(k): v for k, v in obj.items()}
        entries = [(json.dumps(k) + ": ", items[k]) for k in sorted(items)]
    elif isinstance(obj, (list, tuple)):
        opening, closing = "[", "]"
        entries = [("", v) for v in obj]
    else:
        out.append(json.dumps(obj))
        return
    if not entries:
        out.append(opening + closing)
        return
    inner = "\n" + _INDENT * (depth + 1)
    out.append(opening)
    for i, (key, value) in enumerate(entries):
        out.append(("," if i else "") + inner + key)
        _write(value, depth + 1, out)
    out.append("\n" + _INDENT * depth + closing)


@dataclass(frozen=True)
class RunReport:
    """Machine-readable record of one command invocation.

    Serialization uses stable key order and shortest-round-trip float
    formatting, so numeric content survives a JSON round trip exactly.
    """

    command: str
    parameters: dict
    outputs: dict
    metrics: dict
    seed: int | None
    version: str = __version__
    timestamp: str = ""

    def to_json(self) -> str:
        """The report as indented JSON with sorted keys, byte for byte what
        ``json.dumps(..., sort_keys=True, indent=2)`` writes for the same
        values in plain Python containers, plus a final newline."""
        out: list = []
        _write(vars(self), 0, out)
        return "".join(out) + "\n"
