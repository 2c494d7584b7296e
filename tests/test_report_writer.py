"""Property tests for the report writer: ``RunReport.to_json`` writes exactly
what the standard indented encoder writes for the same values converted to
plain Python containers."""
from __future__ import annotations

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qdasim.data_io import RunReport  # noqa: E402


def plain(obj):
    """Reference conversion of numpy containers into JSON-serializable values."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"real": obj.real.tolist(), "imag": obj.imag.tolist()}
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def reference_json(report: RunReport) -> str:
    payload = {
        "command": report.command,
        "parameters": report.parameters,
        "outputs": report.outputs,
        "metrics": report.metrics,
        "seed": report.seed,
        "version": report.version,
        "timestamp": report.timestamp,
    }
    return json.dumps(plain(payload), sort_keys=True, indent=2) + "\n"


SPECIAL_FLOATS = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5]
)
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), SPECIAL_FLOATS)
TEXT = st.text(st.characters(codec="utf-8"), max_size=6)


@st.composite
def arrays(draw):
    """Real float, complex, integer or bool arrays of 0 to 3 dimensions, empty ones included."""
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    size = int(np.prod(shape))
    kind = draw(st.sampled_from(["float", "complex", "int", "uint", "bool", "float32"]))
    if kind == "int":
        values = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=size, max_size=size))
        return np.array(values, dtype=np.int64).reshape(shape)
    if kind == "uint":
        values = draw(st.lists(st.integers(0, 2**64 - 1), min_size=size, max_size=size))
        return np.array(values, dtype=np.uint64).reshape(shape)
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)),
                        dtype=bool).reshape(shape)
    real = np.array(draw(st.lists(FLOATS, min_size=size, max_size=size)), dtype=float)
    if kind == "float32":
        with np.errstate(over="ignore"):
            return real.astype(np.float32).reshape(shape)
    if kind == "complex":
        values = np.empty(size, dtype=complex)
        values.real = real
        values.imag = draw(st.lists(FLOATS, min_size=size, max_size=size))
        return values.reshape(shape)
    if not size:
        return real.reshape(shape)
    # repeated entries and signed zeros exercise the writer's per-value formatting
    return np.concatenate([real, -real, real]).reshape((3,) + shape)


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    FLOATS,
    TEXT,
    FLOATS.map(np.float64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.booleans().map(np.bool_),
)
KEYS = st.one_of(TEXT, st.integers(-5, 5), st.booleans(), st.none(), st.floats(-2, 2))
VALUES = st.recursive(
    st.one_of(SCALARS, arrays()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(TEXT, VALUES, max_size=4),
    st.dictionaries(TEXT, VALUES, max_size=4),
    st.dictionaries(TEXT, VALUES, max_size=4),
    st.one_of(st.none(), st.integers()),
    TEXT,
)
def test_to_json_equals_the_standard_encoder(parameters, outputs, metrics, seed, stamp):
    report = RunReport("cmd ∆", parameters, outputs, metrics, seed, timestamp=stamp)
    assert report.to_json() == reference_json(report)


def test_chain_sized_complex_report_equals_the_standard_encoder():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    hermitian = (g + g.conj().T) / 2.0
    report = RunReport(
        "chain",
        {"functions": ("inverse", "sqrt"), "t": 12},
        {"classical": hermitian, "quantum": hermitian.real.astype(complex)},
        {"stage_success": rng.uniform(size=3), "copies_used": np.array([4, 5, 6])},
        11,
    )
    assert report.to_json() == reference_json(report)
