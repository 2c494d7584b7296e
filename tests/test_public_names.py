"""Names that other code looks up by string resolve in the package: the
functions and methods ``bench/tracer.py`` wraps, and ``qdasim.__all__``,
which lists every public name the package imports exactly once."""
from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import qdasim

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("qdasim_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = [
        f"{module_name}.{name}"
        for module_name, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(module_name), name, None))
    ]
    missing += [
        f"{label}.{method}"
        for label, cls, method in tracer.TRACED_METHODS
        if not callable(vars(cls).get(method))
    ]
    assert missing == []


def test_every_exported_name_resolves():
    assert [name for name in qdasim.__all__ if not hasattr(qdasim, name)] == []


def test_every_imported_name_is_exported_once():
    tree = ast.parse(Path(qdasim.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    public = [name for name in imported if not name.startswith("_")]
    assert [name for name in public if name not in qdasim.__all__] == []
    assert len(qdasim.__all__) == len(set(qdasim.__all__))
