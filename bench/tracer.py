"""Run the qdasim CLI in this process with timing spans around each layer.

    python3 bench/tracer.py SUMMARY.json QDASIM-ARGUMENT...

The tracer imports ``qdasim.cli``, wraps the public functions listed in
``TRACED`` and rebinds every wrapped name in every ``qdasim`` module that
holds it (``qdasim.chain.rotation_amplitudes``, ``qdasim.qda.chain_stage``
and so on), so calls between modules are traced too. It also wraps
``DensityOperator.__init__`` and ``RunReport.to_json``, and counts the
``numpy.linalg`` eigensolver calls. It then runs ``qdasim.cli.main`` on the
arguments, writes a flat summary of the spans to SUMMARY.json and exits
with the CLI's exit code. Nothing under ``src/`` is changed.

A span is (name, start, end, parent). Spans stay in memory until the CLI
returns. A span's self time is its duration minus the durations of its
direct children; single-threaded calls nest, so children never overlap.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import qdasim.cli
from qdasim import data_io, linalg

TRACED = {
    "qdasim.rotation": ("rotation_amplitudes",),
    "qdasim.qda": ("fit", "invert_apply"),
    "qdasim.qsim": (
        "sample_eigenpairs",
        "phase_estimation",
        "postselect_ancilla",
        "overlap_test_signed",
    ),
    "qdasim.lda": ("quantum_lda",),
    "qdasim.chain": ("chain_apply", "chain_stage", "classical_chain_oracle"),
    "qdasim.linalg": ("eig_hermitian", "matrix_function", "trace_distance"),
    "qdasim.oracle": ("class_statistics", "within_scatter", "between_scatter"),
    "qdasim.data_io": ("load_csv",),
}
TRACED_METHODS = (
    ("linalg.DensityOperator", linalg.DensityOperator, "__init__"),
    ("data_io.to_json", data_io.RunReport, "to_json"),
)
# spans whose distinct argument tuples are counted
KEYED = ("rotation.rotation_amplitudes",)
KERNELS = ("eigh", "eigvalsh")


class Recorder:
    """In-memory span and counter store for one CLI invocation."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)

    def span(self, name: str, fn):
        keyed = name in KEYED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyed:
                self.keys[name].add((args, tuple(sorted(kwargs.items()))))
            record = [name, time.perf_counter(), None, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()

        return traced

    def kernel(self, name: str, fn):
        """Count calls and the computed work n^3, globally and per enclosing span."""

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            n3 = int(np.shape(a)[-1]) ** 3
            enclosing = self.spans[self._open[-1]][0] if self._open else "root"
            for prefix in (f"kernel.{name}", f"{enclosing}.{name}"):
                self.counts[f"{prefix}.calls"] += 1
                self.counts[f"{prefix}.n3"] += n3
            return fn(a, *args, **kwargs)

        return counted

    def install(self) -> None:
        modules = [
            module
            for name, module in sys.modules.items()
            if name == "qdasim" or name.startswith("qdasim.")
        ]
        for module_name, names in TRACED.items():
            layer = module_name.rsplit(".", 1)[1]
            for fname in names:
                original = getattr(sys.modules[module_name], fname)
                wrapped = self.span(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
        for name, cls, method in TRACED_METHODS:
            setattr(cls, method, self.span(name, vars(cls)[method]))
        for name in KERNELS:
            setattr(np.linalg, name, self.kernel(name, getattr(np.linalg, name)))

    def summary(self) -> dict:
        """Flat figures: ``<span>.calls``, ``<span>.s`` (self time),
        ``<span>.inclusive_s``, ``<span>.distinct_ratio`` for keyed spans,
        and the kernel counters."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        figures: dict = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            figures[f"{name}.calls"] += 1
            figures[f"{name}.inclusive_s"] += end - start
            figures[f"{name}.s"] += end - start - children[i]
        for name, keys in self.keys.items():
            figures[f"{name}.distinct_ratio"] = len(keys) / figures[f"{name}.calls"]
        figures.update(self.counts)
        figures["trace.spans"] = len(self.spans)
        return dict(figures)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SUMMARY.json QDASIM-ARGUMENT...", file=sys.stderr)
        return 1
    out, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    code = recorder.span("cli.main", qdasim.cli.main)(cli_args)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(recorder.summary(), handle, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
