"""qdasim benchmark: CLI workloads checked against independent references.

Run from the repository root:

    python3 bench/run.py --workload classify-stream --seed 1 --seconds 20 --trace 0

Every operation is a fresh ``python -m qdasim.cli`` process, run one at a
time with one BLAS thread, so no state carries from one operation to the
next. The run repeats whole rounds of its workload's main operation until
``--seconds`` have passed, then runs the workload's probe operations once.
Every report is checked against a reference computed in ``checks.py``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` each round runs the main
operation once plainly and once under ``tracer.py``, and the object carries
the per-layer metrics of the traced operations instead.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# One BLAS thread for the operations and for the references computed here,
# pinned before checks and inputs load numpy. On a 2-core machine two
# OpenBLAS threads made reduce-wide about 18% faster but left its wall time
# far more variable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import inputs  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 7
OPERATION_LIMIT_S = 120.0  # a hung operation is killed and counted as failed

END_TO_END = {
    "op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oracle_trace_distance": "1",
    "direction_angle_rad": "rad",
}
# per-layer metrics read straight from the tracer's summary
TRACED_FIGURES = {
    "rotation.rotation_amplitudes.calls": "count",
    "rotation.rotation_amplitudes.s": "s",
    "rotation.rotation_amplitudes.distinct_ratio": "1",
    "qda.fit.s": "s",
    "qda.invert_apply.calls": "count",
    "qda.invert_apply.s": "s",
    "qsim.sample_eigenpairs.s": "s",
    "qsim.phase_estimation.s": "s",
    "qsim.postselect_ancilla.calls": "count",
    "qsim.postselect_ancilla.s": "s",
    "qsim.overlap_test_signed.calls": "count",
    "qsim.overlap_test_signed.s": "s",
    "lda.quantum_lda.s": "s",
    "chain.chain_apply.calls": "count",
    "chain.chain_apply.s": "s",
    "chain.chain_stage.calls": "count",
    "chain.chain_stage.s": "s",
    "chain.classical_chain_oracle.s": "s",
    "linalg.eig_hermitian.calls": "count",
    "linalg.eig_hermitian.s": "s",
    "linalg.matrix_function.calls": "count",
    "linalg.matrix_function.s": "s",
    "linalg.DensityOperator.calls": "count",
    "linalg.DensityOperator.s": "s",
    "linalg.trace_distance.s": "s",
    "kernel.eigh.calls": "count",
    "kernel.eigh.n3": "n3",
    "kernel.eigvalsh.calls": "count",
    "kernel.eigvalsh.n3": "n3",
    "oracle.class_statistics.s": "s",
    "oracle.within_scatter.s": "s",
    "oracle.between_scatter.s": "s",
    "data_io.load_csv.s": "s",
    "data_io.to_json.s": "s",
    "trace.spans": "count",
}
# per-layer metrics derived from the summary and from the run itself
DERIVED_FIGURES = {
    "qsim.sample_eigenpairs.blocks": "count",
    "lda.block_use_ratio": "1",
    "data_io.report_mb": "MB",
    "cli.main.s": "s",
    "trace.overhead_s": "s",
}
PER_LAYER = {**TRACED_FIGURES, **DERIVED_FIGURES}


class ImportFailed(Exception):
    """A fresh interpreter could not import the CLI."""


@dataclass
class Operation:
    """One CLI invocation and the check of its report.

    ``check`` raises ``checks.CheckFailed`` on a wrong report and otherwise
    returns the accuracy figures it measured, by end-to-end metric name.
    """

    args: list
    check: Callable[[dict], dict]


@dataclass
class Plan:
    """A workload's timed main operation and its untimed probes, which give
    every workload both accuracy metrics."""

    main: Operation
    probes: list = field(default_factory=list)
    directions: int = 0  # p of the main operation's reduce, for lda.block_use_ratio


def classify_stream(seed: int, work: Path) -> Plan:
    train, test = work / "train.csv", work / "test.csv"
    inputs.classify_stream(seed, train, test)
    train_x, train_y = checks.read_dataset(train)
    decisions = checks.lda_decisions(train_x, train_y, checks.read_dataset(test)[0])
    whitening = checks.whitening_reference(train_x, train_y)

    def check(report: dict) -> dict:
        checks.check_classify(report, decisions)
        return {}

    return Plan(
        main=Operation(
            ["classify", "--data", train, "--test", test, "--lda", "--path", "both",
             "--t", "8", "--shots", "8192"],
            check,
        ),
        probes=[
            Operation(
                ["chain", "--data", train, "--t", "8"],
                lambda report: {"oracle_trace_distance": checks.check_chain(report, whitening)},
            ),
            Operation(
                ["reduce", "--data", train, "--path", "quantum", "--p", "2", "--t", "8"],
                lambda report: {"direction_angle_rad": checks.check_directions(
                    report, checks.top_eigenvectors(whitening, 2))},
            ),
        ],
    )


def reduce_wide(seed: int, work: Path) -> Plan:
    data = work / "wide.csv"
    inputs.reduce_wide(seed, data)
    whitening = checks.whitening_reference(*checks.read_dataset(data))
    return Plan(
        main=Operation(
            ["reduce", "--data", data, "--path", "quantum", "--p", "2", "--t", "12"],
            lambda report: {"direction_angle_rad": checks.check_directions(
                report, checks.top_eigenvectors(whitening, 2))},
        ),
        probes=[
            Operation(
                ["chain", "--data", data, "--t", "12"],
                lambda report: {"oracle_trace_distance": checks.check_chain(report, whitening)},
            ),
        ],
        directions=2,
    )


def chain_deep(seed: int, work: Path) -> Plan:
    path = work / "operators.json"
    inputs.chain_deep(seed, path)
    with open(path, encoding="utf-8") as handle:
        operators = json.load(handle)["operators"]
    reference = checks.chain_reference(operators, [-1.0, 0.5, -0.5])

    def check(report: dict) -> dict:
        distance = checks.check_chain(report, reference)
        return {
            "oracle_trace_distance": distance,
            "direction_angle_rad": checks.angle(checks.chain_output(report), reference),
        }

    return Plan(
        main=Operation(
            ["chain", "--operators", path, "--functions", "inverse,sqrt,inverse-sqrt",
             "--t", "12", "--kappa-eff", "16"],
            check,
        ),
    )


WORKLOADS = {
    "classify-stream": classify_stream,
    "reduce-wide": reduce_wide,
    "chain-deep": chain_deep,
}


@dataclass
class Outcome:
    code: int
    wall_s: float
    rss_mb: float


@dataclass
class Result:
    outcome: Outcome
    report_bytes: int
    trace: dict | None  # the tracer's summary of a traced run


def run_process(argv: list, env: dict, stderr_path: Path) -> Outcome:
    """Run one process to its end; wait4 gives its peak RSS."""
    with open(stderr_path, "w", encoding="utf-8") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        timer = threading.Timer(OPERATION_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0)


class Runner:
    """Runs operations in a scratch directory and keeps the tallies."""

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.accuracy: dict = {}
        self._serial = 0

    def setup_seconds(self) -> float:
        """Median wall time of a fresh interpreter importing the CLI module."""
        argv = [sys.executable, "-c", "import qdasim.cli"]
        walls = []
        for _ in range(SETUP_REPEATS):
            outcome = run_process(argv, self.env, self.work / "setup.err")
            if outcome.code != 0:
                raise ImportFailed((self.work / "setup.err").read_text())
            walls.append(outcome.wall_s)
        return statistics.median(walls)

    def run(self, op: Operation, traced: bool = False) -> Result | None:
        """Run and check one operation; None if it exited non-zero."""
        self._serial += 1
        report = self.work / f"report-{self._serial}.json"
        summary = self.work / f"trace-{self._serial}.json"
        args = [str(a) for a in op.args] + ["--seed", str(self.seed), "--output", str(report)]
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(summary)] + args
        else:
            argv = [sys.executable, "-m", "qdasim.cli"] + args
        errors = self.work / f"op-{self._serial}.err"
        outcome = run_process(argv, self.env, errors)
        self.attempted += 1
        if outcome.code != 0:
            self.failed += 1
            print(f"operation failed ({outcome.code}): {' '.join(args)}\n"
                  f"{errors.read_text()}", file=sys.stderr)
            return None
        size = report.stat().st_size
        with open(report, encoding="utf-8") as handle:
            payload = json.load(handle)
        report.unlink()
        try:
            for name, value in op.check(payload).items():
                self.accuracy[name] = max(value, self.accuracy.get(name, 0.0))
        except checks.CheckFailed as err:
            self.correct = False
            print(f"check failed: {' '.join(args)}: {err}", file=sys.stderr)
        trace = None
        if traced:
            with open(summary, encoding="utf-8") as handle:
                trace = json.load(handle)
            summary.unlink()
        return Result(outcome, size, trace)


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def run_rounds(runner: Runner, plan: Plan, seconds: float, traced: bool) -> list:
    """Whole rounds of the main operation until ``seconds`` have passed, then
    the probes once. A round is the plain run, followed by the traced run
    when ``traced``; only rounds in which every run succeeded are returned."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        results = [runner.run(plan.main)]
        if traced:
            results.append(runner.run(plan.main, traced=True))
        if None not in results:
            rounds.append(results)
        if time.perf_counter() >= deadline:
            break
    for probe in plan.probes:
        runner.run(probe)
    if not rounds:
        raise SystemExit("no round of the workload's main operation succeeded")
    return rounds


def end_to_end(runner: Runner, plan: Plan, seconds: float) -> dict:
    setup = runner.setup_seconds()
    plain = [results[0] for results in run_rounds(runner, plan, seconds, traced=False)]
    walls = [r.outcome.wall_s for r in plain]
    print("operation wall times (s):", " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    missing = {"oracle_trace_distance", "direction_angle_rad"} - set(runner.accuracy)
    if missing:
        raise SystemExit(f"no successful probe measured {sorted(missing)}")
    values = {
        "op_s": statistics.median(walls),
        "setup_s": setup,
        "peak_rss_mb": max(r.outcome.rss_mb for r in plain),
        **runner.accuracy,
    }
    return with_units(values, END_TO_END)


def per_layer(runner: Runner, plan: Plan, seconds: float) -> dict:
    rounds = run_rounds(runner, plan, seconds, traced=True)
    plain = [results[0] for results in rounds]
    traced = [results[1] for results in rounds]

    def median(name: str) -> float:
        return statistics.median(r.trace.get(name, 0.0) for r in traced)

    values = {name: median(name) for name in TRACED_FIGURES}
    blocks = median("qsim.sample_eigenpairs.eigh.calls")
    values.update({
        "qsim.sample_eigenpairs.blocks": blocks,
        "lda.block_use_ratio": plan.directions / blocks if blocks else 0.0,
        "data_io.report_mb": statistics.median(r.report_bytes for r in traced) / 1e6,
        "cli.main.s": median("cli.main.inclusive_s"),
        "trace.overhead_s": statistics.median(r.outcome.wall_s for r in traced)
        - statistics.median(r.outcome.wall_s for r in plain),
    })
    return with_units(values, PER_LAYER)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qdasim" / "cli.py").is_file():
        print(f"no qdasim source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        runner = Runner(root, work, args.seed)
        plan = WORKLOADS[args.workload](args.seed, work)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(runner, plan, args.seconds)
    except ImportFailed as err:
        print(f"qdasim cannot be imported:\n{err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only succeeds once no other run uses it
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
