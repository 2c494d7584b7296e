"""Command-line driver: dimensionality reduction, classification, chain
evaluation, rotation-pipeline sweeps, and synthetic data generation, each
emitting a JSON run report.

A report's ``parameters`` echo every parsed flag of the subcommand except
``UNECHOED``, plus what the handler works out itself: data-source
descriptors, normalized function names and the resolved rotation constant.

Exit codes: 0 success, 1 usage or configuration error, 2 domain rejection
(rank or degeneracy), 3 numerical failure. A missing or unreadable input
file exits 1 through the ``OSError`` of opening it, which names the path.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .chain import (
    DEFAULT_EPS,
    DEFAULT_KAPPA_EFF,
    DEFAULT_SHOTS,
    DEFAULT_T,
    ChainSpec,
    _check_eps,
    _rotation_constant,
    chain_apply,
    classical_chain_oracle,
)
from .data_io import DEFAULT_PER_CLASS, RunReport, load_csv, save_csv, synthetic_preset
from .errors import DomainRejection, NumericalFailure
from .linalg import (
    DensityOperator,
    HermitianOperator,
    SpectralFunction,
    _check_kappa_eff,
    _filter_mask,
    trace_distance,
)
from .lda import (_check_quantum_lda, classical_lda_oracle, feature_map, fisher_criterion,
                  quantum_lda, whitening_chain)
from .oracle import LabeledDataset, class_statistics
from .qda import classify_many, fit
from .qsim import PHASE_BITS_MAX, _check_register_width, _check_shots
from .rotation import DEFAULT_FRACTION_BITS, DEFAULT_TAYLOR_ORDER, rotation_amplitudes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3

# parsed flags a report does not echo under ``parameters``: the subcommand and
# seed are report fields of their own, the output path is delivery, and each
# handler records its data source as a descriptor
UNECHOED = frozenset(
    {"command", "seed", "output", "data", "synthetic", "per_class", "test", "test_count",
     "operators"}
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default, which collides with the
    # domain-rejection code; route usage problems through status 1 instead
    def error(self, message):
        raise _UsageError(message)


def _resolve_seed(seed: int | None) -> int:
    """The --seed flag, else QDASIM_SEED, else 0; numpy seeds only with
    non-negative integers."""
    source = "--seed"
    if seed is None:
        source, value = "QDASIM_SEED", os.environ.get("QDASIM_SEED", "0")
        try:
            seed = int(value)
        except ValueError as err:
            raise _UsageError(f"QDASIM_SEED must be an integer, got {value!r}") from err
    if seed < 0:
        raise _UsageError(f"{source} must be a non-negative integer, got {seed}")
    return seed


_COMMON_FLAGS = {
    "--kappa-eff": {"type": float, "default": DEFAULT_KAPPA_EFF},
    "--eps": {"type": float, "default": DEFAULT_EPS},
    "--t": {"type": int, "default": DEFAULT_T, "help": "phase-register bits"},
    "--shots": {"type": int, "default": DEFAULT_SHOTS},
    "--path": {"choices": ("quantum", "classical", "both"), "default": "both"},
}
# the library's own rule for each numeric flag, checked right after parsing on every path
_FLAG_CHECKS = {"kappa_eff": _check_kappa_eff, "eps": _check_eps, "t": _check_register_width,
                "shots": _check_shots}


def _add_common(sub: argparse.ArgumentParser, *flags: str) -> None:
    # each subcommand names only the shared flags its handler reads, so no
    # flag is accepted only to be ignored
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (fallback: QDASIM_SEED, then 0)")
    for flag in flags:
        sub.add_argument(flag, **_COMMON_FLAGS[flag])
    sub.add_argument("--output", default=None, help="report path (default: stdout)")


def _add_dataset_source(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", default=None, help="training dataset CSV")
    group.add_argument("--synthetic", default=None, help="preset: two-gauss, three-gauss, adversarial")
    sub.add_argument("--per-class", type=int, default=None, help="samples per class for synthetic data")


def build_parser() -> _Parser:
    parser = _Parser(prog="qdasim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qdasim {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    reduce_p = commands.add_parser("reduce", help="discriminant dimensionality reduction")
    _add_dataset_source(reduce_p)
    reduce_p.add_argument("--p", type=int, default=1, help="projection directions")
    reduce_p.add_argument("--degree", type=int, default=1, help="polynomial feature-map degree")
    _add_common(reduce_p, "--kappa-eff", "--eps", "--t", "--path")

    cls_p = commands.add_parser("classify", help="discriminant classification")
    _add_dataset_source(cls_p)
    cls_p.add_argument("--test", default=None, help="held-out dataset CSV")
    cls_p.add_argument("--test-count", type=int, default=None, help="synthetic test samples per class")
    cls_p.add_argument("--lda", action="store_true", help="shared within-class covariance")
    cls_p.add_argument("--prior", choices=("log", "linear"), default="log")
    _add_common(cls_p, *_COMMON_FLAGS)

    chain_p = commands.add_parser("chain", help="spectral-function chain evaluation")
    src = chain_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--operators", default=None, help="JSON file with PSD matrices")
    src.add_argument("--data", default=None, help="dataset CSV for the discriminant-shaped chain")
    src.add_argument("--synthetic", default=None)
    chain_p.add_argument("--per-class", type=int, default=None)
    chain_p.add_argument("--functions", default=None, help="comma-separated spectral functions, stage order")
    _add_common(chain_p, "--kappa-eff", "--eps", "--t")

    rot_p = commands.add_parser("rotate-check", help="fixed-point rotation-angle sweep")
    rot_p.add_argument("--function", default="inverse")
    rot_p.add_argument("--c-const", type=float, default=None, help="rotation normalization (default: (1-eps)/max|f|)")
    rot_p.add_argument("--bits", type=int, default=DEFAULT_FRACTION_BITS, help="fraction bits")
    rot_p.add_argument("--order", type=int, default=DEFAULT_TAYLOR_ORDER, help="series order for f")
    rot_p.add_argument("--arcsin-terms", type=int, default=None, help="arcsin series terms (default: auto)")
    rot_p.add_argument("--grid-bits", type=int, default=8, help="dyadic grid granularity")
    _add_common(rot_p, "--kappa-eff", "--eps")

    gen_p = commands.add_parser("gen", help="generate a synthetic dataset CSV")
    gen_p.add_argument("--synthetic", required=True)
    gen_p.add_argument("--per-class", type=int, default=DEFAULT_PER_CLASS)
    gen_p.add_argument("--out", required=True, help="destination CSV")
    _add_common(gen_p)
    return parser


def _preset(name: str, per_class: int, seed: int) -> LabeledDataset:
    try:
        return synthetic_preset(name, per_class=per_class, seed=seed)
    except DomainRejection as err:
        raise _UsageError(str(err)) from err


def _load_training_data(args) -> tuple[LabeledDataset, dict]:
    if getattr(args, "data", None):
        return load_csv(args.data), {"source": "file", "path": args.data}
    per_class = DEFAULT_PER_CLASS if args.per_class is None else args.per_class
    descriptor = {"source": "synthetic", "preset": args.synthetic, "per_class": per_class}
    return _preset(args.synthetic, per_class, args.seed), descriptor


def run_reduce(args) -> tuple[dict, dict, dict]:
    # the exact oracle goes first, so a rank excess is reported as such
    paths = ("classical", "quantum") if args.path == "both" else (args.path,)
    data, descriptor = _load_training_data(args)
    if args.degree != 1:
        data = feature_map(data, args.degree)
    if "quantum" in paths:
        # the quantum path's own rules, checked before any path runs
        _check_quantum_lda(args.t, data.N)
    spec = whitening_chain(data, args.kappa_eff, args.eps, args.t)
    # the Fisher metric's (S_B, S_W): the chain's unit-trace pair rescaled by the frame's totals
    stats = class_statistics(data)
    (sw, _), (sb, _) = spec.stages
    scatter = (stats.norm_between * sb.matrix, stats.norm_within * sw.matrix)
    outputs: dict = {}
    metrics: dict = {}
    for path in paths:
        if path == "quantum":
            basis = quantum_lda(spec, args.p, args.seed)
            metrics["chain_stage_success"] = basis.chain.stage_success_probabilities
            metrics["chain_stage_bounds"] = basis.chain.stage_bounds
            metrics["copies_used"] = basis.chain.copies_used
            metrics["draws_consumed"] = basis.draws
        else:
            basis = classical_lda_oracle(spec, args.p)
        outputs[path] = {
            "directions": basis.directions,
            "intermediates": basis.intermediates,
            "eigenvalue_estimates": basis.eigenvalue_estimates,
        }
        metrics[f"fisher_{path}"] = fisher_criterion(scatter, basis.directions)
    if args.path == "both":
        quantum, classical = outputs["quantum"]["directions"], outputs["classical"]["directions"]
        # both paths return unit rows, so |q . c| is the cosine
        metrics["per_direction_overlap"] = np.abs(np.sum(quantum * classical, axis=1))
    return {"dataset": descriptor}, outputs, metrics


def _load_test_data(args) -> tuple[LabeledDataset, dict]:
    if args.test:
        return load_csv(args.test), {"source": "file", "path": args.test}
    return _preset(args.synthetic, args.test_count, args.seed + 1), {
        "source": "synthetic",
        "preset": args.synthetic,
        "per_class": args.test_count,
        "seed": args.seed + 1,
    }


def _training_classes(test: LabeledDataset, train: LabeledDataset) -> np.ndarray:
    """Each test sample's training class index, matched by label name: every
    dataset numbers its classes in first-appearance order."""
    index = {name: c for c, name in enumerate(train.label_names, start=1)}
    for name in test.label_names:
        if name not in index:
            raise DomainRejection(f"test label {name!r} is not a class of the training set")
    return np.array([index[name] for name in test.label_names])[test.labels - 1]


def run_classify(args) -> tuple[dict, dict, dict]:
    # the test-source rules need no file, so they are checked before any is read
    if args.test and args.test_count is not None:
        raise _UsageError("--test-count sizes synthetic test data; it does not apply with --test")
    if not args.test and not (args.synthetic and args.test_count is not None):
        raise _UsageError("classify needs --test FILE, or --synthetic with --test-count")
    train, descriptor = _load_training_data(args)
    test, test_descriptor = _load_test_data(args)
    truth = _training_classes(test, train)
    model = fit(train, args.kappa_eff, shared_covariance=args.lda)
    paths = ("quantum", "classical") if args.path == "both" else (args.path,)
    records = {path: classify_many(model, test.samples, path, args.shots, args.seed, args.t,
                                   args.prior, args.eps) for path in paths}
    outputs = {path: {"discriminants": r.discriminants, "decisions": r.decisions,
                      "margins": r.margins} for path, r in records.items()}
    metrics: dict = {
        "test_truth_agreement": {
            path: float(np.mean(outputs[path]["decisions"] == truth))
            for path in paths
        },
    }
    if args.path == "both":
        metrics["path_agreement"] = float(
            np.mean(outputs["quantum"]["decisions"] == outputs["classical"]["decisions"])
        )
    if "quantum" in paths:
        metrics["shots_consumed"] = int(args.shots) * records["quantum"].draws
        metrics["copies_used"] = records["quantum"].copies
    return {"train": descriptor, "test": test_descriptor}, outputs, metrics


def _load_chain_stages(args) -> tuple[ChainSpec, dict]:
    if not args.operators:
        if args.functions is not None:
            raise _UsageError("--functions applies only with --operators")
        data, descriptor = _load_training_data(args)
        spec = whitening_chain(data, args.kappa_eff, args.eps, args.t)
        return spec, {"shape": "discriminant-whitening", **descriptor}
    functions = [
        SpectralFunction.from_name(name)
        for name in (args.functions.split(",") if args.functions else [])
        if name.strip()
    ]
    if not functions:
        raise _UsageError("--functions is required with --operators")
    with open(args.operators, encoding="utf-8") as handle:
        try:
            # an integer literal past float64 reads as inf, which the operator check names
            payload = json.load(handle, parse_int=float)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            # JSON text is UTF-8, so undecodable bytes are invalid JSON
            raise _UsageError(f"{args.operators}: invalid JSON ({err})") from err
    raw = payload.get("operators") if isinstance(payload, dict) else payload
    if not isinstance(raw, list) or not raw:
        raise _UsageError(f"{args.operators}: expected a non-empty operator list")
    scales = []
    ops = []
    for i, entry in enumerate(raw, start=1):
        try:
            matrix = np.asarray(entry)  # ValueError for a ragged nesting
            if matrix.dtype.kind != "f":  # a string, boolean, null or object entry
                raise ValueError
            herm = HermitianOperator(matrix)
            tr = herm.trace()
            if tr <= 0:
                raise DomainRejection(f"has non-positive trace {tr!r}")
            with np.errstate(over="ignore"):
                unit = herm.matrix / tr
            if not np.all(np.isfinite(unit)):
                raise DomainRejection(f"overflows float64 when divided by its trace {tr!r}")
            ops.append(DensityOperator(unit))
        except DomainRejection as err:
            raise DomainRejection(f"operator {i}: {err}") from None
        except ValueError:
            raise DomainRejection(f"operator {i}: not a numeric matrix") from None
        scales.append(tr)
    if len(functions) != len(ops):
        raise _UsageError(f"{len(functions)} functions for {len(ops)} operators")
    spec = ChainSpec(tuple(zip(ops, functions)), args.kappa_eff, args.eps, args.t)
    return spec, {"source": "file", "path": args.operators, "trace_scales": scales}


def run_chain(args) -> tuple[dict, dict, dict]:
    spec, descriptor = _load_chain_stages(args)
    oracle = classical_chain_oracle(spec)
    report = chain_apply(spec)
    outputs = {
        "classical": oracle.matrix.astype(complex),
        "quantum": report.output.matrix.astype(complex),
    }
    metrics = {
        "trace_distance": trace_distance(report.output, oracle),
        "stage_success": report.stage_success_probabilities,
        "stage_bounds": report.stage_bounds,
        "total_success": report.total_success_probability,
        "theoretical_bound": report.theoretical_bound,
        "amplified_bound_stage1": report.amplified_bound_stage1,
        "copies_used": report.copies_used,
    }
    recorded = {"stages": descriptor, "functions": [f.name for _, f in spec.stages]}
    return recorded, outputs, metrics


def run_rotate_check(args) -> tuple[dict, dict, dict]:
    f = SpectralFunction.from_name(args.function)
    # a stage only ever rotates values of a register at most PHASE_BITS_MAX wide
    if not 0 <= args.grid_bits <= PHASE_BITS_MAX:
        raise DomainRejection(f"--grid-bits must lie in [0, {PHASE_BITS_MAX}], got {args.grid_bits}")
    big_t = 1 << args.grid_bits
    descending = np.arange(big_t, 0, -1) / big_t
    # kappa_eff >= 1 keeps the top grid point 1, so the grid is never empty
    grid = descending[_filter_mask(descending, args.kappa_eff)][::-1]
    c_const = _rotation_constant(f, grid, args.eps) if args.c_const is None else args.c_const
    fixed = rotation_amplitudes(
        grid, f, c_const, fraction_bits=args.bits, order=args.order, arcsin_terms=args.arcsin_terms
    )
    # the pipeline has accepted C and the grid, so the exact amplitude is safe to form
    exact = np.clip(c_const * f(grid), -1.0, 1.0)
    theta_exact = np.array([math.asin(a) for a in exact.tolist()])
    # each fixed amplitude is math.sin of the angle register or exactly +-1
    theta_fixed = np.array([math.asin(a) for a in fixed.tolist()])
    errors = np.abs(theta_fixed - theta_exact)
    budget = 2.0 ** (-args.bits + 3)
    metrics = {
        "max_error": float(errors.max()),
        "mean_error": float(errors.mean()),
        "error_budget": budget,
        "within_budget": bool(errors.max() <= budget),
    }
    outputs = {
        "lambda_grid": grid,
        "theta_fixed": theta_fixed,
        "theta_exact": theta_exact,
        "abs_error": errors,
    }
    return {"function": f.name, "c_const": c_const}, outputs, metrics


def run_gen(args) -> tuple[dict, dict, dict]:
    data = _preset(args.synthetic, args.per_class, args.seed)
    save_csv(data, args.out)
    outputs = {
        "rows": data.M,
        "features": data.N,
        "classes": data.k,
        "label_names": list(data.label_names or ()),
    }
    return {"preset": args.synthetic, "per_class": args.per_class}, outputs, {}


_HANDLERS = {
    "reduce": run_reduce,
    "classify": run_classify,
    "chain": run_chain,
    "rotate-check": run_rotate_check,
    "gen": run_gen,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.seed = _resolve_seed(args.seed)
        if getattr(args, "per_class", None) is not None and not args.synthetic:
            raise _UsageError("--per-class sizes synthetic data; it needs --synthetic")
        for name, check in _FLAG_CHECKS.items():
            if name in vars(args):
                check(getattr(args, name))
        recorded, outputs, metrics = _HANDLERS[args.command](args)
        echoed = {name: value for name, value in vars(args).items() if name not in UNECHOED}
        text = RunReport(
            command=f"qdasim {' '.join(argv)}",
            parameters={**echoed, **recorded},
            outputs=outputs,
            metrics=metrics,
            seed=args.seed,
            timestamp=datetime.now(timezone.utc).isoformat(),
        ).to_json()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except _UsageError as err:
        parser.print_usage(sys.stderr)
        print(f"qdasim: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        # an unreadable input or an unwritable report: the error names the path
        print(f"qdasim: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DomainRejection as err:
        print(f"qdasim: domain rejection: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except (NumericalFailure, np.linalg.LinAlgError) as err:
        print(f"qdasim: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
