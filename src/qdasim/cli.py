"""Command-line driver: dimensionality reduction, classification, chain
evaluation, rotation-pipeline sweeps, and synthetic data generation, each
emitting a JSON run report.

Exit codes: 0 success, 1 usage or configuration error, 2 domain rejection
(rank or degeneracy), 3 numerical failure.
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
    ChainSpec,
    chain_apply,
    classical_chain_oracle,
    complexity_estimate,
    stage_copies,
)
from .data_io import RunReport, generate, load_csv, save_csv, synthetic_preset
from .errors import DomainRejection, NumericalFailure
from .linalg import (
    DensityOperator,
    HermitianOperator,
    SpectralFunction,
    _filter_mask,
    trace_distance,
)
from .lda import classical_lda_oracle, feature_map, fisher_criterion, qpe_draws, quantum_lda
from .oracle import LabeledDataset, between_scatter, class_statistics, within_scatter
from .qda import classify_many, fit
from .rotation import rotation_amplitudes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default, which collides with the
    # domain-rejection code; route usage problems through status 1 instead
    def error(self, message):
        raise _UsageError(message)


def _default_seed() -> int:
    return int(os.environ.get("QDASIM_SEED", "0"))


_COMMON_FLAGS = {
    "--kappa-eff": {"type": float, "default": 100.0},
    "--eps": {"type": float, "default": 0.1},
    "--t": {"type": int, "default": 8, "help": "phase-register bits"},
    "--shots": {"type": int, "default": 8192},
    "--path": {"choices": ("quantum", "classical", "both"), "default": "both"},
}


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
    sub.add_argument("--per-class", type=int, default=50, help="samples per class for synthetic data")


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
    chain_p.add_argument("--per-class", type=int, default=50)
    chain_p.add_argument("--functions", default=None, help="comma-separated spectral functions, stage order")
    chain_p.add_argument("--x-cost", type=float, default=1.0, help="per-copy construction cost unit")
    _add_common(chain_p, "--kappa-eff", "--eps", "--t")

    rot_p = commands.add_parser("rotate-check", help="fixed-point rotation-angle sweep")
    rot_p.add_argument("--function", default="inverse")
    rot_p.add_argument("--c-const", type=float, default=None, help="rotation normalization (default: (1-eps)/max|f|)")
    rot_p.add_argument("--bits", type=int, default=16, help="fraction bits")
    rot_p.add_argument("--order", type=int, default=8, help="series order for f")
    rot_p.add_argument("--arcsin-terms", type=int, default=None, help="arcsin series terms (default: auto)")
    rot_p.add_argument("--grid-bits", type=int, default=8, help="dyadic grid granularity")
    _add_common(rot_p, "--kappa-eff", "--eps")

    gen_p = commands.add_parser("gen", help="generate a synthetic dataset CSV")
    gen_p.add_argument("--synthetic", required=True)
    gen_p.add_argument("--per-class", type=int, default=50)
    gen_p.add_argument("--out", required=True, help="destination CSV")
    _add_common(gen_p)
    return parser


def _preset(name: str, per_class: int, seed: int):
    try:
        return synthetic_preset(name, per_class=per_class, seed=seed)
    except DomainRejection as err:
        raise _UsageError(str(err)) from err


def _load_training_data(args) -> tuple[LabeledDataset, dict]:
    if getattr(args, "data", None):
        if not os.path.exists(args.data):
            raise _UsageError(f"dataset file not found: {args.data}")
        return load_csv(args.data), {"source": "file", "path": args.data}
    spec = _preset(args.synthetic, args.per_class, args.seed)
    descriptor = {
        "source": "synthetic",
        "preset": args.synthetic,
        "per_class": args.per_class,
    }
    return generate(spec), descriptor


def _overlap(a: np.ndarray, b: np.ndarray) -> float:
    return float(
        abs(np.dot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    )


def run_reduce(args) -> RunReport:
    data, descriptor = _load_training_data(args)
    if args.degree > 1:
        data = feature_map(data, args.degree)
    outputs: dict = {}
    metrics: dict = {}
    if args.path in ("classical", "both"):
        oracle = classical_lda_oracle(data, args.p, args.kappa_eff)
        outputs["classical"] = {
            "directions": oracle.directions,
            "intermediates": oracle.intermediates,
            "eigenvalue_estimates": oracle.eigenvalue_estimates,
        }
        metrics["fisher_classical"] = fisher_criterion(data, oracle)
    if args.path in ("quantum", "both"):
        basis = quantum_lda(data, args.p, args.kappa_eff, args.eps, args.t, args.seed)
        outputs["quantum"] = {
            "directions": basis.directions,
            "intermediates": basis.intermediates,
            "eigenvalue_estimates": basis.eigenvalue_estimates,
        }
        metrics["fisher_quantum"] = fisher_criterion(data, basis)
        metrics["chain_stage_success"] = basis.chain.stage_success_probabilities
        metrics["chain_stage_bounds"] = basis.chain.stage_bounds
        metrics["copies_used"] = basis.chain.copies_used
        metrics["draws_consumed"] = qpe_draws(args.t)
    if args.path == "both":
        metrics["per_direction_overlap"] = np.array(
            [
                _overlap(outputs["quantum"]["directions"][r], outputs["classical"]["directions"][r])
                for r in range(args.p)
            ]
        )
    parameters = {
        "dataset": descriptor,
        "p": args.p,
        "degree": args.degree,
        "kappa_eff": args.kappa_eff,
        "eps": args.eps,
        "t": args.t,
        "path": args.path,
    }
    return RunReport("reduce", parameters, outputs, metrics, args.seed)


def _load_test_data(args) -> tuple[LabeledDataset, dict]:
    if args.test:
        if not os.path.exists(args.test):
            raise _UsageError(f"test file not found: {args.test}")
        return load_csv(args.test), {"source": "file", "path": args.test}
    if args.synthetic and args.test_count:
        spec = _preset(args.synthetic, args.test_count, args.seed + 1)
        return generate(spec), {
            "source": "synthetic",
            "preset": args.synthetic,
            "per_class": args.test_count,
            "seed": args.seed + 1,
        }
    raise _UsageError("classify needs --test FILE, or --synthetic with --test-count")


def run_classify(args) -> RunReport:
    train, descriptor = _load_training_data(args)
    test, test_descriptor = _load_test_data(args)
    if test.N != train.N:
        raise DomainRejection(
            f"test dimension {test.N} does not match training dimension {train.N}"
        )
    model = fit(train, args.kappa_eff, shared_covariance=args.lda)
    paths = ("quantum", "classical") if args.path == "both" else (args.path,)
    outputs: dict = {}
    for path in paths:
        results = classify_many(model, test.samples, path, args.shots, args.seed, args.t, args.prior)
        outputs[path] = {
            "decisions": np.array([r.chosen for r in results]),
            "discriminants": np.array([r.values for r in results]),
            "margins": np.array([r.margin for r in results]),
        }
    metrics: dict = {
        "test_truth_agreement": {
            path: float(np.mean(outputs[path]["decisions"] == test.labels))
            for path in paths
        },
    }
    if args.path == "both":
        metrics["path_agreement"] = float(
            np.mean(outputs["quantum"]["decisions"] == outputs["classical"]["decisions"])
        )
    if "quantum" in paths:
        metrics["shots_consumed"] = int(args.shots) * model.k * test.M
        metrics["copies_used"] = np.array(
            [stage_copies(op, args.kappa_eff, args.eps) for op in model.covariance_ops]
        )
    parameters = {
        "train": descriptor,
        "test": test_descriptor,
        "lda": bool(args.lda),
        "prior": args.prior,
        "kappa_eff": args.kappa_eff,
        "eps": args.eps,
        "t": args.t,
        "shots": args.shots,
        "path": args.path,
    }
    return RunReport("classify", parameters, outputs, metrics, args.seed)


def _load_chain_stages(args) -> tuple[ChainSpec, dict]:
    functions = [
        SpectralFunction.from_name(name)
        for name in (args.functions.split(",") if args.functions else [])
        if name.strip()
    ]
    if args.operators:
        if not os.path.exists(args.operators):
            raise _UsageError(f"operator file not found: {args.operators}")
        with open(args.operators, encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as err:
                raise _UsageError(f"{args.operators}: invalid JSON ({err})") from err
        raw = payload.get("operators") if isinstance(payload, dict) else payload
        if not isinstance(raw, list) or not raw:
            raise _UsageError(f"{args.operators}: expected a non-empty operator list")
        scales = []
        ops = []
        for i, entry in enumerate(raw, start=1):
            matrix = np.asarray(entry, dtype=float)
            herm = HermitianOperator(matrix)
            tr = herm.trace()
            if tr <= 0:
                raise DomainRejection(f"operator {i} has non-positive trace {tr!r}")
            scales.append(tr)
            ops.append(DensityOperator(herm.matrix / tr))
        if not functions:
            raise _UsageError("--functions is required with --operators")
        if len(functions) != len(ops):
            raise _UsageError(
                f"{len(functions)} functions for {len(ops)} operators"
            )
        descriptor = {"source": "file", "path": args.operators, "trace_scales": scales}
        stages = tuple(zip(ops, functions))
    else:
        data, descriptor = _load_training_data(args)
        stats = class_statistics(data)
        stages = (
            (within_scatter(data, stats), SpectralFunction.from_name("inverse-sqrt")),
            (between_scatter(stats), SpectralFunction.from_name("sqrt")),
        )
        descriptor = {"shape": "discriminant-whitening", **descriptor}
    spec = ChainSpec(stages=stages, kappa_eff=args.kappa_eff, eps=args.eps, t=args.t)
    return spec, descriptor


def run_chain(args) -> RunReport:
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
        "complexity_score": complexity_estimate(spec, args.x_cost),
    }
    parameters = {
        "stages": descriptor,
        "functions": [f.name for _, f in spec.stages],
        "kappa_eff": args.kappa_eff,
        "eps": args.eps,
        "t": args.t,
        "x_cost": args.x_cost,
    }
    return RunReport("chain", parameters, outputs, metrics, args.seed)


def run_rotate_check(args) -> RunReport:
    f = SpectralFunction.from_name(args.function)
    big_t = 1 << args.grid_bits
    descending = np.arange(big_t, 0, -1) / big_t
    grid = descending[_filter_mask(descending, args.kappa_eff)][::-1].tolist()
    if not grid:
        raise DomainRejection("the dyadic grid is empty below 1/kappa_eff")
    c_const = args.c_const
    if c_const is None:
        c_const = (1.0 - args.eps) / float(np.max(np.abs(f(np.array(grid)))))
    _, exact = rotation_amplitudes(tuple(grid), f, c_const, method="exact")
    _, fixed = rotation_amplitudes(
        tuple(grid),
        f,
        c_const,
        fraction_bits=args.bits,
        order=args.order,
        arcsin_terms=args.arcsin_terms,
    )
    rows = []
    for lam, a1x, a1f in zip(grid, exact.tolist(), fixed.tolist()):
        theta_exact = math.asin(a1x)
        theta_fixed = math.asin(min(max(a1f, -1.0), 1.0))
        rows.append((lam, theta_fixed, theta_exact, abs(theta_fixed - theta_exact)))
    errors = np.array([r[3] for r in rows])
    budget = 2.0 ** (-args.bits + 3)
    metrics = {
        "max_error": float(errors.max()),
        "mean_error": float(errors.mean()),
        "error_budget": budget,
        "within_budget": bool(errors.max() <= budget),
    }
    outputs = {
        "lambda_grid": np.array([r[0] for r in rows]),
        "theta_fixed": np.array([r[1] for r in rows]),
        "theta_exact": np.array([r[2] for r in rows]),
        "abs_error": errors,
    }
    parameters = {
        "function": f.name,
        "c_const": c_const,
        "bits": args.bits,
        "order": args.order,
        "arcsin_terms": args.arcsin_terms,
        "grid_bits": args.grid_bits,
        "kappa_eff": args.kappa_eff,
        "eps": args.eps,
    }
    return RunReport("rotate-check", parameters, outputs, metrics, args.seed)


def run_gen(args) -> RunReport:
    spec = _preset(args.synthetic, args.per_class, args.seed)
    data = generate(spec)
    save_csv(data, args.out)
    parameters = {
        "preset": args.synthetic,
        "per_class": args.per_class,
        "out": args.out,
    }
    outputs = {
        "rows": data.M,
        "features": data.N,
        "classes": data.k,
        "label_names": list(data.label_names or ()),
    }
    return RunReport("gen", parameters, outputs, {}, args.seed)


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
        if getattr(args, "seed", None) is None:
            args.seed = _default_seed()
        report = _HANDLERS[args.command](args)
    except _UsageError as err:
        parser.print_usage(sys.stderr)
        print(f"qdasim: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"qdasim: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DomainRejection as err:
        print(f"qdasim: domain rejection: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except (NumericalFailure, np.linalg.LinAlgError) as err:
        print(f"qdasim: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    stamped = RunReport(
        command=f"qdasim {' '.join(argv)}",
        parameters=report.parameters,
        outputs=report.outputs,
        metrics=report.metrics,
        seed=report.seed,
        version=report.version,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    text = stamped.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
