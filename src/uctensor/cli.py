"""Command-line front end: complete toy tensors, fit a ratings dataset's
model, run dataset evaluations, serve top-n recommendations from a model
file, and run the property-check suites.

Exit codes: 0 success, 1 operational error (bad data, failed checks),
2 usage error, which includes a flag the selected run would not read.
Dataset paths resolve against --ratings/--users first, then against the
UCTENSOR_DATA environment variable (or --data-root).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import properties
from .balance import SolverConfig, balance
from .datasets import (
    load_jester,
    load_movielens,
    load_tensor_text,
    records_tensor,
    save_tensor_text,
)
from .evaluate import (
    BASELINE_KINDS,
    ExperimentConfig,
    baseline_predict,
    run_experiment,
    split_kfold,
)
from .exceptions import UctensorError, UnknownUserError
from .complete import CompletedTensor
from .persist import load_model, save_model
from .recommend import top_n

# conventional (ratings, users) file names under the data root, by dataset kind
DEFAULT_PATHS = {
    "movielens1m": ("ml-1m/ratings.dat", "ml-1m/users.dat"),
    "movielens10m": ("ml-10m/ratings.dat", None),
    "jester2": ("jester2/jester_ratings.csv", None),
}
DATASET_KINDS = tuple(DEFAULT_PATHS)


def _load_dataset(args):
    """The ratings dataset of ``--dataset``.  Only a 3-D run reads user
    features, so only it looks for the conventional users file."""
    ratings, users = args.ratings, getattr(args, "users", None)
    if ratings is None:
        root = Path(args.data_root or os.environ.get("UCTENSOR_DATA", "data"))
        ratings_name, users_name = DEFAULT_PATHS[args.dataset]
        ratings = root / ratings_name
        if getattr(args, "mode", None) == "3d" and users is None and users_name is not None:
            candidate = root / users_name
            users = candidate if candidate.exists() else None
    if not Path(ratings).exists():
        raise UctensorError(f"ratings file not found: {ratings}")
    if args.dataset == "jester2":
        return load_jester(ratings)
    return load_movielens(ratings, users_path=users, fmt="1m" if args.dataset == "movielens1m" else "10m")


def _solver_config(args) -> SolverConfig:
    return SolverConfig(epsilon=args.epsilon, max_sweeps=args.max_sweeps)


def _int_at_least(low: int):
    """argparse type: an int >= ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _finite_nonnegative_float(text: str) -> float:
    """argparse type: a finite float >= 0."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


# the options several subcommands share; each subcommand adds those it reads
COMMON_OPTIONS = {
    "--epsilon": dict(type=_finite_nonnegative_float, default=SolverConfig.epsilon,
                      help="stop once every squared subtensor log-product is below this "
                           f"(default {SolverConfig.epsilon})"),
    "--max-sweeps": dict(type=_int_at_least(1), default=SolverConfig.max_sweeps,
                         help=f"solver iteration cap (default {SolverConfig.max_sweeps})"),
    "--seed": dict(type=_int_at_least(0), default=0),
    "--threads": dict(type=_int_at_least(1), default=1),
    "--data-root": dict(default=None, help="overrides $UCTENSOR_DATA (default ./data)"),
}


def _add_common(p, *flags):
    for flag in flags:
        p.add_argument(flag, **COMMON_OPTIONS[flag])


def cmd_complete(args) -> int:
    tensor = load_tensor_text(args.input)
    k = args.k if args.k is not None else tensor.ndim - 1
    model = balance(tensor, k, _solver_config(args))
    print(f"sweeps={model.sweeps_run} final_residual={model.final_residual:.3e}")
    completed = CompletedTensor(model)
    if args.out:
        if tensor.n_cells > 10_000_000:
            raise UctensorError(
                f"{tensor.n_cells} cells is too large for a dense listing; use --model-out"
            )
        dense = completed.to_dense()
        save_tensor_text(args.out, tensor.shape, np.ndindex(*tensor.shape), dense.reshape(-1))
        print(f"completed tensor written to {args.out}")
    if args.model_out:
        save_model(args.model_out, model, config={"epsilon": args.epsilon, "k": k})
        print(f"model written to {args.model_out}")
    return 0


def cmd_fit(args) -> int:
    dataset = _load_dataset(args)
    model = balance(records_tensor(dataset), 1, _solver_config(args))
    print(f"sweeps={model.sweeps_run} final_residual={model.final_residual:.3e}")
    save_model(args.model_out, model, shift=dataset.shift, native_range=dataset.native_range,
               users=dataset.users, products=dataset.products, config={"epsilon": args.epsilon, "k": 1})
    print(f"model written to {args.model_out}")
    return 0


def cmd_evaluate(args) -> int:
    # a baseline solves nothing, and only a 3-D run reads user features
    unread = ("users", "features") if args.baseline or args.mode != "3d" else ()
    if args.baseline:
        unread = ("mode", *unread, "threads", "epsilon", "max_sweeps")
    given = ["--" + name.replace("_", "-") for name in unread if getattr(args, name) is not None]
    if given:
        args.error(f"{', '.join(given)} not read by {'a baseline' if args.baseline else 'a 2-D'} run")
    dataset = _load_dataset(args)
    if args.baseline:
        report = baseline_predict(dataset, split_kfold(dataset, args.folds, args.seed), args.baseline)
    else:
        options = {name: getattr(args, name) for name in ("epsilon", "max_sweeps", "threads")
                   if getattr(args, name) is not None}
        if args.features is not None:
            options["categories"] = tuple(args.features.split(","))
        config = ExperimentConfig(n_folds=args.folds, seed=args.seed, **options)
        report = run_experiment(dataset, args.mode or "2d", config)
    print(report.summary())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json(include_timing=not args.omit_timings))
        print(f"report written to {args.out}")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write("sweep,residual\n")
            fh.writelines(f"{i},{v!r}\n" for i, v in enumerate(report.per_fold[0].residual_trace, start=1))
        print(f"convergence trace written to {args.trace_out}")
    return 0


def cmd_recommend(args) -> int:
    completed, doc = load_model(args.model)
    users = doc.get("users")  # raw id -> dense index
    products = {dense: raw for raw, dense in doc["products"].items()} if doc.get("products") else None

    raw_user = args.user
    try:
        key = int(raw_user)
    except ValueError:
        key = None
    if users is not None:
        dense_user = users.get(raw_user, users.get(key))
    else:
        dense_user = key if key is not None and 0 <= key < completed.shape[0] else None
    if dense_user is None:
        raise UnknownUserError(f"unknown user id {raw_user!r}")

    shift = doc.get("shift", 0.0)
    low, high = doc.get("native_range") or (-math.inf, math.inf)  # a 'complete' model has none
    picks = top_n(completed, dense_user, args.top, exclude_observed=args.exclude_observed)
    missing = [pred.product for pred in picks if products and pred.product not in products]
    if missing:  # a vocabulary may leave products out
        raise UctensorError(f"the products vocabulary has no raw id for dense product {missing[0]}")
    for rank, pred in enumerate(picks, start=1):
        raw_product = products[pred.product] if products else pred.product
        print(f"{rank}\t{raw_product}\t{min(max(pred.rating - shift, low), high):.4f}\t{pred.source}")
    return 0


def cmd_check(args) -> int:
    results = properties.run_all(seed=args.seed)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} property suites passed")
    return 1 if failed else 0


def _add_dataset(p):
    p.add_argument("--dataset", required=True, choices=DATASET_KINDS)
    p.add_argument("--ratings", default=None, help="ratings file (default: the conventional one under the data root)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uctensor",
        description="Unit-consistent tensor completion: balance, complete, fit, evaluate, recommend.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="complete a tensor from the generic text format")
    p.add_argument("--input", required=True, help="tensor file: 'shape d1,d2,...' header then i1,...,value lines")
    p.add_argument("--k", type=_int_at_least(1), default=None, help="subtensor dimensionality (default D-1)")
    p.add_argument("--out", default=None, help="write all completed cells in the same format")
    p.add_argument("--model-out", default=None, help="write the trained model file")
    _add_common(p, "--epsilon", "--max-sweeps")
    p.set_defaults(fn=cmd_complete)

    p = sub.add_parser("fit", help="train a ratings dataset's users x products model and write it")
    _add_dataset(p)
    p.add_argument("--model-out", required=True, help="write the trained model file, raw ids included")
    _add_common(p, "--epsilon", "--max-sweeps", "--data-root")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("evaluate", help="cross-validated RMSE/MAE on a ratings dataset")
    _add_dataset(p)
    p.add_argument("--users", default=None, help="MovieLens users file (3d mode)")
    p.add_argument("--mode", choices=("2d", "3d"), help="default 2d")
    p.add_argument("--features", default=None, help="comma list of age,gender,occup (3d mode)")
    p.add_argument("--folds", type=_int_at_least(2), default=5)
    solved = p.add_mutually_exclusive_group()  # a baseline solves nothing to trace
    solved.add_argument("--baseline", choices=BASELINE_KINDS, default=None,
                        help="run a mean baseline instead of the solver")
    solved.add_argument("--trace-out", default=None, help="write fold 0's sweep,residual CSV here")
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.add_argument("--omit-timings", action="store_true",
                   help="zero wall times in the report for byte-stable output")
    _add_common(p, "--epsilon", "--max-sweeps", "--seed", "--threads", "--data-root")
    # None marks a solver flag as not given, so a run that would not read it can refuse it
    p.set_defaults(fn=cmd_evaluate, error=p.error, epsilon=None, max_sweeps=None, threads=None)

    p = sub.add_parser("recommend", help="top-n products for a user, served from a model file")
    p.add_argument("--model", required=True, help="model file from 'fit' or 'complete --model-out'")
    p.add_argument("--user", required=True, help="raw user id (a dense index for a 'complete' model)")
    p.add_argument("--top", type=_int_at_least(1), default=10, help="products to list (>= 1)")
    p.add_argument("--exclude-observed", action="store_true")
    p.set_defaults(fn=cmd_recommend)

    p = sub.add_parser("check", help="run the seeded property-check suites")
    _add_common(p, "--seed")
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UctensorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
