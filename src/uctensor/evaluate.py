"""Metrics, the cross-validated experiment runner, sanity baselines, and
convergence diagnostics.

The runner builds one users x products train tensor per fold, balances
it at k=1, predicts the held-out pairs from inverse-scale products,
unshifts, and reports RMSE/MAE per fold plus mean and standard
deviation.  Clamped metrics (predictions clipped to the native rating
range) ride along as a secondary column.  The 3-D user x feature x
product mode runs the same folds (see ``run_experiment``).
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .balance import SolverConfig, balance
from .complete import inverse_scale_fills
from .datasets import FoldPlan, RatingsDataset, build_tensor_2d, split_kfold, user_feature_indices
from .datasets import build_tensor_3d  # noqa: F401  bench_spans.Tracer.install wraps it here
from .exceptions import DidNotConvergeError, EmptyInputError
from .tensor import SparseTensor

BASELINE_KINDS = ("global_mean", "item_mean", "user_mean")


def _columns(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.ndim != 1 or pred.shape != truth.shape:
        raise ValueError(
            f"predicted and true values must be 1-D of one length, got {pred.shape} and {truth.shape}"
        )
    if len(pred) == 0:
        raise EmptyInputError("no (predicted, truth) pairs")
    return pred, truth


def rmse(pred, truth) -> float:
    """Root mean squared error of predicted against true values, two
    equal-length 1-D columns."""
    pred, truth = _columns(pred, truth)
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def mae(pred, truth) -> float:
    """Mean absolute error of predicted against true values, two
    equal-length 1-D columns."""
    pred, truth = _columns(pred, truth)
    return float(np.mean(np.abs(pred - truth)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs beyond the dataset itself.  ``categories``
    names the user features a 3-D run requires."""

    epsilon: float = 1e-10
    max_sweeps: int = 1000
    n_folds: int = 5
    seed: int = 0
    categories: tuple = ("age", "gender", "occupation")
    threads: int = 1

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    def solver(self) -> SolverConfig:
        return SolverConfig(epsilon=self.epsilon, max_sweeps=self.max_sweeps)

    def echo(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "max_sweeps": self.max_sweeps,
            "n_folds": self.n_folds,
            "seed": self.seed,
            "categories": list(self.categories),
            "threads": self.threads,
        }


@dataclass
class FoldResult:
    fold: int
    rmse: float
    mae: float
    rmse_clamped: float
    mae_clamped: float
    sweeps: int
    wall_time: float
    cold_pairs: int
    converged: bool
    n_test: int


@dataclass
class EvalReport:
    dataset: str
    mode: str
    categories: list | None
    per_fold: list
    rmse_mean: float
    rmse_std: float
    mae_mean: float
    mae_std: float
    rmse_clamped_mean: float
    rmse_clamped_std: float
    mae_clamped_mean: float
    mae_clamped_std: float
    config: dict

    @classmethod
    def from_folds(cls, dataset, mode, categories, folds, config_echo) -> "EvalReport":
        folds = sorted(folds, key=lambda f: f.fold)

        def stats(attr):
            vals = np.array([getattr(f, attr) for f in folds])
            return float(vals.mean()), float(vals.std())

        rm, rs = stats("rmse")
        mm, ms = stats("mae")
        rcm, rcs = stats("rmse_clamped")
        mcm, mcs = stats("mae_clamped")
        return cls(
            dataset=dataset,
            mode=mode,
            categories=list(categories) if categories is not None else None,
            per_fold=folds,
            rmse_mean=rm,
            rmse_std=rs,
            mae_mean=mm,
            mae_std=ms,
            rmse_clamped_mean=rcm,
            rmse_clamped_std=rcs,
            mae_clamped_mean=mcm,
            mae_clamped_std=mcs,
            config=config_echo,
        )

    def to_dict(self, include_timing: bool = True) -> dict:
        out = asdict(self)
        if not include_timing:
            for fold in out["per_fold"]:
                fold["wall_time"] = 0.0
        return out

    def to_json(self, include_timing: bool = True, indent: int = 2) -> str:
        return json.dumps(self.to_dict(include_timing=include_timing), indent=indent)

    def summary(self) -> str:
        return (
            f"{self.dataset} {self.mode}: "
            f"RMSE {self.rmse_mean:.4f} ± {self.rmse_std:.4f}, "
            f"MAE {self.mae_mean:.4f} ± {self.mae_std:.4f} "
            f"({len(self.per_fold)} folds)"
        )


def _metrics(preds_native, truth_native, dataset):
    lo, hi = dataset.native_range
    clamped = np.clip(preds_native, lo, hi)
    return (
        rmse(preds_native, truth_native), mae(preds_native, truth_native),
        rmse(clamped, truth_native), mae(clamped, truth_native),
    )


def _solve(tensor: SparseTensor, config: ExperimentConfig):
    t0 = time.perf_counter()
    try:
        model = balance(tensor, 1, config.solver())
        converged = True
    except DidNotConvergeError as exc:  # keep going with the partial model
        model = exc.model
        converged = False
    return model, converged, time.perf_counter() - t0


def _fold_2d(dataset, fold_plan, fold, config) -> FoldResult:
    """One fold of either mode: solve the fold's users x products train
    tensor at k=1 and score the held-out pairs.  A pair is cold when its
    user or product has no training record.  The count is exact in 3-D
    too: a 3-D cell is also cold when its feature slice is empty, and a
    feature slice holds the rows of every user carrying that feature, so
    a user's own feature slices are empty only when the user's row is."""
    tensor, pairs, truth_shifted = build_tensor_2d(dataset, fold_plan, fold)
    model, converged, wall = _solve(tensor, config)

    preds_shifted = inverse_scale_fills(
        model.scales.log_sum_at(pairs), lambda i: tuple(pairs[i].tolist())
    )
    cold = int(model.scales.empty_key_mask(pairs).sum())

    preds_native = preds_shifted - dataset.shift
    truth_native = truth_shifted - dataset.shift
    r, m, rc, mc = _metrics(preds_native, truth_native, dataset)
    return FoldResult(fold, r, m, rc, mc, model.sweeps_run, wall, cold, converged, len(pairs))


_fold_3d = _fold_2d  # bench_spans.Tracer.install wraps both fold names here


def run_experiment(dataset: RatingsDataset, mode: str, config: ExperimentConfig) -> EvalReport:
    """Full cross-validated run; per-fold non-convergence is recorded, not
    fatal.  Folds are independent and may run on a thread pool; results are
    aggregated in fold order either way.

    A "3d" run first checks that every user carries the configured
    features, then runs the 2-D folds: each 3-D fill at (user, feature,
    product) is the 2-D fill at (user, product).  Its report keeps mode
    "3d" and the categories."""
    mode = mode.lower()
    if mode not in ("2d", "3d"):
        raise ValueError(f"mode must be '2d' or '3d', got {mode!r}")
    if mode == "3d":
        user_feature_indices(dataset, config.categories)
    fold_plan = split_kfold(dataset, config.n_folds, config.seed)

    folds = range(config.n_folds)
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(lambda f: _fold_2d(dataset, fold_plan, f, config), folds))
    else:
        results = [_fold_2d(dataset, fold_plan, f, config) for f in folds]

    categories = config.categories if mode == "3d" else None
    return EvalReport.from_folds(dataset.name, mode, categories, results, config.echo())


def baseline_predict(dataset: RatingsDataset, fold_plan: FoldPlan, kind: str) -> EvalReport:
    """Constant/mean predictors evaluated exactly like the real runs; a
    sanity anchor, not a contender."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"kind must be one of {BASELINE_KINDS}, got {kind!r}")
    results = []
    for fold in range(fold_plan.n_folds):
        # record positions in file order, so every sum below adds the same
        # numbers in the same order as a boolean-mask gather would
        in_test = fold_plan.test_mask(fold)
        test = np.flatnonzero(in_test)
        train = np.flatnonzero(~in_test)
        t0 = time.perf_counter()
        r_train = dataset.rating_values[train]
        global_mean = float(r_train.mean())
        if kind == "global_mean":
            preds = np.full(len(test), global_mean)
            cold = 0
        else:
            axis = dataset.product_index if kind == "item_mean" else dataset.user_index
            size = dataset.n_products if kind == "item_mean" else dataset.n_users
            axis_train = axis[train]
            axis_test = axis[test]
            sums = np.bincount(axis_train, weights=r_train, minlength=size)
            counts = np.bincount(axis_train, minlength=size)
            means = np.where(counts > 0, sums / np.maximum(counts, 1), global_mean)
            preds = means[axis_test]
            cold = int((counts[axis_test] == 0).sum())
        wall = time.perf_counter() - t0
        truth = dataset.rating_values[test]
        r, m, rc, mc = _metrics(preds, truth, dataset)
        results.append(FoldResult(fold, r, m, rc, mc, 0, wall, cold, True, len(test)))
    echo = {"kind": kind, "n_folds": fold_plan.n_folds, "seed": fold_plan.seed}
    return EvalReport.from_folds(dataset.name, f"baseline:{kind}", None, results, echo)


def convergence_trace(dataset: RatingsDataset, config: ExperimentConfig) -> list:
    """Per-iteration residuals of the first fold's solve (for plotting);
    both modes solve the same tensor."""
    fold_plan = split_kfold(dataset, config.n_folds, config.seed)
    model, _, _ = _solve(build_tensor_2d(dataset, fold_plan, 0)[0], config)
    return list(model.residual_trace)


def write_trace_csv(path, trace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sweep,residual\n")
        for i, v in enumerate(trace, start=1):
            fh.write(f"{i},{v!r}\n")
