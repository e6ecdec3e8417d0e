"""Metrics, the cross-validated experiment runner and sanity baselines.

One function scores every fold of every predictor: the method, which
balances one users x products train tensor per fold at k=1 and fills the
held-out pairs from inverse-scale products, or a mean baseline.  Reports
hold RMSE/MAE per fold against the stored ratings, clamped ones (clipped
to the native rating range), their mean and standard deviation, and the
time of each predictor call.  Each fold also keeps the residual trace of
its own solve (empty for a baseline), which the JSON report leaves out.
A 3-D run runs the 2-D folds.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .balance import SolverConfig, balance
from .complete import inverse_scale_fills
from .datasets import FoldPlan, RatingsDataset, build_tensor_2d, check_folds, encode_features, split_kfold
from .datasets import _check_plan_length, user_feature_indices
from .exceptions import DidNotConvergeError, EmptyInputError
from .tensor import check_int

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
class ExperimentConfig(SolverConfig):
    """Everything a run needs beyond the dataset itself.  ``categories``
    names the user features a 3-D run requires; they are resolved here,
    and kept as given, in a tuple."""

    n_folds: int = 5
    seed: int = 0
    categories: tuple = ("age", "gender", "occupation")
    threads: int = 1

    def __post_init__(self):
        super().__post_init__()
        check_folds(self.n_folds)
        check_int("seed", self.seed, 0)
        check_int("threads", self.threads, 1)
        if not isinstance(self.categories, str):  # kept whole, so that an iterator is read once
            with suppress(TypeError):  # encode_features names a non-iterable
                object.__setattr__(self, "categories", tuple(self.categories))
        encode_features(self.categories)

    def echo(self) -> dict:
        return {**asdict(self), "categories": list(self.categories)}


@dataclass
class FoldResult:
    fold: int
    rmse: float
    mae: float
    rmse_clamped: float
    mae_clamped: float
    sweeps: int
    wall_time: float  # the predictor call; for the method: tensor build, solve, fills
    cold_pairs: int
    converged: bool
    n_test: int
    residual_trace: tuple = ()  # the solve's residual per sweep; not in the JSON report


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
        stats = {}
        for name in ("rmse", "mae", "rmse_clamped", "mae_clamped"):
            vals = np.array([getattr(f, name) for f in folds])
            stats[f"{name}_mean"], stats[f"{name}_std"] = float(vals.mean()), float(vals.std())
        return cls(
            dataset=dataset,
            mode=mode,
            categories=list(categories) if categories is not None else None,
            per_fold=folds,
            config=config_echo,
            **stats,
        )

    def to_dict(self, include_timing: bool = True) -> dict:
        out = asdict(self)
        for fold in out["per_fold"]:
            del fold["residual_trace"]
            if not include_timing:
                fold["wall_time"] = 0.0
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing=include_timing), indent=2)

    def summary(self) -> str:
        return (
            f"{self.dataset} {self.mode}: "
            f"RMSE {self.rmse_mean:.4f} ± {self.rmse_std:.4f}, "
            f"MAE {self.mae_mean:.4f} ± {self.mae_std:.4f} "
            f"({len(self.per_fold)} folds)"
        )


def _uctensor(config, dataset, fold_plan, fold, test):
    """The method, in either mode: solve the fold's users x products train
    tensor at k=1 and fill the held-out pairs.  A pair is cold when its
    user or product has no training record.  The count is exact in 3-D
    too: a 3-D cell is also cold when its feature slice is empty, and a
    feature slice holds the rows of every user carrying that feature, so
    a user's own feature slices are empty only when the user's row is."""
    tensor = build_tensor_2d(dataset, fold_plan, fold)
    pairs = np.stack([dataset.user_index[test], dataset.product_index[test]], axis=1)
    try:
        model, converged = balance(tensor, 1, config), True
    except DidNotConvergeError as exc:  # keep going with the partial model
        model, converged = exc.model, False
    fills = inverse_scale_fills(model.scales.log_sum_at(pairs), lambda i: tuple(pairs[i].tolist()))
    cold = int(model.scales.empty_key_mask(pairs).sum())
    return fills - dataset.shift, model.residual_trace, converged, cold


def _mean(kind, dataset, fold_plan, fold, test):
    # record positions in file order, so every sum below adds the same
    # numbers in the same order as a boolean-mask gather would
    train = np.flatnonzero(~fold_plan.test_mask(fold))
    r_train = dataset.rating_values[train]
    global_mean = float(r_train.mean())
    if kind == "global_mean":
        return np.full(len(test), global_mean), (), True, 0
    axis = dataset.product_index if kind == "item_mean" else dataset.user_index
    size = dataset.n_products if kind == "item_mean" else dataset.n_users
    axis_train, axis_test = axis[train], axis[test]
    sums = np.bincount(axis_train, weights=r_train, minlength=size)
    counts = np.bincount(axis_train, minlength=size)
    means = np.where(counts > 0, sums / np.maximum(counts, 1), global_mean)
    return means[axis_test], (), True, int((counts[axis_test] == 0).sum())


def _fold_2d(dataset, fold_plan, fold, predict) -> FoldResult:
    """One fold of any predictor, scored against the stored ratings.
    ``predict(dataset, fold_plan, fold, test)`` gets the held-out record
    positions in file order and returns their native-scale predictions,
    the residual trace of its solve (``()`` when it solves nothing),
    whether it converged and its cold pair count."""
    test = np.flatnonzero(fold_plan.test_mask(fold))
    t0 = time.perf_counter()
    preds, trace, converged, cold = predict(dataset, fold_plan, fold, test)
    wall = time.perf_counter() - t0
    truth = dataset.rating_values[test]
    clamped = np.clip(preds, *dataset.native_range)
    return FoldResult(fold, rmse(preds, truth), mae(preds, truth), rmse(clamped, truth),
                      mae(clamped, truth), len(trace), wall, cold, converged, len(test), trace)


# bench_spans.Tracer.install wraps both fold names and both builder names
# here; no run calls the 3-D ones
_fold_3d = _fold_2d
build_tensor_3d = build_tensor_2d


def _cross_validate(dataset, fold_plan, predict, threads=1) -> list:
    """Every fold of ``fold_plan`` scored by ``_fold_2d``, in fold order.
    The plan must assign every record a fold id in [0, n_folds), and
    leave no fold empty, so every fold also has records to train on."""
    _check_plan_length(fold_plan, dataset)
    ids = fold_plan.assignment
    if not 0 <= ids.min() <= ids.max() < fold_plan.n_folds:
        raise ValueError(f"fold plan assigns fold ids {ids.min()}..{ids.max()}, outside [0, {fold_plan.n_folds})")
    sizes = np.bincount(ids, minlength=fold_plan.n_folds)
    if len(sizes) < 2 or not sizes.all():
        raise ValueError(f"fold plan needs >= 2 folds, none empty, got fold sizes {sizes.tolist()}")

    def one(fold):
        return _fold_2d(dataset, fold_plan, fold, predict)  # looked up per call, for the tracer
    if threads == 1:
        return [one(f) for f in range(fold_plan.n_folds)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, range(fold_plan.n_folds)))


def run_experiment(dataset: RatingsDataset, mode: str, config: ExperimentConfig) -> EvalReport:
    """Full cross-validated run; per-fold non-convergence is recorded, not
    fatal.  Folds may run on a thread pool; results are aggregated in
    fold order either way.

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
    results = _cross_validate(dataset, fold_plan, partial(_uctensor, config), config.threads)
    categories = config.categories if mode == "3d" else None
    return EvalReport.from_folds(dataset.name, mode, categories, results, config.echo())


def baseline_predict(dataset: RatingsDataset, fold_plan: FoldPlan, kind: str) -> EvalReport:
    """Constant/mean predictors evaluated exactly like the real runs; a
    sanity anchor, not a contender."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"kind must be one of {BASELINE_KINDS}, got {kind!r}")
    results = _cross_validate(dataset, fold_plan, partial(_mean, kind))
    echo = {"kind": kind, "n_folds": fold_plan.n_folds, "seed": fold_plan.seed}
    return EvalReport.from_folds(dataset.name, f"baseline:{kind}", None, results, echo)
