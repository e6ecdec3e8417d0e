import dataclasses
import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctensor import (
    EmptyInputError,
    ExperimentConfig,
    FoldPlan,
    MissingFeatureFileError,
    SolverConfig,
    TooFewRecordsError,
    UnknownCategoryError,
    balance,
    baseline_predict,
    build_tensor_2d,
    check_full_support,
    complete_matrix,
    load_jester,
    load_movielens,
    mae,
    make_tensor,
    rmse,
    run_experiment,
    split_kfold,
    top_n,
)
import uctensor
from uctensor import evaluate
from uctensor.properties import synthetic_dataset

from conftest import TIGHT, trace_oracle, write_jester_grid, write_movielens_fixture
from feature_oracle import build_tensor_3d

# rating-scale magnitudes, quantized so squared errors cannot underflow
grid_floats = st.floats(-100, 100, allow_nan=False).map(lambda x: round(x, 6))
pair_lists = st.lists(st.tuples(grid_floats, grid_floats), min_size=1, max_size=50)


def columns(pairs):
    """(predicted, truth) pairs as the two columns the metrics take."""
    return np.array(pairs, dtype=np.float64).reshape(-1, 2).T


class TestMetrics:
    @pytest.mark.parametrize(
        "pairs,expected",
        [([(1, 1), (2, 2)], 0.0), ([(0, 1), (0, -1)], 1.0), ([(3, 1)], 2.0)],
    )
    def test_rmse(self, pairs, expected):
        assert rmse(*columns(pairs)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "pairs,expected",
        [([(1, 1)], 0.0), ([(0, 2), (0, -2)], 2.0), ([(1, 2), (5, 2)], 2.0)],
    )
    def test_mae(self, pairs, expected):
        assert mae(*columns(pairs)) == pytest.approx(expected, abs=1e-12)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            rmse([], [])
        with pytest.raises(EmptyInputError):
            mae([], [])

    @pytest.mark.parametrize("pred,truth", [([1.0, 2.0], [1.0]), ([[1.0, 2.0]], [[1.0, 2.0]])])
    def test_columns_must_be_1d_of_one_length(self, pred, truth):
        for metric in (rmse, mae):
            with pytest.raises(ValueError, match="1-D of one length"):
                metric(pred, truth)

    @given(pair_lists)
    @settings(max_examples=100, deadline=None)
    def test_rmse_dominates_mae(self, pairs):
        # one ulp of slack: sqrt(mean of squares) can round below the mean
        # of |errors| when every error is identical
        assert rmse(*columns(pairs)) >= mae(*columns(pairs)) * (1 - 1e-12)
        assert mae(*columns(pairs)) >= 0.0

    def test_equal_when_all_errors_equal(self):
        pairs = [(0, 3), (10, 7), (1, 4)]
        assert rmse(*columns(pairs)) == pytest.approx(mae(*columns(pairs)), rel=1e-12)

    @given(pair_lists, st.floats(-50, 50, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_shift_cancels(self, pairs, shift):
        shifted = [(p + shift, t + shift) for p, t in pairs]
        assert rmse(*columns(shifted)) == pytest.approx(rmse(*columns(pairs)), abs=1e-9)
        assert mae(*columns(shifted)) == pytest.approx(mae(*columns(pairs)), abs=1e-9)


class TestRunExperiment:
    def test_planted_rank1_beats_baselines(self):
        ds = synthetic_dataset(7)
        config = ExperimentConfig(n_folds=5, seed=1)
        report = run_experiment(ds, "2d", config)
        assert report.rmse_mean < 1e-3  # exact multiplicative structure
        plan = split_kfold(ds, 5, seed=1)
        for kind in ("global_mean", "item_mean", "user_mean"):
            anchor = baseline_predict(ds, plan, kind)
            assert report.rmse_mean < anchor.rmse_mean

    def test_report_shape_and_aggregates(self):
        ds = synthetic_dataset(3, noise=0.1)
        report = run_experiment(ds, "2d", ExperimentConfig(n_folds=4, seed=0))
        assert len(report.per_fold) == 4
        rmses = np.array([f.rmse for f in report.per_fold])
        assert report.rmse_mean == pytest.approx(rmses.mean(), abs=1e-12)
        assert report.rmse_std == pytest.approx(rmses.std(), abs=1e-12)
        maes = np.array([f.mae for f in report.per_fold])
        assert report.mae_mean == pytest.approx(maes.mean(), abs=1e-12)
        assert all(f.converged for f in report.per_fold)
        assert all(f.n_test > 0 for f in report.per_fold)

    def test_clamped_metrics_ride_along(self):
        ds = synthetic_dataset(3, noise=0.3)
        report = run_experiment(ds, "2d", ExperimentConfig(n_folds=3, seed=0))
        assert report.rmse_clamped_mean <= report.rmse_mean + 1e-12

    def test_determinism_and_thread_invariance(self):
        ds = synthetic_dataset(11, noise=0.05)
        cfg1 = ExperimentConfig(n_folds=3, seed=5, threads=1)
        cfg2 = ExperimentConfig(n_folds=3, seed=5, threads=3)
        a = run_experiment(ds, "2d", cfg1).to_json(include_timing=False)
        b = run_experiment(ds, "2d", cfg1).to_json(include_timing=False)
        c = run_experiment(ds, "2d", cfg2).to_json(include_timing=False)
        assert a == b
        # thread count appears in the config echo but must not change results
        assert json.loads(a)["per_fold"] == json.loads(c)["per_fold"]

    def test_cold_pairs_counted(self, tmp_path):
        # one user with a single record: the fold holding it sees a cold row
        lines = ["1::10::5::1", "1::11::4::2", "2::10::3::3", "2::11::2::4", "3::10::1::5"]
        ratings = tmp_path / "r.dat"
        ratings.write_text("\n".join(lines) + "\n")
        ds = load_movielens(ratings)
        report = run_experiment(ds, "2d", ExperimentConfig(n_folds=5, seed=0))
        assert sum(f.cold_pairs for f in report.per_fold) >= 1

    @pytest.mark.parametrize("shifted", [False, True], ids=["movielens", "jester"])
    def test_folds_score_the_fills_against_the_stored_ratings(self, tmp_path, shifted):
        if shifted:
            ds = load_jester(write_jester_grid(tmp_path / "jester.csv"))
            assert ds.shift != 0
        else:
            ds = load_movielens(*write_movielens_fixture(tmp_path))
        config = ExperimentConfig()
        report = run_experiment(ds, "2d", config)
        plan = split_kfold(ds, config.n_folds, config.seed)
        for fold, result in enumerate(report.per_fold):
            test = np.flatnonzero(plan.test_mask(fold))
            pairs = np.stack([ds.user_index[test], ds.product_index[test]], axis=1)
            fills = np.exp(-balance(build_tensor_2d(ds, plan, fold), 1, config).scales.log_sum_at(pairs))
            truth = ds.rating_values[test]
            assert result.rmse == rmse(fills - ds.shift, truth)
            assert result.mae == mae(fills - ds.shift, truth)

    def test_mode_validation(self):
        ds = synthetic_dataset(0)
        with pytest.raises(ValueError):
            run_experiment(ds, "4d", ExperimentConfig())

    def test_a_negative_seed_is_named(self):
        with pytest.raises(ValueError, match=r"^seed must be an int >= 0, got -1$"):
            run_experiment(synthetic_dataset(0), "2d", ExperimentConfig(seed=-1))

    @pytest.mark.parametrize("seed", [-1, 1.0, True, "0", None])
    def test_a_seed_that_is_not_an_int_at_least_0_is_refused_at_construction(self, seed):
        with pytest.raises(ValueError, match=rf"^seed must be an int >= 0, got {seed!r}$"):
            ExperimentConfig(seed=seed)


class TestCrossValidate:
    def test_an_oracle_predictor_scores_zero_on_every_fold_in_order(self):
        ds = synthetic_dataset(4, noise=0.1)
        plan = split_kfold(ds, 4, seed=2)

        def oracle(dataset, fold_plan, fold, test):
            return dataset.rating_values[test], (), True, 0

        for threads in (1, 3):
            folds = evaluate._cross_validate(ds, plan, oracle, threads)
            assert [f.fold for f in folds] == list(range(4))
            assert all(f.rmse == f.mae == f.cold_pairs == 0 for f in folds)
            assert sum(f.n_test for f in folds) == len(ds.rating_values)

    @staticmethod
    def predictors():
        return {"method": partial(evaluate._uctensor, ExperimentConfig()),
                "baseline": partial(evaluate._mean, "item_mean")}

    @pytest.mark.parametrize("predictor", ["method", "baseline"])
    @pytest.mark.parametrize("extra", [-15, 4], ids=["short", "long"])
    def test_a_plan_of_another_length_is_refused_before_any_fold(self, predictor, extra):
        ds = synthetic_dataset(0, n_users=7, n_products=5)
        n = len(ds.rating_values)
        plan = FoldPlan(2, 0, np.arange(n + extra) % 2)
        predict = self.predictors()[predictor]
        with pytest.raises(ValueError, match=f"fold plan assigns {n + extra} records, the dataset has {n}"):
            evaluate._cross_validate(ds, plan, predict)
        if predictor == "baseline":
            with pytest.raises(ValueError, match="fold plan assigns"):
                baseline_predict(ds, plan, "item_mean")

    @pytest.mark.parametrize("predictor", ["method", "baseline"])
    @pytest.mark.parametrize("bad", [7, 2, -1])
    def test_a_fold_id_outside_the_folds_is_refused(self, predictor, bad):
        ds = synthetic_dataset(0, n_users=7, n_products=5)
        ids = np.arange(len(ds.rating_values)) % 2
        ids[5] = bad
        plan = FoldPlan(2, 0, ids)
        with pytest.raises(ValueError, match=r"fold ids .* outside \[0, 2\)"):
            evaluate._cross_validate(ds, plan, self.predictors()[predictor])
        if predictor == "baseline":
            with pytest.raises(ValueError, match="outside"):
                baseline_predict(ds, plan, "global_mean")

    @pytest.mark.parametrize("predictor", ["method", "baseline"])
    @pytest.mark.parametrize("n_folds, fold", [(2, 0), (2, 1), (1, 0)],
                             ids=["fold-1-empty", "fold-0-empty", "one-fold"])
    def test_a_plan_with_no_record_to_hold_out_or_train_on_is_refused(self, predictor, n_folds, fold):
        ds = synthetic_dataset(0, n_users=7, n_products=5)
        plan = FoldPlan(n_folds, 0, np.full(len(ds.rating_values), fold))
        with pytest.raises(ValueError, match="fold plan needs >= 2 folds, none empty"):
            evaluate._cross_validate(ds, plan, self.predictors()[predictor])


class TestThreeDimensionalMode:
    """A 3-D run solves the 2-D tensor (the fills are equal, README); it is
    checked against the direct solve of the user x feature x product
    tensor at k=2, projected over each held-out user's own features."""

    @staticmethod
    def direct_3d_fold(ds, categories, plan, fold):
        """Predictions and cold pairs of one fold by the direct 3-D solve."""
        tensor, pairs, truth, feats = build_tensor_3d(ds, categories, plan, fold)
        scales = balance(tensor, 2, TIGHT).scales
        n_test, n_cat = feats.shape
        cells = np.stack([np.repeat(pairs[:, 0], n_cat), feats.reshape(-1),
                          np.repeat(pairs[:, 1], n_cat)], axis=1)
        fills = np.exp(-scales.log_sum_at(cells)).reshape(n_test, n_cat)
        empty = scales.empty_key_mask(cells).reshape(n_test, n_cat)
        rows, best = np.arange(n_test), fills.argmax(axis=1)
        return pairs, truth, fills[rows, best], int(empty[rows, best].sum())

    @pytest.mark.parametrize(
        "fixture,categories",
        [({"seed": 5}, ("age", "gender", "occupation")),
         # sparse: users and products with a single record, cold pairs in every fold
         ({"seed": 1, "density": 0.1}, ("age", "gender"))],
    )
    def test_lifted_folds_match_the_direct_3d_solve(self, tmp_path, fixture, categories):
        ds = load_movielens(*write_movielens_fixture(tmp_path, **fixture))
        config = ExperimentConfig(epsilon=TIGHT.epsilon, max_sweeps=TIGHT.max_sweeps,
                                  categories=categories)
        report = run_experiment(ds, "3d", config)
        assert report.mode == "3d" and report.categories == list(categories)
        plan = split_kfold(ds, config.n_folds, config.seed)
        for fold, result in enumerate(report.per_fold):
            pairs, truth, direct, cold = self.direct_3d_fold(ds, categories, plan, fold)
            lifted = np.exp(-balance(build_tensor_2d(ds, plan, fold), 1, TIGHT)
                            .scales.log_sum_at(pairs))
            np.testing.assert_allclose(lifted, direct, rtol=1e-9, atol=0)
            scored = (direct - ds.shift, truth - ds.shift)
            assert result.rmse == pytest.approx(rmse(*scored), rel=1e-9)
            assert result.mae == pytest.approx(mae(*scored), rel=1e-9)
            assert result.cold_pairs == cold
        if fixture.get("density"):
            assert all(f.cold_pairs > 0 for f in report.per_fold)

    def test_the_3d_builder_is_the_tests_oracle_not_the_librarys(self):
        assert not hasattr(uctensor, "build_tensor_3d")
        assert build_tensor_3d.__module__ == "feature_oracle"

    def test_without_a_users_file(self, tmp_path):
        ratings, _ = write_movielens_fixture(tmp_path)
        with pytest.raises(MissingFeatureFileError, match="needs a users file"):
            run_experiment(load_movielens(ratings), "3d", ExperimentConfig())

    def test_a_user_missing_from_the_users_file(self, tmp_path):
        ratings, users = write_movielens_fixture(tmp_path)
        lines = users.read_text().splitlines()
        users.write_text("\n".join(lines[1:]) + "\n")  # drops user 1
        ds = load_movielens(ratings, users)
        with pytest.raises(MissingFeatureFileError, match="user 1 missing"):
            run_experiment(ds, "3d", ExperimentConfig())
        run_experiment(ds, "2d", ExperimentConfig(n_folds=2))  # 2-D needs no features

    def test_an_unknown_category(self, tmp_path):
        ds = load_movielens(*write_movielens_fixture(tmp_path))
        with pytest.raises(UnknownCategoryError):
            run_experiment(ds, "3d", ExperimentConfig(categories=("zodiac",)))


GOLDEN = Path(__file__).parent / "golden"


class TestGoldenReports:
    """Reports on ``write_movielens_fixture``: parsing, folds and metrics
    must reproduce them byte for byte.  ``report_2d`` and
    ``baseline_item_mean`` hold the numbers of the first release's
    harness, which held out tuple lists and parsed line by line;
    ``report_3d`` is ``report_2d`` with its own mode and categories."""

    @pytest.mark.parametrize(
        "name,mode,options",
        [("report_2d", "2d", {}), ("report_3d", "3d", {})],
    )
    def test_run_experiment(self, tmp_path, name, mode, options):
        ds = load_movielens(*write_movielens_fixture(tmp_path))
        report = run_experiment(ds, mode, ExperimentConfig(**options))
        assert report.to_json(include_timing=False) + "\n" == (GOLDEN / f"{name}.json").read_text()

    def test_3d_report_is_the_2d_report(self):
        flat, cube = (json.loads((GOLDEN / f"{n}.json").read_text()) for n in ("report_2d", "report_3d"))
        assert (cube.pop("mode"), cube.pop("categories")) == ("3d", ["age", "gender", "occupation"])
        assert (flat.pop("mode"), flat.pop("categories")) == ("2d", None)
        assert cube == flat

    def test_baseline(self, tmp_path):
        ds = load_movielens(*write_movielens_fixture(tmp_path))
        report = baseline_predict(ds, split_kfold(ds, 5, 0), "item_mean")
        expected = (GOLDEN / "baseline_item_mean.json").read_text()
        assert report.to_json(include_timing=False) + "\n" == expected


class TestBaselines:
    def test_global_mean_on_constant_ratings(self, tmp_path):
        lines = [f"{u}::{p}::4::1" for u in range(1, 4) for p in range(10, 14)]
        ratings = tmp_path / "r.dat"
        ratings.write_text("\n".join(lines) + "\n")
        ds = load_movielens(ratings)
        plan = split_kfold(ds, 3, seed=0)
        report = baseline_predict(ds, plan, "global_mean")
        assert report.rmse_mean == pytest.approx(0.0, abs=1e-12)

    def test_item_mean_falls_back_to_global(self, tmp_path):
        lines = ["1::10::5::1", "2::10::5::2", "1::11::1::3", "2::11::1::4", "3::12::3::5"]
        ratings = tmp_path / "r.dat"
        ratings.write_text("\n".join(lines) + "\n")
        ds = load_movielens(ratings)
        plan = split_kfold(ds, 5, seed=0)
        report = baseline_predict(ds, plan, "item_mean")
        # item 12 appears once; the fold holding it must fall back
        assert sum(f.cold_pairs for f in report.per_fold) >= 1

    def test_user_mean_single_user_equals_global(self, tmp_path):
        lines = [f"1::{p}::{r}::1" for p, r in [(10, 1), (11, 3), (12, 5), (13, 2)]]
        ratings = tmp_path / "r.dat"
        ratings.write_text("\n".join(lines) + "\n")
        ds = load_movielens(ratings)
        plan = split_kfold(ds, 2, seed=0)
        a = baseline_predict(ds, plan, "user_mean")
        b = baseline_predict(ds, plan, "global_mean")
        assert a.rmse_mean == pytest.approx(b.rmse_mean, abs=1e-12)

    def test_kind_validation(self):
        ds = synthetic_dataset(0)
        plan = split_kfold(ds, 2, seed=0)
        with pytest.raises(ValueError):
            baseline_predict(ds, plan, "median")


class TestConvergenceTrace:
    """Each report fold keeps the residual trace of its own solve."""

    def test_already_balanced_dataset_one_sweep(self, tmp_path):
        lines = [f"{u}::{p}::1::1" for u in range(1, 4) for p in range(10, 14)]
        ratings = tmp_path / "r.dat"
        ratings.write_text("\n".join(lines) + "\n")
        ds = load_movielens(ratings)
        trace = run_experiment(ds, "2d", ExperimentConfig(n_folds=3, seed=0)).per_fold[0].residual_trace
        assert list(trace) == [0.0]

    def test_trace_non_negative(self):
        ds = synthetic_dataset(2, noise=0.2)
        trace = run_experiment(ds, "2d", ExperimentConfig(n_folds=3, seed=0)).per_fold[0].residual_trace
        assert all(v >= 0.0 for v in trace)
        assert trace[-1] < 1e-10

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("mode", ["2d", "3d"])
    @pytest.mark.parametrize("max_sweeps", [1000, 3], ids=["converged", "capped"])
    def test_every_fold_keeps_its_own_solves_trace(self, tmp_path, mode, threads, max_sweeps):
        ds = load_movielens(*write_movielens_fixture(tmp_path, seed=2))
        config = ExperimentConfig(max_sweeps=max_sweeps, seed=4, threads=threads)
        report = run_experiment(ds, mode, config)
        for fold, result in enumerate(report.per_fold):
            assert list(result.residual_trace) == trace_oracle(ds, config, fold)
            assert result.sweeps == len(result.residual_trace) > 0
            assert result.converged == (max_sweeps == 1000)

    def test_the_json_report_leaves_the_traces_out(self):
        ds = synthetic_dataset(2, noise=0.2)
        report = run_experiment(ds, "2d", ExperimentConfig(n_folds=3, seed=0))
        assert all(len(f.residual_trace) > 1 for f in report.per_fold)
        for include_timing in (True, False):
            folds = report.to_dict(include_timing=include_timing)["per_fold"]
            assert all("residual_trace" not in f for f in folds)

    @pytest.mark.parametrize("kind", evaluate.BASELINE_KINDS)
    def test_a_baseline_solves_nothing(self, kind):
        ds = synthetic_dataset(2, noise=0.2)
        report = baseline_predict(ds, split_kfold(ds, 3, 0), kind)
        assert all(f.residual_trace == () and f.sweeps == 0 for f in report.per_fold)


class TestExperimentConfig:
    @pytest.mark.parametrize("options, message", [
        ({"epsilon": -1.0}, "epsilon must be finite and >= 0"),
        ({"epsilon": float("nan")}, "epsilon must be finite and >= 0"),
        ({"epsilon": float("inf")}, "epsilon must be finite and >= 0"),
        ({"max_sweeps": 0}, "max_sweeps must be an int >= 1, got 0"),
        ({"threads": 0}, "threads must be an int >= 1, got 0"),
        ({"categories": "age"}, "categories must be a sequence of feature names, not the str 'age'"),
        # each of these was taken before, and a run failed only after scoring every fold
        ({"categories": None}, "categories must be a sequence of feature names, got None"),
        ({"categories": 5}, "categories must be a sequence of feature names, got 5"),
        ({"categories": ()}, "at least one feature category is required"),
        ({"categories": ("zodiac",)}, "unknown feature category 'zodiac'; expected age, gender or occupation"),
        ({"categories": ("age", 5)}, "unknown feature category 5; expected age, gender or occupation"),
    ])
    def test_bad_settings_are_refused_at_construction(self, options, message):
        with pytest.raises(ValueError, match=message) as info:
            ExperimentConfig(**options)
        if "categories" in options:
            assert isinstance(info.value, UnknownCategoryError)

    def test_categories_are_read_once_and_kept_as_given(self, tmp_path):
        ds = load_movielens(*write_movielens_fixture(tmp_path))
        config = ExperimentConfig(n_folds=2, categories=iter(["Occup", "age"]))
        assert config.categories == ("Occup", "age")
        assert run_experiment(ds, "3d", config).categories == ["Occup", "age"]

    @pytest.mark.parametrize("n_folds", [1, 0, -3])
    def test_too_few_folds_are_refused_as_split_kfold_refuses_them(self, n_folds):
        with pytest.raises(TooFewRecordsError, match=f"^need at least 2 folds, got {n_folds}$"):
            ExperimentConfig(n_folds=n_folds)

    def test_echo_lists_every_field_in_declaration_order(self):
        config = ExperimentConfig(categories=("age", "gender"), threads=2)
        assert config.echo() == {"epsilon": 1e-10, "max_sweeps": 1000, "n_folds": 5, "seed": 0,
                                 "categories": ["age", "gender"], "threads": 2}
        assert list(config.echo()) == [f.name for f in dataclasses.fields(ExperimentConfig)]


@pytest.mark.parametrize("field, least, value, call", [
    ("max_sweeps", 1, 2.5, lambda v: SolverConfig(max_sweeps=v)),
    ("max_sweeps", 1, True, lambda v: ExperimentConfig(max_sweeps=v)),
    ("threads", 1, 1.5, lambda v: ExperimentConfig(threads=v)),
    ("threads", 1, True, lambda v: ExperimentConfig(threads=v)),
    ("n_folds", 2, 2.5, lambda v: run_experiment(synthetic_dataset(0), "2d", ExperimentConfig(n_folds=v))),
    ("n_folds", 2, 3.0, lambda v: split_kfold(synthetic_dataset(0), v, 0)),
    ("n_folds", 2, 1.5, lambda v: ExperimentConfig(n_folds=v)),
    ("n_folds", 2, True, lambda v: ExperimentConfig(n_folds=v)),
    ("n_folds", 2, "5", lambda v: ExperimentConfig(n_folds=v)),
    ("seed", 0, True, lambda v: split_kfold(synthetic_dataset(0), 3, v)),
    ("seed", 0, 1.0, lambda v: split_kfold(synthetic_dataset(0), 3, v)),
    ("max_offset", 1, 0, lambda v: check_full_support(make_tensor((2, 2), {(0, 0): 1.0}), max_offset=v)),
    ("max_offset", 1, -1, lambda v: check_full_support(make_tensor((2, 2), {(0, 0): 1.0}), max_offset=v)),
    ("max_offset", 1, True, lambda v: check_full_support(make_tensor((2, 2), {(0, 0): 1.0}), max_offset=v)),
    ("n", 1, 2.5, lambda v: top_n(complete_matrix(make_tensor((2, 2), {(0, 0): 1.0})), 0, v)),
    ("n", 1, True, lambda v: top_n(complete_matrix(make_tensor((2, 2), {(0, 0): 1.0})), 0, v)),
])
def test_integer_settings_refuse_floats_and_bools(field, least, value, call):
    # each was taken before: rounded, truncated, read as 1, or failing inside numpy
    with pytest.raises(ValueError, match=f"^{field} must be an int >= {least}, got {value!r}$"):
        call(value)
