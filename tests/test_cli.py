import json
from types import SimpleNamespace

import numpy as np
import pytest

from uctensor import (
    CompletedTensor,
    ExperimentConfig,
    SolverConfig,
    balance,
    complete,
    load_jester,
    load_model,
    load_movielens,
    load_tensor_text,
    properties,
    top_n,
)
from uctensor.cli import build_parser, main
from uctensor.datasets import records_tensor

from conftest import trace_oracle, write_jester_grid, write_movielens_fixture

TOY = "shape 2,2\n0,0,2.0\n0,1,8.0\n1,0,4.0\n"


@pytest.fixture
def toy_tensor(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text(TOY)
    return path


def read_cells(path):
    cells = {}
    with open(path) as fh:
        assert fh.readline().startswith("shape")
        for line in fh:
            *idx, value = line.strip().split(",")
            cells[tuple(int(i) for i in idx)] = float(value)
    return cells


class TestComplete:
    def test_toy_completion(self, toy_tensor, tmp_path, capsys):
        out = tmp_path / "completed.txt"
        code = main(["complete", "--input", str(toy_tensor), "--out", str(out),
                     "--epsilon", "1e-18"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "sweeps=" in printed and "final_residual=" in printed
        cells = read_cells(out)
        assert cells[(1, 1)] == pytest.approx(16.0, rel=1e-8)
        assert cells[(0, 0)] == 2.0

    def test_out_lists_every_cell_in_row_major_order(self, toy_tensor, tmp_path):
        # the listing's bytes: a shape header, then each cell's indices and
        # the repr of its value
        out = tmp_path / "completed.txt"
        assert main(["complete", "--input", str(toy_tensor), "--out", str(out),
                     "--epsilon", "1e-18"]) == 0
        dense = complete(load_tensor_text(toy_tensor), 1, SolverConfig(epsilon=1e-18)).to_dense()
        expected = "shape 2,2\n" + "".join(
            f"{i},{j},{float(dense[i, j])!r}\n" for i, j in np.ndindex(*dense.shape)
        )
        assert out.read_text() == expected

    def test_fully_observed_round_trips(self, tmp_path):
        src = tmp_path / "full.txt"
        src.write_text("shape 2,2\n0,0,2.0\n0,1,8.0\n1,0,4.0\n1,1,16.0\n")
        out = tmp_path / "completed.txt"
        assert main(["complete", "--input", str(src), "--out", str(out)]) == 0
        assert read_cells(out) == read_cells(src)

    def test_k_of_at_least_d_reads_the_file_then_fails(self, toy_tensor, capsys):
        # argparse refuses k < 1; the upper limit D - 1 depends on the file
        assert main(["complete", "--input", str(toy_tensor), "--k", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_file(self, tmp_path, capsys):
        code = main(["complete", "--input", str(tmp_path / "nope.txt")])
        assert code == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_dense_listing_too_large_is_refused(self, tmp_path, capsys):
        src, out = tmp_path / "big.txt", tmp_path / "out.txt"
        src.write_text("shape 4000,2501\n0,0,2.0\n")
        assert main(["complete", "--input", str(src), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 10004000 cells is too large for a dense listing; use --model-out")
        assert not out.exists()

    def test_shape_too_big_to_index(self, tmp_path, capsys):
        src = tmp_path / "huge.txt"
        src.write_text("shape 10000000,10000000,10000000\n0,0,0,2.0\n")
        assert main(["complete", "--input", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "10000000" in err and "int64" in err

    @pytest.mark.parametrize("index", ["99999999999999999999", "-9223372036854775809"])
    def test_index_beyond_int64(self, tmp_path, capsys, index):
        src = tmp_path / "t.txt"
        src.write_text(f"shape 3,3\n{index},0,2.0\n")
        assert main(["complete", "--input", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}:2: {index} does not fit in 64 bits")


def model_of(tensor_file, tmp_path):
    """The model file ``complete --model-out`` writes for a tensor file."""
    model = tmp_path / "model.bin"
    assert main(["complete", "--input", str(tensor_file), "--model-out", str(model)]) == 0
    return model


def fitted(dataset, ratings, tmp_path):
    """The model file ``fit`` writes for a ratings file."""
    model = tmp_path / f"{dataset}.bin"
    assert main(["fit", "--dataset", dataset, "--ratings", str(ratings), "--model-out", str(model)]) == 0
    return model


def oracle_lines(ds, user, top, exclude_observed):
    """What ``recommend`` prints for raw user ``user`` of dataset ``ds``,
    from the library alone: top_n on the completion of all its records,
    each unshifted rating clipped to the native range."""
    completed = CompletedTensor(balance(records_tensor(ds), 1))
    raw_products = {dense: raw for raw, dense in ds.products.items()}
    picks = top_n(completed, ds.users[user], top, exclude_observed=exclude_observed)
    return "".join(f"{rank}\t{raw_products[pred.product]}\t{np.clip(pred.rating - ds.shift, *ds.native_range):.4f}"
                   f"\t{pred.source}\n" for rank, pred in enumerate(picks, start=1))


class TestFit:
    def test_prints_the_solve_and_writes_the_vocabularies(self, tmp_path, capsys):
        ratings, _ = write_movielens_fixture(tmp_path, seed=4)
        model = fitted("movielens1m", ratings, tmp_path)
        printed = capsys.readouterr().out.splitlines()
        assert printed[0].startswith("sweeps=") and "final_residual=" in printed[0]
        assert printed[1] == f"model written to {model}"
        ds = load_movielens(ratings)
        _, doc = load_model(model)
        assert doc["users"] == ds.users and doc["products"] == ds.products
        assert (doc["shift"], tuple(doc["native_range"])) == (ds.shift, ds.native_range)
        assert doc["config"] == {"epsilon": 1e-10, "k": 1}

    @pytest.mark.parametrize("exclude", [False, True], ids=["all", "exclude-observed"])
    @pytest.mark.parametrize("dataset, users", [("movielens1m", [1, 7, 30]), ("jester2", [0, 5, 39])])
    def test_recommend_serves_the_library_top_n(self, tmp_path, capsys, dataset, users, exclude):
        if dataset == "jester2":
            ratings = write_jester_grid(tmp_path / "jester.csv")
            ds = load_jester(ratings)
            assert ds.shift != 0
        else:
            ratings, _ = write_movielens_fixture(tmp_path, seed=4)
            ds = load_movielens(ratings)
        model = fitted(dataset, ratings, tmp_path)
        for user in users:
            capsys.readouterr()
            assert main(["recommend", "--model", str(model), "--user", str(user), "--top", "5"]
                        + ["--exclude-observed"] * exclude) == 0
            assert capsys.readouterr().out == oracle_lines(ds, user, 5, exclude)

    def test_a_malformed_users_file_stops_no_run_that_ignores_features(self, tmp_path, capsys):
        root = tmp_path / "data"
        (root / "ml-1m").mkdir(parents=True)
        write_movielens_fixture(root / "ml-1m", seed=4)
        (root / "ml-1m" / "users.dat").write_text("1::X::25::3::00000\n")
        base = ["--dataset", "movielens1m", "--data-root", str(root)]
        assert main(["fit", *base, "--model-out", str(tmp_path / "m.bin")]) == 0
        assert main(["evaluate", *base, "--folds", "3"]) == 0
        capsys.readouterr()
        # a 3-D run reads the file, and refuses it
        assert main(["evaluate", *base, "--folds", "3", "--mode", "3d"]) == 1
        assert "gender must be M or F" in capsys.readouterr().err

    def test_served_ratings_stay_within_the_native_range(self, tmp_path, capsys):
        # [[1, 5, .], [5, ., .], [., 1, 5]]: the fills run from 0.2 to 125 stars
        ratings = tmp_path / "ratings.dat"
        ratings.write_text("1::101::1::0\n1::102::5::0\n2::101::5::0\n3::102::1::0\n3::103::5::0\n")
        ds = load_movielens(ratings)
        fills = CompletedTensor(balance(records_tensor(ds), 1)).to_dense() - ds.shift
        assert fills.min() < 1 and fills.max() > 5
        model = fitted("movielens1m", ratings, tmp_path)
        for user in ds.users:
            capsys.readouterr()
            assert main(["recommend", "--model", str(model), "--user", str(user), "--top", "3"]) == 0
            printed = capsys.readouterr().out
            assert printed == oracle_lines(ds, user, 3, False)
            assert all(1.0 <= float(line.split("\t")[2]) <= 5.0 for line in printed.splitlines())

    def test_missing_ratings_file(self, tmp_path, capsys):
        code = main(["fit", "--dataset", "jester2", "--ratings", str(tmp_path / "nope.csv"),
                     "--model-out", str(tmp_path / "m.bin")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ratings file not found")
        assert not (tmp_path / "m.bin").exists()


class TestRecommend:
    def test_from_model_file(self, toy_tensor, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["complete", "--input", str(toy_tensor), "--model-out", str(model),
                     "--epsilon", "1e-18"]) == 0
        capsys.readouterr()
        assert main(["recommend", "--model", str(model), "--user", "1", "--top", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rank1 = lines[0].split("\t")
        assert rank1[1] == "1"  # product 1 tops the list
        assert float(rank1[2]) == pytest.approx(16.0, rel=1e-6)

    def test_exclude_observed_with_everything_rated(self, tmp_path, capsys):
        src = tmp_path / "full.txt"
        src.write_text("shape 1,2\n0,0,2.0\n0,1,8.0\n")
        model = model_of(src, tmp_path)
        capsys.readouterr()
        code = main(["recommend", "--model", str(model), "--user", "0", "--top", "5", "--exclude-observed"])
        assert code == 0
        assert capsys.readouterr().out.strip() == ""

    def test_unknown_user(self, toy_tensor, tmp_path, capsys):
        code = main(["recommend", "--model", str(model_of(toy_tensor, tmp_path)), "--user", "99", "--top", "2"])
        assert code == 1
        assert "unknown user" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("raw", ["abc", "1.5", "-1"])
    def test_unknown_user_id_of_a_tensor(self, toy_tensor, tmp_path, capsys, raw):
        code = main(["recommend", "--model", str(model_of(toy_tensor, tmp_path)), "--user", raw, "--top", "2"])
        assert code == 1
        assert capsys.readouterr().err == f"error: unknown user id {raw!r}\n"

    def test_user_id_not_in_the_vocabulary(self, tmp_path, capsys):
        ratings, _ = write_movielens_fixture(tmp_path, seed=4)
        model = fitted("movielens1m", ratings, tmp_path)
        code = main(["recommend", "--model", str(model), "--user", "abc", "--top", "3"])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown user id 'abc'\n"

    @pytest.mark.parametrize("top", ["0", "-2", "x"])
    def test_top_below_one_is_a_usage_error(self, capsys, top):
        with pytest.raises(SystemExit) as err:
            main(["recommend", "--model", "m", "--user", "1", "--top", top])
        assert err.value.code == 2
        assert "--top" in capsys.readouterr().err

    def test_trained_from_dataset_prints_raw_ids(self, tmp_path, capsys):
        ratings, _ = write_movielens_fixture(tmp_path, seed=4)
        model = fitted("movielens1m", ratings, tmp_path)
        capsys.readouterr()
        code = main(["recommend", "--model", str(model), "--user", "1", "--top", "3", "--exclude-observed"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) <= 3
        for line in lines:
            _, raw_product, rating, source = line.split("\t")
            assert int(raw_product) >= 101  # raw movie ids, not dense indices
            assert source == "completed"
            assert float(rating) > 0


class TestEvaluate:
    def test_report_and_determinism(self, tmp_path, capsys):
        ratings, users = write_movielens_fixture(tmp_path, seed=4)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        base = ["evaluate", "--dataset", "movielens1m", "--ratings", str(ratings),
                "--folds", "3", "--seed", "0", "--omit-timings"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["mode"] == "2d"
        assert len(report["per_fold"]) == 3
        assert "RMSE" in capsys.readouterr().out

    def test_3d_without_features_fails(self, tmp_path, capsys):
        ratings, _ = write_movielens_fixture(tmp_path, seed=4)
        code = main(["evaluate", "--dataset", "movielens10m", "--ratings", str(ratings),
                     "--mode", "3d", "--folds", "3"])
        assert code == 1
        assert "feature" in capsys.readouterr().err.lower()

    def test_an_empty_features_list_fails(self, tmp_path, capsys):
        ratings, users = write_movielens_fixture(tmp_path, seed=4)
        out = tmp_path / "report.json"
        code = main(["evaluate", "--dataset", "movielens1m", "--ratings", str(ratings), "--users", str(users),
                     "--mode", "3d", "--features", "", "--folds", "3", "--out", str(out)])
        assert code == 1
        assert "unknown feature category ''" in capsys.readouterr().err
        assert not out.exists()

    def test_baseline_and_trace(self, tmp_path, capsys):
        ratings, _ = write_movielens_fixture(tmp_path, seed=4)
        trace = tmp_path / "trace.csv"
        assert main(["evaluate", "--dataset", "movielens1m", "--ratings", str(ratings),
                     "--folds", "3", "--baseline", "global_mean"]) == 0
        assert main(["evaluate", "--dataset", "movielens1m", "--ratings", str(ratings),
                     "--folds", "3", "--trace-out", str(trace)]) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "sweep,residual"
        assert len(lines) >= 2

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("mode", ["2d", "3d"])
    def test_trace_out_is_fold_0s_trace(self, tmp_path, mode, threads):
        ratings, users = write_movielens_fixture(tmp_path, seed=4)
        trace = tmp_path / "trace.csv"
        features = ["--users", str(users)] if mode == "3d" else []  # a 2-D run reads none
        assert main(["evaluate", "--dataset", "movielens1m", "--ratings", str(ratings), *features,
                     "--mode", mode, "--folds", "3", "--seed", "2",
                     "--threads", str(threads), "--trace-out", str(trace)]) == 0
        residuals = trace_oracle(load_movielens(ratings, users), ExperimentConfig(n_folds=3, seed=2), 0)
        expected = "sweep,residual\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(residuals, start=1))
        assert trace.read_bytes() == expected.encode()

    def test_a_baseline_has_no_trace_to_write(self, tmp_path, capsys):
        ratings, _ = write_movielens_fixture(tmp_path, seed=4)
        trace = tmp_path / "trace.csv"
        with pytest.raises(SystemExit) as err:
            main(["evaluate", "--dataset", "movielens1m", "--ratings", str(ratings),
                  "--baseline", "item_mean", "--trace-out", str(trace)])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not trace.exists()

    @pytest.mark.parametrize("run, named", [
        (["--baseline", "item_mean", "--mode", "3d"], "--mode"),
        (["--baseline", "item_mean", "--mode", "2d"], "--mode"),
        (["--baseline", "item_mean", "--users", "users.dat"], "--users"),
        (["--baseline", "item_mean", "--features", "age"], "--features"),
        (["--baseline", "item_mean", "--threads", "2"], "--threads"),
        (["--baseline", "item_mean", "--epsilon", "0.5"], "--epsilon"),
        (["--baseline", "item_mean", "--max-sweeps", "3"], "--max-sweeps"),
        (["--baseline", "item_mean", "--mode", "3d", "--features", "age", "--threads", "2",
          "--epsilon", "0.5", "--max-sweeps", "3"],
         "--mode, --features, --threads, --epsilon, --max-sweeps not read by a baseline run"),
        (["--users", "users.dat"], "--users not read by a 2-D run"),
        (["--features", "zodiac"], "--features"),
        (["--mode", "2d", "--users", "users.dat", "--features", "age"], "--users, --features"),
    ])
    def test_a_flag_the_run_does_not_read_is_a_usage_error(self, tmp_path, capsys, run, named):
        # the ratings file does not exist: the refusal comes before any read
        with pytest.raises(SystemExit) as err:
            main(["evaluate", "--dataset", "movielens1m", "--ratings", str(tmp_path / "nope.dat"), *run])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert named in message and "not read by" in message


class TestCheck:
    def test_default_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_a_completion_one_percent_off_fails_the_oracle(self, monkeypatch, capsys):
        real = properties.complete_matrix

        def one_percent_off(matrix, config=None):
            completed = real(matrix, config)
            return SimpleNamespace(
                value_at=lambda index: completed.value_at(index) * 1.01,
                values_at=lambda indices: completed.values_at(indices) * 1.01,
            )

        monkeypatch.setattr(properties, "complete_matrix", one_percent_off)
        assert properties.oracle_2x2(0, n=20).passed is False
        assert main(["check"]) == 1
        assert "FAIL  closed-form 2x2 oracle" in capsys.readouterr().out

    def test_loose_epsilon_fails_constraints(self, monkeypatch, capsys):
        real = properties.balance
        monkeypatch.setattr(properties, "balance",
                            lambda tensor, k, config=None: real(tensor, k, SolverConfig(epsilon=1e-2)))
        assert main(["check"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  balance constraint satisfaction" in out
        assert "max |subtensor product - 1|" in out


class TestUsage:
    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["evaluate", "--dataset", "not-a-dataset"])
        assert err.value.code == 2

    def test_no_command_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv, flag", [
        (["complete", "--input", "t.txt", "--max-sweeps", "0"], "--max-sweeps"),
        (["complete", "--input", "t.txt", "--epsilon", "-1"], "--epsilon"),
        (["complete", "--input", "t.txt", "--epsilon", "nan"], "--epsilon"),
        (["complete", "--input", "t.txt", "--epsilon", "inf"], "--epsilon"),
        (["fit", "--dataset", "jester2", "--model-out", "m", "--max-sweeps", "-3"], "--max-sweeps"),
        (["fit", "--dataset", "jester2", "--model-out", "m", "--epsilon", "-1"], "--epsilon"),
        (["evaluate", "--dataset", "movielens1m", "--threads", "0"], "--threads"),
        (["evaluate", "--dataset", "movielens1m", "--max-sweeps", "x"], "--max-sweeps"),
        (["evaluate", "--dataset", "movielens1m", "--seed", "-1"], "--seed"),
        (["check", "--seed", "-1"], "--seed"),
        (["evaluate", "--dataset", "movielens1m", "--folds", "1"], "--folds"),
        (["evaluate", "--dataset", "movielens1m", "--folds", "0"], "--folds"),
        (["evaluate", "--dataset", "movielens1m", "--folds", "-2"], "--folds"),
        (["complete", "--input", "t.txt", "--k", "0"], "--k"),
        (["complete", "--input", "t.txt", "--k", "-1"], "--k"),
    ])
    def test_out_of_range_value_is_a_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["complete", "--input", "t.txt", "--seed", "1"],
        ["complete", "--input", "t.txt", "--threads", "2"],
        ["complete", "--input", "t.txt", "--data-root", "d"],
        ["recommend", "--model", "m", "--user", "1", "--seed", "1"],
        ["recommend", "--model", "m", "--user", "1", "--threads", "2"],
        ["recommend", "--model", "m", "--user", "1", "--dataset", "movielens1m"],
        ["recommend", "--model", "m", "--user", "1", "--epsilon", "1e-6"],
        ["recommend", "--model", "m", "--user", "1", "--data-root", "d"],
        ["fit", "--dataset", "movielens1m", "--model-out", "m", "--users", "users.dat"],
        ["fit", "--dataset", "movielens1m", "--model-out", "m", "--seed", "1"],
        ["check", "--epsilon", "1e-3"],
        ["check", "--max-sweeps", "10"],
        ["check", "--threads", "2"],
        ["check", "--data-root", "d"],
    ])
    def test_flag_a_command_ignores_is_not_offered(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_flags_where_they_are_read(self):
        parser = build_parser()
        args = parser.parse_args(["complete", "--input", "t.txt", "--epsilon", "0", "--max-sweeps", "5"])
        assert (args.epsilon, args.max_sweeps) == (0.0, 5)
        args = parser.parse_args(["evaluate", "--dataset", "jester2", "--seed", "3", "--threads", "2",
                                  "--data-root", "d", "--epsilon", "1e-8", "--max-sweeps", "7"])
        assert (args.seed, args.threads, args.data_root, args.epsilon, args.max_sweeps) == (3, 2, "d", 1e-8, 7)
        args = parser.parse_args(["fit", "--dataset", "jester2", "--model-out", "m", "--data-root", "d",
                                  "--epsilon", "1e-6"])
        assert (args.data_root, args.epsilon, args.max_sweeps) == ("d", 1e-6, 1000)
        args = parser.parse_args(["check", "--seed", "2"])
        assert (args.seed, hasattr(args, "epsilon")) == (2, False)

    def test_solver_defaults_agree(self):
        parser = build_parser()
        solver = SolverConfig()
        assert (ExperimentConfig().epsilon, ExperimentConfig().max_sweeps) == (solver.epsilon, solver.max_sweeps)
        for argv in (["complete", "--input", "t.txt"], ["fit", "--dataset", "jester2", "--model-out", "m"]):
            args = parser.parse_args(argv)
            assert (args.epsilon, args.max_sweeps) == (solver.epsilon, solver.max_sweeps)
