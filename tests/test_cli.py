import json
from types import SimpleNamespace

import numpy as np
import pytest

from uctensor import ExperimentConfig, SolverConfig, complete, load_movielens, load_tensor_text, properties
from uctensor.cli import build_parser, main

from conftest import trace_oracle, write_movielens_fixture

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

    def test_missing_file(self, tmp_path, capsys):
        code = main(["complete", "--input", str(tmp_path / "nope.txt")])
        assert code == 1
        assert "error" in capsys.readouterr().err.lower()

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
        code = main(["recommend", "--dataset", "tensor", "--input", str(src),
                     "--user", "0", "--top", "5", "--exclude-observed"])
        assert code == 0
        assert capsys.readouterr().out.strip() == ""

    def test_unknown_user(self, toy_tensor, capsys):
        code = main(["recommend", "--dataset", "tensor", "--input", str(toy_tensor),
                     "--user", "99", "--top", "2"])
        assert code == 1
        assert "unknown user" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("raw", ["abc", "1.5", "-1"])
    def test_unknown_user_id_of_a_tensor(self, toy_tensor, capsys, raw):
        code = main(["recommend", "--dataset", "tensor", "--input", str(toy_tensor),
                     "--user", raw, "--top", "2"])
        assert code == 1
        assert capsys.readouterr().err == f"error: unknown user id {raw!r}\n"

    def test_user_id_not_in_the_vocabulary(self, tmp_path, capsys):
        ratings, _ = write_movielens_fixture(tmp_path, seed=4)
        code = main(["recommend", "--dataset", "movielens1m", "--ratings", str(ratings),
                     "--user", "abc", "--top", "3"])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown user id 'abc'\n"

    @pytest.mark.parametrize("top", ["0", "-2", "x"])
    def test_top_below_one_is_a_usage_error(self, toy_tensor, capsys, top):
        with pytest.raises(SystemExit) as err:
            main(["recommend", "--dataset", "tensor", "--input", str(toy_tensor),
                  "--user", "1", "--top", top])
        assert err.value.code == 2
        assert "--top" in capsys.readouterr().err

    def test_trained_from_dataset_prints_raw_ids(self, tmp_path, capsys):
        ratings, _ = write_movielens_fixture(tmp_path, seed=4)
        code = main(["recommend", "--dataset", "movielens1m", "--ratings", str(ratings),
                     "--user", "1", "--top", "3", "--exclude-observed"])
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
        assert main(["evaluate", "--dataset", "movielens1m", "--ratings", str(ratings),
                     "--users", str(users), "--mode", mode, "--folds", "3", "--seed", "2",
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

    def test_loose_epsilon_fails_constraints(self, capsys):
        assert main(["check", "--epsilon", "1e-2"]) == 1
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
        (["recommend", "--user", "1", "--max-sweeps", "-3"], "--max-sweeps"),
        (["check", "--epsilon", "-inf"], "--epsilon"),
        (["evaluate", "--dataset", "movielens1m", "--threads", "0"], "--threads"),
        (["evaluate", "--dataset", "movielens1m", "--max-sweeps", "x"], "--max-sweeps"),
        (["evaluate", "--dataset", "movielens1m", "--seed", "-1"], "--seed"),
        (["check", "--seed", "-1"], "--seed"),
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
        ["recommend", "--user", "1", "--seed", "1"],
        ["recommend", "--user", "1", "--threads", "2"],
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
        args = parser.parse_args(["recommend", "--user", "1", "--data-root", "d", "--epsilon", "1e-6"])
        assert (args.data_root, args.epsilon, args.max_sweeps) == ("d", 1e-6, 1000)
        args = parser.parse_args(["check", "--seed", "2", "--epsilon", "1e-3"])
        assert (args.seed, args.epsilon) == (2, 1e-3)
