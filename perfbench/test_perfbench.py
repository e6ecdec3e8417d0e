"""Tests of the benchmark itself: deterministic inputs, a tracer that leaves
results unchanged, and the exit status outside a checkout."""

import filecmp
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench_gen
import bench_spans
import uctensor as uc

TINY = {"n_users": 120, "n_items": 80, "n_pairs": 2500}


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        bench_gen.write_ratings(tmp_path / name, seed, **TINY)
    for f in ("ratings.dat", "users.dat"):
        assert filecmp.cmp(tmp_path / "a" / f, tmp_path / "b" / f, shallow=False)
        assert not filecmp.cmp(tmp_path / "a" / f, tmp_path / "c" / f, shallow=False)


def test_chain_inputs_are_deterministic(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        bench_gen.write_inputs("chain-solve", seed, tmp_path / name)
    same = [np.load(tmp_path / n / "chain.npz")["values"] for n in ("a", "b", "c")]
    assert np.array_equal(same[0], same[1])
    assert not np.array_equal(same[0], same[2])
    assert len(same[0]) == 548  # 80 x 80 band of half-width 3


def test_full_size_ratings_are_deterministic_unique_and_exact():
    a, b = bench_gen.rating_arrays(9), bench_gen.rating_arrays(9)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    pairs = a["user_id"] * 10_000 + a["item_id"]
    assert len(pairs) == len(np.unique(pairs)) == bench_gen.ML1M_PAIRS
    assert len(np.unique(a["user_id"])) == bench_gen.ML1M_USERS
    assert len(np.unique(a["item_id"])) == bench_gen.ML1M_ITEMS


def test_ratings_are_unique_pairs_with_exact_counts(tmp_path):
    bench_gen.write_ratings(tmp_path, 7, **TINY)
    ds = uc.load_movielens(tmp_path / "ratings.dat", tmp_path / "users.dat")
    assert ds.duplicates_dropped == 0
    assert len(ds.rating_values) == TINY["n_pairs"]
    assert (ds.n_users, ds.n_products) == (TINY["n_users"], TINY["n_items"])
    assert set(np.unique(ds.rating_values)) <= {1.0, 2.0, 3.0, 4.0, 5.0}
    assert len(ds.features) == TINY["n_users"]


def _report(ds, mode):
    config = uc.ExperimentConfig(n_folds=3, threads=1)
    return uc.run_experiment(ds, mode, config).to_dict(include_timing=False)


@pytest.mark.parametrize("mode", ["2d", "3d"])
def test_traced_run_leaves_report_unchanged(tmp_path, mode):
    bench_gen.write_ratings(tmp_path, 3, **TINY)
    ds = uc.load_movielens(tmp_path / "ratings.dat", tmp_path / "users.dat")
    originals = {name: getattr(uc, name) for name in ("balance", "run_experiment", "top_n")}
    init = uc.SparseTensor.__init__
    plain = _report(ds, mode)

    tracer = bench_spans.Tracer()
    with tracer:
        root = tracer.open_root("bench.job")
        traced = uc.run_experiment(ds, mode, uc.ExperimentConfig(n_folds=3, threads=1))
        tracer.close_root(root)
    assert traced.to_dict(include_timing=False) == plain

    assert uc.SparseTensor.__init__ is init
    assert {name: getattr(uc, name) for name in originals} == originals
    names = {s[bench_spans.NAME] for s in tracer.spans}
    assert {"evaluate.run_experiment", "evaluate.fold", "balance.balance", "tensor.construct"} <= names
    assert "datasets.build_tensor" in names and "evaluate.metrics" in names

    metrics = bench_spans.layer_metrics(tracer.spans, 1)
    assert metrics["trace.self_sum_s"][0] == pytest.approx(root[4] - root[3], rel=1e-9)
    assert metrics["balance.converged_ratio"][0] == 1.0
    assert metrics["evaluate.pairs"][0] == len(ds.rating_values)


def test_calls_outside_a_job_record_no_spans():
    tensor = uc.make_tensor((2, 2), {(0, 0): 2.0, (0, 1): 8.0, (1, 0): 4.0})
    tracer = bench_spans.Tracer()
    with tracer:
        uc.complete(tensor, 1)
    assert tracer.spans == []


def test_self_times_subtract_children():
    spans = [
        [0, "bench.job", -1, 0.0, 10.0, {}],
        [1, "evaluate.fold", 0, 1.0, 7.0, {}],
        [2, "balance.balance", 1, 2.0, 5.0, {}],
        [3, "evaluate.metrics", 1, 5.0, 6.0, {}],
    ]
    assert bench_spans.self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_exits_nonzero_without_the_package(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-solve", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
