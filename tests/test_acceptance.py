"""Acceptance suite: each test is one numbered criterion, printing a
PASS/FAIL line with the measured quantity and asserting the stated
tolerance and time budget.

Criteria 7-10 need the real rating datasets, which are not redistributed
with the code.  Point UCTENSOR_DATA at a directory containing

    ml-1m/ratings.dat      ml-1m/users.dat
    ml-10m/ratings.dat     (optional, criterion 10)
    jester2/jester_ratings.csv

and they run; otherwise they skip with this message.  Everything else is
self-contained and seeded.
"""

import json
import os
import time
from pathlib import Path

import pytest

from uctensor import ExperimentConfig, load_jester, load_movielens, run_experiment
from uctensor import properties

SEED = 0
DATA_ROOT = Path(os.environ.get("UCTENSOR_DATA", Path(__file__).parent.parent / "data"))

ML1M_RMSE, ML1M_MAE = 0.9362, 0.745
JESTER_RMSE, JESTER_MAE = 4.6422, 3.6609
ML10M_RMSE, ML10M_MAE = 0.893, 0.69822
ML1M_3D_PAIR = (0.7359, 0.923578)  # unordered: reported metric pair, all features

# Figure-order feature combinations: occup, age, gender, age-occup,
# gender-occup, age-gender, all
COMBOS = (
    ("occupation",),
    ("age",),
    ("gender",),
    ("age", "occupation"),
    ("gender", "occupation"),
    ("age", "gender"),
    ("age", "gender", "occupation"),
)


def report_line(n, result):
    print(f"criterion {n}: {result.line()}")
    assert result.passed, result.detail


def needs(*relpaths):
    missing = [p for p in relpaths if not (DATA_ROOT / p).exists()]
    if missing:
        pytest.skip(
            f"dataset files not found under {DATA_ROOT} (set UCTENSOR_DATA): "
            + ", ".join(str(m) for m in missing)
        )
    return [DATA_ROOT / p for p in relpaths]


@pytest.fixture(scope="module")
def ml1m():
    ratings, users = needs("ml-1m/ratings.dat", "ml-1m/users.dat")
    return load_movielens(ratings, users_path=users, fmt="1m")


def test_criterion_01_closed_form_oracle():
    result = properties.oracle_2x2(SEED, n=1000)
    report_line(1, result)
    assert result.elapsed < 1.0


def test_criterion_02_rank1_recovery():
    result = properties.rank1_recovery(SEED)
    report_line(2, result)
    assert result.elapsed < 1.0


def test_criterion_03_constraint_satisfaction():
    result = properties.constraint_satisfaction(SEED)
    report_line(3, result)
    assert result.elapsed < 5.0


def test_criterion_04_uniqueness():
    result = properties.uniqueness(SEED)
    report_line(4, result)
    assert result.elapsed < 5.0


def test_criterion_05_unit_consistency():
    result = properties.unit_consistency(SEED)
    report_line(5, result)
    assert result.elapsed < 10.0


def test_criterion_06_consensus_ordering():
    result = properties.consensus_ordering(SEED)
    report_line(6, result)
    assert result.elapsed < 10.0


def test_criterion_07_movielens1m_2d(ml1m):
    t0 = time.perf_counter()
    report = run_experiment(ml1m, "2d", ExperimentConfig(epsilon=1e-10, n_folds=5, seed=SEED))
    elapsed = time.perf_counter() - t0
    sweeps = [f.sweeps for f in report.per_fold]
    print(
        f"criterion 7: RMSE {report.rmse_mean:.4f} (target {ML1M_RMSE} ± 0.02), "
        f"MAE {report.mae_mean:.4f} (target {ML1M_MAE} ± 0.02), "
        f"sweeps/fold {sweeps}, {elapsed:.0f}s"
    )
    assert report.rmse_mean == pytest.approx(ML1M_RMSE, abs=0.02)
    assert report.mae_mean == pytest.approx(ML1M_MAE, abs=0.02)
    assert all(f.converged for f in report.per_fold)
    assert max(sweeps) <= 60


def test_criterion_08_jester2_2d():
    (path,) = needs("jester2/jester_ratings.csv")
    dataset = load_jester(path)
    report = run_experiment(dataset, "2d", ExperimentConfig(epsilon=1e-10, n_folds=5, seed=SEED))
    print(
        f"criterion 8: RMSE {report.rmse_mean:.4f} (target {JESTER_RMSE} ± 0.15), "
        f"MAE {report.mae_mean:.4f} (target {JESTER_MAE} ± 0.15)"
    )
    assert report.rmse_mean == pytest.approx(JESTER_RMSE, abs=0.15)
    assert report.mae_mean == pytest.approx(JESTER_MAE, abs=0.15)


def test_criterion_09_movielens1m_3d_feature_combinations(ml1m):
    reports = {}
    for combo in COMBOS:
        config = ExperimentConfig(epsilon=1e-10, n_folds=5, seed=SEED, categories=combo)
        reports[combo] = run_experiment(ml1m, "3d", config)

    full = reports[COMBOS[-1]]
    pair = sorted((full.rmse_mean, full.mae_mean))
    target = sorted(ML1M_3D_PAIR)
    print(
        f"criterion 9: all-features metric pair ({pair[0]:.4f}, {pair[1]:.4f}), "
        f"target ({target[0]:.4f} ± 0.02, {target[1]:.4f} ± 0.02)"
    )
    assert pair[0] == pytest.approx(target[0], abs=0.02)
    assert pair[1] == pytest.approx(target[1], abs=0.02)

    rmses = [r.rmse_mean for r in reports.values()]
    maes = [r.mae_mean for r in reports.values()]
    spread_rmse = max(rmses) - min(rmses)
    spread_mae = max(maes) - min(maes)
    print(f"criterion 9: combination spread rmse {spread_rmse:.4f}, mae {spread_mae:.4f}")
    assert spread_rmse <= 0.01
    assert spread_mae <= 0.01


def test_criterion_10_movielens10m_2d_extended():
    (path,) = needs("ml-10m/ratings.dat")
    dataset = load_movielens(path, fmt="10m")
    report = run_experiment(dataset, "2d", ExperimentConfig(epsilon=1e-10, n_folds=5, seed=SEED))
    print(
        f"criterion 10: RMSE {report.rmse_mean:.4f} (target {ML10M_RMSE} ± 0.03), "
        f"MAE {report.mae_mean:.4f} (target {ML10M_MAE} ± 0.03)"
    )
    assert report.rmse_mean == pytest.approx(ML10M_RMSE, abs=0.03)
    assert report.mae_mean == pytest.approx(ML10M_MAE, abs=0.03)


def test_criterion_11_determinism():
    """Bit-identical outcomes under a fixed seed: the dedicated determinism
    suite (solver bits + canonical report bytes) plus a full double run of
    the seeded criteria suites.  When the datasets are present, rerunning
    criteria 7-9 reproduces byte-identical canonical reports too, since
    they ride the same seeded pipeline; set UCTENSOR_DETERMINISM_FULL=1 to
    pay for that double run."""
    result = properties.determinism(SEED)
    report_line(11, result)

    first = properties.run_all(SEED)
    second = properties.run_all(SEED)
    assert [(r.name, r.passed, r.detail) for r in first] == [
        (r.name, r.passed, r.detail) for r in second
    ]

    if os.environ.get("UCTENSOR_DETERMINISM_FULL") == "1":
        ratings = DATA_ROOT / "ml-1m/ratings.dat"
        if ratings.exists():
            ds = load_movielens(ratings)
            cfg = ExperimentConfig(epsilon=1e-10, n_folds=5, seed=SEED)
            a = run_experiment(ds, "2d", cfg).to_json(include_timing=False)
            b = run_experiment(ds, "2d", cfg).to_json(include_timing=False)
            assert a == b
            assert json.loads(a)["rmse_mean"] == json.loads(b)["rmse_mean"]
