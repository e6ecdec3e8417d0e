"""Walkthrough: the full recommender benchmark loop - ingest, split,
balance, predict, score - on a synthetic dataset, plus the real MovieLens
1M run when the data is available locally.

Run:  python demos/04_recommender_benchmark.py
Data: set UCTENSOR_DATA to a directory holding ml-1m/ratings.dat (and
      ml-1m/users.dat) to include the real benchmark at the end.
"""

import os
from pathlib import Path

from uctensor import (
    CompletedTensor,
    ExperimentConfig,
    SolverConfig,
    balance,
    baseline_predict,
    load_movielens,
    run_experiment,
    split_kfold,
    top_n,
)
from uctensor.datasets import records_tensor
from uctensor.properties import synthetic_dataset

# ---------------------------------------------------------------------------
# A planted multiplicative dataset: rating(u, p) = quality_u * appeal_p.
# The method should nail this (it learns exactly such scales), while the
# mean baselines cannot.
# ---------------------------------------------------------------------------
ds = synthetic_dataset(seed=42, n_users=120, n_products=80, density=0.25, noise=0.05)
print(f"synthetic dataset: {len(ds.rating_values)} ratings, "
      f"{ds.n_users} users x {ds.n_products} products")

config = ExperimentConfig(epsilon=1e-10, n_folds=5, seed=0)
report = run_experiment(ds, "2d", config)
print("\n" + report.summary())

plan = split_kfold(ds, 5, seed=0)
for kind in ("global_mean", "user_mean", "item_mean"):
    print(baseline_predict(ds, plan, kind).summary())

# ---------------------------------------------------------------------------
# Serving: train once on everything, then each query is a couple of array
# lookups (product of two inverse scales).
# ---------------------------------------------------------------------------
completed = CompletedTensor(balance(records_tensor(ds), 1, SolverConfig(epsilon=1e-10)))

user = 11
picks = top_n(completed, user, 5, exclude_observed=True)
print(f"\ntop-5 unseen products for user {user}:")
for rank, pred in enumerate(picks, start=1):
    print(f"  {rank}. product {pred.product:3d}  predicted {pred.rating - ds.shift:.3f}")

# ---------------------------------------------------------------------------
# The real thing, if the data is on disk.
# ---------------------------------------------------------------------------
root = Path(os.environ.get("UCTENSOR_DATA", "data"))
ratings = root / "ml-1m" / "ratings.dat"
if ratings.exists():
    print("\nMovieLens 1M, 5-fold cross-validation (this takes a minute)...")
    ml = load_movielens(ratings, fmt="1m")
    print(run_experiment(ml, "2d", config).summary())
    print(baseline_predict(ml, split_kfold(ml, 5, 0), "item_mean").summary())
else:
    print(f"\n(no MovieLens data under {root}; skipping the real benchmark)")
