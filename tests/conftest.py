import math

import numpy as np
import pytest

from uctensor import (
    DidNotConvergeError,
    LatentModel,
    ScaleSet,
    SolverConfig,
    SparseTensor,
    balance,
    build_tensor_2d,
    make_tensor,
    split_kfold,
    subtensor_families,
)

# tight solver settings for value-level assertions: the default 1e-10
# threshold bounds only the last sweep's movement (~1e-5 in the values)
TIGHT = SolverConfig(epsilon=1e-24, max_sweeps=20_000)


def reversed_balance(tensor, k, config):
    """``balance`` of the axis-reversed tensor, whose first canonical
    family is ``tensor``'s last, so another family is eliminated exactly.
    Each family's scales are mapped back onto ``tensor``'s families.
    Raises DidNotConvergeError unless the solve converges."""
    axis_reversed = SparseTensor(tensor.shape[::-1], tensor.indices[:, ::-1], tensor.values)
    flipped = balance(axis_reversed, k, config)
    logs, nonempty = {}, {}
    for f in flipped.scales.families:
        dims = [flipped.shape[d] for d in f]
        own = tuple(tensor.ndim - 1 - d for d in reversed(f))
        logs[own] = flipped.scales.log[f].reshape(dims).T.ravel()
        nonempty[own] = flipped.scales.nonempty[f].reshape(dims).T.ravel()
    scales = ScaleSet(tensor.shape, k, logs, nonempty)
    return LatentModel(tensor, scales, flipped.sweeps_run, flipped.final_residual, flipped.residual_trace)


def trace_oracle(dataset, config, fold):
    """The residual trace of one fold's solve, from a split and a solve of
    its own: the former ``evaluate.convergence_trace``, for any fold."""
    fold_plan = split_kfold(dataset, config.n_folds, config.seed)
    try:
        model = balance(build_tensor_2d(dataset, fold_plan, fold), 1, config)
    except DidNotConvergeError as exc:
        model = exc.model
    return list(model.residual_trace)


def scale_set(shape, k, scales):
    """A ScaleSet from {family: its positive scales, one per subtensor}:
    the subtensors of a listed family are non-empty, those of an unlisted
    family empty."""
    logs, nonempty = {}, {}
    for fixed in subtensor_families(len(shape), k):
        size = math.prod(shape[d] for d in fixed)
        listed = fixed in scales
        logs[fixed] = np.log(scales[fixed]) if listed else np.zeros(size)
        nonempty[fixed] = np.full(size, listed)
    return ScaleSet(shape, k, logs, nonempty)


@pytest.fixture
def three_entry_2x2():
    """[[2, 8], [4, .]] - the hand-solvable completion instance."""
    return make_tensor((2, 2), {(0, 0): 2.0, (0, 1): 8.0, (1, 0): 4.0})


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def write_movielens_fixture(tmp_path, n_users=30, n_products=20, density=0.5, seed=0):
    """A miniature MovieLens-1M-format pair of files with planted
    multiplicative structure (ratings rounded to 1..5)."""
    rng = np.random.default_rng(seed)
    u = np.exp(rng.uniform(0, np.log(5) / 2, n_users))
    v = np.exp(rng.uniform(0, np.log(5) / 2, n_products))
    lines = []
    for i in range(n_users):
        for j in range(n_products):
            if rng.random() < density:
                rating = int(np.clip(round(u[i] * v[j]), 1, 5))
                lines.append(f"{i + 1}::{j + 101}::{rating}::97830{i:04d}")
    ratings = tmp_path / "ratings.dat"
    ratings.write_text("\n".join(lines) + "\n")

    ages = [1, 18, 25, 35, 45, 50, 56]
    users = tmp_path / "users.dat"
    users.write_text(
        "\n".join(
            f"{i + 1}::{'MF'[int(rng.random() < 0.5)]}::{ages[int(rng.integers(len(ages)))]}"
            f"::{int(rng.integers(0, 21))}::00000"
            for i in range(n_users)
        )
        + "\n"
    )
    return ratings, users


def write_jester_grid(path, n_users=40, n_jokes=12, seed=0):
    """A miniature Jester grid (count column, ratings in [-10, 10] with two
    decimals, 99 for unrated) with planted multiplicative structure: its
    shift is not 0, so a shifted value minus the shift need not give back
    the stored rating."""
    rng = np.random.default_rng(seed)
    u = np.exp(rng.uniform(0, np.log(20) / 2, n_users))
    v = np.exp(rng.uniform(0, np.log(20) / 2, n_jokes))
    grid = np.round(np.clip(np.outer(u, v) - 11 + rng.normal(0, 0.5, (n_users, n_jokes)), -10, 10), 2)
    grid[rng.random(grid.shape) < 0.3] = 99
    path.write_text("".join(f"{int((row != 99).sum())}," + ",".join(map(str, row)) + "\n" for row in grid))
    return path
