"""Deterministic input generators for the benchmark.

Every input is a pure function of the seed: the same seed writes
byte-identical files, a different seed writes different ones.

* ``rating_arrays`` / ``write_ratings``: a MovieLens-shaped rating set, by
  default MovieLens-1M's 6040 users x 3706 items and 1,000,209 unique
  pairs (``SMALL`` gives 300 x 500 and 20,000), in the ``ratings.dat``
  / ``users.dat`` formats.  Pairs are drawn without replacement under
  power-law user and item popularity (an exponential race: each cell
  gets the key Exp(1) / (user weight * item weight) and the smallest keys
  win), after one reserved pair per user and per item so that every id
  occurs.  A rating is a planted multiplicative signal (user, item, and a
  mild per-demographic x item effect) times log-normal noise, rounded to
  1..5.
* ``chain_arrays``: a rank-1 square matrix observed only on a narrow band
  around the diagonal, the slowest-mixing connected pattern.
* ``Records`` / ``train``: the rating set as a users x items tensor, and
  the model ``persist`` and ``serve-topn`` train on it.

The cross-validation workloads and ``persist`` use the ``SMALL`` sizes:
each call into the package then takes 30-100 ms, so a run holds enough
calls for the fastest of them to repeat across runs.  ``serve-topn``
serves a model of the MovieLens-1M sizes; a pass of its queries is short
at any size.

Run as a script, it writes one workload's input files into a directory,
so that the generator's memory stays out of the caller's process:

    python3 perfbench/bench_gen.py --workload cv-3d --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import pickle
from pathlib import Path

import numpy as np

ML1M_USERS = 6040
ML1M_ITEMS = 3706
ML1M_PAIRS = 1_000_209
ML1M_MAX_ITEM_ID = 3952
SMALL = {"n_users": 300, "n_items": 500, "n_pairs": 20_000}

# MovieLens-1M demographic code sets with their user counts in the real file
AGE_CODES = np.array([1, 18, 25, 35, 45, 50, 56])
AGE_COUNTS = np.array([222, 1103, 2096, 1193, 550, 496, 380])
GENDERS = np.array(["F", "M"])
GENDER_COUNTS = np.array([1709, 4331])
OCCUPATION_COUNTS = np.array(
    [711, 528, 267, 173, 759, 112, 236, 679, 17, 92, 195, 129, 388, 142, 302, 144, 241, 502, 70, 72, 281]
)

# popularity weight of the r-th most active user: (r + POPULARITY_OFFSET) ** -USER_ZIPF;
# the offset flattens the head so the busiest users and items stay near
# MovieLens-1M's degrees (1.8k and 3.5k ratings) instead of saturating
USER_ZIPF = 0.9
ITEM_ZIPF = 1.1
POPULARITY_OFFSET = 40
BASE_RATING = 3.55
USER_SIGMA = 0.2  # log-scale spread of user generosity
ITEM_SIGMA = 0.25  # log-scale spread of item quality
DEMO_SIGMA = 0.08  # log-scale spread of each demographic x item effect
NOISE_SIGMA = 0.22
TIMESTAMP_RANGE = (956_703_932, 1_046_454_590)
WRITE_CHUNK = 200_000  # rows formatted per write of a .dat file

CHAIN_N = 80
CHAIN_BAND = 3
CHAIN_DRIFT = 4.0
CHAIN_NOISE = 0.5


def _weights(rng, n, exponent):
    """Power-law weights (rank + offset) ** -exponent, ranks assigned at random."""
    return (rng.permutation(n) + float(POPULARITY_OFFSET)) ** -exponent


def _categorical(rng, counts, n):
    return rng.choice(len(counts), size=n, p=counts / counts.sum())


def rating_arrays(seed, n_users=ML1M_USERS, n_items=ML1M_ITEMS, n_pairs=ML1M_PAIRS):
    """Columns of the generated rating set, sorted by user then timestamp.

    Returns a dict with per-record ``user_id``, ``item_id``, ``rating``,
    ``timestamp`` and per-user ``user_ids``, ``gender`` (0=F, 1=M),
    ``age`` (raw code) and ``occupation``.
    """
    if not max(n_users, n_items) <= n_pairs <= n_users * n_items:
        raise ValueError("n_pairs must lie between max(n_users, n_items) and n_users * n_items")
    rng = np.random.default_rng(seed)
    user_w = _weights(rng, n_users, USER_ZIPF)
    item_w = _weights(rng, n_items, ITEM_ZIPF)

    # reserve one pair per item and one per user, each drawn by popularity
    res_u = np.concatenate(
        [rng.choice(n_users, size=n_items, p=user_w / user_w.sum()), np.arange(n_users)]
    )
    res_i = np.concatenate(
        [np.arange(n_items), rng.choice(n_items, size=n_users, p=item_w / item_w.sum())]
    )
    keys = rng.standard_exponential((n_users, n_items), dtype=np.float32)
    keys /= user_w.astype(np.float32)[:, None]
    keys /= item_w.astype(np.float32)[None, :]
    keys[res_u, res_i] = -1.0  # reserved cells win the race
    cells = np.argpartition(keys.reshape(-1), n_pairs - 1)[:n_pairs]
    del keys
    u, i = np.divmod(cells, n_items)

    gender = _categorical(rng, GENDER_COUNTS, n_users)
    age_idx = _categorical(rng, AGE_COUNTS, n_users)
    occupation = _categorical(rng, OCCUPATION_COUNTS, n_users)

    log_r = (
        np.log(BASE_RATING)
        + rng.normal(0.0, USER_SIGMA, n_users)[u]
        + rng.normal(0.0, ITEM_SIGMA, n_items)[i]
        + rng.normal(0.0, DEMO_SIGMA, (len(AGE_CODES), n_items))[age_idx[u], i]
        + rng.normal(0.0, DEMO_SIGMA, (len(GENDERS), n_items))[gender[u], i]
        + rng.normal(0.0, DEMO_SIGMA, (len(OCCUPATION_COUNTS), n_items))[occupation[u], i]
        + rng.normal(0.0, NOISE_SIGMA, n_pairs)
    )
    rating = np.clip(np.rint(np.exp(log_r)), 1, 5).astype(np.int64)
    timestamp = rng.integers(*TIMESTAMP_RANGE, size=n_pairs)

    item_ids = np.sort(rng.choice(np.arange(1, ML1M_MAX_ITEM_ID + 1), size=n_items, replace=False))
    order = np.lexsort((timestamp, u))
    return {
        "user_id": u[order] + 1,
        "item_id": item_ids[i[order]],
        "rating": rating[order],
        "timestamp": timestamp[order],
        "user_ids": np.arange(1, n_users + 1),
        "gender": gender,
        "age": AGE_CODES[age_idx],
        "occupation": occupation,
    }


def _write_lines(path, fmt, columns):
    """Write ``fmt % row`` for every row of the integer columns, in chunks."""
    n = len(columns[0])
    with open(path, "w", encoding="latin-1", newline="\n") as fh:
        for start in range(0, n, WRITE_CHUNK):
            block = np.stack([c[start : start + WRITE_CHUNK] for c in columns], axis=1)
            fh.write((fmt * len(block)) % tuple(block.reshape(-1).tolist()))


def write_ratings(out_dir, seed, **sizes) -> None:
    """Write ``ratings.dat`` and ``users.dat`` into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    a = rating_arrays(seed, **sizes)
    ratings = out / "ratings.dat"
    users = out / "users.dat"
    _write_lines(ratings, "%d::%d::%d::%d\n", [a["user_id"], a["item_id"], a["rating"], a["timestamp"]])
    zips = np.random.default_rng([seed, 1]).integers(10000, 100000, size=len(a["user_ids"]))
    with open(users, "w", encoding="latin-1", newline="\n") as fh:
        fh.write(
            "".join(
                f"{uid}::{GENDERS[g]}::{age}::{occ}::{z}\n"
                for uid, g, age, occ, z in zip(
                    a["user_ids"].tolist(),
                    a["gender"].tolist(),
                    a["age"].tolist(),
                    a["occupation"].tolist(),
                    zips.tolist(),
                )
            )
        )


def chain_arrays(seed, n=CHAIN_N):
    """Indices, values and planted factors of a rank-1 n x n matrix observed
    where |i - j| <= CHAIN_BAND.

    Both log factors drift linearly by CHAIN_DRIFT along the chain, plus
    seeded noise.  The drift dominates the slowest-decaying mode of the
    sweeps, so every seed needs nearly the same number of sweeps."""
    rng = np.random.default_rng(seed)
    drift = np.linspace(-CHAIN_DRIFT / 2, CHAIN_DRIFT / 2, n)
    row = np.exp(drift + rng.normal(0.0, CHAIN_NOISE, n))
    col = np.exp(drift + rng.normal(0.0, CHAIN_NOISE, n))
    i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= CHAIN_BAND)
    indices = np.stack([i, j], axis=1)
    return indices, row[i] * col[j], row, col


class Records:
    """Ratings as the entries of a users x items tensor, with the raw ids
    of its rows and columns."""

    def __init__(self, user_id, item_id, rating):
        user_ids, users = np.unique(user_id, return_inverse=True)
        item_ids, items = np.unique(item_id, return_inverse=True)
        self.shape = (len(user_ids), len(item_ids))
        self.indices = np.stack([users, items], axis=1)
        self.values = rating.astype(np.float64)
        self.users = dict(zip(user_ids.tolist(), range(len(user_ids))))
        self.products = dict(zip(item_ids.tolist(), range(len(item_ids))))

    @classmethod
    def load(cls, path):
        with np.load(path) as z:
            return cls(z["user_id"], z["item_id"], z["rating"])


def train(uc, rec):
    """The serving model: ``balance`` at k=1 on all records."""
    return uc.balance(uc.SparseTensor(rec.shape, rec.indices, rec.values), 1)


WARM_SIZES = {"n_users": 200, "n_items": 150, "n_pairs": 4000}
WARM_CHAIN = 40


def write_inputs(workload, seed, out_dir) -> None:
    """Write one workload's input files, plus a small version of them under
    ``warm/`` for warming up.

    The cross-validation workloads get ``ratings.dat`` and ``users.dat``.
    ``persist``, which does not measure parsing, gets the rating columns
    as ``ratings.npz``; the chain matrix goes to ``chain.npz``.
    ``serve-topn`` gets the model trained on all ratings, pickled to
    ``model.pkl``, so that training stays out of the serving process
    (``uctensor`` must then be importable)."""
    out = Path(out_dir)
    warm = out / "warm"
    warm.mkdir(parents=True, exist_ok=True)
    if workload == "chain-solve":
        for path, n in ((out / "chain.npz", CHAIN_N), (warm / "chain.npz", WARM_CHAIN)):
            indices, values, row, col = chain_arrays(seed, n)
            np.savez(path, indices=indices, values=values, row=row, col=col)
    elif workload == "persist":
        for d, sizes in ((out, SMALL), (warm, WARM_SIZES)):
            a = rating_arrays(seed, **sizes)
            np.savez(d / "ratings.npz", user_id=a["user_id"], item_id=a["item_id"], rating=a["rating"])
    elif workload == "serve-topn":
        import uctensor as uc

        for d, sizes in ((out, {}), (warm, WARM_SIZES)):
            a = rating_arrays(seed, **sizes)
            model = train(uc, Records(a["user_id"], a["item_id"], a["rating"]))
            with open(d / "model.pkl", "wb") as fh:
                pickle.dump(uc.CompletedTensor(model), fh, protocol=pickle.HIGHEST_PROTOCOL)
    else:
        write_ratings(out, seed, **SMALL)
        write_ratings(warm, seed, **WARM_SIZES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
