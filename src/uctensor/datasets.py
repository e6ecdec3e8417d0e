"""Dataset ingestion, feature encoding, positivity shifting, tensor
construction, and train/test splitting.

Supported inputs: MovieLens 1M/10M rating files (``::``-separated), the
MovieLens 1M user-demographics file, Jester-style joke-rating grids
(one row per user, sentinel 99 = unrated), and a generic sparse-tensor
text format for toy problems.

Ratings are stored on their native scale together with a translational
``shift`` chosen so that shifted values are strictly positive (tensors
cannot hold zeros or negatives); MovieLens needs no shift, Jester gets
``-min + 1``.  The shift cancels inside RMSE/MAE differences.
"""

from __future__ import annotations

import io
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    MissingFeatureFileError,
    ParseError,
    TooFewRecordsError,
    UnknownCategoryError,
)
from .tensor import SparseTensor

JESTER_SENTINEL = 99.0
_INT64 = np.iinfo(np.int64)

# feature blocks, in the fixed concatenation order
AGE_GROUPS = 6
GENDER_INDEX = {"F": 0, "M": 1}
OCCUPATIONS = 21
FEATURE_BLOCKS = (("age", AGE_GROUPS), ("gender", 2), ("occupation", OCCUPATIONS))
CATEGORY_ALIASES = {"age": "age", "gender": "gender", "occupation": "occupation", "occup": "occupation"}


@dataclass(frozen=True)
class RatingRecord:
    user_id: int
    product_id: int
    rating: float
    timestamp: int | None = None


@dataclass(frozen=True)
class UserFeatures:
    user_id: int
    gender: str  # "M" | "F"
    age: int
    occupation: int


class _RecordsView(Sequence):
    """Read-only sequence of RatingRecord backed by columnar arrays."""

    def __init__(self, dataset: "RatingsDataset"):
        self._ds = dataset

    def __len__(self):
        return len(self._ds.rating_values)

    def __getitem__(self, i):
        ds = self._ds
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        stamped = ds.has_timestamp is not None and ds.has_timestamp[i]
        return RatingRecord(
            int(ds.raw_user_ids[i]),
            int(ds.raw_product_ids[i]),
            float(ds.rating_values[i]),
            int(ds.timestamps[i]) if stamped else None,
        )


@dataclass
class RatingsDataset:
    """Rating records (columnar), vocabularies, optional user features, and
    the positivity shift."""

    name: str
    users: dict  # raw user id -> dense index
    products: dict  # raw product id -> dense index
    user_index: np.ndarray  # per-record dense user index
    product_index: np.ndarray  # per-record dense product index
    rating_values: np.ndarray  # per-record native-scale rating
    raw_user_ids: np.ndarray
    raw_product_ids: np.ndarray
    timestamps: np.ndarray | None  # per-record timestamp, 0 where absent
    shift: float
    native_range: tuple
    features: dict | None = None  # raw user id -> UserFeatures
    duplicates_dropped: int = 0
    has_timestamp: np.ndarray | None = None  # per record: a timestamp was given

    @property
    def records(self) -> Sequence:
        return _RecordsView(self)

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_products(self) -> int:
        return len(self.products)

    @property
    def shifted_values(self) -> np.ndarray:
        return self.rating_values + self.shift

    def unshift(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values) - self.shift


def _dense_vocab(raw_ids: np.ndarray) -> tuple[dict, np.ndarray]:
    """First-encounter-order vocabulary and the per-record dense indices."""
    uniq, first, inverse = np.unique(raw_ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return dict(zip(uniq[order].tolist(), range(len(order)))), rank[inverse]


def _finalize(name, raw_u, raw_p, ratings, timestamps, has_timestamp, shift, native_range, features):
    users, u_dense = _dense_vocab(raw_u)
    products, p_dense = _dense_vocab(raw_p)
    # first occurrence of each (user, product) pair, in file order.  Dense
    # keys stay below n_users * n_products whatever the raw ids are, and a
    # user's (or product's) first record is always kept, so dropping
    # duplicates leaves both vocabularies unchanged.
    _, keep = np.unique(u_dense * len(products) + p_dense, return_index=True)
    keep.sort()
    return RatingsDataset(
        name=name,
        users=users,
        products=products,
        user_index=u_dense[keep],
        product_index=p_dense[keep],
        rating_values=ratings[keep].astype(np.float64),
        raw_user_ids=raw_u[keep],
        raw_product_ids=raw_p[keep],
        timestamps=timestamps[keep],
        has_timestamp=has_timestamp[keep],
        shift=float(shift),
        native_range=native_range,
        features=features,
        duplicates_dropped=len(raw_u) - len(keep),
    )


# ---------------------------------------------------------------------------
# MovieLens
# ---------------------------------------------------------------------------


def _load_movielens_users(path) -> dict:
    features = {}
    with open(path, encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("::")
            if len(parts) < 4:
                raise ParseError(f"{path}:{lineno}: expected UserID::Gender::Age::Occupation[::Zip]")
            try:
                uid = int(parts[0])
                gender = parts[1]
                age = int(parts[2])
                occupation = int(parts[3])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if gender not in GENDER_INDEX:
                raise ParseError(f"{path}:{lineno}: gender must be M or F, got {gender!r}")
            if age < 0:
                raise ParseError(f"{path}:{lineno}: negative age {age}")
            if not 0 <= occupation < OCCUPATIONS:
                raise ParseError(
                    f"{path}:{lineno}: occupation must be in [0, {OCCUPATIONS - 1}], got {occupation}"
                )
            features[uid] = UserFeatures(uid, gender, age, occupation)
    return features


def _parse_movielens_bulk(text: str):
    """Columns of a well-formed rating file in one ``np.loadtxt`` call, or
    None when the text needs the line-by-line parser: a blank line holding
    whitespace, mixed 3- and 4-field lines, a lone ``:``, a token numpy
    reads differently from ``int``/``float``, or any malformed line.  Every
    input accepted here parses to the same values line by line."""
    if text.count(":") != 2 * text.count("::") or not text.strip():
        return None
    n_fields = text.lstrip("\n").split("\n", 1)[0].count("::") + 1
    if n_fields not in (3, 4):
        return None
    try:
        cols = np.loadtxt(
            io.StringIO(text.replace("::", ":")),
            dtype=[("u", np.int64), ("p", np.int64), ("r", np.float64), ("t", np.int64)][:n_fields],
            delimiter=":",
            comments=None,
            ndmin=1,
        )
    except ValueError:
        return None
    stamps = cols["t"] if n_fields == 4 else np.zeros(len(cols), dtype=np.int64)
    return cols["u"], cols["p"], cols["r"], stamps, np.full(len(cols), n_fields == 4)


def _parse_movielens_lines(text: str, path, lo: float):
    """Line-by-line parse; raises ParseError naming the first bad line."""
    native_range = (lo, 5.0)
    raw_u, raw_p, ratings, stamps, has_stamp = [], [], [], [], []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("::")
        if len(parts) not in (3, 4):
            raise ParseError(f"{path}:{lineno}: expected UserID::MovieID::Rating[::Timestamp]")
        try:
            uid = int(parts[0])
            pid = int(parts[1])
            rating = float(parts[2])
            ts = int(parts[3]) if len(parts) == 4 else None
            for value in (uid, pid, ts):
                if value is not None and not _INT64.min <= value <= _INT64.max:
                    raise OverflowError(f"{value} does not fit in 64 bits")
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if not lo <= rating <= 5.0:
            raise ParseError(
                f"{path}:{lineno}: rating {rating} outside native range {native_range}"
            )
        raw_u.append(uid)
        raw_p.append(pid)
        ratings.append(rating)
        stamps.append(0 if ts is None else ts)
        has_stamp.append(ts is not None)
    if not raw_u:
        raise ParseError(f"{path}: no rating lines found")
    return (
        np.asarray(raw_u, dtype=np.int64),
        np.asarray(raw_p, dtype=np.int64),
        np.asarray(ratings),
        np.asarray(stamps, dtype=np.int64),
        np.asarray(has_stamp, dtype=bool),
    )


def load_movielens(ratings_path, users_path=None, fmt: str = "1m") -> RatingsDataset:
    """Parse a MovieLens rating file (``UserID::MovieID::Rating::Timestamp``).

    fmt "1m" validates whole-star ratings in [1, 5]; "10m" allows
    half-star steps down to 0.5.  ``users_path`` attaches demographics
    (required later for 3-D tensors)."""
    fmt = fmt.lower()
    if fmt not in ("1m", "10m"):
        raise ValueError(f"fmt must be '1m' or '10m', got {fmt!r}")
    lo = 1.0 if fmt == "1m" else 0.5

    with open(ratings_path, encoding="latin-1") as fh:
        text = fh.read()
    cols = _parse_movielens_bulk(text)
    # out-of-range ratings (nan included) go to the line parser for the
    # error message with its line number
    if cols is None or not np.all((cols[2] >= lo) & (cols[2] <= 5.0)):
        cols = _parse_movielens_lines(text, ratings_path, lo)
    raw_u, raw_p, ratings, stamps, has_stamp = cols

    features = _load_movielens_users(users_path) if users_path else None
    return _finalize(
        name=f"movielens{fmt}",
        raw_u=raw_u,
        raw_p=raw_p,
        ratings=ratings,
        timestamps=stamps,
        has_timestamp=has_stamp,
        shift=0.0,  # already strictly positive
        native_range=(lo, 5.0),
        features=features,
    )


# ---------------------------------------------------------------------------
# Jester
# ---------------------------------------------------------------------------


def load_jester(path, delimiter: str = ",") -> RatingsDataset:
    """Parse a Jester-style grid: one row per user, first column a rated-joke
    count (ignored), remaining columns ratings in [-10, 10] or 99 for
    unrated.  Users are row numbers, products are joke column numbers.

    All observed values get shifted by ``-min + 1`` so the smallest stored
    value is exactly 1."""
    raw_u, raw_p, ratings = [], [], []
    n_rows = 0
    n_cols = None
    with open(path, encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(delimiter)
            if len(parts) < 2:
                raise ParseError(f"{path}:{lineno}: expected a count column plus ratings")
            if n_cols is None:
                n_cols = len(parts)
            elif len(parts) != n_cols:
                raise ParseError(
                    f"{path}:{lineno}: ragged row ({len(parts)} columns, expected {n_cols})"
                )
            user = n_rows
            n_rows += 1
            for col, token in enumerate(parts[1:]):
                try:
                    value = float(token)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from None
                if value == JESTER_SENTINEL:
                    continue
                if not -10.0 <= value <= 10.0:
                    raise ParseError(
                        f"{path}:{lineno}: rating {value} outside native range (-10, 10)"
                    )
                raw_u.append(user)
                raw_p.append(col)
                ratings.append(value)
    if n_cols is None:
        raise ParseError(f"{path}: empty file")
    if not ratings:
        raise ParseError(f"{path}: no observed ratings")

    ratings = np.asarray(ratings)
    shift = -float(ratings.min()) + 1.0

    # every row and every joke column belongs to the vocabulary, even if
    # it carries no observed ratings
    users = {u: u for u in range(n_rows)}
    products = {p: p for p in range(n_cols - 1)}
    raw_u = np.asarray(raw_u, dtype=np.int64)
    raw_p = np.asarray(raw_p, dtype=np.int64)
    return RatingsDataset(
        name="jester2",
        users=users,
        products=products,
        user_index=raw_u,
        product_index=raw_p,
        rating_values=ratings.astype(np.float64),
        raw_user_ids=raw_u,
        raw_product_ids=raw_p,
        timestamps=None,
        shift=shift,
        native_range=(-10.0, 10.0),
    )


# ---------------------------------------------------------------------------
# feature encoding
# ---------------------------------------------------------------------------


def age_group(age: int) -> int:
    """Decade bucket of a raw age code, capped at the top group."""
    return min(int(age) // 10, AGE_GROUPS - 1)


class FeatureEncoding:
    """Concatenated feature blocks (age: 6, gender: 2, occupation: 21, in
    that fixed order for whichever categories are included); each user maps
    to exactly one index per included block."""

    def __init__(self, categories):
        resolved = []
        for cat in categories:
            canon = CATEGORY_ALIASES.get(str(cat).lower())
            if canon is None:
                raise UnknownCategoryError(
                    f"unknown feature category {cat!r}; expected age, gender or occupation"
                )
            if canon not in resolved:
                resolved.append(canon)
        if not resolved:
            raise UnknownCategoryError("at least one feature category is required")
        # fixed block order regardless of the order given
        self.categories = tuple(name for name, _ in FEATURE_BLOCKS if name in resolved)
        self.offsets = {}
        dim = 0
        for name, width in FEATURE_BLOCKS:
            if name in self.categories:
                self.offsets[name] = dim
                dim += width
        self.dim = dim

    def indices_for(self, feats: UserFeatures) -> tuple:
        out = []
        for name in self.categories:
            base = self.offsets[name]
            if name == "age":
                out.append(base + age_group(feats.age))
            elif name == "gender":
                out.append(base + GENDER_INDEX[feats.gender])
            else:
                out.append(base + feats.occupation)
        return tuple(out)


def encode_features(features: dict, categories) -> tuple[FeatureEncoding, dict]:
    """Resolve categories into a FeatureEncoding and map every user in the
    features table to its feature indices: {raw user id: (idx, ...)}."""
    enc = FeatureEncoding(categories)
    return enc, {uid: enc.indices_for(f) for uid, f in features.items()}


# ---------------------------------------------------------------------------
# splitting and tensor construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoldPlan:
    n_folds: int
    seed: int
    assignment: np.ndarray  # record position -> fold id

    def test_mask(self, fold: int) -> np.ndarray:
        return self.assignment == fold


def split_kfold(dataset: RatingsDataset, n_folds: int, seed: int) -> FoldPlan:
    """Uniform random fold assignment of records; deterministic for a given
    (dataset order, seed); fold sizes within +-1 of each other."""
    n = len(dataset.rating_values)
    if n_folds < 2:
        raise TooFewRecordsError(f"need at least 2 folds, got {n_folds}")
    if n < n_folds:
        raise TooFewRecordsError(f"{n} records cannot fill {n_folds} folds")
    rng = np.random.default_rng(seed)
    assignment = np.empty(n, dtype=np.int64)
    assignment[rng.permutation(n)] = np.arange(n) % n_folds
    a = assignment.copy()
    a.setflags(write=False)
    return FoldPlan(n_folds=n_folds, seed=seed, assignment=a)


def build_tensor_2d(dataset: RatingsDataset, fold_plan: FoldPlan, test_fold: int):
    """Train tensor (users x products, shifted values) from all records
    outside ``test_fold``, plus the held-out records as arrays: an (M, 2)
    array of (user, product) indices and their M shifted truths.

    Returns ``(tensor, pairs, truth)``."""
    test = fold_plan.test_mask(test_fold)
    train = ~test
    shape = (dataset.n_users, dataset.n_products)
    values = dataset.shifted_values
    indices = np.stack([dataset.user_index[train], dataset.product_index[train]], axis=1)
    tensor = SparseTensor(shape, indices, values[train])
    pairs = np.stack([dataset.user_index[test], dataset.product_index[test]], axis=1)
    return tensor, pairs, values[test]


def build_tensor_3d(dataset: RatingsDataset, categories, fold_plan: FoldPlan, test_fold: int):
    """Train tensor (users x features x products): each training record
    writes its shifted rating at [u, f, p] for every feature index f of its
    user.  The held-out records come as arrays: (M, 2) (user, product)
    indices, M shifted truths, and the (M, n_cat) feature indices of each
    record's user, one column per included category.

    Returns ``(tensor, pairs, truth, features)``."""
    if dataset.features is None:
        raise MissingFeatureFileError(
            f"dataset {dataset.name!r} has no user features; 3-D mode needs a users file"
        )
    enc, by_raw_user = encode_features(dataset.features, categories)
    feats_per_user = np.full((dataset.n_users, len(enc.categories)), -1, dtype=np.int64)
    for raw, dense in dataset.users.items():
        if raw not in by_raw_user:
            raise MissingFeatureFileError(f"user {raw} missing from the features table")
        feats_per_user[dense] = by_raw_user[raw]

    test = fold_plan.test_mask(test_fold)
    train = ~test
    u = dataset.user_index[train]
    p = dataset.product_index[train]
    r = dataset.shifted_values[train]
    n_cat = feats_per_user.shape[1]
    # one entry per (record, included category); blocks are disjoint so a
    # record can never write the same cell twice
    indices = np.empty((len(u) * n_cat, 3), dtype=np.int64)
    indices[:, 0] = np.repeat(u, n_cat)
    indices[:, 1] = feats_per_user[u].reshape(-1)
    indices[:, 2] = np.repeat(p, n_cat)
    values = np.repeat(r, n_cat)
    shape = (dataset.n_users, enc.dim, dataset.n_products)
    tensor = SparseTensor(shape, indices, values)

    test_users = dataset.user_index[test]
    pairs = np.stack([test_users, dataset.product_index[test]], axis=1)
    return tensor, pairs, dataset.shifted_values[test], feats_per_user[test_users]


# ---------------------------------------------------------------------------
# generic sparse-tensor text format (toy inputs for the CLI)
# ---------------------------------------------------------------------------


def load_tensor_text(path) -> SparseTensor:
    """Read the generic format: header ``shape d1,d2,...`` then one
    ``i1,i2,...,value`` line per observed cell."""
    shape = None
    indices, values = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if shape is None:
                if not line.startswith("shape"):
                    raise ParseError(f"{path}:{lineno}: expected header 'shape d1,d2,...'")
                try:
                    shape = tuple(int(t) for t in line[len("shape"):].strip().split(","))
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from None
                continue
            parts = line.split(",")
            if len(parts) != len(shape) + 1:
                raise ParseError(
                    f"{path}:{lineno}: expected {len(shape)} indices and a value"
                )
            try:
                indices.append([int(t) for t in parts[:-1]])
                values.append(float(parts[-1]))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    if shape is None:
        raise ParseError(f"{path}: missing 'shape' header")
    return SparseTensor(shape, np.asarray(indices, dtype=np.int64).reshape(-1, len(shape)),
                        np.asarray(values))


def save_tensor_text(path, shape, indices, values) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("shape " + ",".join(str(s) for s in shape) + "\n")
        for idx, val in zip(np.asarray(indices), np.asarray(values)):
            fh.write(",".join(str(int(i)) for i in idx) + f",{float(val)!r}\n")
