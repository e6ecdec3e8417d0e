"""Dataset ingestion, feature encoding, positivity shifting, tensor
construction, and train/test splitting.

Supported inputs: MovieLens 1M/10M rating files (``::``-separated), the
MovieLens 1M user-demographics file, Jester-style joke-rating grids
(one row per user, sentinel 99 = unrated), and a generic sparse-tensor
text format for toy problems.

Ratings are stored on their native scale together with a translational
``shift`` chosen so that shifted values are strictly positive (tensors
cannot hold zeros or negatives); MovieLens needs no shift, Jester gets
``-low + 1 = 11`` from the bottom of its declared range.  Predictions
are unshifted before they are scored, so the shift's subtraction
cancels, but the fills do not: the balance fits log(r + s), so every
fill, and so the RMSE and MAE, depend on s.

The text loaders share one line rule: each line is stripped, blank lines
are skipped (and, in the tensor format only, lines starting with ``#``),
and a malformed line raises ParseError naming ``path:line``.  Ids,
timestamps and indices beyond int64 are refused in the rating and tensor
formats.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    KeyOrderError,
    MissingFeatureFileError,
    ParseError,
    ShapeMismatchError,
    TooFewRecordsError,
    UctensorError,
    UnknownCategoryError,
)
from .tensor import SparseTensor, check_int, is_int

JESTER_SENTINEL = 99.0
_INT64 = np.iinfo(np.int64)

# feature blocks, in the fixed concatenation order: the columns of a
# dataset's features table
AGE_GROUPS = 6
GENDER_INDEX = {"F": 0, "M": 1}
OCCUPATIONS = 21
FEATURE_BLOCKS = (("age", AGE_GROUPS), ("gender", 2), ("occupation", OCCUPATIONS))
CATEGORY_ALIASES = {"age": "age", "gender": "gender", "occupation": "occupation", "occup": "occupation"}


@dataclass(frozen=True)
class RatingsDataset:
    """Rating records (columnar), vocabularies, optional user features, and
    the positivity shift.

    Records stay in file order.  ``key_order`` lists the record positions
    by strictly increasing (user, product) key, the row-major order of a
    users x products tensor; it is checked once, here, and every fold's
    training tensor is a subsequence of it.  ``features``, when given, is
    the (n_users, 3) table of each dense user's age group, gender and
    occupation codes, in ``FEATURE_BLOCKS`` order; a user the users file
    lacks has -1 in every column.  The key order, the two dense index
    columns and the features table are read-only."""

    name: str
    users: dict  # raw user id -> dense index
    products: dict  # raw product id -> dense index
    user_index: np.ndarray  # per-record dense user index
    product_index: np.ndarray  # per-record dense product index
    rating_values: np.ndarray  # per-record native-scale rating
    shift: float
    native_range: tuple
    key_order: np.ndarray  # record positions by ascending (user, product) key
    features: np.ndarray | None = None  # (n_users, 3) feature codes per dense user
    duplicates_dropped: int = 0

    def __post_init__(self):
        if self.features is not None:
            table = np.asarray(self.features)
            expected = (self.n_users, len(FEATURE_BLOCKS))
            if table.shape != expected:
                raise ShapeMismatchError(f"features has shape {table.shape}, expected {expected}")
            if table.dtype.kind not in "iu":
                raise ShapeMismatchError(f"features has dtype {table.dtype}, expected integer codes")
            # each code lies in its block, or the whole row is -1
            widths = [width for _, width in FEATURE_BLOCKS]
            bad = ~(((table >= 0) & (table < widths)).all(axis=1) | (table == -1).all(axis=1))
            if bad.any():
                row = int(np.argmax(bad))
                raise ShapeMismatchError(
                    f"features row {row} is {table[row].tolist()}, expected codes below {widths} or -1 throughout"
                )
            table = table.astype(np.int64)
            table.setflags(write=False)
            object.__setattr__(self, "features", table)
        n = len(self.rating_values)
        for name in ("key_order", "user_index", "product_index"):
            column = np.asarray(getattr(self, name), dtype=np.int64)
            if column.shape != (n,):
                raise KeyOrderError(f"{name} has shape {column.shape}, expected ({n},)")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if n == 0:
            return
        order, u, p = self.key_order, self.user_index, self.product_index
        for name, column, size in (
            ("key_order position", order, n),
            ("dense user index", u, self.n_users),
            ("dense product index", p, self.n_products),
        ):
            if column.min() < 0 or column.max() >= size:
                raise KeyOrderError(f"a {name} lies outside [0, {size})")
        keys = u[order]
        keys *= self.n_products
        keys += p[order]
        # strictly increasing keys also make the in-range positions distinct,
        # so the order is a permutation of the records
        step = keys[1:] > keys[:-1]
        if not step.all():
            i = int(np.argmin(step))
            a, b = int(order[i]), int(order[i + 1])
            what = "share" if keys[i] == keys[i + 1] else "are out of order in"
            raise KeyOrderError(
                f"records {a} and {b} {what} the key order: (user, product) "
                f"{(int(u[a]), int(p[a]))} then {(int(u[b]), int(p[b]))}"
            )

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_products(self) -> int:
        return len(self.products)

    @property
    def shifted_values(self) -> np.ndarray:
        return self.rating_values + self.shift


def _dense_vocab(raw_ids: np.ndarray) -> tuple[dict, np.ndarray]:
    """First-encounter-order vocabulary and the per-record dense indices."""
    uniq, inverse = np.unique(raw_ids, return_inverse=True)
    first = np.full(len(uniq), len(raw_ids), dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(len(raw_ids)))
    order = np.argsort(first)  # first positions are distinct: no ties to keep stable
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return dict(zip(uniq[order].tolist(), range(len(order)))), rank[inverse]


def _first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of each key's first occurrence, in file order, and the
    key order of those kept records (their ranks among the kept, by
    ascending key).  One sort gives both: the least position in each run
    of equal keys is the first occurrence."""
    # temporaries are dropped as soon as they are spent: this runs at the
    # peak of a load's memory
    order = np.argsort(keys)
    sorted_keys = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    del sorted_keys
    starts = np.flatnonzero(starts)
    # the sort need not be stable: the minimum finds each run's first record
    kept = np.minimum.reduceat(order, starts)  # in key order
    del order, starts
    is_kept = np.zeros(len(keys), dtype=bool)
    is_kept[kept] = True
    keep = np.flatnonzero(is_kept)
    rank = np.empty(len(keys), dtype=np.int64)
    rank[keep] = np.arange(len(keep))
    return keep, rank[kept]


def _finalize(name, raw_u, raw_p, ratings, shift, native_range, features):
    """The dataset of the parsed columns.  ``features`` maps raw user ids
    to their feature codes, or is None for no users file."""
    users, u_dense = _dense_vocab(raw_u)
    products, p_dense = _dense_vocab(raw_p)
    # dense keys stay below n_users * n_products whatever the raw ids are,
    # and a user's (or product's) first record is always kept, so dropping
    # duplicates leaves both vocabularies unchanged
    keep, key_order = _first_occurrences(u_dense * len(products) + p_dense)
    if features is not None:
        # the vocabulary lists its raw ids in dense-index order
        lacking = (-1,) * len(FEATURE_BLOCKS)
        features = np.array([features.get(raw, lacking) for raw in users], dtype=np.int64)
    return RatingsDataset(
        name=name,
        users=users,
        products=products,
        user_index=u_dense[keep],
        product_index=p_dense[keep],
        rating_values=ratings[keep].astype(np.float64),
        shift=float(shift),
        native_range=native_range,
        key_order=key_order,
        features=features,
        duplicates_dropped=len(raw_u) - len(keep),
    )


def _parse_lines(path, lines, parse_line, comments: bool = False):
    """Yield ``parse_line`` of each line of ``lines``, stripped, in order.
    Blank lines are skipped, and with ``comments`` so are lines starting
    with ``#``.  A ValueError or OverflowError from ``parse_line`` becomes
    a ParseError naming ``path`` and the line's number, counted from 1."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or (comments and line.startswith("#")):
            continue
        try:
            parsed = parse_line(line)
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        yield parsed


def _check_int64(*values) -> None:
    """Raise OverflowError for the first value, None aside, outside int64."""
    for value in values:
        if value is not None and not _INT64.min <= value <= _INT64.max:
            raise OverflowError(f"{value} does not fit in 64 bits")


# ---------------------------------------------------------------------------
# MovieLens
# ---------------------------------------------------------------------------


def _user_line(line: str) -> tuple:
    """``(user id, (age group, gender, occupation codes))`` of one line."""
    parts = line.split("::")
    if len(parts) < 4:
        raise ValueError("expected UserID::Gender::Age::Occupation[::Zip]")
    uid, gender, age, occupation = int(parts[0]), parts[1], int(parts[2]), int(parts[3])
    if gender not in GENDER_INDEX:
        raise ValueError(f"gender must be M or F, got {gender!r}")
    if age < 0:
        raise ValueError(f"negative age {age}")
    if not 0 <= occupation < OCCUPATIONS:
        raise ValueError(f"occupation must be in [0, {OCCUPATIONS - 1}], got {occupation}")
    return uid, (age_group(age), GENDER_INDEX[gender], occupation)


def _load_movielens_users(path) -> dict:
    """{raw user id: feature codes}; a repeated id keeps its last line."""
    with open(path, encoding="latin-1") as fh:
        return dict(_parse_lines(path, fh, _user_line))


def _parse_movielens_bulk(text: str):
    """The user id, product id and rating columns of a well-formed
    four-field rating file in one ``np.loadtxt`` call, or None when the
    text needs the line-by-line parser: a blank line holding whitespace,
    a line of another field count, a lone ``:``, a token numpy reads
    differently from ``int``/``float``, or any malformed line.  Every
    input accepted here parses to the same values line by line.

    ``loadtxt`` splits on single colons, so a line ``u::p::r::t`` is seven
    columns: the four fields and, between each ``::`` pair, an empty
    filler.  It refuses a line of any other column count, and each
    one-byte filler must read empty: a space, a tab or the first byte of
    a longer filler is kept.  A NUL would read as empty too, so a text
    holding one goes to the line parser.  The timestamp is read as an
    int64, which checks it, and then dropped."""
    if not text or text.isspace() or "\0" in text:
        return None
    try:
        cols = np.loadtxt(
            # bytes, not a StringIO: that would hold a 4-byte-per-character copy
            io.BytesIO(text.encode("latin-1")),
            dtype=[("u", np.int64), ("_1", "S1"), ("p", np.int64), ("_2", "S1"),
                   ("r", np.float64), ("_3", "S1"), ("t", np.int64)],
            delimiter=":",
            comments=None,
            ndmin=1,
            encoding="latin-1",
        )
    except ValueError:
        return None
    # an empty filler is the byte 0
    if any(cols[filler].view(np.uint8).any() for filler in ("_1", "_2", "_3")):
        return None
    return cols["u"], cols["p"], cols["r"]


def _parse_movielens_lines(text: str, path, lo: float):
    """Line-by-line parse; raises ParseError naming the first bad line.  A
    timestamp field must be an int64; it is checked, not kept."""

    def rating_line(line):
        parts = line.split("::")
        if len(parts) not in (3, 4):
            raise ValueError("expected UserID::MovieID::Rating[::Timestamp]")
        uid, pid, rating = int(parts[0]), int(parts[1]), float(parts[2])
        _check_int64(uid, pid, int(parts[3]) if len(parts) == 4 else None)
        if not lo <= rating <= 5.0:
            raise ValueError(f"rating {rating} outside native range {(lo, 5.0)}")
        return uid, pid, rating

    cols = np.fromiter(
        _parse_lines(path, text.split("\n"), rating_line),
        dtype=[("u", np.int64), ("p", np.int64), ("r", np.float64)],
    )
    if not len(cols):
        raise ParseError(f"{path}: no rating lines found")
    return cols["u"], cols["p"], cols["r"]


def load_movielens(ratings_path, users_path=None, fmt: str = "1m") -> RatingsDataset:
    """Parse a MovieLens rating file (``UserID::MovieID::Rating::Timestamp``).
    The timestamp is optional; when given it must be an int64, and it is
    not kept: no computation reads it.  A four-field file is read in one
    ``np.loadtxt`` call as seven single-colon columns, the three empty
    ones between the ``::`` pairs checked (``_parse_movielens_bulk``);
    any other text, or one with a rating out of range, is parsed line
    by line, and a ParseError names its first bad line.

    fmt "1m" checks that each rating lies in [1, 5], "10m" in [0.5, 5]:
    only the range, not the star steps.  ``users_path`` attaches demographics
    (required later for 3-D tensors)."""
    fmt = fmt.lower()
    if fmt not in ("1m", "10m"):
        raise ValueError(f"fmt must be '1m' or '10m', got {fmt!r}")
    lo = 1.0 if fmt == "1m" else 0.5

    # text mode: universal newlines turn \r\n and \r into \n
    with open(ratings_path, encoding="latin-1") as fh:
        text = fh.read()
    cols = _parse_movielens_bulk(text)
    # out-of-range ratings (nan included) go to the line parser for the
    # error message with its line number
    if cols is None or not np.all((cols[2] >= lo) & (cols[2] <= 5.0)):
        cols = _parse_movielens_lines(text, ratings_path, lo)
    del text  # not needed past the parse
    raw_u, raw_p, ratings = cols

    features = _load_movielens_users(users_path) if users_path else None
    return _finalize(
        name=f"movielens{fmt}",
        raw_u=raw_u,
        raw_p=raw_p,
        ratings=ratings,
        shift=0.0,  # already strictly positive
        native_range=(lo, 5.0),
        features=features,
    )


# ---------------------------------------------------------------------------
# Jester
# ---------------------------------------------------------------------------


def load_jester(path) -> RatingsDataset:
    """Parse a comma-separated Jester-style grid: one row per user, first
    column a rated-joke count (ignored), remaining columns ratings in
    [-10, 10] or 99 for unrated.  Users are row numbers, products are
    joke column numbers.

    All observed values get shifted by ``-low + 1 = 11``, from the
    bottom of the declared range, so the lowest rating the scale allows
    is stored as 1; the shift reads no record, so a held-out one cannot
    set the training values."""
    native_range = (-10.0, 10.0)
    n_cols = None

    def row(line):
        """The row's ratings, checked in column order; 99 stays in place."""
        nonlocal n_cols
        parts = line.split(",")
        if len(parts) < 2:
            raise ValueError("expected a count column plus ratings")
        if n_cols is None:
            n_cols = len(parts)
        elif len(parts) != n_cols:
            raise ValueError(f"ragged row ({len(parts)} columns, expected {n_cols})")
        values = []
        for token in parts[1:]:
            value = float(token)
            if value != JESTER_SENTINEL and not native_range[0] <= value <= native_range[1]:
                raise ValueError(f"rating {value} outside native range (-10, 10)")
            values.append(value)
        return values

    with open(path, encoding="latin-1") as fh:
        grid = list(_parse_lines(path, fh, row))
    if not grid:
        raise ParseError(f"{path}: empty file")
    grid = np.array(grid, dtype=np.float64)
    observed = grid != JESTER_SENTINEL
    if not observed.any():
        raise ParseError(f"{path}: no observed ratings")
    raw_u, raw_p = np.nonzero(observed)  # rows, then columns: row-major
    ratings = grid[observed]
    n_rows, n_jokes = grid.shape
    return RatingsDataset(
        name="jester2",
        # every row and every joke column belongs to the vocabulary, even
        # if it carries no observed ratings
        users={u: u for u in range(n_rows)},
        products={p: p for p in range(n_jokes)},
        user_index=raw_u,
        product_index=raw_p,
        rating_values=ratings,
        shift=-native_range[0] + 1.0,
        native_range=native_range,
        key_order=np.arange(len(raw_u)),
    )


# ---------------------------------------------------------------------------
# feature encoding
# ---------------------------------------------------------------------------


def age_group(age: int) -> int:
    """Decade bucket of a raw age code, capped at the top group."""
    return min(int(age) // 10, AGE_GROUPS - 1)


def encode_features(categories) -> tuple:
    """The ``FEATURE_BLOCKS`` positions of ``categories``, ascending: the
    blocks concatenate in that fixed order whatever the order given, and
    an alias or a repeat names its block once.  ``categories`` must be a
    non-empty iterable of names, not a str."""
    if isinstance(categories, str):
        raise UnknownCategoryError(f"categories must be a sequence of feature names, not the str {categories!r}")
    try:
        categories = iter(categories)
    except TypeError:
        raise UnknownCategoryError(f"categories must be a sequence of feature names, got {categories!r}") from None
    names = [name for name, _ in FEATURE_BLOCKS]
    blocks = set()
    for cat in categories:
        canon = CATEGORY_ALIASES.get(str(cat).lower())
        if canon is None:
            raise UnknownCategoryError(
                f"unknown feature category {cat!r}; expected age, gender or occupation"
            )
        blocks.add(names.index(canon))
    if not blocks:
        raise UnknownCategoryError("at least one feature category is required")
    return tuple(sorted(blocks))


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


def check_folds(n_folds) -> None:
    """``check_int`` for ``n_folds`` >= 2, but an int below 2 is ``TooFewRecordsError``."""
    if is_int(n_folds) and n_folds < 2:
        raise TooFewRecordsError(f"need at least 2 folds, got {n_folds}")
    check_int("n_folds", n_folds, 2)


def split_kfold(dataset: RatingsDataset, n_folds: int, seed: int) -> FoldPlan:
    """Uniform random fold assignment of records; deterministic for a given
    (dataset order, seed); fold sizes within +-1 of each other.  n_folds
    must be an int >= 2, the seed an int >= 0."""
    n = len(dataset.rating_values)
    check_folds(n_folds)
    if n < n_folds:
        raise TooFewRecordsError(f"{n} records cannot fill {n_folds} folds")
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    assignment = np.empty(n, dtype=np.int64)
    assignment[rng.permutation(n)] = np.arange(n) % n_folds
    assignment.setflags(write=False)
    return FoldPlan(n_folds=n_folds, seed=seed, assignment=assignment)


def _check_plan_length(fold_plan: FoldPlan, dataset: RatingsDataset) -> None:
    n_assigned, n_records = len(fold_plan.assignment), len(dataset.rating_values)
    if n_assigned != n_records:
        raise ValueError(f"fold plan assigns {n_assigned} records, the dataset has {n_records}")


def records_tensor(dataset: RatingsDataset, positions: np.ndarray | None = None) -> SparseTensor:
    """The users x products tensor of shifted values of the records at
    ``positions``, a subsequence of the dataset's validated key order (by
    default all of it).  Taken in that order, the entries need no sort and
    no pattern check; only their values are checked."""
    if positions is None:
        positions = dataset.key_order
    n_products = dataset.n_products
    keys = dataset.user_index[positions]  # a gather: a new array, keyed in place
    keys *= n_products
    keys += dataset.product_index[positions]
    values = dataset.rating_values[positions] + dataset.shift
    return SparseTensor((dataset.n_users, n_products), None, values, _flat=keys)


def build_tensor_2d(dataset: RatingsDataset, fold_plan: FoldPlan, test_fold: int) -> SparseTensor:
    """Train tensor (users x products, shifted values) from all records
    outside ``test_fold``, taken as a subsequence of the dataset's
    validated key order (``records_tensor``).  The held-out records are
    the caller's: ``fold_plan.test_mask(test_fold)``."""
    _check_plan_length(fold_plan, dataset)
    order = dataset.key_order
    return records_tensor(dataset, order[fold_plan.assignment[order] != test_fold])


def user_feature_indices(dataset: RatingsDataset, categories) -> np.ndarray:
    """The (n_users, n_cat) codes of ``categories`` for each dense user, one
    column per included block in ``FEATURE_BLOCKS`` order: the 3-D run's
    check that every user carries them.  Raises MissingFeatureFileError
    when the dataset has no features table or a user is missing from it,
    and UnknownCategoryError for a bad category."""
    if dataset.features is None:
        raise MissingFeatureFileError(
            f"dataset {dataset.name!r} has no user features; 3-D mode needs a users file"
        )
    codes = dataset.features[:, list(encode_features(categories))]
    missing = (codes < 0).any(axis=1)
    if missing.any():
        raw = next(raw for raw, dense in dataset.users.items() if missing[dense])
        raise MissingFeatureFileError(f"user {raw} missing from the features table")
    return codes


# ---------------------------------------------------------------------------
# generic sparse-tensor text format (toy inputs for the CLI)
# ---------------------------------------------------------------------------


def load_tensor_text(path) -> SparseTensor:
    """Read the generic format: header ``shape d1,d2,...`` then one
    ``i1,i2,...,value`` line per observed cell."""
    shape = None

    def cell(line):
        """The header line sets the shape; every later line is one cell."""
        nonlocal shape
        if shape is None:
            if not line.startswith("shape"):
                raise ValueError("expected header 'shape d1,d2,...'")
            shape = tuple(int(t) for t in line[len("shape"):].strip().split(","))
            if min(shape) < 1:
                raise ValueError(f"dimensions must be >= 1, got {shape}")
            return None
        parts = line.split(",")
        if len(parts) != len(shape) + 1:
            raise ValueError(f"expected {len(shape)} indices and a value")
        index = [int(t) for t in parts[:-1]]
        _check_int64(*index)
        return index, float(parts[-1])

    with open(path, encoding="utf-8") as fh:
        cells = list(_parse_lines(path, fh, cell, comments=True))[1:]  # [0]: the header's None
    if shape is None:
        raise ParseError(f"{path}: missing 'shape' header")
    indices = np.asarray([index for index, _ in cells], dtype=np.int64)
    try:
        return SparseTensor(shape, indices, np.asarray([value for _, value in cells]))
    except UctensorError as exc:  # out of bounds, not positive, duplicate: name the file
        raise type(exc)(f"{path}: {exc}") from None


def save_tensor_text(path, shape, indices, values) -> None:
    """Write the cells in the format ``load_tensor_text`` reads.  ``indices``
    may be any iterable of index rows, e.g. ``np.ndindex(*shape)``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("shape " + ",".join(str(s) for s in shape) + "\n")
        for idx, val in zip(indices, values):
            fh.write(",".join(str(int(i)) for i in idx) + f",{float(val)!r}\n")
