import dataclasses
import functools
import importlib.util
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uctensor import (
    DuplicateIndexError,
    IndexOutOfBoundsError,
    KeyOrderError,
    MissingFeatureFileError,
    NonPositiveValueError,
    ParseError,
    ShapeMismatchError,
    SparseTensor,
    TooFewRecordsError,
    UnknownCategoryError,
    build_tensor_2d,
    encode_features,
    load_jester,
    load_movielens,
    load_tensor_text,
    save_tensor_text,
    split_kfold,
)
from uctensor.datasets import (
    _dense_vocab,
    _parse_movielens_bulk,
    age_group,
    records_tensor,
    user_feature_indices,
)
from uctensor.properties import synthetic_dataset

from conftest import write_movielens_fixture
from feature_oracle import build_tensor_3d, feature_indices

REPO = Path(__file__).resolve().parents[1]

ML_RATINGS = """1::1193::5::978300760
1::661::3::978302109
2::1193::4::978298413
3::661::1::978301968
2::661::5::978299200
"""

ML_USERS = """1::F::1::10::48067
2::M::56::16::70072
3::M::25::15::55117
"""


@pytest.fixture
def ml_files(tmp_path):
    ratings = tmp_path / "ratings.dat"
    users = tmp_path / "users.dat"
    ratings.write_text(ML_RATINGS)
    users.write_text(ML_USERS)
    return ratings, users


class TestMovieLens:
    def test_parse_ratings(self, ml_files):
        ratings, users = ml_files
        ds = load_movielens(ratings, users_path=users, fmt="1m")
        assert len(ds.rating_values) == 5
        assert records(ds)[0] == (1, 1193, 5.0)
        assert ds.shift == 0.0
        assert ds.native_range == (1.0, 5.0)
        assert ds.users == {1: 0, 2: 1, 3: 2}
        assert ds.products == {1193: 0, 661: 1}

    def test_parse_users(self, ml_files):
        ratings, users = ml_files
        ds = load_movielens(ratings, users_path=users)
        # (age group, gender, occupation) codes, one row per dense user
        assert ds.features[ds.users[1]].tolist() == [0, 0, 10]
        assert ds.features[ds.users[2]].tolist() == [5, 1, 16]
        assert ds.features.shape == (3, 3) and ds.features.dtype == np.int64

    def test_a_user_the_users_file_lacks_gets_minus_one_codes(self, ml_files):
        ratings, users = ml_files
        users.write_text(ML_USERS.replace("2::M::56::16::70072\n", ""))
        ds = load_movielens(ratings, users_path=users)
        assert ds.features[ds.users[2]].tolist() == [-1, -1, -1]
        assert ds.features[ds.users[3]].tolist() == [2, 1, 15]
        # the dataset loads; a 3-D build names the user
        with pytest.raises(MissingFeatureFileError, match="^user 2 missing from the features table$"):
            user_feature_indices(ds, ("gender",))

    def test_the_features_table_cannot_change(self, ml_files):
        ds = load_movielens(*ml_files)
        with pytest.raises(ValueError, match="read-only"):
            ds.features[0, 0] = 1

    @pytest.mark.parametrize(
        "table",
        [
            np.zeros((2, 3), dtype=np.int64),  # one user short
            np.zeros((3, 2), dtype=np.int64),  # one category short
            {1: (0, 0, 10), 2: (5, 1, 16), 3: (2, 1, 15)},  # the old {raw id: features} dict
        ],
    )
    def test_a_features_table_of_another_shape_is_refused(self, ml_files, table):
        ds = load_movielens(*ml_files)
        with pytest.raises(ShapeMismatchError, match=r"features has shape .*, expected \(3, 3\)"):
            dataclasses.replace(ds, features=table)

    @pytest.mark.parametrize(
        "row, match",
        [
            ([6, 0, 0], r"row 1 is \[6, 0, 0\], expected codes below \[6, 2, 21\] or -1 throughout"),
            ([7, 7, 7], r"row 1 is \[7, 7, 7\]"),  # age 7 would index the gender block
            ([0, 2, 0], r"row 1 is \[0, 2, 0\]"),
            ([0, 0, 21], r"row 1 is \[0, 0, 21\]"),
            ([0, -1, 0], r"row 1 is \[0, -1, 0\]"),  # -1 in some columns only
            ([-2, -2, -2], r"row 1 is \[-2, -2, -2\]"),
        ],
    )
    def test_a_code_outside_its_block_is_refused(self, ml_files, row, match):
        ds = load_movielens(*ml_files)
        table = np.array([[0, 0, 10], row, [-1, -1, -1]])
        with pytest.raises(ShapeMismatchError, match=match):
            dataclasses.replace(ds, features=table)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_a_features_table_of_other_than_integer_codes_is_refused(self, ml_files, dtype):
        ds = load_movielens(*ml_files)
        with pytest.raises(ShapeMismatchError, match="features has dtype .*, expected integer codes"):
            dataclasses.replace(ds, features=np.zeros((3, 3), dtype=dtype))

    def test_an_unsigned_table_is_checked_before_it_is_cast(self, ml_files):
        ds = load_movielens(*ml_files)
        table = np.zeros((3, 3), dtype=np.uint64)
        assert dataclasses.replace(ds, features=table).features.dtype == np.int64
        table[2] = np.iinfo(np.uint64).max  # would cast to -1 in every column
        with pytest.raises(ShapeMismatchError, match="row 2"):
            dataclasses.replace(ds, features=table)

    def test_the_benchmark_users_file_has_a_line_for_every_user(self, tmp_path):
        spec = importlib.util.spec_from_file_location("bench_gen", REPO / "perfbench" / "bench_gen.py")
        bench_gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_gen)
        bench_gen.write_ratings(tmp_path, 7, n_users=120, n_items=80, n_pairs=2500)
        ds = load_movielens(tmp_path / "ratings.dat", tmp_path / "users.dat")
        assert ds.features.shape == (120, 3)
        assert (ds.features >= 0).all()  # no user has the missing-user code

    def test_rating_outside_native_range(self, tmp_path):
        bad = tmp_path / "bad.dat"
        bad.write_text("1::10::0::978300760\n")
        with pytest.raises(ParseError, match="bad.dat:1"):
            load_movielens(bad, fmt="1m")

    def test_malformed_line_reports_number(self, tmp_path):
        bad = tmp_path / "bad.dat"
        bad.write_text("1::10::5::1\n1::11::oops::2\n")
        with pytest.raises(ParseError, match=":2"):
            load_movielens(bad)

    def test_half_stars_only_in_10m(self, tmp_path):
        f = tmp_path / "r.dat"
        f.write_text("1::10::0.5::1\n")
        assert load_movielens(f, fmt="10m").rating_values[0] == 0.5
        with pytest.raises(ParseError):
            load_movielens(f, fmt="1m")

    def test_unknown_fmt_is_named(self, ml_files):
        with pytest.raises(ValueError, match=r"^fmt must be '1m' or '10m', got '5m'$"):
            load_movielens(ml_files[0], fmt="5m")

    def test_duplicate_pair_first_wins(self, tmp_path):
        f = tmp_path / "r.dat"
        f.write_text("1::10::5::1\n1::10::2::2\n2::10::3::3\n")
        ds = load_movielens(f)
        assert len(ds.rating_values) == 2
        assert ds.rating_values[0] == 5.0
        assert ds.duplicates_dropped == 1

    def test_vocabulary_stability(self, ml_files):
        ratings, _ = ml_files
        a = load_movielens(ratings)
        b = load_movielens(ratings)
        assert a.users == b.users and a.products == b.products


def records(ds):
    """The dataset's (raw user id, raw product id, rating) rows, in order."""
    # each vocabulary lists its raw ids in dense-index order
    users, products = (np.array(list(vocab), dtype=np.int64) for vocab in (ds.users, ds.products))
    return list(zip(users[ds.user_index].tolist(), products[ds.product_index].tolist(),
                    ds.rating_values.tolist()))


def reference_load(path, fmt="1m"):
    """Line-by-line MovieLens reader written from the format's rules:
    strip each line, skip blank ones, split on ``::`` into 3 or 4 fields,
    ``int``/``float`` each, check the rating range, keep the first record
    of each (user, product) pair, number users and products in order of
    first appearance.  Returns (users, products, records, dropped), each
    record a (user id, product id, rating) tuple."""
    lo = 1.0 if fmt == "1m" else 0.5
    rows = []
    with open(path, encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("::")
            if len(parts) not in (3, 4):
                raise ParseError(f"{path}:{lineno}: expected UserID::MovieID::Rating[::Timestamp]")
            try:
                uid, pid, rating = int(parts[0]), int(parts[1]), float(parts[2])
                ts = int(parts[3]) if len(parts) == 4 else None
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            for value in (uid, pid, ts):
                if value is not None and not -(2**63) <= value < 2**63:
                    raise ParseError(f"{path}:{lineno}: {value} does not fit in 64 bits")
            if not lo <= rating <= 5.0:
                raise ParseError(
                    f"{path}:{lineno}: rating {rating} outside native range {(lo, 5.0)}"
                )
            rows.append((uid, pid, rating))
    if not rows:
        raise ParseError(f"{path}: no rating lines found")
    seen, kept, users, products = set(), [], {}, {}
    for uid, pid, rating in rows:
        if (uid, pid) not in seen:
            seen.add((uid, pid))
            kept.append((uid, pid, rating))
            users.setdefault(uid, len(users))
            products.setdefault(pid, len(products))
    return users, products, kept, len(rows) - len(kept)


def assert_loads_like_reference(path, fmt="1m"):
    try:
        users, products, kept, dropped = reference_load(path, fmt)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            load_movielens(path, fmt=fmt)
        assert str(got.value) == str(exc)
        return
    ds = load_movielens(path, fmt=fmt)
    assert list(ds.users.items()) == list(users.items())
    assert list(ds.products.items()) == list(products.items())
    assert records(ds) == kept
    assert ds.duplicates_dropped == dropped
    assert ds.user_index.tolist() == [users[uid] for uid, _, _ in kept]
    assert ds.product_index.tolist() == [products[pid] for _, pid, _ in kept]


# (usual, unusual) tokens; unusual ones, some valid and some not, are drawn
# one time in 25
ID_TOKENS = (["1", "2", "3", "17", "4294967296"],
             ["01", "+3", "-2", " 5 ", "\t6", "9\xa0", "1_0", "1.0", "1e3", "", "x", "+ 1", "#1"])
RATING_TOKENS = (["1", "2", "3", "5", "4.5"],
                 ["0.5", "3.", ".5", "5e0", " 4 ", "+2", "5_0", "6", "0", "-1", "nan", "inf", ""])
STAMP_TOKENS = (["97830", "1"], ["-1", " 2 ", "x", "1.5"])
SEPARATORS = (["::"], [":", ":::", " :: ", "::::", ": :", ":\x00:"])
PADDING = ([""], [" ", "\t", "\x0c", "\xa0", "\x85"])
NEWLINES = (["\n"], ["\r\n", "\r", "\n\n", "\n \n"])


@st.composite
def rating_texts(draw):
    def token(kinds):
        usual, unusual = kinds
        return draw(st.sampled_from(unusual if draw(st.integers(0, 24)) == 0 else usual))

    n_fields = draw(st.sampled_from([4] * 6 + [3] * 3 + [2, 5]))
    text = ""
    for _ in range(draw(st.integers(0, 8))):
        # most files keep one field count; some lines change it
        n = n_fields if draw(st.integers(0, 9)) else draw(st.sampled_from([3, 4]))
        fields = [token(ID_TOKENS), token(ID_TOKENS), token(RATING_TOKENS)]
        fields += [token(STAMP_TOKENS) for _ in range(n - 3)]
        line = fields[0]
        for field in fields[1:n]:
            line += token(SEPARATORS) + field
        text += token(PADDING) + line + token(PADDING) + token(NEWLINES)
    return text


class TestMovieLensParser:
    """load_movielens parses whole files at once; it must agree with the
    line-by-line reference on values, order, vocabularies and errors."""

    @pytest.mark.parametrize(
        "text,fmt",
        [
            ("1::10::5::1\n\n2::11::4::2\n\n", "1m"),  # blank lines
            ("  1::10::5::1  \r\n\t2::11::4::2\r\n", "1m"),  # padding, CRLF
            ("1 :: 10 :: 5 :: 1\n", "1m"),  # padded fields
            ("1::10::5::1\n2::11::4\n3::12::3::3\n", "1m"),  # mixed 3 and 4 fields
            ("1::10::5\n2::11::4\n", "1m"),  # 3 fields only
            ("1::10::0.5::1\n2::10::4.5::2\n3::11::3::3\n", "10m"),  # half stars
            ("1::10::5::1\n1::10::2::2\n2::10::3::3\n2::11::1::4\n1::10::4::5\n", "1m"),
            ("\n\n3::7::2::-1\n", "1m"),  # explicit negative timestamp
            ("1::10::5::1\n   \n2::11::4::2\n", "1m"),  # whitespace-only line
            ("1::10::5\n2::11::4::2\n", "1m"),  # a 3-field file with a 4-field line
            ("1::10::5::1\r\n2::11::4::2\r\n", "1m"),  # CRLF
            ("1::10::5::1\r2::11::4::2\r", "1m"),  # CR alone
        ],
    )
    def test_matches_reference(self, tmp_path, text, fmt):
        path = tmp_path / "r.dat"
        path.write_text(text, encoding="latin-1", newline="")
        assert_loads_like_reference(path, fmt)

    @given(rating_texts(), st.sampled_from(["1m", "10m"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_generated_files(self, text, fmt):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "r.dat"
            path.write_text(text, encoding="latin-1", newline="")
            assert_loads_like_reference(path, fmt)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("1::10::5::1\n2::11::4::2::9\n", 2),  # five fields
            ("1::10::5::1\n2::11\n", 2),  # two fields
            ("1::10::5::1\n2:11:4:2\n", 2),  # single colons
            ("1::10::5::1\n1::11::oops::2\n", 2),  # non-numeric token
            ("1::10::5::1\n2::11::4::x\n", 2),  # timestamps are checked, not kept
            ("1::10::5::1\n2::11::4::1.5\n", 2),
            ("1::10::5::1\n\n1::11::nan::2\n", 3),  # nan after a blank line
            ("1::10::5::1\n\n\n1::11::7::2\n", 4),  # out of range after blank lines
            ("1::10::5::1\n# comment\n", 2),  # no comment syntax
            ("1::10::5::1\r\n2::11::x::2\r\n", 2),  # CRLF line counting
            ("1::10::5::1\n \n2::11::x::2\n\t\n", 3),  # whitespace-only lines still counted
            # loadtxt splits on single colons: lone colons must not pass
            # for separators, not even when the line has the seven columns
            # of a good one, whose fillers between the colons are empty
            ("1:x:2:y:3:z:4\n", 1),
            ("1::10::5::1\n1:x:2:y:3:z:4\n", 2),
            ("1::10::5::1\n1:x:2:y:3:z:4::a::b::c\n", 2),
            ("1: :2::3::4\n", 1),  # a filler holding a space
            ("1::10::5::1\n1: :2::3::4\n", 2),
            ("1::2:\t:3::4\n", 1),  # a tab
            ("1::10::5::1\n1::2:\t:3::4\n", 2),
            ("1:xy:2::3::4\n", 1),  # two characters
            ("1::10::5::1\n1::2::3:xy:4\n", 2),
            ("1:\x00:2::3::4\n", 1),  # a NUL, which a one-byte filler reads as empty
            ("1::10::5::1\n1::2::3:\x00:4\n", 2),
        ],
    )
    def test_malformed_line_is_named(self, tmp_path, text, line):
        path = tmp_path / "bad.dat"
        path.write_text(text, encoding="latin-1", newline="")
        with pytest.raises(ParseError, match=f"bad.dat:{line}: "):
            load_movielens(path)
        assert_loads_like_reference(path)

    @pytest.mark.parametrize(
        "text,bulk",
        [
            ("1::10::5::1\n2::11::4::2\n", True),
            ("\n1::10::5\n2::11::4\n", False),  # three fields: the line parser
            ("1::10::5::1\n2::11::4::2::9\n", False),  # surplus field
            ("1::10::5\n2::11::4::2\n", False),  # surplus field, 3-field file
            ("1:x:2:y:3:z:4\n", False),  # lone colons
            ("1::10::5::1\n1:x:2:y:3:z:4::a::b::c\n", False),  # lone colons, 3 separators
            ("1: :2::3::4\n", False),  # seven columns, a space in a filler
            ("1::10::5::1\n1: :2::3::4\n", False),
            ("1::2:\t:3::4\n", False),  # a tab
            ("1::10::5::1\n1::2:\t:3::4\n", False),
            ("1:xy:2::3::4\n", False),  # two characters
            ("1::10::5::1\n1::2::3:xy:4\n", False),
            ("1:\x00:2::3::4\n", False),  # a NUL
            ("1::10::5::1\n1::2::3:\x00:4\n", False),
            ("1::10::5::1\n2::11::4\n", False),  # missing field
        ],
    )
    def test_bulk_parser_takes_only_well_formed_text(self, text, bulk):
        assert (_parse_movielens_bulk(text) is not None) == bulk

    def test_no_rating_lines(self, tmp_path):
        path = tmp_path / "empty.dat"
        path.write_text("\n  \n\n")
        with pytest.raises(ParseError, match="no rating lines"):
            load_movielens(path)

    def test_raw_ids_beyond_32_bits_are_distinct_pairs(self, tmp_path):
        path = tmp_path / "r.dat"
        path.write_text("4294967296::5::5::1\n0::5::4::2\n1::4294967295::3::3\n")
        ds = load_movielens(path)
        assert len(ds.rating_values) == 3
        assert ds.duplicates_dropped == 0
        assert ds.users == {4294967296: 0, 0: 1, 1: 2}


    @pytest.mark.parametrize(
        "text",
        [
            "99999999999999999999::5::5::1\n",  # user id
            "1::5::5::1\n2::-9223372036854775809::4::2\n",  # product id
            "1::5::5::9223372036854775808\n",  # timestamp
        ],
    )
    def test_ids_beyond_int64_are_parse_errors(self, tmp_path, text):
        path = tmp_path / "big.dat"
        path.write_text(text)
        line = text.count("\n")
        with pytest.raises(ParseError, match=f"big.dat:{line}: .* does not fit in 64 bits"):
            load_movielens(path)
        assert_loads_like_reference(path)

    def test_int64_extremes_load(self, tmp_path):
        path = tmp_path / "r.dat"
        path.write_text("9223372036854775807::-9223372036854775808::5::-9223372036854775808\n")
        assert records(load_movielens(path)) == [(2**63 - 1, -(2**63), 5.0)]

    @pytest.mark.parametrize(
        "text,stamps",
        [
            ("3::7::2::-5\n", [-5]),  # one line, bulk parse
            ("3::7::2::-5\n4::7::2::0\n", [-5, 0]),
            ("3::7::2::-1\n4::7::2\n", [-1, None]),  # mixed fields, line parse
            ("3::7::2\n4::7::2\n", [None, None]),  # no timestamps at all
        ],
    )
    def test_negative_timestamps_are_kept(self, tmp_path, text, stamps):
        # a negative timestamp is a valid field: its record is kept, by the
        # bulk and the line parser alike
        path = tmp_path / "r.dat"
        path.write_text(text)
        assert len(load_movielens(path).rating_values) == len(stamps)
        assert_loads_like_reference(path)


class TestJester:
    def test_shift_and_sentinel(self, tmp_path):
        f = tmp_path / "jester.csv"
        f.write_text("2,-10.0,3.5,99\n0,99,99,99\n1,99,99,7.25\n")
        ds = load_jester(f)
        assert ds.shift == 11.0
        assert ds.native_range == (-10.0, 10.0)
        # (user, product, shifted value)
        triples = list(zip(ds.user_index, ds.product_index, ds.shifted_values))
        assert (0, 0, 1.0) in [(int(a), int(b), float(c)) for a, b, c in triples]
        assert (0, 1, 14.5) in [(int(a), int(b), float(c)) for a, b, c in triples]
        # the all-sentinel user exists in the vocabulary with zero records
        assert ds.n_users == 3
        assert int((ds.user_index == 1).sum()) == 0

    def test_shift_comes_from_the_declared_range(self, tmp_path):
        # no rating reaches -10: the shift is still 11, so which records
        # a fold holds out cannot move the stored training values
        f = tmp_path / "jester.csv"
        f.write_text("2,-3.5,2.0,99\n1,99,99,7.25\n")
        ds = load_jester(f)
        assert ds.shift == 11.0
        assert sorted(ds.shifted_values.tolist()) == [7.5, 13.0, 18.25]

    def test_out_of_range_value(self, tmp_path):
        f = tmp_path / "jester.csv"
        f.write_text("1,-10.5,99\n")
        with pytest.raises(ParseError, match="jester.csv:1"):
            load_jester(f)

    def test_ragged_rows(self, tmp_path):
        f = tmp_path / "jester.csv"
        f.write_text("1,5.0,3.0\n1,5.0\n")
        with pytest.raises(ParseError, match=":2"):
            load_jester(f)


class TestFeatureEncoding:
    @staticmethod
    def indices(ml_files, categories):
        """The blocks' width and {raw user id: feature indices}."""
        ds = load_movielens(*ml_files)
        dim, index = feature_indices(ds, categories)
        return dim, {raw: tuple(index[dense].tolist()) for raw, dense in ds.users.items()}

    def test_age_group_cap(self):
        assert age_group(56) == 5
        assert age_group(1) == 0
        assert age_group(25) == 2

    def test_age_gender_blocks(self, ml_files):
        dim, index = self.indices(ml_files, ("age", "gender"))
        assert dim == 8
        assert index[3] == (2, 6 + 1)  # age 25 -> group 2; male -> 6 + 1
        assert index[1] == (0, 6 + 0)  # age 1 -> group 0; female -> 6 + 0

    def test_occupation_block(self, ml_files):
        dim, index = self.indices(ml_files, ("occupation",))
        assert dim == 21
        assert index[1] == (10,)

    def test_alias_and_order_independence(self, ml_files):
        assert encode_features(("occup", "age")) == (0, 2)
        assert encode_features(("Gender", "age", "gender")) == (0, 1)
        dim, index = self.indices(ml_files, ("occup", "age"))
        assert dim == 27
        assert index[2] == (5, 6 + 16)  # age 56 -> group 5; occupation 16 after the age block

    def test_unknown_category(self):
        with pytest.raises(UnknownCategoryError, match="unknown feature category 'zodiac'"):
            encode_features(("zodiac",))
        with pytest.raises(UnknownCategoryError, match="at least one feature category"):
            encode_features(())

    @pytest.mark.parametrize("categories, message", [
        ("age", "categories must be a sequence of feature names, not the str 'age'"),
        (None, "categories must be a sequence of feature names, got None"),
        (5, "categories must be a sequence of feature names, got 5"),
    ])
    def test_a_str_or_a_non_iterable_is_refused(self, categories, message):
        with pytest.raises(UnknownCategoryError, match=f"^{message}$"):
            encode_features(categories)

    def test_the_library_check_gathers_the_codes_without_offsets(self, ml_files):
        ds = load_movielens(*ml_files)
        codes = user_feature_indices(ds, ("occup", "age", "Age"))
        np.testing.assert_array_equal(codes, ds.features[:, [0, 2]])
        assert codes.dtype == np.int64
        dim, index = feature_indices(ds, ("occup", "age"))
        assert dim == 27
        np.testing.assert_array_equal(index, codes + [0, 6])


class TestSplitting:
    def test_even_reproducible_folds(self, ml_files):
        ds = load_movielens(ml_files[0])
        a = split_kfold(ds, 5, seed=7)
        b = split_kfold(ds, 5, seed=7)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert sorted(np.bincount(a.assignment, minlength=5)) == [1, 1, 1, 1, 1]

    def test_seed_changes_assignment(self, tmp_path):
        ratings, _ = write_movielens_fixture(tmp_path, n_users=10, n_products=10, seed=3)
        ds = load_movielens(ratings)
        a = split_kfold(ds, 5, seed=0)
        b = split_kfold(ds, 5, seed=1)
        assert not np.array_equal(a.assignment, b.assignment)

    def test_fold_sizes_within_one(self, tmp_path):
        ratings, _ = write_movielens_fixture(tmp_path, n_users=13, n_products=9, seed=2)
        ds = load_movielens(ratings)
        plan = split_kfold(ds, 4, seed=0)
        sizes = np.bincount(plan.assignment, minlength=4)
        assert sizes.max() - sizes.min() <= 1

    def test_the_assignment_cannot_change(self, ml_files):
        plan = split_kfold(load_movielens(ml_files[0]), 5, seed=0)
        with pytest.raises(ValueError, match="read-only"):
            plan.assignment[0] = plan.assignment[1]

    def test_too_few(self, ml_files):
        ds = load_movielens(ml_files[0])
        with pytest.raises(TooFewRecordsError):
            split_kfold(ds, 1, seed=0)
        with pytest.raises(TooFewRecordsError):
            split_kfold(ds, 99, seed=0)

    @pytest.mark.parametrize("n_folds", ["3", None, 3.0, True, False])
    def test_n_folds_that_is_not_an_int_is_named(self, ml_files, n_folds):
        ds = load_movielens(ml_files[0])
        with pytest.raises(ValueError, match=r"^n_folds must be an int >= 2, got ") as info:
            split_kfold(ds, n_folds, 0)
        assert not isinstance(info.value, TooFewRecordsError)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, "0"])
    def test_a_seed_that_is_not_an_int_at_least_0_is_named(self, ml_files, seed):
        ds = load_movielens(ml_files[0])
        with pytest.raises(ValueError, match=r"^seed must be an int >= 0, got "):
            split_kfold(ds, 5, seed)
        assert split_kfold(ds, 5, np.int64(3)).seed == 3


class TestTensorConstruction:
    def test_2d_partition(self, ml_files):
        ds = load_movielens(ml_files[0])
        plan = split_kfold(ds, 5, seed=0)
        for fold in range(5):
            assert build_tensor_2d(ds, plan, fold).n_observed == 4
            assert plan.test_mask(fold).sum() == 1
        # shifted truth unshifts to a native rating
        (truth,) = ds.shifted_values[plan.test_mask(0)]
        assert truth - ds.shift in {1.0, 3.0, 4.0, 5.0}

    def test_cold_user_possible(self, ml_files):
        ds = load_movielens(ml_files[0])
        plan = split_kfold(ds, 5, seed=0)
        # user 3 has a single record: whichever fold holds it leaves the
        # user's row empty in training
        fold = int(plan.assignment[ds.user_index.tolist().index(ds.users[3])])
        train = build_tensor_2d(ds, plan, fold)
        row = ds.users[3]
        assert not (train.indices[:, 0] == row).any()

    def test_3d_writes_one_entry_per_category(self, ml_files):
        ds = load_movielens(*ml_files)
        plan = split_kfold(ds, 5, seed=0)
        train2 = build_tensor_2d(ds, plan, 0)
        train3, _, _, feats_per_test = build_tensor_3d(ds, ("age", "gender"), plan, 0)
        assert train3.n_observed == 2 * train2.n_observed
        assert train3.shape == (3, 8, 2)
        single = build_tensor_3d(ds, ("gender",), plan, 0)[0]
        assert single.n_observed == train2.n_observed
        # the worked example: one record lands at both its age-group index
        # and its gender index, with the same value
        feats = feats_per_test[0]
        assert len(feats) == 2

    def test_3d_shared_feature_slice(self, ml_files):
        ds = load_movielens(*ml_files)
        plan = split_kfold(ds, 5, seed=0)
        train = build_tensor_3d(ds, ("gender",), plan, 0)[0]
        # users 2 and 3 are both male: their entries share feature index 1
        male_rows = train.indices[train.indices[:, 1] == 1]
        assert len({int(r[0]) for r in male_rows}) >= 2

    def test_3d_requires_features(self, ml_files):
        ds = load_movielens(ml_files[0])  # no users file
        plan = split_kfold(ds, 5, seed=0)
        with pytest.raises(MissingFeatureFileError):
            build_tensor_3d(ds, ("age",), plan, 0)


@st.composite
def datasets_of_every_origin(draw):
    """Small datasets from each constructor of a RatingsDataset: MovieLens
    text with duplicate pairs and raw ids in any order, Jester grids with
    unrated cells and empty rows, and ``synthetic_dataset``."""
    origin = draw(st.sampled_from(["movielens", "jester", "synthetic"]))
    if origin == "synthetic":
        return synthetic_dataset(
            draw(st.integers(0, 2**16)),
            n_users=draw(st.integers(2, 12)),
            n_products=draw(st.integers(2, 12)),
            density=draw(st.floats(0.05, 1.0)),
        )
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "data"
        if origin == "movielens":
            record = st.tuples(st.integers(-3, 8), st.sampled_from([7, 2**40, -5, 0, 11]),
                               st.integers(1, 5))
            lines = [f"{u}::{p}::{r}::0" for u, p, r in draw(st.lists(record, min_size=1, max_size=40))]
            path.write_text("\n".join(lines) + "\n")
            return load_movielens(path)
        n_cols = draw(st.integers(1, 6))
        cell = st.sampled_from(["99", "-10", "0", "3.5", "10"])
        rows = draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols), min_size=1, max_size=8))
        assume(any(c != "99" for row in rows for c in row))
        path.write_text("".join(",".join(["0", *row]) + "\n" for row in rows))
        return load_jester(path)


def assert_same_tensor(tensor, expected):
    assert tensor.shape == expected.shape
    for name in ("indices", "values", "_flat"):
        got, want = getattr(tensor, name), getattr(expected, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestKeyOrder:
    """Every dataset lists its records by (user, product) key once, and
    each fold's training tensor is a subsequence of that order."""

    @given(datasets_of_every_origin(), st.integers(2, 5), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_fold_tensors_match_a_full_validation(self, ds, n_folds, seed):
        n = len(ds.rating_values)
        assume(n >= n_folds)
        keys = ds.user_index * ds.n_products + ds.product_index
        assert (np.diff(keys[ds.key_order]) > 0).all()
        assert sorted(ds.key_order.tolist()) == list(range(n))
        shape = (ds.n_users, ds.n_products)
        plan = split_kfold(ds, n_folds, seed)
        for fold in range(n_folds):
            train = plan.assignment != fold
            tensor = build_tensor_2d(ds, plan, fold)
            held_out = np.flatnonzero(plan.test_mask(fold))
            pairs = np.stack([ds.user_index[held_out], ds.product_index[held_out]], axis=1)
            truth = ds.shifted_values[held_out]
            checked = SparseTensor(
                shape,
                np.stack([ds.user_index[train], ds.product_index[train]], axis=1),
                ds.shifted_values[train],
            )
            assert_same_tensor(tensor, checked)
            # held out in file order
            test = ~train
            assert np.array_equal(pairs, np.stack([ds.user_index[test], ds.product_index[test]], axis=1))
            assert np.array_equal(truth, ds.shifted_values[test])

    @given(datasets_of_every_origin())
    @settings(max_examples=100, deadline=None)
    def test_all_records_tensor_matches_a_full_validation(self, ds):
        checked = SparseTensor(
            (ds.n_users, ds.n_products),
            np.stack([ds.user_index, ds.product_index], axis=1),
            ds.shifted_values,
        )
        assert_same_tensor(records_tensor(ds), checked)

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda o: o[::-1], "are out of order in the key order"),
            (lambda o: np.r_[o[:1], o[:-1]], "share the key order"),
            (lambda o: np.r_[o[:-1], len(o)], r"key_order position lies outside \[0, "),
            (lambda o: o[:-1], r"key_order has shape"),
        ],
    )
    def test_a_wrong_key_order_is_refused(self, change, message):
        ds = synthetic_dataset(0, n_users=5, n_products=4)
        with pytest.raises(KeyOrderError, match=message):
            dataclasses.replace(ds, key_order=change(ds.key_order))

    def test_dense_indices_must_be_in_range(self):
        ds = synthetic_dataset(0, n_users=5, n_products=4)
        bad = ds.product_index.copy()
        bad[0] = 4
        with pytest.raises(KeyOrderError, match=r"dense product index lies outside \[0, 4\)"):
            dataclasses.replace(ds, product_index=bad)

    def test_the_validated_columns_cannot_change(self):
        ds = synthetic_dataset(0)
        for column in (ds.key_order, ds.user_index, ds.product_index):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.key_order = ds.key_order[::-1]

    def test_a_fold_plan_of_another_dataset_is_refused(self):
        ds = synthetic_dataset(0)
        plan = split_kfold(synthetic_dataset(1, n_users=7), 3, 0)
        with pytest.raises(ValueError, match="fold plan assigns"):
            build_tensor_2d(ds, plan, 0)
        with pytest.raises(ValueError, match="fold plan assigns"):
            build_tensor_3d(ds, ("age",), plan, 0)


def first_encounter_vocab(raw_ids):
    """``_dense_vocab`` as first written: a stable sort for first positions."""
    uniq, first, inverse = np.unique(raw_ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return dict(zip(uniq[order].tolist(), range(len(order)))), rank[inverse]


@given(st.lists(st.one_of(st.integers(-3, 3), st.sampled_from([-(2**63), 2**63 - 1, 2**40])),
                min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_dense_vocab_matches_the_stable_sort_version(ids):
    raw = np.array(ids, dtype=np.int64)
    vocab, dense = _dense_vocab(raw)
    expected_vocab, expected_dense = first_encounter_vocab(raw)
    assert list(vocab.items()) == list(expected_vocab.items())
    assert dense.dtype == expected_dense.dtype and np.array_equal(dense, expected_dense)


class TestTensorText:
    def test_round_trip(self, tmp_path, three_entry_2x2):
        path = tmp_path / "t.txt"
        save_tensor_text(path, three_entry_2x2.shape, three_entry_2x2.indices,
                         three_entry_2x2.values)
        again = load_tensor_text(path)
        assert again.shape == (2, 2)
        np.testing.assert_array_equal(again.values, three_entry_2x2.values)

    def test_missing_header(self, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text("0,0,2.0\n")
        with pytest.raises(ParseError):
            load_tensor_text(f)

    def test_wrong_arity(self, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text("shape 2,2\n0,0,1,2.0\n")
        with pytest.raises(ParseError, match=":2"):
            load_tensor_text(f)

    @pytest.mark.parametrize("dims", ["0,2", "2,-3"])
    def test_dimension_below_one(self, tmp_path, dims):
        f = tmp_path / "t.txt"
        f.write_text(f"# a comment\nshape {dims}\n")
        with pytest.raises(ParseError, match=r"t\.txt:2: dimensions must be >= 1"):
            load_tensor_text(f)


    @pytest.mark.parametrize("text, error, message", [
        ("shape 2,2\n0,0,1.0\n0,5,2.0\n", IndexOutOfBoundsError, "index out of bounds in dimension 1"),
        ("shape 2,2\n0,0,1.0\n1,1,-2\n", NonPositiveValueError, "value -2.0 at index (1, 1) is not strictly positive"),
        ("shape 2,2\n0,0,1.0\n1,1,2.0\n0,0,3.0\n", DuplicateIndexError, "duplicate index (0, 0)"),
    ], ids=["out-of-bounds", "not-positive", "repeated"])
    def test_a_refused_cell_names_the_file(self, tmp_path, text, error, message):
        f = tmp_path / "t.txt"
        f.write_text(text)
        with pytest.raises(error) as got:
            load_tensor_text(f)
        assert type(got.value) is error and str(got.value).startswith(f"{f}: {message}")


# (loader, file name, text, the exact message after the file's path)
REFUSALS = [
    ("users", "users.dat", "1::F::1::10\n2::M::56\n", ":2: expected UserID::Gender::Age::Occupation[::Zip]"),
    ("users", "users.dat", "1::F::1::10\n2::M::x::16\n", ":2: invalid literal for int() with base 10: 'x'"),
    ("users", "users.dat", "1::F::1::10\n2::X::56::16\n", ":2: gender must be M or F, got 'X'"),
    ("users", "users.dat", "1::F::1::10\n2::M::-1::16\n", ":2: negative age -1"),
    ("users", "users.dat", "1::F::1::10\n2::M::56::21\n", ":2: occupation must be in [0, 20], got 21"),
    ("jester", "j.csv", "1,5.0\n\n7\n", ":3: expected a count column plus ratings"),
    ("jester", "j.csv", "1,5.0,3.0\n1,5.0\n", ":2: ragged row (2 columns, expected 3)"),
    ("jester", "j.csv", "1,5.0,x\n", ":1: could not convert string to float: 'x'"),
    ("jester", "j.csv", "1,5.0,3.0\n1,99,10.5\n", ":2: rating 10.5 outside native range (-10, 10)"),
    ("jester", "j.csv", "\n  \n", ": empty file"),
    ("jester", "j.csv", "0,99,99\n0,99,99\n", ": no observed ratings"),
    # a row reads its ratings in column order: the range error comes first
    ("jester", "j.csv", "2,11,x\n", ":1: rating 11.0 outside native range (-10, 10)"),
    ("tensor", "t.txt", "# c\n0,0,2.0\n", ":2: expected header 'shape d1,d2,...'"),
    ("tensor", "t.txt", "shape 2,x\n", ":1: invalid literal for int() with base 10: 'x'"),
    ("tensor", "t.txt", "shape 2,0\n", ":1: dimensions must be >= 1, got (2, 0)"),
    ("tensor", "t.txt", "shape 2,2\n0,0,1.0\n\n1,1\n", ":4: expected 2 indices and a value"),
    ("tensor", "t.txt", "shape 2,2\n0,9223372036854775808,1.0\n",
     ":2: 9223372036854775808 does not fit in 64 bits"),
    ("tensor", "t.txt", "shape 2,2\n0,0,one\n", ":2: could not convert string to float: 'one'"),
    ("tensor", "t.txt", "\n# only a comment\n", ": missing 'shape' header"),
    # a line parses every token before its ids are checked: the parse error wins
    ("ratings", "r.dat", "1::5::5::1\n99999999999999999999::5::x::1\n",
     ":2: could not convert string to float: 'x'"),
]


@pytest.mark.parametrize("loader,name,text,message", REFUSALS)
def test_each_refusal_names_its_line(tmp_path, loader, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    ratings = tmp_path / "good.dat"  # the users file's companion
    ratings.write_text("1::5::5::1\n")
    load = {
        "users": functools.partial(load_movielens, ratings),  # the users file comes second
        "jester": load_jester,
        "tensor": load_tensor_text,
        "ratings": load_movielens,
    }[loader]
    with pytest.raises(ParseError) as got:
        load(path)
    assert str(got.value) == f"{path}{message}"
