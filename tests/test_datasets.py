import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctensor import (
    MissingFeatureFileError,
    ParseError,
    TooFewRecordsError,
    UnknownCategoryError,
    build_tensor_2d,
    build_tensor_3d,
    encode_features,
    load_jester,
    load_movielens,
    load_tensor_text,
    save_tensor_text,
    split_kfold,
)
from uctensor.datasets import RatingRecord, UserFeatures, age_group

from conftest import write_movielens_fixture

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
        assert len(ds.records) == 5
        first = ds.records[0]
        assert (first.user_id, first.product_id, first.rating) == (1, 1193, 5.0)
        assert first.timestamp == 978300760
        assert ds.shift == 0.0
        assert ds.native_range == (1.0, 5.0)
        assert ds.users == {1: 0, 2: 1, 3: 2}
        assert ds.products == {1193: 0, 661: 1}

    def test_parse_users(self, ml_files):
        ratings, users = ml_files
        ds = load_movielens(ratings, users_path=users)
        assert ds.features[1] == UserFeatures(1, "F", 1, 10)
        assert ds.features[2] == UserFeatures(2, "M", 56, 16)

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
        assert load_movielens(f, fmt="10m").records[0].rating == 0.5
        with pytest.raises(ParseError):
            load_movielens(f, fmt="1m")

    def test_duplicate_pair_first_wins(self, tmp_path):
        f = tmp_path / "r.dat"
        f.write_text("1::10::5::1\n1::10::2::2\n2::10::3::3\n")
        ds = load_movielens(f)
        assert len(ds.records) == 2
        assert ds.records[0].rating == 5.0
        assert ds.duplicates_dropped == 1

    def test_vocabulary_stability(self, ml_files):
        ratings, _ = ml_files
        a = load_movielens(ratings)
        b = load_movielens(ratings)
        assert a.users == b.users and a.products == b.products


def reference_load(path, fmt="1m"):
    """Line-by-line MovieLens reader written from the format's rules:
    strip each line, skip blank ones, split on ``::`` into 3 or 4 fields,
    ``int``/``float`` each, check the rating range, keep the first record
    of each (user, product) pair, number users and products in order of
    first appearance.  Returns (users, products, records, dropped)."""
    lo = 1.0 if fmt == "1m" else 0.5
    records = []
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
            records.append(RatingRecord(uid, pid, rating, ts))
    if not records:
        raise ParseError(f"{path}: no rating lines found")
    seen, kept, users, products = set(), [], {}, {}
    for r in records:
        if (r.user_id, r.product_id) not in seen:
            seen.add((r.user_id, r.product_id))
            kept.append(r)
            users.setdefault(r.user_id, len(users))
            products.setdefault(r.product_id, len(products))
    return users, products, kept, len(records) - len(kept)


def assert_loads_like_reference(path, fmt="1m"):
    try:
        users, products, records, dropped = reference_load(path, fmt)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            load_movielens(path, fmt=fmt)
        assert str(got.value) == str(exc)
        return
    ds = load_movielens(path, fmt=fmt)
    assert list(ds.users.items()) == list(users.items())
    assert list(ds.products.items()) == list(products.items())
    assert list(ds.records) == records
    assert ds.duplicates_dropped == dropped
    assert ds.user_index.tolist() == [users[r.user_id] for r in records]
    assert ds.product_index.tolist() == [products[r.product_id] for r in records]


# (usual, unusual) tokens; unusual ones, some valid and some not, are drawn
# one time in 25
ID_TOKENS = (["1", "2", "3", "17", "4294967296"],
             ["01", "+3", "-2", " 5 ", "\t6", "9\xa0", "1_0", "1.0", "1e3", "", "x", "+ 1", "#1"])
RATING_TOKENS = (["1", "2", "3", "5", "4.5"],
                 ["0.5", "3.", ".5", "5e0", " 4 ", "+2", "5_0", "6", "0", "-1", "nan", "inf", ""])
STAMP_TOKENS = (["97830", "1"], ["-1", " 2 ", "x", "1.5"])
SEPARATORS = (["::"], [":", ":::", " :: ", "::::"])
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
            ("1::10::5::1\n\n1::11::nan::2\n", 3),  # nan after a blank line
            ("1::10::5::1\n\n\n1::11::7::2\n", 4),  # out of range after blank lines
            ("1::10::5::1\n# comment\n", 2),  # no comment syntax
            ("1::10::5::1\r\n2::11::x::2\r\n", 2),  # CRLF line counting
        ],
    )
    def test_malformed_line_is_named(self, tmp_path, text, line):
        path = tmp_path / "bad.dat"
        path.write_text(text, encoding="latin-1", newline="")
        with pytest.raises(ParseError, match=f"bad.dat:{line}: "):
            load_movielens(path)
        assert_loads_like_reference(path)

    def test_no_rating_lines(self, tmp_path):
        path = tmp_path / "empty.dat"
        path.write_text("\n  \n\n")
        with pytest.raises(ParseError, match="no rating lines"):
            load_movielens(path)

    def test_raw_ids_beyond_32_bits_are_distinct_pairs(self, tmp_path):
        path = tmp_path / "r.dat"
        path.write_text("4294967296::5::5::1\n0::5::4::2\n1::4294967295::3::3\n")
        ds = load_movielens(path)
        assert len(ds.records) == 3
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
        (record,) = load_movielens(path).records
        assert record == RatingRecord(2**63 - 1, -(2**63), 5.0, -(2**63))

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
        path = tmp_path / "r.dat"
        path.write_text(text)
        assert [r.timestamp for r in load_movielens(path).records] == stamps
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

    def test_unshift_round_trip(self, tmp_path):
        f = tmp_path / "jester.csv"
        f.write_text("3,-10.0,3.5,-0.25\n")
        ds = load_jester(f)
        np.testing.assert_allclose(
            ds.unshift(ds.shifted_values), ds.rating_values, atol=1e-12
        )
        assert ds.shifted_values.min() == 1.0

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
    table = {
        1: UserFeatures(1, "F", 1, 10),
        2: UserFeatures(2, "M", 56, 16),
        3: UserFeatures(3, "M", 25, 15),
    }

    def test_age_group_cap(self):
        assert age_group(56) == 5
        assert age_group(1) == 0
        assert age_group(25) == 2

    def test_age_gender_blocks(self):
        enc, index = encode_features(self.table, ("age", "gender"))
        assert enc.dim == 8
        assert index[3] == (2, 6 + 1)  # age 25 -> group 2; male -> 6 + 1
        assert index[1] == (0, 6 + 0)  # age 1 -> group 0; female -> 6 + 0

    def test_occupation_block(self):
        enc, index = encode_features(self.table, ("occupation",))
        assert enc.dim == 21
        assert index[1] == (10,)

    def test_alias_and_order_independence(self):
        a, _ = encode_features(self.table, ("occup", "age"))
        assert a.categories == ("age", "occupation")
        assert a.dim == 27

    def test_unknown_category(self):
        with pytest.raises(UnknownCategoryError):
            encode_features(self.table, ("zodiac",))
        with pytest.raises(UnknownCategoryError):
            encode_features(self.table, ())


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

    def test_too_few(self, ml_files):
        ds = load_movielens(ml_files[0])
        with pytest.raises(TooFewRecordsError):
            split_kfold(ds, 1, seed=0)
        with pytest.raises(TooFewRecordsError):
            split_kfold(ds, 99, seed=0)


class TestTensorConstruction:
    def test_2d_partition(self, ml_files):
        ds = load_movielens(ml_files[0])
        plan = split_kfold(ds, 5, seed=0)
        for fold in range(5):
            train, test, _ = build_tensor_2d(ds, plan, fold)
            assert train.n_observed == 4
            assert len(test) == 1
        # shifted truth unshifts to a native rating
        _, test, truths = build_tensor_2d(ds, plan, 0)
        (u, p), truth = test[0], truths[0]
        assert truth - ds.shift in {1.0, 3.0, 4.0, 5.0}

    def test_cold_user_possible(self, ml_files):
        ds = load_movielens(ml_files[0])
        plan = split_kfold(ds, 5, seed=0)
        # user 3 has a single record: whichever fold holds it leaves the
        # user's row empty in training
        fold = int(plan.assignment[[r.user_id for r in ds.records].index(3)])
        train = build_tensor_2d(ds, plan, fold)[0]
        row = ds.users[3]
        assert not (train.indices[:, 0] == row).any()

    def test_3d_writes_one_entry_per_category(self, ml_files):
        ds = load_movielens(*ml_files)
        plan = split_kfold(ds, 5, seed=0)
        train2 = build_tensor_2d(ds, plan, 0)[0]
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
