import pickle
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uctensor import (
    CompletedTensor,
    DidNotConvergeError,
    IndexOutOfBoundsError,
    LatentModel,
    NonFiniteValueError,
    NonPositiveValueError,
    NotAMatrixError,
    Prediction,
    ScaleSet,
    SolverConfig,
    SparseTensor,
    complete,
    complete_matrix,
    make_tensor,
    predict_rating,
    save_model,
    scale_apply,
    top_n,
)
from uctensor import recommend
from uctensor.properties import random_sparse_tensor
from uctensor.recommend import _query_plan

from conftest import TIGHT, scale_set

# The members of ``_query_plan``, in order: the one place the tests know
# the plan's layout.
PLAN_MEMBERS = ("user_logs", "starts", "walk", "tie_end", "walk_logs", "gaps", "least", "greatest", "first_tie")


def plan_member(completed, name):
    """The member ``name`` of ``completed``'s query plan."""
    return _query_plan(completed)[PLAN_MEMBERS.index(name)]


class TestPredictRating:
    def test_completed_query(self, three_entry_2x2):
        completed = complete_matrix(three_entry_2x2, TIGHT)
        pred = predict_rating(completed, 1, 1)
        assert pred.rating == pytest.approx(16.0, rel=1e-8)
        assert pred.source == "completed"

    def test_observed_passthrough(self, three_entry_2x2):
        completed = complete_matrix(three_entry_2x2, TIGHT)
        pred = predict_rating(completed, 0, 0)
        assert pred.rating == 2.0
        assert pred.source == "observed"

    def test_single_cell(self):
        completed = complete_matrix(make_tensor((1, 1), {(0, 0): 4.2}), TIGHT)
        assert predict_rating(completed, 0, 0).rating == 4.2

    def test_bounds(self, three_entry_2x2):
        completed = complete_matrix(three_entry_2x2, TIGHT)
        with pytest.raises(IndexOutOfBoundsError):
            predict_rating(completed, 5, 0)
        # index_rows's message, naming the first dimension out of range
        (n_users, n_products), shape = completed.shape, re.escape(str(completed.shape))
        for user, product, d in ((-1, 0, 0), (n_users, 0, 0), (0, -1, 1), (0, n_products, 1), (-1, -1, 0)):
            message = f"^index out of bounds in dimension {d} for shape {shape}$"
            with pytest.raises(IndexOutOfBoundsError, match=message):
                predict_rating(completed, user, product)
        # both ids are checked as integers before either is bounded
        with pytest.raises(TypeError, match="product id must be an integer"):
            predict_rating(completed, -1, 0.5)

    def test_requires_2d(self, rng):
        completed = complete(random_sparse_tensor(rng, (3, 3, 3), 0.6), 2, TIGHT)
        with pytest.raises(NotAMatrixError):
            predict_rating(completed, 0, 0)


class TestPrediction:
    """``Prediction`` is a named tuple of (user, product, rating, source)."""

    def test_fields_and_repr(self):
        pred = Prediction(1, 2, 3.0, "completed")
        assert Prediction._fields == ("user", "product", "rating", "source")
        assert repr(pred) == "Prediction(user=1, product=2, rating=3.0, source='completed')"

    def test_assignment_raises(self):
        pred = Prediction(1, 2, 3.0, "completed")
        with pytest.raises(AttributeError):
            pred.rating = 4.0

    def test_equality_and_hash(self):
        pred = Prediction(1, 2, 3.0, "completed")
        twin = Prediction(1, 2, 3.0, "completed")
        assert pred == twin and hash(pred) == hash(twin) and len({pred, twin}) == 1
        assert pred == (1, 2, 3.0, "completed")
        assert pred != Prediction(1, 2, 3.0, "observed")
        assert pred != Prediction(1, 2, 3.5, "completed")

    def test_queries_return_predictions(self, three_entry_2x2):
        completed = complete_matrix(three_entry_2x2, TIGHT)
        picks = [predict_rating(completed, 1, 1), predict_rating(completed, 1, 0)]
        for exclude in (False, True):
            picks += top_n(completed, 1, 2, exclude)
        assert [p.source for p in picks] == ["completed", "observed", "completed", "observed", "completed"]
        for pred in picks:
            assert type(pred) is Prediction
            assert (type(pred.user), type(pred.product), type(pred.rating)) == (int, int, float)


class TestTopN:
    @staticmethod
    def column_ordered_model():
        # three fully observed rows with column values 2, 1, 4: the learned
        # column scales rank products as 2 > 0 > 1 for any unobserved user
        entries = {}
        for i in range(3):
            entries.update({(i, 0): 2.0, (i, 1): 1.0, (i, 2): 4.0})
        return complete_matrix(make_tensor((4, 3), entries), TIGHT)

    def test_ranking_follows_column_scales(self):
        completed = self.column_ordered_model()
        picks = top_n(completed, 3, 3)
        assert [p.product for p in picks] == [2, 0, 1]
        assert all(p.source == "completed" for p in picks)

    def test_n_larger_than_catalog(self):
        completed = self.column_ordered_model()
        assert len(top_n(completed, 3, 50)) == 3

    def test_exclude_observed_empties_full_rows(self):
        completed = self.column_ordered_model()
        assert top_n(completed, 0, 5, exclude_observed=True) == []

    def test_tie_breaks_ascending_product(self):
        entries = {(0, 0): 3.0, (0, 1): 3.0, (0, 2): 3.0}
        completed = complete_matrix(make_tensor((2, 3), entries), TIGHT)
        picks = top_n(completed, 1, 3)  # all fills tie
        assert [p.product for p in picks] == [0, 1, 2]

    def test_ranking_consistency_between_unobserved_users(self):
        completed = self.column_ordered_model()
        # user 3 is fully unobserved; compare against a second unobserved
        # user in a taller version of the same model
        entries = {}
        for i in range(3):
            entries.update({(i, 0): 2.0, (i, 1): 1.0, (i, 2): 4.0})
        tall = complete_matrix(make_tensor((5, 3), entries), TIGHT)
        order_a = [p.product for p in top_n(tall, 3, 3)]
        order_b = [p.product for p in top_n(tall, 4, 3)]
        assert order_a == order_b == [2, 0, 1]

    def test_row_scaling_leaves_ranking_unchanged(self, rng):
        t = random_sparse_tensor(rng, (8, 6), 0.5)
        scales = scale_set((8, 6), 1, {(0,): np.exp(rng.uniform(-1.5, 1.5, 8))})
        base = complete_matrix(t, TIGHT)
        scaled = complete_matrix(scale_apply(t, scales), TIGHT)
        for user in range(8):
            a = [p.product for p in top_n(base, user, 6, exclude_observed=True)]
            b = [p.product for p in top_n(scaled, user, 6, exclude_observed=True)]
            assert a == b

    def test_validation(self):
        completed = self.column_ordered_model()
        with pytest.raises(ValueError):
            top_n(completed, 0, 0)
        n_users = completed.shape[0]
        # the plan's row starts would serve -2 as the last row
        for user in (-1, -2, n_users, 99):
            with pytest.raises(IndexOutOfBoundsError, match=rf"^row {user} out of range \[0, {n_users}\)$"):
                top_n(completed, user, 3)

    def test_requires_2d(self, rng):
        completed = complete(random_sparse_tensor(rng, (3, 3, 3), 0.6), 2, TIGHT)
        with pytest.raises(NotAMatrixError, match="top_n expects a 2-D completion"):
            top_n(completed, 0, 1)

    def test_ids_must_be_integers(self):
        # int() would answer a float id for another user
        completed = self.column_ordered_model()
        with pytest.raises(TypeError):
            top_n(completed, 1.7, 2)
        with pytest.raises(TypeError):
            predict_rating(completed, 1.9, 0)
        with pytest.raises(TypeError):
            predict_rating(completed, 0, 1.0)
        # nor is a bool read as user or product 0 or 1
        for flag in (True, False, np.True_):
            with pytest.raises(TypeError, match=rf"^user id must be an integer, got {flag!r}$"):
                top_n(completed, flag, 2)
            with pytest.raises(TypeError, match=rf"^user id must be an integer, got {flag!r}$"):
                predict_rating(completed, flag, 0)
            with pytest.raises(TypeError, match=rf"^product id must be an integer, got {flag!r}$"):
                predict_rating(completed, 0, flag)
        assert top_n(completed, np.int64(1), 2) == top_n(completed, 1, 2)
        assert predict_rating(completed, np.int32(1), np.int64(0)) == predict_rating(completed, 1, 0)


def reference_top_n(completed, user, n, exclude_observed=False):
    """top_n as it was first written: every product of the row looked up
    through the whole pattern, then a full stable sort on descending
    value (ties stay in ascending product order)."""
    n_products = completed.shape[1]
    idx = np.stack([np.full(n_products, user), np.arange(n_products)], axis=1)
    values = np.exp(-completed.scales.log_sum_at(idx))
    observed = completed.source.observed_mask_for(idx)
    if observed.any():
        flat = np.ravel_multi_index(idx[observed].T, completed.shape)
        values[observed] = completed.source.values[np.searchsorted(completed.source._flat, flat)]
    candidates = np.flatnonzero(~observed) if exclude_observed else np.arange(n_products)
    order = candidates[np.argsort(-values[candidates], kind="stable")]
    return [
        Prediction(user, int(p), float(values[p]), "observed" if observed[p] else "completed")
        for p in order[:n]
    ]


@st.composite
def rating_completions(draw):
    """A 2-D completion of ratings from {1..5}, so that ties are common.
    Each user rates a random subset, every product, or nothing.  The
    scales are either solved (a few sweeps, converged or not) or drawn
    from {1/2, 1, 2}, which makes fills tie as well."""
    n_users, n_products = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    rows = []
    for _ in range(n_users):
        kind = draw(st.sampled_from(["some", "some", "all", "none"]))
        if kind == "some":
            rows.append(draw(st.lists(st.booleans(), min_size=n_products, max_size=n_products)))
        else:
            rows.append([kind == "all"] * n_products)
    indices = np.argwhere(np.array(rows, dtype=bool).reshape(n_users, n_products))
    assume(len(indices) > 0)
    ratings = draw(st.lists(st.integers(1, 5), min_size=len(indices), max_size=len(indices)))
    tensor = SparseTensor((n_users, n_products), indices, np.array(ratings, dtype=float))
    if draw(st.booleans()):
        try:
            return complete_matrix(tensor, SolverConfig(max_sweeps=draw(st.integers(1, 30))))
        except DidNotConvergeError as exc:
            return CompletedTensor(exc.model)
    logs = {
        fixed: np.log(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=size, max_size=size)))
        for fixed, size in (((0,), n_users), ((1,), n_products))
    }
    nonempty = {f: np.ones(len(a), dtype=bool) for f, a in logs.items()}
    scales = ScaleSet((n_users, n_products), 1, logs, nonempty)
    model = LatentModel(source=tensor, scales=scales, sweeps_run=0, final_residual=0.0)
    return CompletedTensor(model)


def completion_of(source, user_logs, product_logs):
    """A completion of ``source`` with the given log scales, all subtensors
    flagged non-empty."""
    logs = {(0,): np.asarray(user_logs, dtype=float), (1,): np.asarray(product_logs, dtype=float)}
    nonempty = {f: np.ones(len(a), dtype=bool) for f, a in logs.items()}
    scales = ScaleSet(source.shape, 1, logs, nonempty)
    return CompletedTensor(LatentModel(source=source, scales=scales, sweeps_run=0, final_residual=0.0))


@st.composite
def wide_completions(draw):
    """Completions with up to 60 products, most of them rated, so that the
    walk stops well before the end of a user's row.  The product log
    scales come from a few levels, each possibly moved by one ulp, by
    less than the tie window or by just more, so that fills tie, round
    equal out of log-scale order, or nearly tie."""
    n_users, n_products = draw(st.integers(1, 4)), draw(st.integers(10, 60))
    rated = np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=n_users, max_size=n_users))
    )[:, None] > np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n_products, max_size=n_products)))
    indices = np.argwhere(rated)
    assume(len(indices) > 0)
    ratings = draw(st.lists(st.integers(1, 5), min_size=len(indices), max_size=len(indices)))
    tensor = SparseTensor((n_users, n_products), indices, np.array(ratings, dtype=float))
    if draw(st.booleans()):
        try:
            return complete_matrix(tensor, SolverConfig(max_sweeps=draw(st.integers(1, 30))))
        except DidNotConvergeError as exc:
            return CompletedTensor(exc.model)
    level = st.sampled_from([np.log(0.5), 0.0, 1e-3, np.log(2.0)])
    nudge = st.sampled_from(["none", "up", "down", "in", "out"])

    def moved(x, how):
        if how in ("up", "down"):
            return np.nextafter(x, np.inf if how == "up" else -np.inf)
        return x + {"none": 0.0, "in": 4e-10, "out": 3e-9}[how]

    product_logs = [moved(draw(level), draw(nudge)) for _ in range(n_products)]
    user_logs = draw(st.lists(st.sampled_from([np.log(0.5), 0.0, 1.0, 0.3]), min_size=n_users, max_size=n_users))
    return completion_of(tensor, user_logs, product_logs)


class TestTopNEquivalence:
    """top_n fills only a prefix of the product order and ranks it with
    one sort; it must give exactly the answers of the full lookup and
    full sort."""

    @given(rating_completions(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_full_sort_reference(self, completed, data):
        n_users, n_products = completed.shape
        for user in range(n_users):
            for exclude in (False, True):
                n = data.draw(st.integers(1, n_products + 2))
                assert top_n(completed, user, n, exclude) == reference_top_n(completed, user, n, exclude)
                assert top_n(completed, user, n_products, exclude) == reference_top_n(
                    completed, user, n_products, exclude
                )

    def test_ties_straddling_the_cut(self):
        # fills 2, 1, 2, 2, 1, 2: the 2nd and 3rd picks tie with two more
        logs = {(0,): np.zeros(1), (1,): -np.log([2.0, 1.0, 2.0, 2.0, 1.0, 2.0])}
        nonempty = {f: np.ones(len(a), dtype=bool) for f, a in logs.items()}
        source = make_tensor((1, 6), {(0, 4): 1.0})
        model = LatentModel(
            source=source,
            scales=ScaleSet((1, 6), 1, logs, nonempty),
            sweeps_run=0,
            final_residual=0.0,
        )
        completed = CompletedTensor(model)
        assert [p.product for p in top_n(completed, 0, 3)] == [0, 2, 3]
        assert [p.product for p in top_n(completed, 0, 5)] == [0, 2, 3, 5, 1]
        assert [p.product for p in top_n(completed, 0, 6)] == [0, 2, 3, 5, 1, 4]
        assert [p.product for p in top_n(completed, 0, 5, exclude_observed=True)] == [0, 2, 3, 5, 1]
        assert [p.source for p in top_n(completed, 0, 6)][-1] == "observed"

    def test_rating_tied_with_the_nth_fill_ranks_by_index(self):
        # every fill is exactly 1, and so is the rating of product 0: it
        # ties with the n-th fill and ranks first by its smaller index
        source = make_tensor((1, 6), {(0, 0): 1.0, (0, 4): 0.5})
        completed = completion_of(source, [0.0], np.zeros(6))
        assert top_n(completed, 0, 2) == [(0, 0, 1.0, "observed"), (0, 1, 1.0, "completed")]
        assert [p.product for p in top_n(completed, 0, 6)] == [0, 1, 2, 3, 5, 4]
        assert [p.product for p in top_n(completed, 0, 2, exclude_observed=True)] == [1, 2]

    @given(wide_completions(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_full_sort_reference_past_short_prefixes(self, completed, data):
        n_users, n_products = completed.shape
        for user in range(n_users):
            for exclude in (False, True):
                for n in (1, 2, 5, data.draw(st.integers(1, n_products + 2))):
                    assert top_n(completed, user, n, exclude) == reference_top_n(completed, user, n, exclude)

    def test_fills_that_round_equal_out_of_log_scale_order(self):
        # products 0 and 1, and 2 and 3, have log scales one ulp apart with
        # the larger on the smaller index; added to the user's log scale 1
        # they round to the same sum, so the fills tie and the smaller
        # index ranks first although its log scale is larger
        x, y = 1e-3, 0.25
        product_logs = [np.nextafter(x, 1.0), x, np.nextafter(y, 1.0), y, 0.5, x]
        source = make_tensor((2, 6), {(1, 1): 3.0, (1, 4): 2.0})
        completed = completion_of(source, [1.0, 1.0], product_logs)
        fills = [completed.fill_at((0, p)) for p in range(6)]
        assert fills[0] == fills[1] == fills[5] and fills[2] == fills[3]
        assert [p.product for p in top_n(completed, 0, 1)] == [0]
        assert [p.product for p in top_n(completed, 0, 4)] == [0, 1, 5, 2]
        assert [p.product for p in top_n(completed, 1, 2, exclude_observed=True)] == [0, 5]
        for user in range(2):
            for exclude in (False, True):
                for n in range(1, 8):
                    assert top_n(completed, user, n, exclude) == reference_top_n(completed, user, n, exclude)

    def test_unrepresentable_fill_past_the_candidates_raises(self):
        # user 1's best fill is 1, but product 2's log scale of 800 makes
        # its fill underflow: the query needs only product 0, yet it checks
        # the whole row
        source = make_tensor((2, 3), {(0, 0): 1.0, (0, 1): 1.0, (0, 2): 1.0})
        completed = completion_of(source, [0.0, 0.0], [0.0, 1.0, 800.0])
        for exclude in (False, True):
            with pytest.raises(NonPositiveValueError, match=r"index \(1, 2\)"):
                top_n(completed, 1, 1, exclude_observed=exclude)
        # user 0 rated every product: nothing of its row is a fill
        assert [p.product for p in top_n(completed, 0, 1)] == [0]

    def test_far_log_scale_ranks_the_whole_row(self):
        # product 2's log scale of 704 puts a_u + b_p past 700, so the walk
        # takes the whole order: every unrated product is filled (its fill,
        # ~1e-306, is still a normal float) and ranked, and the rating 0.5 of
        # product 3 beats the fill 0.37 of product 0, though not the fill 1
        # of product 1
        source = make_tensor((1, 5), {(0, 3): 0.5})
        completed = completion_of(source, [0.0], [1.0, 0.0, 704.0, 2.0, 3.0])
        assert [(p.product, p.source) for p in top_n(completed, 0, 2)] == [(1, "completed"), (3, "observed")]
        for exclude in (False, True):
            for n in range(1, 7):
                assert top_n(completed, 0, n, exclude) == reference_top_n(completed, 0, n, exclude)

    def test_far_row_with_rounding_log_scales_equals_the_reference(self):
        # non-integer log scales, so the order of each a_u + b_p sum shows
        # in its rounding; one product's log scale past 700 sends every
        # user's query through the whole-row path, whose fills must equal
        # the reference's bit for bit
        rng = np.random.default_rng(7)
        n_users, n_products = 4, 30
        product_logs = rng.uniform(-3.0, 3.0, n_products)
        product_logs[11] = rng.uniform(702.0, 705.0)
        product_logs[20] = product_logs[5]  # a tie
        user_logs = rng.uniform(-1.0, 1.0, n_users)
        assert (user_logs + product_logs[11] > 700.0).all()
        rated = np.argwhere(rng.random((n_users, n_products)) < 0.3)
        ratings = rng.uniform(0.5, 5.0, len(rated))
        source = SparseTensor((n_users, n_products), rated, ratings)
        completed = completion_of(source, user_logs, product_logs)
        for user in range(n_users):
            for exclude in (False, True):
                for n in range(1, n_products + 2):
                    assert top_n(completed, user, n, exclude) == reference_top_n(completed, user, n, exclude)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_fill_raises(self):
        completed = complete(make_tensor((2, 2), {(0, 0): 1e-320, (0, 1): 1.0, (1, 0): 1.0}), 1)
        for exclude in (False, True):
            with pytest.raises(NonFiniteValueError, match=r"index \(1, 1\)"):
                top_n(completed, 1, 1, exclude_observed=exclude)
        # user 0 rated both products: nothing of its row is a fill
        assert [p.rating for p in top_n(completed, 0, 2)] == [1.0, 1e-320]


class TestTopNMidSize:
    """Every user of a seeded 300 x 500 completion whose rows are mostly
    rated, so that most walks pass many rated products before they stop,
    at n = 1, 10, 50, P and P + 1."""

    @staticmethod
    def completion():
        rng = np.random.default_rng(2024)
        density = rng.uniform(0.5, 0.98, size=(300, 1))
        density[0], density[1] = 1.0, 0.0  # one row all rated, one unrated
        indices = np.argwhere(rng.random((300, 500)) < density)
        ratings = rng.integers(1, 6, size=len(indices)).astype(float)
        return complete_matrix(SparseTensor((300, 500), indices, ratings))

    @staticmethod
    def assert_equals_reference(completed):
        n_products = completed.shape[1]
        for user in range(completed.shape[0]):
            for exclude in (False, True):
                for n in (1, 10, 50, n_products, n_products + 1):
                    assert top_n(completed, user, n, exclude) == reference_top_n(completed, user, n, exclude)

    def test_solved_scales(self):
        self.assert_equals_reference(self.completion())

    def test_one_tie_run_covers_every_row(self):
        # all product log scales equal: every walk extends over the whole
        # row, and the fills of each user's unrated products all tie
        solved = self.completion()
        tied = completion_of(solved.source, solved.scales.log[(0,)], np.full(500, 0.25))
        self.assert_equals_reference(tied)

    def test_far_log_scale_rows(self):
        # one product log scale of 702 puts every a_u + max(b) past 700:
        # every row, most of them mostly rated, fills and ranks the whole
        # walk, its rated products cut out of it
        solved = self.completion()
        product_logs = solved.scales.log[(1,)].copy()
        product_logs[7] = 702.0
        far = completion_of(solved.source, solved.scales.log[(0,)], product_logs)
        assert (far.scales.log[(0,)] + 702.0 > 700.0).all()
        self.assert_equals_reference(far)

    def test_rated_products_at_the_ends_of_the_prefix(self):
        # rows 2-5 of the solved completion rate, in walk order, only
        # position 0, only position 9 (n - 1 for n = 10), the consecutive
        # positions 3-5, and positions 0-9 and 12; row 0 rates every
        # product and row 1 none
        solved = self.completion()
        walk = plan_member(solved, "walk")
        positions = {2: [0], 3: [9], 4: [3, 4, 5], 5: [*range(10), 12]}
        indices = solved.source.indices
        keep = ~np.isin(indices[:, 0], list(positions))
        extra = np.array([[user, walk[i]] for user, at in positions.items() for i in at])
        rated = np.concatenate([indices[keep], extra])
        ratings = np.concatenate([solved.source.values[keep], np.arange(len(extra)) % 5 + 1.0])
        source = SparseTensor(solved.shape, rated, ratings)
        completed = completion_of(source, solved.scales.log[(0,)], solved.scales.log[(1,)])
        starts, gaps = plan_member(completed, "starts"), plan_member(completed, "gaps").obj
        for user, at in positions.items():  # each rated position less its index in the row
            assert gaps[starts[user] : starts[user + 1]].tolist() == [i - j for j, i in enumerate(at)]
        assert starts[1] - starts[0] == 500 and starts[2] == starts[1]
        self.assert_equals_reference(completed)


class TestGlobalOrder:
    """In 2-D a fill is exp(-(a_u + b_p)): every user ranks the products it
    has not rated by one order, ascending b_p."""

    @given(st.one_of(rating_completions(), wide_completions()))
    @settings(max_examples=200, deadline=None)
    def test_users_never_order_two_unrated_products_oppositely(self, completed):
        n_users = completed.shape[0]
        cells = np.argwhere(np.ones(completed.shape, dtype=bool))
        values = completed.values_at(cells).reshape(completed.shape)
        observed = completed.source.observed_mask_for(cells).reshape(completed.shape)
        order = np.sign(values[:, :, None] - values[:, None, :])  # user, p, q
        for u in range(n_users):
            for v in range(u + 1, n_users):
                both = ~observed[u] & ~observed[v]
                pairs = both[:, None] & both[None, :]
                assert not (order[u] * order[v] < 0)[pairs].any()


class TestProductOrderCache:
    """top_n keeps its query plan on the completion after its first
    query; it must never leak into pickles or saved models."""

    @staticmethod
    def completion(rng):
        return complete_matrix(random_sparse_tensor(rng, (8, 12), 0.4), TIGHT)

    def test_pickled_after_a_query_gives_identical_answers(self, rng):
        completed = self.completion(rng)
        unqueried = pickle.dumps(completed)
        before = [top_n(completed, user, 5, exclude) for user in range(8) for exclude in (False, True)]
        queried = pickle.dumps(completed)
        assert queried == unqueried  # the plan is left out
        clone = pickle.loads(queried)
        assert [top_n(clone, user, 5, exclude) for user in range(8) for exclude in (False, True)] == before

    def test_saved_model_is_the_same_with_or_without_queries(self, rng, tmp_path):
        completed = self.completion(rng)
        save_model(tmp_path / "before.npz", completed.model)
        for user in range(8):
            top_n(completed, user, 3)
        save_model(tmp_path / "after.npz", completed.model)
        assert (tmp_path / "before.npz").read_bytes() == (tmp_path / "after.npz").read_bytes()


class TestQueryPlan:
    """The query plan is a function of the completion, a plain value: it
    is built on the first query and serves every later one."""

    @staticmethod
    def completion(rng):
        return complete_matrix(random_sparse_tensor(rng, (8, 12), 0.4), TIGHT)

    def test_row_starts_with_empty_first_middle_and_last_rows(self, rng):
        dense = random_sparse_tensor(rng, (7, 5), 0.7)
        keep = ~np.isin(dense.indices[:, 0], [0, 3, 6])
        t = SparseTensor(dense.shape, dense.indices[keep], dense.values[keep])
        completed = complete_matrix(t, TIGHT)
        starts = plan_member(completed, "starts")
        assert type(starts) is tuple
        assert starts == (0, *np.cumsum(np.bincount(t.indices[:, 0], minlength=7)).tolist())
        assert starts[:2] == (0, 0) and starts[-2:] == (t.n_observed, t.n_observed)
        for user in range(7):
            for exclude in (False, True):
                assert top_n(completed, user, 5, exclude) == reference_top_n(completed, user, 5, exclude)

    def test_the_plan_is_built_once(self, rng):
        completed = self.completion(rng)
        assert completed._plan is None
        top_n(completed, 0, 3)
        plan = completed._plan
        assert len(plan) == len(PLAN_MEMBERS) == 9
        for user in range(8):
            for exclude in (False, True):
                for n in (1, 5, 13):
                    assert top_n(completed, user, n, exclude) == reference_top_n(completed, user, n, exclude)
        assert _query_plan(completed) is plan and completed._plan is plan

    def test_plan_arrays_are_read_only(self, rng):
        completed = self.completion(rng)
        top_n(completed, 0, 3)
        arrays = [a for a in _query_plan(completed) if isinstance(a, np.ndarray)]
        # the negated product logs in walk order; rank and the order array
        # are only read by the build, the user logs, walk and tie_end are
        # tuples, and gaps is a view of its array
        assert len(arrays) == 1 and arrays[0] is plan_member(completed, "walk_logs")
        gaps = plan_member(completed, "gaps")
        assert type(gaps) is memoryview and gaps.readonly and isinstance(gaps.obj, np.ndarray)
        assert not any(a.flags.writeable for a in (*arrays, gaps.obj))

    def test_no_plan_member_is_mutable(self, rng):
        # every member is a number, a tuple of numbers, a read-only array
        # or a read-only view, so concurrent queries can share the plan
        completed = self.completion(rng)
        plan = _query_plan(completed)
        assert type(plan) is tuple
        for member in plan:
            if isinstance(member, np.ndarray):
                assert not member.flags.writeable
            elif isinstance(member, memoryview):
                assert member.readonly
            elif isinstance(member, tuple):
                assert all(type(x) in (int, float) for x in member)
            else:
                assert type(member) in (int, float)

    def test_walk_members_agree_with_the_scales(self, rng):
        completed = self.completion(rng)
        user_logs, walk, tie_end, walk_logs = (
            plan_member(completed, name) for name in ("user_logs", "walk", "tie_end", "walk_logs")
        )
        product_logs = completed.scales.log[(1,)]
        assert walk == tuple(np.argsort(product_logs, kind="stable").tolist())
        assert walk_logs.tolist() == (-product_logs[list(walk)]).tolist()
        assert user_logs == tuple(completed.scales.log[(0,)].tolist())
        assert len(tie_end) == len(walk) and all(type(e) is int and e > i for i, e in enumerate(tie_end))


def gaps_oracle(completed):
    """The plan's gaps by brute force: per row, the sorted order positions
    of its rated products, each less its index."""
    rank = np.argsort(np.argsort(completed.scales.log[(1,)], kind="stable"))
    rows, products = completed.source.indices.T
    out = []
    for user in range(completed.shape[0]):
        taken = np.sort(rank[products[rows == user]])
        out += (taken - np.arange(len(taken))).tolist()
    return out


class TestPlanGaps:
    """The plan's gaps, built a block of whole rows at a time, must equal
    the brute-force oracle whatever the block size, and top_n, which reads
    only them for the rated products of an in-range row, the reference."""

    @staticmethod
    def assert_gaps_and_answers(completed, dtype, ns):
        gaps = plan_member(completed, "gaps").obj
        assert gaps.dtype == dtype
        assert gaps.tolist() == gaps_oracle(completed)
        for user in range(completed.shape[0]):
            for exclude in (False, True):
                for n in ns:
                    assert top_n(completed, user, n, exclude) == reference_top_n(completed, user, n, exclude)

    @pytest.mark.parametrize("block", [1, 3, 25, 64, recommend.PLAN_BLOCK])
    def test_empty_and_long_rows_across_blocks(self, rng, monkeypatch, block):
        # rows of 0 to 40 entries: empty first, middle and last rows, rows
        # longer than a block, and rows that would straddle a block's end
        monkeypatch.setattr(recommend, "PLAN_BLOCK", block)
        n_users, n_products = 12, 40
        density = rng.uniform(0.0, 1.0, size=(n_users, 1))
        density[[0, 5, 6, 11]] = 0.0
        density[3] = 1.0
        rated = np.argwhere(rng.random((n_users, n_products)) < density)
        source = SparseTensor((n_users, n_products), rated, rng.uniform(0.5, 5.0, len(rated)))
        completed = completion_of(source, rng.normal(size=n_users), rng.normal(size=n_products))
        self.assert_gaps_and_answers(completed, np.uint8, (1, 2, 10, n_products + 1))

    @pytest.mark.parametrize("n_products, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_smallest_dtype_that_holds_the_products(self, rng, n_products, dtype):
        # user 0 rates only the product last in order: its gap is P - 1
        product_logs = rng.normal(size=n_products)
        last = int(np.argmax(product_logs))
        rated = np.array([[0, last], *[[1, p] for p in range(0, n_products, 3)]])
        source = SparseTensor((2, n_products), rated, np.full(len(rated), 2.0))
        completed = completion_of(source, [0.0, 0.5], product_logs)
        assert plan_member(completed, "gaps")[0] == n_products - 1
        self.assert_gaps_and_answers(completed, dtype, (1, 10, n_products - 1, n_products + 2))

    def test_uint32_gaps_past_65535_products(self, rng):
        n_products = 70_000
        rated = np.concatenate([
            np.stack([np.zeros(50, dtype=int), rng.choice(n_products, 50, replace=False)], axis=1),
            np.stack([np.ones(3000, dtype=int), rng.choice(n_products, 3000, replace=False)], axis=1),
        ])
        source = SparseTensor((2, n_products), rated, rng.uniform(0.5, 5.0, len(rated)))
        product_logs = rng.normal(size=n_products)
        product_logs[rated[rated[:, 0] == 1, 1][:200]] = -10.0  # the walk passes 200 of user 1's
        completed = completion_of(source, [0.0, 0.2], product_logs)
        self.assert_gaps_and_answers(completed, np.uint32, (1, 10, 300))
        for exclude in (False, True):
            n = 2**32 + 2  # n - 1 is past what gaps' dtype holds
            assert top_n(completed, 1, n, exclude) == reference_top_n(completed, 1, n, exclude)

    def test_rated_products_inside_the_tie_run_after_the_nth(self):
        # products 0-3 tie; 1 and 2 are rated and lie right after the
        # first unrated one, inside its tie run
        source = make_tensor((1, 6), {(0, 1): 0.5, (0, 2): 3.0})
        completed = completion_of(source, [0.0], [0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
        assert plan_member(completed, "gaps").tolist() == [1, 1]
        assert [p.product for p in top_n(completed, 0, 1, exclude_observed=True)] == [0]
        assert [p.product for p in top_n(completed, 0, 2, exclude_observed=True)] == [0, 3]
        assert [p.product for p in top_n(completed, 0, 3, exclude_observed=True)] == [0, 3, 4]
        assert [(p.product, p.source) for p in top_n(completed, 0, 3)] == [
            (2, "observed"), (0, "completed"), (3, "completed")
        ]
        for exclude in (False, True):
            for n in range(1, 8):
                assert top_n(completed, 0, n, exclude) == reference_top_n(completed, 0, n, exclude)

    def test_rated_product_ending_a_two_product_tie_run(self):
        # product 0 lies one ulp past product 1 in log scale, so the walk
        # is 1, 0, 2 and the first tie run is positions 0-1; both sums
        # round to 2, so the fills tie and the rated product 0, the
        # smaller index, would rank first were it not cut from the prefix
        source = make_tensor((1, 3), {(0, 0): 2.0})
        completed = completion_of(source, [1.0], [np.nextafter(1.0, 2.0), 1.0, 2.0])
        assert plan_member(completed, "walk") == (1, 0, 2) and plan_member(completed, "first_tie") == 0
        assert predict_rating(completed, 0, 1).rating == np.exp(-2.0)
        assert [p.product for p in top_n(completed, 0, 1, exclude_observed=True)] == [1]
        for exclude in (False, True):
            for n in range(1, 5):
                assert top_n(completed, 0, n, exclude) == reference_top_n(completed, 0, n, exclude)


def sorts_a_list(call) -> bool:
    """Whether ``call()`` sorts a Python list (a ``list.sort`` C call)."""
    seen = []

    def profile(frame, event, arg):
        if event == "c_call" and isinstance(getattr(arg, "__self__", None), list) and arg.__name__ == "sort":
            seen.append(arg)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return bool(seen)


class TestFirstTie:
    """An exclude-observed query of an in-range row whose walk ends at or
    before the plan's first tie + 1 returns its fills in walk order, with
    no sort; any other query sorts.  Both must equal the reference, and
    every rating predict_rating's, bit for bit.  Products 7, 6, ..., 0 lie
    at order positions 0, 1, ..., 7, 0.1 apart in log scale, except that
    the product after position ``tie_at`` lies within the tie window of it;
    user 0 rates nothing and user 1 the products at ``rated`` positions."""

    @staticmethod
    def completion(tie_at, rated):
        positions = 0.1 * np.arange(8.0)
        positions[tie_at + 1] = positions[tie_at] + 4e-10
        source = make_tensor((2, 8), {(1, 7 - i): float(1 + i % 5) for i in rated})
        completed = completion_of(source, [0.0, 0.3], positions[::-1])
        assert plan_member(completed, "first_tie") == tie_at
        return completed

    @staticmethod
    def assert_answers(completed, user, n, walk_order):
        prepared = _query_plan(completed)  # its build sorts arrays, not lists
        for exclude in (False, True):
            got = []
            sorted_ = sorts_a_list(lambda: got.extend(top_n(completed, user, n, exclude)))
            assert _query_plan(completed) is prepared
            assert sorted_ is not (exclude and walk_order)
            assert got == reference_top_n(completed, user, n, exclude)
            for p in got:
                assert type(p) is Prediction
                assert p.rating.hex() == predict_rating(completed, user, p.product).rating.hex()

    def test_first_tie_before_the_nth_position_sorts(self):
        completed = self.completion(1, rated=[2, 6])  # user 1 rated a tied product
        for n in (3, 5, 9):
            self.assert_answers(completed, 0, n, walk_order=False)
            self.assert_answers(completed, 1, n, walk_order=False)
        self.assert_answers(completed, 0, 1, walk_order=True)  # the walk ends at position 0

    def test_nth_product_inside_its_tie_run_sorts(self):
        # the 4th unrated product is at position 3, tied with position 4,
        # which user 1 rated: the run extends the walk past it
        completed = self.completion(3, rated=[4])
        self.assert_answers(completed, 0, 4, walk_order=False)
        self.assert_answers(completed, 1, 4, walk_order=False)
        assert [p.product for p in top_n(completed, 1, 5, exclude_observed=True)] == [7, 6, 5, 4, 2]

    def test_first_tie_past_the_prefix_returns_walk_order(self):
        # positions 5 and 6 tie, and user 1 rated position 6 and position 1
        completed = self.completion(5, rated=[1, 6])
        for n in range(1, 6):
            self.assert_answers(completed, 0, n, walk_order=True)
        for n in range(1, 5):  # the 4th unrated product of user 1 is at position 4
            self.assert_answers(completed, 1, n, walk_order=True)
        self.assert_answers(completed, 0, 6, walk_order=False)  # the walk reaches the tie
        self.assert_answers(completed, 1, 5, walk_order=False)

    def test_no_tie_returns_walk_order_past_the_row(self):
        source = make_tensor((2, 8), {(1, 3): 2.0, (1, 5): 4.0})
        completed = completion_of(source, [0.0, 0.3], 0.1 * np.arange(8.0)[::-1])
        assert plan_member(completed, "first_tie") == 8
        for user in range(2):
            for n in (1, 6, 8, 9):
                self.assert_answers(completed, user, n, walk_order=True)
