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
    NotAMatrixError,
    Prediction,
    ScaleSet,
    SolverConfig,
    SparseTensor,
    complete,
    complete_matrix,
    make_tensor,
    predict_rating,
    scale_apply,
    top_n,
)
from uctensor.properties import random_sparse_tensor

from conftest import TIGHT, scale_set


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

    def test_requires_2d(self, rng):
        completed = complete(random_sparse_tensor(rng, (3, 3, 3), 0.6), 2, TIGHT)
        with pytest.raises(NotAMatrixError):
            predict_rating(completed, 0, 0)


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
        with pytest.raises(IndexOutOfBoundsError):
            top_n(completed, 99, 3)


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


class TestTopNEquivalence:
    """top_n reads one row slice and ranks by partial selection; it must
    give exactly the answers of the full lookup and full sort."""

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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_fill_raises(self):
        completed = complete(make_tensor((2, 2), {(0, 0): 1e-320, (0, 1): 1.0, (1, 0): 1.0}), 1)
        for exclude in (False, True):
            with pytest.raises(NonFiniteValueError, match=r"index \(1, 1\)"):
                top_n(completed, 1, 1, exclude_observed=exclude)
        # user 0 rated both products: nothing of its row is a fill
        assert [p.rating for p in top_n(completed, 0, 2)] == [1.0, 1e-320]
