import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctensor import (
    CompletedTensor,
    InvalidGammaError,
    InvalidKError,
    LatentModel,
    NonFiniteValueError,
    NotAMatrixError,
    OrderingSpec,
    ScaleSet,
    SolverConfig,
    SparseTensor,
    check_consensus_ordering,
    check_full_support,
    complete,
    complete_matrix,
    make_tensor,
    subtensor_families,
    unit_consistency_gap,
)
from uctensor.properties import (
    hide_with_full_support,
    random_scale_set,
    random_sparse_tensor,
)

from conftest import TIGHT

positive = st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False)


class TestCompletion:
    def test_three_entry_closed_form(self, three_entry_2x2):
        completed = complete(three_entry_2x2, 1, TIGHT)
        # solving the balance constraints for this pattern by hand gives
        # fill = A(0,1) * A(1,0) / A(0,0)
        assert completed.value_at((1, 1)) == pytest.approx(16.0, rel=1e-8)

    def test_fully_observed_is_passthrough(self, rng):
        t = random_sparse_tensor(rng, (4, 5), 1.0)
        completed = complete(t, 1, TIGHT)
        np.testing.assert_array_equal(completed.to_dense(), t.to_dense())

    def test_known_entries_bit_exact(self, rng):
        t = random_sparse_tensor(rng, (10, 8), 0.4)
        completed = complete(t, 1, TIGHT)
        for idx, val in zip(t.indices, t.values):
            assert completed.value_at(tuple(idx)) == val

    def test_rank1_recovery_small(self, rng):
        u = np.exp(rng.uniform(-1, 1, 8))
        v = np.exp(rng.uniform(-1, 1, 6))
        dense = np.outer(u, v)
        tensor, hidden, report = hide_with_full_support(rng, dense, 0.25)
        assert report.fully_supported
        completed = complete_matrix(tensor, TIGHT)
        np.testing.assert_allclose(completed.to_dense(), dense, rtol=1e-6)

    @given(positive, positive, positive)
    @settings(max_examples=100, deadline=None)
    def test_closed_form_property(self, a, b, c):
        t = make_tensor((2, 2), {(0, 0): a, (0, 1): b, (1, 0): c})
        completed = complete_matrix(t, SolverConfig(epsilon=1e-18, max_sweeps=5000))
        assert completed.value_at((1, 1)) == pytest.approx(b * c / a, rel=1e-8)

    def test_values_at_matches_value_at(self, rng):
        t = random_sparse_tensor(rng, (5, 4, 3), 0.3)
        completed = complete(t, 2, TIGHT)
        idx = np.array([(i, j, l) for i in range(5) for j in range(4) for l in range(3)])
        batch = completed.values_at(idx)
        single = [completed.value_at(tuple(row)) for row in idx]
        np.testing.assert_array_equal(batch, single)
        np.testing.assert_allclose(batch.reshape(5, 4, 3), completed.to_dense())

    def test_weakly_determined_flag(self):
        t = make_tensor((2, 2), {(0, 0): 2.0, (0, 1): 3.0})  # row 1 empty
        completed = complete_matrix(t, TIGHT)
        assert completed.weakly_determined((1, 0))
        assert not completed.weakly_determined((0, 0))
        # the fill still exists and is positive
        assert completed.value_at((1, 1)) > 0

    def test_all_fills_positive(self, rng):
        t = random_sparse_tensor(rng, (7, 6), 0.3)
        completed = complete_matrix(t, TIGHT)
        assert (completed.to_dense() > 0).all()


class TestMatrixAlias:
    def test_equals_k1_completion(self, three_entry_2x2):
        a = complete_matrix(three_entry_2x2, TIGHT)
        b = complete(three_entry_2x2, 1, TIGHT)
        np.testing.assert_array_equal(a.to_dense(), b.to_dense())

    def test_rejects_non_matrix(self, rng):
        t = random_sparse_tensor(rng, (3, 3, 3), 0.5)
        with pytest.raises(NotAMatrixError):
            complete_matrix(t)

    def test_single_cell(self):
        t = make_tensor((1, 1), {(0, 0): 3.5})
        completed = complete_matrix(t, TIGHT)
        assert completed.value_at((0, 0)) == 3.5


class TestFullSupport:
    def test_single_missing_corner(self, three_entry_2x2):
        report = check_full_support(three_entry_2x2)
        assert report.fully_supported
        assert report.witnesses[(1, 1)] == (-1, -1)

    def test_diagonal_not_supported(self):
        t = make_tensor((2, 2), {(0, 0): 1.0, (1, 1): 2.0})
        report = check_full_support(t)
        assert not report.fully_supported
        assert sorted(report.violations) == [(0, 1), (1, 0)]

    def test_fully_observed_vacuous(self, rng):
        t = random_sparse_tensor(rng, (3, 3), 1.0)
        assert check_full_support(t).fully_supported

    def test_3d_box(self):
        entries = {
            (i, j, l): 1.0
            for i in range(2)
            for j in range(2)
            for l in range(2)
            if (i, j, l) != (0, 0, 0)
        }
        report = check_full_support(make_tensor((2, 2, 2), entries))
        assert report.fully_supported
        assert report.witnesses[(0, 0, 0)] == (1, 1, 1)

    def test_max_offset_bound_respected(self):
        # (0, 0)'s only complete corner box sits at offset (2, 2)
        entries = {(0, 2): 1.0, (2, 0): 1.0, (2, 2): 1.0}
        t = make_tensor((3, 3), entries)
        wide = check_full_support(t)
        tight = check_full_support(t, max_offset=1)
        assert wide.witnesses.get((0, 0)) == (2, 2)
        assert (0, 0) in tight.violations


class TestUnitConsistency:
    def test_identity_scaling_gap_zero(self, three_entry_2x2):
        ones = random_scale_set(np.random.default_rng(0), (2, 2), 1, low=1.0, high=1.0)
        assert unit_consistency_gap(three_entry_2x2, ones, 1, TIGHT) == 0.0

    def test_three_entry_random_scaling(self, three_entry_2x2, rng):
        z = random_scale_set(rng, (2, 2), 1)
        assert unit_consistency_gap(three_entry_2x2, z, 1, TIGHT) < 1e-8

    def test_random_3d_slices(self, rng):
        t = random_sparse_tensor(rng, (20, 15, 10), 0.3, no_empty_subtensors_for=(2,))
        z = random_scale_set(rng, (20, 15, 10), 2)
        assert unit_consistency_gap(t, z, 2, TIGHT) < 1e-8

    def test_fully_supported_fibers(self, rng):
        dense = np.exp(rng.normal(0, 1, (6, 5, 4)))
        t, _, _ = hide_with_full_support(rng, dense, 0.3)
        z = random_scale_set(rng, (6, 5, 4), 1)
        assert unit_consistency_gap(t, z, 1, TIGHT) < 1e-8


class TestConsensusOrdering:
    def make_instance(self):
        # rows 0-1 observed with A[r, 0] < A[r, 1]; row 2 fully unobserved
        return make_tensor(
            (3, 2), {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 5.0}
        )

    def test_unobserved_row_follows_gamma(self):
        completed = complete_matrix(self.make_instance(), TIGHT)
        report = check_consensus_ordering(completed, OrderingSpec(dim=1, gamma=(0, 1)))
        assert report.passed
        assert report.known_prefixes == [(0,), (1,)]
        assert report.unknown_prefixes == [(2,)]
        assert completed.value_at((2, 0)) < completed.value_at((2, 1))

    def test_reversed_gamma_fails(self):
        completed = complete_matrix(self.make_instance(), TIGHT)
        report = check_consensus_ordering(completed, OrderingSpec(dim=1, gamma=(1, 0)))
        # no known prefix exhibits the reversed ordering
        assert report.verdict == "precondition_unmet"

    def test_precondition_gate(self):
        # only partially observed rows: the known set is empty
        t = make_tensor((2, 2), {(0, 0): 1.0, (1, 1): 2.0})
        completed = complete_matrix(t, TIGHT)
        report = check_consensus_ordering(completed, OrderingSpec(dim=1, gamma=(0, 1)))
        assert report.verdict == "precondition_unmet"
        assert not report.passed

    def test_singleton_gamma_vacuous_pass(self):
        completed = complete_matrix(self.make_instance(), TIGHT)
        report = check_consensus_ordering(completed, OrderingSpec(dim=1, gamma=(1,)))
        assert report.passed
        assert report.violations == []

    def test_row_ordering_dimension(self):
        # ordering across rows for a fully unobserved column
        t = make_tensor((2, 3), {(0, 0): 1.0, (1, 0): 4.0, (0, 1): 2.0, (1, 1): 3.0})
        completed = complete_matrix(t, TIGHT)
        report = check_consensus_ordering(completed, OrderingSpec(dim=0, gamma=(0, 1)))
        assert report.unknown_prefixes == [(2,)]
        assert report.passed

    def test_invalid_gamma(self):
        completed = complete_matrix(self.make_instance(), TIGHT)
        for gamma in [(), (0, 0), (0, 9)]:
            with pytest.raises(InvalidGammaError):
                check_consensus_ordering(completed, OrderingSpec(dim=1, gamma=gamma))
        with pytest.raises(InvalidGammaError):
            check_consensus_ordering(completed, OrderingSpec(dim=7, gamma=(0,)))

    def test_requires_k_equal_d_minus_1(self, rng):
        t = random_sparse_tensor(rng, (4, 4, 4), 0.5)
        completed = complete(t, 1, TIGHT)  # k=1 != D-1
        with pytest.raises(InvalidKError):
            check_consensus_ordering(completed, OrderingSpec(dim=2, gamma=(0, 1)))

    def test_tie_counts_as_violation(self):
        # columns 0 and 1 hold the same multiset of values, so their scales
        # match and the unknown row's fills tie exactly; strict "<" fails
        t = make_tensor(
            (3, 2), {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 2.0, (1, 1): 1.0}
        )
        completed = complete_matrix(t, TIGHT)
        report = check_consensus_ordering(completed, OrderingSpec(dim=1, gamma=(0, 1)))
        assert report.verdict == "fail"
        assert report.known_prefixes == [(0,)]
        assert any(prefix == (2,) for prefix, _, _ in report.violations)


class TestUniqueness:
    def test_two_sweep_orders_same_completion(self, rng):
        dense = np.exp(rng.normal(0, 1, (9, 7)))
        tensor, _, report = hide_with_full_support(rng, dense, 0.3)
        assert report.fully_supported
        lex = complete(tensor, 1, TIGHT)
        rev = complete(tensor, 1, SolverConfig(epsilon=1e-24, max_sweeps=20_000,
                                               sweep_order="reversed"))
        np.testing.assert_allclose(lex.to_dense(), rev.to_dense(), atol=1e-8)


@st.composite
def completions(draw):
    """A completion of a 2-D or 3-D tensor on an arbitrary pattern, with
    arbitrary scales (some keys empty): values_at must agree with
    value_at whether or not the scales solve anything."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=3)))
    n_cells = int(np.prod(shape))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n_cells, max_size=n_cells)))
    indices = np.argwhere(mask.reshape(shape))
    values = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0]), min_size=len(indices), max_size=len(indices)))
    source = SparseTensor(shape, indices, values)
    k = draw(st.integers(1, len(shape) - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logs, nonempty = {}, {}
    for fixed in subtensor_families(len(shape), k):
        size = int(np.prod([shape[d] for d in fixed]))
        logs[fixed] = rng.uniform(-2.0, 2.0, size)
        nonempty[fixed] = rng.random(size) > 0.3
    scales = ScaleSet.from_log_arrays(shape, k, logs, nonempty)
    model = LatentModel(source=source, balanced=source, scales=scales, sweeps_run=0, final_residual=0.0)
    return CompletedTensor(model)


class TestValuesAt:
    @given(completions(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_per_cell_value_at(self, completed, data):
        shape = completed.shape
        cells = np.argwhere(np.ones(shape, dtype=bool))
        # any rows, in any order, repeats included
        rows = data.draw(st.lists(st.integers(0, len(cells) - 1), max_size=2 * len(cells)))
        query = cells[np.asarray(rows, dtype=np.int64)].reshape(-1, len(shape))
        batch = completed.values_at(query)
        assert batch.tolist() == [completed.value_at(tuple(q)) for q in query.tolist()]
        for q, v in zip(query.tolist(), batch.tolist()):
            stored = completed.source.value_at(q)
            assert v == (stored if stored is not None else completed.fill_at(q))


class TestOverflowingFills:
    """A tiny observed value can put a fill beyond the float range; every
    path that returns fills raises instead of handing back inf."""

    @staticmethod
    def tiny_corner():
        return complete(make_tensor((2, 2), {(0, 0): 1e-320, (0, 1): 1.0, (1, 0): 1.0}), 1)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_every_fill_path_raises_naming_the_cell(self):
        completed = self.tiny_corner()
        calls = [
            lambda: completed.value_at((1, 1)),
            lambda: completed.fill_at((1, 1)),
            lambda: completed.values_at([(0, 0), (1, 1)]),
            lambda: completed.to_dense(),
        ]
        for call in calls:
            with pytest.raises(NonFiniteValueError, match=r"index \(1, 1\)"):
                call()

    def test_observed_cells_still_answer(self):
        completed = self.tiny_corner()
        assert completed.value_at((0, 0)) == 1e-320
        assert completed.values_at([(0, 1), (1, 0)]).tolist() == [1.0, 1.0]
