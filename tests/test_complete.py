import dataclasses
import importlib
import itertools
import re
import tracemalloc
import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctensor import (
    CompletedTensor,
    IndexOutOfBoundsError,
    InvalidGammaError,
    InvalidKError,
    LatentModel,
    NonFiniteValueError,
    NonPositiveValueError,
    NotAMatrixError,
    ScaleSet,
    SolverConfig,
    SparseTensor,
    check_consensus_ordering,
    check_full_support,
    complete,
    complete_matrix,
    make_tensor,
    predict_rating,
    subtensor_families,
    top_n,
    unit_consistency_gap,
)
from uctensor.complete import ORDERING_BYTES_PER_CELL, SUPPORT_BYTES_PER_CELL, UNIT_GAP_BYTES_PER_CELL
from uctensor.tensor import MAX_DENSE_CELLS
from uctensor.properties import (
    PROPERTY_EPSILON,
    PROPERTY_SWEEPS,
    _ordered,
    hide_with_full_support,
    random_scale_set,
    random_sparse_tensor,
)

import checker_oracle
import lstsq_oracle
from conftest import TIGHT, reversed_balance

# the module, which the package's ``complete`` function shadows as an attribute
complete_module = importlib.import_module("uctensor.complete")

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
        assert completed.scales.empty_key_mask([(1, 0)])[0]
        assert not completed.scales.empty_key_mask([(0, 0)])[0]
        # the fill still exists and is positive
        assert completed.value_at((1, 1)) > 0

    def test_all_fills_positive(self, rng):
        t = random_sparse_tensor(rng, (7, 6), 0.3)
        completed = complete_matrix(t, TIGHT)
        assert (completed.to_dense() > 0).all()


class TestPlainValue:
    """A completion is a plain value: its model, and through it its source
    and scales, are fixed at construction."""

    def test_every_write_is_refused(self, three_entry_2x2):
        completed = complete_matrix(three_entry_2x2, TIGHT)
        model = completed.model
        for name in ("model", "source", "scales"):
            with pytest.raises(AttributeError):
                setattr(completed, name, getattr(completed, name))
        for name in ("source", "scales", "sweeps_run"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, name, getattr(model, name))
        assert completed.model is model
        assert completed.source is model.source and completed.scales is model.scales


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
        assert report.witnesses.tolist() == [[[1, 1], [-1, -1]]]

    def test_diagonal_not_supported(self):
        t = make_tensor((2, 2), {(0, 0): 1.0, (1, 1): 2.0})
        report = check_full_support(t)
        assert not report.fully_supported
        assert report.violations.tolist() == [[0, 1], [1, 0]]
        assert report.witnesses.shape == (0, 2, 2)

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
        assert report.witnesses.tolist() == [[[0, 0, 0], [1, 1, 1]]]
        assert report.violations.shape == (0, 3)

    def test_max_offset_bound_respected(self):
        # (0, 0)'s only complete corner box sits at offset (2, 2)
        entries = {(0, 2): 1.0, (2, 0): 1.0, (2, 2): 1.0}
        t = make_tensor((3, 3), entries)
        wide = check_full_support(t)
        tight = check_full_support(t, max_offset=1)
        assert [offset for cell, offset in wide.witnesses.tolist() if cell == [0, 0]] == [[2, 2]]
        assert [0, 0] in tight.violations.tolist()

    def test_a_1d_tensor_is_refused_as_complete_refuses_it(self):
        t = make_tensor((3,), {(0,): 1.0})
        with pytest.raises(InvalidKError, match=re.escape("k must be in [1, 0]")):
            complete(t, 1)
        with pytest.raises(InvalidKError, match=re.escape("a 1-D tensor has no completion: k must be in [1, 0]")):
            check_full_support(t)

    @pytest.mark.parametrize("max_offset", [[1], [1, 1, 1], [1, 1], (1, 1), 1.0, "1"])
    def test_max_offset_is_none_or_one_int(self, three_entry_2x2, max_offset):
        with pytest.raises(ValueError, match=re.escape(f"max_offset must be an int >= 1, got {max_offset!r}")):
            check_full_support(three_entry_2x2, max_offset=max_offset)

    @pytest.mark.parametrize("shape", [(500, 500), (80, 60, 50)], ids=["2d", "3d"])
    def test_at_most_its_guards_bytes_a_cell(self, shape):
        # at 1% density nearly every cell is unobserved, pending through
        # every offset and then a violation
        t = random_sparse_tensor(np.random.default_rng(0), shape, 0.01)
        tracemalloc.start()
        try:
            report = check_full_support(t, max_offset=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_unobserved = t.n_cells - t.n_observed
        assert len(report.violations) + len(report.witnesses) == n_unobserved
        assert peak / t.n_cells <= SUPPORT_BYTES_PER_CELL, peak / t.n_cells


class TestUnitConsistency:
    def test_identity_scaling_gap_zero(self, three_entry_2x2):
        ones = random_scale_set(np.random.default_rng(0), (2, 2), 1, low=1.0, high=1.0)
        assert unit_consistency_gap(three_entry_2x2, ones, TIGHT) == 0.0

    def test_three_entry_random_scaling(self, three_entry_2x2, rng):
        z = random_scale_set(rng, (2, 2), 1)
        assert unit_consistency_gap(three_entry_2x2, z, TIGHT) < 1e-8

    def test_random_3d_slices(self, rng):
        t = random_sparse_tensor(rng, (20, 15, 10), 0.3)
        z = random_scale_set(rng, (20, 15, 10), 2)
        assert unit_consistency_gap(t, z, TIGHT) < 1e-8

    def test_fully_supported_fibers(self, rng):
        dense = np.exp(rng.normal(0, 1, (6, 5, 4)))
        t, _, _ = hide_with_full_support(rng, dense, 0.3)
        z = random_scale_set(rng, (6, 5, 4), 1)
        assert unit_consistency_gap(t, z, TIGHT) < 1e-8

    def test_at_most_its_guards_bytes_a_cell(self):
        rng = np.random.default_rng(0)
        t = random_sparse_tensor(rng, (600, 500), 0.05)
        z = random_scale_set(rng, t.shape, 1)
        tracemalloc.start()
        try:
            gap = unit_consistency_gap(t, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap < 1e-5
        assert peak / t.n_cells <= UNIT_GAP_BYTES_PER_CELL, peak / t.n_cells


class TestConsensusOrdering:
    def make_instance(self):
        # rows 0-1 observed with A[r, 0] < A[r, 1]; row 2 fully unobserved
        return make_tensor(
            (3, 2), {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 5.0}
        )

    def test_unobserved_row_follows_gamma(self):
        completed = complete_matrix(self.make_instance(), TIGHT)
        report = check_consensus_ordering(completed, 1, (0, 1))
        assert report.passed
        assert report.known_prefixes.tolist() == [[0], [1]]
        assert report.unknown_prefixes.tolist() == [[2]]
        assert completed.value_at((2, 0)) < completed.value_at((2, 1))

    def test_reversed_gamma_fails(self):
        completed = complete_matrix(self.make_instance(), TIGHT)
        report = check_consensus_ordering(completed, 1, (1, 0))
        # no known prefix exhibits the reversed ordering
        assert report.verdict == "precondition_unmet"

    def test_precondition_gate(self):
        # only partially observed rows: the known set is empty
        t = make_tensor((2, 2), {(0, 0): 1.0, (1, 1): 2.0})
        completed = complete_matrix(t, TIGHT)
        report = check_consensus_ordering(completed, 1, (0, 1))
        assert report.verdict == "precondition_unmet"
        assert not report.passed

    def test_singleton_gamma_vacuous_pass(self):
        completed = complete_matrix(self.make_instance(), TIGHT)
        report = check_consensus_ordering(completed, 1, (1,))
        assert report.passed
        assert report.violations.tolist() == []

    def test_row_ordering_dimension(self):
        # ordering across rows for a fully unobserved column
        t = make_tensor((2, 3), {(0, 0): 1.0, (1, 0): 4.0, (0, 1): 2.0, (1, 1): 3.0})
        completed = complete_matrix(t, TIGHT)
        report = check_consensus_ordering(completed, 0, (0, 1))
        assert report.unknown_prefixes.tolist() == [[2]]
        assert report.passed

    def test_invalid_gamma(self):
        completed = complete_matrix(self.make_instance(), TIGHT)
        for gamma in [(), (0, 0), (0, 9)]:
            with pytest.raises(InvalidGammaError):
                check_consensus_ordering(completed, 1, gamma)
        with pytest.raises(InvalidGammaError):
            check_consensus_ordering(completed, 7, (0,))

    @pytest.mark.parametrize(
        "dim, gamma, message",
        [
            (1, (0.9, 1.5), "gamma entries must be ints, got 0.9 in (0.9, 1.5)"),
            (1, (0, True), "gamma entries must be ints, got True in (0, True)"),
            (1, np.array([0.0, 1.0]), "gamma entries must be ints, got np.float64(0.0)"),
            (0.5, (0, 1), "dim must be an int, got 0.5"),
            (True, (0, 1), "dim must be an int, got True"),
        ],
    )
    def test_integer_arguments_refuse_floats_and_bools(self, dim, gamma, message):
        # int() would check columns (0, 1) for gamma (0.9, 1.5), and numpy
        # would read dim True as a boolean mask
        completed = complete_matrix(self.make_instance(), TIGHT)
        with pytest.raises(InvalidGammaError, match=re.escape(message)):
            check_consensus_ordering(completed, dim, gamma)
        numpy_ints = check_consensus_ordering(completed, np.int64(1), np.array([0, 1]))
        assert numpy_ints.verdict == check_consensus_ordering(completed, 1, (0, 1)).verdict == "pass"

    def test_requires_k_equal_d_minus_1(self, rng):
        t = random_sparse_tensor(rng, (4, 4, 4), 0.5)
        completed = complete(t, 1, TIGHT)  # k=1 != D-1
        with pytest.raises(InvalidKError):
            check_consensus_ordering(completed, 2, (0, 1))

    def test_tie_counts_as_violation(self):
        # columns 0 and 1 hold the same multiset of values, so their scales
        # match and the unknown row's fills tie exactly; strict "<" fails
        t = make_tensor(
            (3, 2), {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 2.0, (1, 1): 1.0}
        )
        completed = complete_matrix(t, TIGHT)
        report = check_consensus_ordering(completed, 1, (0, 1))
        assert report.verdict == "fail"
        assert report.known_prefixes.tolist() == [[0]]
        assert [2] in report.violations["prefix"].tolist()

    def test_mixed_prefix_is_never_filled(self):
        # rows 0-1 observed, row 2 only at (2, 0), row 3 not at all; a row
        # log of -800 makes that row's fills overflow to inf
        source = make_tensor((4, 2), {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 5.0, (2, 0): 1.0})

        def ordering(row_logs):
            logs = {(0,): np.array(row_logs), (1,): np.zeros(2)}
            scales = ScaleSet((4, 2), 1, logs, {f: np.ones(len(a), dtype=bool) for f, a in logs.items()})
            completed = CompletedTensor(LatentModel(source, scales, 0, 0.0))
            return check_consensus_ordering(completed, 1, (0, 1))

        report = ordering([0.0, 0.0, -800.0, 0.0])
        assert report.known_prefixes.tolist() == [[0], [1]]
        assert report.unknown_prefixes.tolist() == [[3]]
        assert report.n_neither == 1
        with pytest.raises(NonFiniteValueError, match=re.escape("(3, 0)")):
            ordering([0.0, 0.0, 0.0, -800.0])


    @pytest.mark.parametrize("shape, dim", [((10, 6), 1), ((5, 4, 6), 0), ((5, 4, 6), 1), ((5, 4, 6), 2)])
    def test_ordered_constructions_match_the_loop_that_built_them_cell_by_cell(self, shape, dim):
        def ordered_by_loop(rng):
            gamma = rng.permutation(shape[dim])
            prefixes = list(itertools.product(*(range(s) for d, s in enumerate(shape) if d != dim)))
            n_obs = int(rng.integers(2, len(prefixes)))
            chosen = rng.choice(len(prefixes), size=n_obs, replace=False)
            step = np.cumprod(rng.uniform(1.3, 2.0, size=shape[dim]))
            entries = {}
            for ci in chosen:
                base = np.exp(rng.normal(0, 0.5))
                noise = np.exp(rng.uniform(-0.1, 0.1, size=shape[dim]))
                for pos, g in enumerate(gamma):
                    idx = list(prefixes[ci])
                    idx.insert(dim, int(g))
                    entries[tuple(idx)] = base * step[pos] * noise[pos]
            return make_tensor(shape, entries), tuple(int(g) for g in gamma), len(prefixes) - n_obs

        for seed in range(20):
            got, want = _ordered(np.random.default_rng(seed), shape, dim), ordered_by_loop(np.random.default_rng(seed))
            assert got[1:] == want[1:]
            assert got[0]._flat.tolist() == want[0]._flat.tolist()
            assert got[0].values.tolist() == want[0].values.tolist()

    def test_a_grid_just_over_the_guard_is_refused_before_any_allocation(self):
        # a bare shape and k: the refusal comes before the completion is asked anything
        bound = MAX_DENSE_CELLS // 8
        completed = SimpleNamespace(shape=(bound + 1, 1), k=1)
        tracemalloc.start()
        try:
            message = f"ordering check of {bound + 1} cells (prefixes x gamma) exceeds its bound of {bound}"
            with pytest.raises(ValueError, match=re.escape(message)):
                check_consensus_ordering(completed, 1, (0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize(
        "shape, dim, steps, verdict",
        [((2000, 50), 1, (1.5, 1.5), "pass"), ((50, 40, 50), 2, (1.5, 1.5), "pass"),
         ((2000, 50), 1, (1 / 1.5,), "precondition_unmet"),
         ((50000, 2), 1, (1.5, 1.5), "pass"), ((50000, 2), 1, (1.5, 1 / 3), "fail")],
        ids=["2d", "3d", "2d-precondition-unmet", "2d-gamma2-pass", "2d-gamma2-fail"],
    )
    def test_at_most_64_bytes_a_checked_cell(self, shape, dim, steps, verdict):
        # the first len(steps) prefixes observed, the p-th rising along
        # gamma by a factor steps[p] from 1.0 * 1.5^p, every other prefix
        # unobserved: every cell of the 10^5-cell grid is looked up and
        # filled.  A falling row leaves the known set empty, and then every
        # unknown prefix's fills fall too.  Rows (1, 1.5) and (1.5, 0.5)
        # make the second column's fills the smaller: every unknown prefix
        # fails, one violation each.
        entries = {}
        for p, step in enumerate(steps):
            prefix = [int(c) for c in np.unravel_index(p, [s for d, s in enumerate(shape) if d != dim])]
            for g in range(shape[dim]):
                entries[tuple(prefix[:dim] + [g] + prefix[dim:])] = 1.5 ** p * step ** g
        completed = complete(make_tensor(shape, entries), len(shape) - 1)
        tracemalloc.start()
        try:
            report = check_consensus_ordering(completed, dim, range(shape[dim]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_cells = int(np.prod(shape))
        assert report.verdict == verdict
        assert len(report.unknown_prefixes) == n_cells // shape[dim] - len(steps)
        if verdict == "fail":
            assert report.violations["prefix"].tolist() == report.unknown_prefixes.tolist()
            assert (report.violations["pair"] == [0, 1]).all()
        else:
            assert report.violations.tolist() == []
        assert peak / n_cells <= ORDERING_BYTES_PER_CELL, peak / n_cells


# 2217 * 22553 = MAX_DENSE_CELLS + 1 cells, whose scales are small arrays
JUST_OVER = (2217, 22553)
# 81 * 154321 = 8 * MAX_DENSE_CELLS // UNIT_GAP_BYTES_PER_CELL + 1 cells
GAP_JUST_OVER = (81, 154321)


def _over_the_bound(site):
    """(the call, the cells it asks for, its bound, the name its refusal
    gives) of a dense site asked for just more cells than its bound."""
    ones = {(0,): np.ones(JUST_OVER[0], dtype=bool), (1,): np.ones(JUST_OVER[1], dtype=bool)}
    scales = ScaleSet(JUST_OVER, 1, {f: np.zeros(len(a)) for f, a in ones.items()}, ones)
    support_bound = 8 * MAX_DENSE_CELLS // SUPPORT_BYTES_PER_CELL
    gap_bound = 8 * MAX_DENSE_CELLS // UNIT_GAP_BYTES_PER_CELL
    empty = SparseTensor((MAX_DENSE_CELLS + 1, 1), np.empty((0, 2)), [])
    return {
        "SparseTensor.to_dense": (empty.to_dense, MAX_DENSE_CELLS, "dense tensor"),
        "ScaleSet.factor_grid": (scales.factor_grid, MAX_DENSE_CELLS, "dense factor grid"),
        "CompletedTensor.to_dense": (
            CompletedTensor(LatentModel(SparseTensor(JUST_OVER, [[0, 0]], [1.0]), scales, 0, 0.0)).to_dense,
            MAX_DENSE_CELLS, "dense completion"),
        "check_full_support": (
            partial(check_full_support, SparseTensor((support_bound + 1, 1), np.empty((0, 2)), [])),
            support_bound, "support check"),
        "unit_consistency_gap": (
            partial(unit_consistency_gap, SparseTensor(GAP_JUST_OVER, [[0, 0]], [1.0]),
                    random_scale_set(np.random.default_rng(0), GAP_JUST_OVER, 1)),
            gap_bound, "unit consistency gap"),
    }[site]


class TestDenseBound:
    """Every dense site refuses, through ``check_dense_size``, work of
    more cells than 400 MB holds at its bytes a cell, before it allocates
    anything, and before any solve; the ordering check's own test is in
    TestConsensusOrdering."""

    @pytest.mark.parametrize("site", ["SparseTensor.to_dense", "ScaleSet.factor_grid",
                                      "CompletedTensor.to_dense", "check_full_support",
                                      "unit_consistency_gap"])
    def test_just_over_the_bound_is_refused_before_any_allocation(self, site, monkeypatch):
        call, bound, what = _over_the_bound(site)

        def no_solve(*args, **kwargs):
            raise AssertionError(f"{site} solved before its size check")

        monkeypatch.setattr(complete_module, "balance", no_solve)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(f"{what} of {bound + 1} cells exceeds its bound of {bound}")):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


def _random_pattern(rng):
    shape = tuple(rng.integers(1, 6, size=rng.integers(2, 4)).tolist())
    return random_sparse_tensor(rng, shape, rng.uniform(0.2, 0.9))


class TestCheckerOracle:
    """The bulk checkers against the loop implementations they replaced
    (``checker_oracle``): whole reports, the order of the witnesses, the
    violations and the prefixes included."""

    N_TENSORS = 300

    def test_full_support_reports_match(self):
        rng = np.random.default_rng(7)
        for _ in range(self.N_TENSORS):
            t = _random_pattern(rng)
            for max_offset in (None, 1, 2):
                got = check_full_support(t, max_offset=max_offset)
                want = checker_oracle.check_full_support(t, max_offset=max_offset)
                at = (t.shape, t.indices.tolist(), max_offset)
                assert got.fully_supported == want.fully_supported, at
                assert got.violations.tolist() == [list(cell) for cell in want.violations], at
                # the dict's insertion order is the order the witnesses were found
                assert got.witnesses.tolist() == [
                    [list(cell), list(offset)] for cell, offset in want.witnesses.items()
                ], at

    @pytest.mark.parametrize("shape, empty", [
        ((9, 11), (3, slice(None))),  # a row
        ((9, 11), (slice(None), 4)),  # a column
        ((6, 5, 4), (2, slice(None), 1)),  # a fibre along dimension 1
    ], ids=["row", "column", "fibre"])
    def test_cells_on_an_empty_line_are_violations(self, shape, empty):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mask = rng.random(shape) < 0.7
            mask[empty] = False
            t = make_tensor(shape, {tuple(ix): 1.0 for ix in np.argwhere(mask).tolist()})
            for max_offset in (None, 1, 2):
                got = check_full_support(t, max_offset=max_offset)
                want = checker_oracle.check_full_support(t, max_offset=max_offset)
                assert got.violations.tolist() == [list(cell) for cell in want.violations]
                assert got.witnesses.tolist() == [
                    [list(cell), list(offset)] for cell, offset in want.witnesses.items()
                ]
            line = np.zeros(shape, dtype=bool)
            line[empty] = True
            assert {tuple(c) for c in np.argwhere(line).tolist()} <= {tuple(c) for c in got.violations.tolist()}

    def test_consensus_ordering_reports_match(self):
        rng = np.random.default_rng(7)
        for _ in range(self.N_TENSORS):
            t = _random_pattern(rng)
            completed = complete(t, t.ndim - 1)
            for dim, size in enumerate(t.shape):
                gamma = rng.permutation(size)[: rng.integers(1, size + 1)]
                got = check_consensus_ordering(completed, dim, gamma)
                want = checker_oracle.check_consensus_ordering(completed, dim, gamma)
                at = (t.shape, t.indices.tolist(), dim, gamma)
                assert (got.verdict, got.n_neither) == (want.verdict, want.n_neither), at
                assert got.known_prefixes.tolist() == [list(p) for p in want.known_prefixes], at
                assert got.unknown_prefixes.tolist() == [list(p) for p in want.unknown_prefixes], at
                assert violation_rows(got.violations) == [
                    (list(prefix), list(pair), list(values)) for prefix, pair, values in want.violations
                ], at


def violation_rows(violations):
    """An ordering report's violations as (prefix, pair, values) tuples of
    lists, in order."""
    return list(zip(*(violations[name].tolist() for name in ("prefix", "pair", "values"))))


class TestUniqueness:
    def test_two_sweep_orders_same_completion(self, rng):
        dense = np.exp(rng.normal(0, 1, (9, 7)))
        tensor, _, report = hide_with_full_support(rng, dense, 0.3)
        assert report.fully_supported
        lex = complete(tensor, 1, TIGHT)
        rev = CompletedTensor(reversed_balance(tensor, 1, TIGHT))
        np.testing.assert_allclose(lex.to_dense(), rev.to_dense(), atol=1e-8)


# seeded random patterns, D = 2 to 4 and every k, each dense enough that
# some of its unobserved cells are estimable and some cases leave cells free
LSTSQ_CASES = [((6, 5), 1, 0.4), ((4, 3, 3), 1, 0.75), ((4, 3, 3), 2, 0.3),
               ((3, 3, 3, 3), 1, 0.85), ((3, 3, 2, 2), 2, 0.6), ((3, 3, 2, 2), 3, 0.3)]


def lstsq_case(shape, k, density, seed):
    """A seeded random tensor, its cells in row-major (key) order, its
    unobserved cells, and the oracle's design matrix and fit."""
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < density
    mask.flat[0] = True
    cells = np.argwhere(mask)
    tensor = SparseTensor(shape, cells, np.exp(rng.normal(0, 1, len(cells))))
    a = lstsq_oracle.design(cells, shape, k)
    return tensor, np.argwhere(~mask), a, lstsq_oracle.fit(a, np.log(tensor.values))


class TestLeastSquaresOracle:
    """The balance is the least-squares fit of the log entries by the
    subtensor indicators (``lstsq_oracle``): the solve reaches the fit's
    residuals, and a completion fills every estimable cell as the fit does."""

    config = SolverConfig(epsilon=PROPERTY_EPSILON, max_sweeps=PROPERTY_SWEEPS)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape,k,density", LSTSQ_CASES)
    def test_estimable_fills_equal_the_fit(self, shape, k, density, seed):
        tensor, unobserved, a, (x, _, rank) = lstsq_case(shape, k, density, seed)
        rows = lstsq_oracle.design(unobserved, shape, k)
        ok = lstsq_oracle.estimable(a, rows)
        assert ok.tolist() == [np.linalg.matrix_rank(np.vstack((a, row))) == rank for row in rows]
        assert ok.any()
        got = complete(tensor, k, self.config).values_at(unobserved[ok])
        np.testing.assert_allclose(got, np.exp(rows[ok] @ x), rtol=1e-10, atol=0)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape,k,density", LSTSQ_CASES)
    def test_balanced_logs_equal_the_residuals(self, shape, k, density, seed):
        tensor, _, _, (_, residuals, _) = lstsq_case(shape, k, density, seed)
        balanced = complete(tensor, k, self.config).model.balanced
        np.testing.assert_allclose(np.log(balanced.values), residuals, rtol=0, atol=1e-10)


@st.composite
def lifted_patterns(draw):
    """A user x product tensor on an arbitrary non-empty pattern (cold
    rows and columns and disconnected parts included), per-user codes in
    1-3 categories, and the user x feature x product tensor that repeats
    each rating at every feature index of its user, as the 3-D harness
    builds it."""
    n_users, n_products = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n_users * n_products,
                                  max_size=n_users * n_products))).reshape(n_users, n_products)
    mask.flat[draw(st.integers(0, mask.size - 1))] = True
    pairs = np.argwhere(mask)
    values = np.array(draw(st.lists(positive, min_size=len(pairs), max_size=len(pairs))))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    offsets = np.cumsum([0] + sizes[:-1])
    codes = np.array([[draw(st.integers(0, n - 1)) + o for n, o in zip(sizes, offsets)]
                      for _ in range(n_users)])
    n_cat = len(sizes)
    cells = np.stack([np.repeat(pairs[:, 0], n_cat), codes[pairs[:, 0]].reshape(-1),
                      np.repeat(pairs[:, 1], n_cat)], axis=1)
    flat = SparseTensor((n_users, n_products), pairs, values)
    lifted = SparseTensor((n_users, sum(sizes), n_products), cells, np.repeat(values, n_cat))
    return flat, lifted


class TestFeatureLift:
    @given(lifted_patterns())
    @settings(max_examples=150, deadline=None)
    def test_3d_fills_equal_the_2d_fills_at_every_feature(self, tensors):
        # every feature slice is a union of whole user rows, so it balances
        # at scale 1 and the user and product scales are the 2-D ones
        flat, lifted = tensors
        n_users, n_features, n_products = lifted.shape
        fills_2d = np.exp(-complete(flat, 1, TIGHT).scales.log_sum_at(
            np.argwhere(np.ones(flat.shape, dtype=bool)))).reshape(flat.shape)
        fills_3d = np.exp(-complete(lifted, 2, TIGHT).scales.log_sum_at(
            np.argwhere(np.ones(lifted.shape, dtype=bool)))).reshape(lifted.shape)
        for f in range(n_features):
            np.testing.assert_allclose(fills_3d[:, f, :], fills_2d, rtol=1e-9, atol=0)


@st.composite
def completions(draw):
    """A completion of a 2-D, 3-D or 4-D tensor on an arbitrary pattern,
    with arbitrary scales (some keys empty): values_at must agree with
    value_at whether or not the scales solve anything."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
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
    scales = ScaleSet(shape, k, logs, nonempty)
    model = LatentModel(source=source, scales=scales, sweeps_run=0, final_residual=0.0)
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

    @given(completions())
    @settings(max_examples=100, deadline=None)
    def test_scalar_calls_are_one_row_calls(self, completed):
        source, scales = completed.source, completed.scales
        for q in np.argwhere(np.ones(completed.shape, dtype=bool)).tolist():
            observed = bool(source.observed_mask_for([q])[0])
            value = completed.values_at([q])[0]
            assert source.is_observed(q) == observed
            assert source.value_at(q) == (value if observed else None)
            assert completed.value_at(q) == value
            assert completed.fill_at(q) == np.exp(-scales.log_sum_at([q]))[0]
            if len(q) == 2:
                assert predict_rating(completed, *q) == (*q, value, "observed" if observed else "completed")


def grid_path_dense(completed):
    """``to_dense`` as it was first written: the dense grid of inverse
    scale products with the observed cells written over it.  Returns the
    grid and the first cell, in row-major order, whose value is 0 or not
    finite (None when every value is a positive float)."""
    grid = completed.scales.inverse().factor_grid()
    grid.flat[completed.source._flat] = completed.source.values
    ok = (np.isfinite(grid) & (grid > 0.0)).reshape(-1)
    if ok.all():
        return grid, None
    return grid, tuple(int(c) for c in np.unravel_index(int(np.argmin(ok)), grid.shape))


class TestCellLookup:
    """Every vectorised cell query checks its rows the one way, naming the
    first dimension holding a coordinate outside the shape, and in range
    agrees with the dense grids."""

    @given(completions(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_dense_grids(self, completed, data):
        shape = completed.shape
        rows = np.array(
            data.draw(st.lists(st.tuples(*(st.integers(0, s - 1) for s in shape)), max_size=8)),
            dtype=np.int64,
        ).reshape(-1, len(shape))
        if len(rows):  # put some coordinates below 0 or at or past the size
            for _ in range(data.draw(st.integers(0, 2), label="faults")):
                r = data.draw(st.integers(0, len(rows) - 1))
                d = data.draw(st.integers(0, len(shape) - 1))
                rows[r, d] = data.draw(st.sampled_from([-3, -1, shape[d], shape[d] + 2]))
        source, scales = completed.source, completed.scales
        queries = (source.observed_mask_for, completed.values_at,
                   scales.log_sum_at, scales.empty_key_mask)
        bad = (rows < 0) | (rows >= np.array(shape))
        if bad.any():
            first = int(np.argmax(bad.any(axis=0)))
            for query in queries:
                with pytest.raises(IndexOutOfBoundsError, match=f"in dimension {first} for shape"):
                    query(rows)
            return
        cells = tuple(rows.T)
        assert source.observed_mask_for(rows).tolist() == (source.to_dense() > 0)[cells].tolist()
        assert completed.values_at(rows).tolist() == completed.to_dense()[cells].tolist()
        np.testing.assert_allclose(np.exp(scales.log_sum_at(rows)), scales.factor_grid()[cells],
                                   rtol=1e-12)
        empty = np.zeros(shape, dtype=bool)
        for fixed in scales.families:
            empty |= ~scales.nonempty[fixed].reshape(
                [shape[d] if d in fixed else 1 for d in range(len(shape))])
        assert scales.empty_key_mask(rows).tolist() == empty[cells].tolist()

    @pytest.mark.parametrize(
        "shape, rows",
        [
            ((2, 3, 4), [[0, 0], [0, 1], [2, 0]]),  # six coordinates: two 3-D cells if reshaped
            ((2, 3, 4), [[0, 0, 0, 0]]),
            ((2, 3), [0, 1]),  # one cell, not given as a row
            ((2, 3), [[[0, 1]]]),
            ((2, 3), np.zeros((2, 0), dtype=np.int64)),
        ],
    )
    def test_rows_of_the_wrong_width_are_refused(self, shape, rows):
        completed = complete(make_tensor(shape, {c: 1.0 for c in np.ndindex(*shape)}), len(shape) - 1)
        source, scales = completed.source, completed.scales
        queries = (source.observed_mask_for, completed.values_at,
                   scales.log_sum_at, scales.empty_key_mask,
                   lambda r: SparseTensor(shape, r, np.ones(len(r))))
        width = re.escape(f"index array of shape {np.shape(rows)} does not hold rows of {len(shape)} ")
        for query in queries:
            with pytest.raises(IndexOutOfBoundsError, match=width):
                query(rows)
        short = (0,) * (len(shape) - 1)
        for scalar in (source.is_observed, source.value_at, completed.value_at, completed.fill_at):
            with pytest.raises(IndexOutOfBoundsError, match=r"index array of shape \(1, "):
                scalar(short)

    @pytest.mark.parametrize("rows", [[[0.5, 1.2]], [[0.0, 1.0]], [[False, True]]])
    def test_rows_of_a_non_integer_dtype_are_refused(self, rows):
        # cast to int64, [[0.5, 1.2]] would answer for the cell (0, 1)
        completed = complete(make_tensor((3, 3), {(0, 1): 2.0, (1, 0): 3.0, (2, 2): 5.0}), 1)
        source, scales = completed.source, completed.scales
        queries = (source.observed_mask_for, completed.values_at,
                   scales.log_sum_at, scales.empty_key_mask,
                   lambda r: SparseTensor((3, 3), r, np.ones(len(r))),
                   lambda r: make_tensor((3, 3), [(r[0], 1.0)]))
        dtype = np.asarray(rows).dtype
        for query in queries:
            with pytest.raises(IndexOutOfBoundsError, match=f"index array of dtype {dtype} does not hold integer"):
                query(rows)
        for scalar in (source.is_observed, source.value_at, completed.value_at, completed.fill_at):
            with pytest.raises(IndexOutOfBoundsError, match=f"dtype {dtype}"):
                scalar(rows[0])
        # numpy makes an empty list float64: it is still zero rows
        assert completed.values_at([]).shape == (0,)
        assert source.observed_mask_for(np.empty((0, 2))).shape == (0,)

    @given(completed=completions())
    @settings(max_examples=150, deadline=None)
    def test_to_dense_is_the_grid_path(self, completed):
        grid, first_bad = grid_path_dense(completed)
        assert first_bad is None
        dense = completed.to_dense()
        assert dense.shape == grid.shape and dense.tobytes() == grid.tobytes()

    def test_to_dense_takes_one_grid(self):
        # the log-sum grid becomes the fills in place, so the one 8-byte
        # grid is all that grows with the cell count
        rng = np.random.default_rng(0)
        t = random_sparse_tensor(rng, (2000, 1500), 0.05)
        completed = CompletedTensor(LatentModel(t, random_scale_set(rng, t.shape, 1), 0, 0.0))
        tracemalloc.start()
        try:
            completed.to_dense()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / t.n_cells <= 8.5, peak / t.n_cells

    @pytest.mark.parametrize(
        "corner, error",
        [
            (lambda: TestOverflowingFills.tiny_corner(), NonFiniteValueError),
            (lambda: TestUnderflowingFills.huge_corner(), NonPositiveValueError),
        ],
        ids=["overflow", "underflow"],
    )
    def test_to_dense_names_the_grid_paths_first_bad_cell(self, corner, error):
        completed = corner()
        _, first_bad = grid_path_dense(completed)
        assert first_bad is not None
        with pytest.raises(error, match=re.escape(f"at index {first_bad} ")):
            completed.to_dense()


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

    def test_cells_answered_from_the_source_need_no_fill(self):
        # the fill of rated cell (0, 0) is exp(800); no query returns it
        source = make_tensor((1, 3), {(0, 0): 2.0})
        logs = {(0,): np.zeros(1), (1,): np.array([-800.0, 0.0, 0.0])}
        scales = ScaleSet((1, 3), 1, logs, {f: np.ones(len(a), dtype=bool) for f, a in logs.items()})
        model = LatentModel(source=source, scales=scales, sweeps_run=0, final_residual=0.0)
        completed = CompletedTensor(model)
        assert completed.values_at([(0, 0), (0, 1)]).tolist() == [2.0, 1.0]
        assert [p.rating for p in top_n(completed, 0, 3)] == [2.0, 1.0, 1.0]

    def test_no_numpy_warning_comes_first(self):
        # the scale set, the fills and the dense grid all leave the float
        # range here; the error naming the cell is the only signal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            completed = self.tiny_corner()
            completed.scales.factor_grid()
            calls = [
                lambda: completed.value_at((1, 1)),
                lambda: completed.fill_at((1, 1)),
                lambda: completed.values_at([(0, 0), (1, 1)]),
                lambda: completed.to_dense(),
                lambda: top_n(completed, 1, 1),
            ]
            for call in calls:
                with pytest.raises(NonFiniteValueError, match=r"index \(1, 1\)"):
                    call()


class TestUnderflowingFills:
    """A huge observed value can put a fill below the smallest float; it
    would come back as 0, the unobserved marker, so every fill path
    raises instead."""

    @staticmethod
    def huge_corner():
        return complete(make_tensor((2, 2), {(0, 0): 1e300, (0, 1): 1e-200, (1, 0): 1e-200}), 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda c: c.fill_at((1, 1)),
            lambda c: c.value_at((1, 1)),
            lambda c: c.values_at([(0, 0), (1, 1)]),
            lambda c: c.to_dense(),
            lambda c: top_n(c, 1, 1),
        ],
        ids=["fill_at", "value_at", "values_at", "to_dense", "top_n"],
    )
    def test_fill_path_raises_naming_the_cell(self, call):
        with pytest.raises(NonPositiveValueError, match=r"index \(1, 1\) underflows to 0"):
            call(self.huge_corner())

    def test_observed_cells_still_answer(self):
        completed = self.huge_corner()
        assert completed.value_at((0, 0)) == 1e300
        assert completed.values_at([(0, 0), (0, 1)]).tolist() == [1e300, 1e-200]
