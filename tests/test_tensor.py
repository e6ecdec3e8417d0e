import itertools
import math
import pickle
import re
import warnings
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctensor import (
    BalanceState,
    DuplicateIndexError,
    IndexOutOfBoundsError,
    InvalidKError,
    NonFiniteValueError,
    NonPositiveValueError,
    ScaleSet,
    ShapeMismatchError,
    SparseTensor,
    balance,
    make_tensor,
    scale_apply,
    subtensor_families,
)
from uctensor import tensor as tensor_module
from uctensor.tensor import _cell, family_sub_ids, key_coordinate, sub_ids, subtensor_counts, unravel_keys

from conftest import scale_set


class TestConstruction:
    def test_basic(self, three_entry_2x2):
        t = three_entry_2x2
        assert t.n_observed == 3
        assert t.n_cells == 4
        assert t.value_at((0, 1)) == 8.0
        assert t.value_at((1, 1)) is None
        assert not t.is_observed((1, 1))

    def test_zero_is_unobserved_marker(self):
        with pytest.raises(NonPositiveValueError):
            make_tensor((2, 2), {(0, 0): 0.0})

    def test_negative_value(self):
        with pytest.raises(NonPositiveValueError):
            make_tensor((2, 2), {(0, 0): -1.5})

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_value(self, bad):
        with pytest.raises(NonFiniteValueError, match=r"at index \(1, 0\) is not finite"):
            make_tensor((2, 2), {(0, 0): 2.0, (1, 0): bad})

    @pytest.mark.parametrize("bad", [-math.inf, -0.0, -5e-324, math.nan, math.inf])
    def test_one_bad_value_among_many_is_named(self, bad):
        t = SparseTensor((40, 50), np.argwhere(np.ones((40, 50), dtype=bool)), np.full(2000, 3.0))
        values = t.values.copy()
        values[1234] = bad
        with pytest.raises((NonFiniteValueError, NonPositiveValueError), match=r"at index \(24, 34\)"):
            t.with_values(values)

    def test_errors_print_plain_int_indices(self):
        with pytest.raises(NonPositiveValueError, match=r"at index \(1, 0\) is not strictly"):
            make_tensor((2, 2), {(1, 0): -1.0})
        with pytest.raises(DuplicateIndexError, match=r"duplicate index \(0, 1\)$"):
            make_tensor((2, 2), [((0, 1), 1.0), ((0, 1), 2.0)])

    @pytest.mark.parametrize(
        "shape, bad",
        [((2.7, 3), "2.7"), ((True, 3), "True"), ((3, np.float64(2.0)), "np.float64(2.0)"), ((3, np.True_), "np.True_")],
    )
    def test_shape_dimensions_must_be_ints(self, shape, bad):
        # int() would truncate 2.7 to 2 and read True as 1
        with pytest.raises(ValueError, match=re.escape(f"shape dimensions must be ints, got {bad} in ")):
            SparseTensor(shape, [[1, 2]], [1.0])
        t = SparseTensor((np.int64(2), np.uint8(3)), [[1, 2]], [1.0])
        assert t.shape == (2, 3) and all(type(s) is int for s in t.shape)

    def test_with_values_checks_only_the_values(self, three_entry_2x2):
        t = three_entry_2x2
        again = t.with_values([3.0, 5.0, 7.0])
        assert again._flat is t._flat and np.array_equal(again.indices, t.indices)
        assert again.value_at((1, 0)) == 7.0
        with pytest.raises(ValueError, match="length mismatch"):
            t.with_values([1.0, 2.0])
        with pytest.raises(NonFiniteValueError):
            t.with_values([1.0, math.inf, 2.0])
        with pytest.raises(NonPositiveValueError):
            t.with_values([1.0, 0.0, 2.0])

    def test_out_of_bounds(self):
        with pytest.raises(IndexOutOfBoundsError):
            make_tensor((2,), {(3,): 1.0})

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)])
    def test_out_of_bounds_names_the_dimension(self, shape):
        cells = np.array(list(itertools.product(*map(range, shape))))
        for d, size in enumerate(shape):
            for bad in (-1, size):
                indices = cells.copy()
                indices[len(indices) // 2, d] = bad
                with pytest.raises(IndexOutOfBoundsError, match=f"in dimension {d} for shape"):
                    SparseTensor(shape, indices, np.ones(len(indices)))
                if d > 0:
                    # an earlier row's fault in a later dimension does not
                    # hide this one: the first faulty dimension is named
                    indices[0, -1] = shape[-1]
                    with pytest.raises(IndexOutOfBoundsError, match=f"in dimension {d} for"):
                        SparseTensor(shape, indices, np.ones(len(indices)))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_out_of_bounds_dimension_matches_a_whole_array_check(self, data):
        shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="shape"))
        rows = data.draw(
            st.lists(st.tuples(*(st.integers(-2, s + 1) for s in shape)), min_size=1, max_size=8)
        )
        indices = np.array(rows, dtype=np.int64).reshape(-1, len(shape))
        bad = (indices < 0) | (indices >= np.array(shape))
        if not bad.any():
            return
        first = int(np.argmax(bad.any(axis=0)))
        with pytest.raises(IndexOutOfBoundsError, match=f"in dimension {first} for shape"):
            SparseTensor(shape, indices, np.ones(len(indices)))

    def test_duplicate_index(self):
        with pytest.raises(DuplicateIndexError):
            make_tensor((2, 2), [((0, 0), 1.0), ((0, 0), 2.0)])

    def test_entries_are_sorted_lexicographically(self):
        t = make_tensor((3, 3), [((2, 0), 1.0), ((0, 1), 2.0), ((1, 2), 3.0)])
        assert [tuple(ix) for ix in t.indices] == [(0, 1), (1, 2), (2, 0)]

    @pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
    def test_rows_in_any_order_give_one_tensor_and_are_copied(self, order):
        cells = [[0, 0], [0, 3], [1, 1], [2, 0], [2, 2], [2, 3]]
        at = {"sorted": np.arange(6), "reversed": np.arange(6)[::-1], "shuffled": np.array([3, 0, 5, 1, 4, 2])}[order]
        indices = np.array(cells)[at]
        values = np.arange(1.0, 7.0)[at]
        t = SparseTensor((3, 4), indices, values)
        assert t._flat.tolist() == [0, 3, 5, 8, 10, 11]
        assert t.values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        # writes to the caller's arrays must not reach the tensor
        indices[:] = [1, 2]
        values[:] = 9.0
        assert t.indices.tolist() == cells and t.values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_with_values_copies_the_values(self, three_entry_2x2):
        values = np.array([3.0, 5.0, 7.0])
        again = three_entry_2x2.with_values(values)
        values[0] = -5.0
        assert again.value_at((0, 0)) == 3.0

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            make_tensor((0, 2), {})

    def test_shape_beyond_int64_keys(self):
        # keys are formed by plain arithmetic, which would wrap past 2**63 - 1
        with pytest.raises(IndexOutOfBoundsError,
                           match=r"shape \(10000000, 10000000, 10000000\) has 10{21} cells"):
            make_tensor((10**7,) * 3, {(0, 0, 0): 1.0})
        with pytest.raises(IndexOutOfBoundsError, match="int64"):
            SparseTensor((2**32, 2**31), np.empty((0, 2)), [])
        # 2**62 cells fit: the last one's key is 2**62 - 1
        t = SparseTensor((2**31, 2**31), [[2**31 - 1, 2**31 - 1], [1, 0]], [3.0, 2.0])
        assert t.n_cells == 2**62 and t._flat.tolist() == [2**31, 2**62 - 1]
        assert t.value_at((2**31 - 1, 2**31 - 1)) == 3.0 and not t.is_observed((0, 2**31 - 1))


class TestTensorIsAPlainValue:
    """A tensor's attributes are fixed at construction: a query plan built
    from its keys and values stays true of it."""

    def test_no_attribute_is_rebound_or_deleted(self, three_entry_2x2):
        t = three_entry_2x2
        for name in SparseTensor.__slots__:
            with pytest.raises(AttributeError, match=f"cannot set '{name}'"):
                setattr(t, name, getattr(t, name))
            with pytest.raises(AttributeError, match=f"cannot delete '{name}'"):
                delattr(t, name)
        with pytest.raises(AttributeError, match="cannot set 'extra'"):
            t.extra = 1
        assert t.values.tolist() == [2.0, 8.0, 4.0] and t.shape == (2, 2)

    def test_a_pickle_round_trip_keeps_the_bits_and_sorts_nothing(self, rng, monkeypatch):
        indices = np.argwhere(rng.random((5, 4, 3)) < 0.4)
        t = SparseTensor((5, 4, 3), indices, 10.0 ** rng.uniform(-300, 300, len(indices)))
        body = pickle.dumps(t)

        def unsorted(*args):
            raise AssertionError("the load formed keys from rows")

        monkeypatch.setattr(tensor_module, "sub_ids", unsorted)
        clone = pickle.loads(body)
        assert clone.shape == t.shape
        for name in ("values", "_flat"):
            a, b = getattr(clone, name), getattr(t, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes() and not a.flags.writeable
        with pytest.raises(AttributeError):
            clone.values = t.values
        assert pickle.dumps(clone) == body


class TestEnumeration:
    """The families a ScaleSet stores one log array for."""

    def test_rows_and_columns(self):
        # rows fix dim 0, columns fix dim 1
        assert subtensor_families(2, 1) == [(0,), (1,)]

    def test_cube_fibers_match_brute_force(self):
        # independent oracle: all choices of the D-k fixed dims, listed
        # lexicographically
        brute = sorted(
            tuple(d for d in range(3) if fixed[d])
            for fixed in itertools.product((False, True), repeat=3)
            if sum(fixed) == 2
        )
        assert subtensor_families(3, 1) == brute == [(0, 1), (0, 2), (1, 2)]

    def test_cube_slices(self):
        assert subtensor_families(3, 2) == [(0,), (1,), (2,)]

    @pytest.mark.parametrize("k", [0, 2])
    def test_invalid_k(self, k):
        with pytest.raises(InvalidKError):
            subtensor_families(2, k)

    @pytest.mark.parametrize("k", [True, 1.0, np.float64(1.0), np.True_, "1"])
    def test_k_must_be_an_int(self, k):
        t = make_tensor((2, 2), {(0, 0): 1.0, (1, 1): 2.0})
        message = re.escape(f"k must be an int, got {k!r}")
        for call in (lambda: subtensor_families(2, k), lambda: balance(t, k), lambda: ScaleSet((2, 2), k, {}, {})):
            with pytest.raises(InvalidKError, match=message):
                call()
        assert balance(t, np.int64(1)).k == 1 and type(balance(t, np.int64(1)).k) is int

    def test_key_count_formula(self):
        # a scale set holds one log per coordinate vector with exactly k
        # free slots and in-bounds fixed slots
        shape = (3, 4, 2)
        for k in (1, 2):
            brute = sum(
                sum(c is None for c in coords) == k
                for coords in itertools.product(*[list(range(s)) + [None] for s in shape])
            )
            scales = scale_set(shape, k, {})
            assert sum(len(scales.log[f]) for f in scales.families) == brute


class TestScaleApply:
    def test_identity(self, three_entry_2x2):
        ones = scale_set((2, 2), 1, {(0,): [1.0, 1.0], (1,): [1.0, 1.0]})
        out = scale_apply(three_entry_2x2, ones)
        np.testing.assert_array_equal(out.values, three_entry_2x2.values)

    def test_row_column_products(self):
        t = make_tensor((2, 2), {(i, j): 1.0 for i in range(2) for j in range(2)})
        scales = scale_set((2, 2), 1, {(0,): [2.0, 3.0], (1,): [5.0, 7.0]})
        out = scale_apply(t, scales)
        np.testing.assert_allclose(out.to_dense(), [[10.0, 14.0], [15.0, 21.0]], rtol=1e-12)

    def test_pattern_preserved(self, three_entry_2x2):
        scales = scale_set((2, 2), 1, {(0,): [2.0, 2.0], (1,): [2.0, 2.0]})
        out = scale_apply(three_entry_2x2, scales)
        assert not out.is_observed((1, 1))
        assert out.n_observed == 3

    def test_shape_mismatch(self, three_entry_2x2):
        scales = scale_set((3, 3), 1, {(0,): [2.0, 1.0, 1.0]})
        with pytest.raises(ShapeMismatchError):
            scale_apply(three_entry_2x2, scales)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_inverse_round_trip(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ndim = data.draw(st.integers(2, 3))
        shape = tuple(data.draw(st.integers(2, 4)) for _ in range(ndim))
        k = data.draw(st.integers(1, ndim - 1))
        mask = rng.random(shape) < 0.6
        mask.flat[0] = True
        t = make_tensor(shape, {tuple(ix): float(v) for ix, v in
                                zip(np.argwhere(mask), np.exp(rng.normal(0, 1, int(mask.sum()))))})
        scales = scale_set(
            shape,
            k,
            {
                fixed: np.exp(rng.uniform(-2, 2, math.prod(shape[d] for d in fixed)))
                for fixed in subtensor_families(ndim, k)
            },
        )
        back = scale_apply(scale_apply(t, scales), scales.inverse())
        np.testing.assert_allclose(back.values, t.values, rtol=1e-12)


class TestScaleSetMapping:
    """A ScaleSet is built from, and exposes, per-family log arrays."""

    def test_logs_beyond_the_float_range_build_without_warning(self):
        # exp(800) is inf: only the log is stored, so nothing overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logs = {(0,): np.array([800.0, -800.0]), (1,): np.zeros(2)}
            scales = ScaleSet((2, 2), 1, logs, {f: np.ones(2, dtype=bool) for f in logs})
            inverse = scales.inverse()
        assert scales.log_sum_at([[0, 0], [1, 0]]).tolist() == [800.0, -800.0]
        assert inverse.log_sum_at([[0, 0], [1, 0]]).tolist() == [-800.0, 800.0]

    def test_positive_scales_required(self):
        # a log of -inf is a scale of 0
        logs = {(0,): np.array([-np.inf, 0.0]), (1,): np.zeros(2)}
        nonempty = {(0,): np.array([True, False]), (1,): np.zeros(2, dtype=bool)}
        with pytest.raises(NonPositiveValueError, match=r"family \(0,\) subtensor \(0,\) is 0"):
            ScaleSet((2, 2), 1, logs, nonempty)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_finite_scales_required(self, value):
        logs = {(0,): np.array([value, 0.0]), (1,): np.zeros(2)}
        nonempty = {(0,): np.array([True, False]), (1,): np.zeros(2, dtype=bool)}
        with pytest.raises(NonFiniteValueError, match=r"family \(0,\) subtensor \(0,\) is not finite"):
            ScaleSet((2, 2), 1, logs, nonempty)
        # an empty subtensor's log is not read: it is stored as 0
        nonempty[(0,)][0] = False
        assert ScaleSet((2, 2), 1, logs, nonempty).log[(0,)].tolist() == [0.0, 0.0]

    def test_wrong_family_key(self):
        logs = {(0,): np.zeros(2)}  # that is a k=2 family of a 3-D shape
        with pytest.raises(InvalidKError):
            ScaleSet((2, 2, 2), 1, logs, {(0,): np.ones(2, dtype=bool)})

    @pytest.mark.parametrize("part", ["log", "nonempty"])
    @pytest.mark.parametrize("size", [None, 1, 3, (2, 1)])
    def test_every_family_array_has_the_family_size(self, part, size):
        logs = {(0,): np.zeros(2), (1,): np.zeros(2)}
        nonempty = {(0,): np.ones(2, dtype=bool), (1,): np.ones(2, dtype=bool)}
        arrays = logs if part == "log" else nonempty
        if size is None:
            del arrays[(1,)]
        else:
            arrays[(1,)] = np.ones(size, dtype=arrays[(1,)].dtype)
        with pytest.raises(ShapeMismatchError, match=r"family \(1,\)"):
            ScaleSet((2, 2), 1, logs, nonempty)

    def test_state_is_read_only(self):
        scales = scale_set((2, 3), 1, {(0,): [2.0, 3.0]})
        assert scales.families == ((0,), (1,))
        for part in (scales.log, scales.nonempty):
            for array in part.values():
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1
        assert repr(scales) == "ScaleSet(shape=(2, 3), k=1, n_scales=2)"

    def test_no_write_reaches_the_state(self):
        scales = scale_set((2, 3), 1, {(0,): [2.0, 3.0]})
        for part in (scales.log, scales.nonempty):
            with pytest.raises(TypeError):
                part[(1,)] = np.zeros(3)
        for name in ScaleSet.__slots__:
            with pytest.raises(AttributeError, match=f"cannot set '{name}'"):
                setattr(scales, name, getattr(scales, name))
        assert scales.log[(1,)].tolist() == [0.0, 0.0, 0.0]

    def test_no_slot_is_deleted(self):
        scales = scale_set((2, 3), 1, {(0,): [2.0, 3.0]})
        for name in ScaleSet.__slots__:
            with pytest.raises(AttributeError, match=f"cannot delete '{name}'"):
                delattr(scales, name)
        assert scales.families == ((0,), (1,)) and scales.log[(0,)].tolist() == np.log([2.0, 3.0]).tolist()

    def test_a_pickle_round_trip_keeps_the_bits_and_the_read_only_state(self, rng):
        shape = (3, 4, 2)
        logs, nonempty = {}, {}
        for fixed in subtensor_families(3, 2):
            size = math.prod(shape[d] for d in fixed)
            logs[fixed] = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)
            logs[fixed][0] = -0.0  # a sign bit the copy must keep
            nonempty[fixed] = rng.random(size) < 0.7
        scales = ScaleSet(shape, 2, logs, nonempty)
        clone = pickle.loads(pickle.dumps(scales))
        assert (clone.shape, clone.k, clone.families) == (scales.shape, scales.k, scales.families)
        for part in ("log", "nonempty"):
            mapping, original = getattr(clone, part), getattr(scales, part)
            assert type(mapping) is MappingProxyType and list(mapping) == list(original)
            for fixed, array in mapping.items():
                assert not array.flags.writeable
                assert array.dtype == original[fixed].dtype and array.tobytes() == original[fixed].tobytes()
        assert pickle.dumps(clone) == pickle.dumps(scales)


class TestMembershipCounting:
    def test_observed_counts_sum(self, rng):
        # every observed entry lies in exactly C(D, D-k) family-k subtensors
        shape = (4, 3, 5)
        mask = rng.random(shape) < 0.4
        mask.flat[0] = True
        entries = {
            tuple(ix): float(v)
            for ix, v in zip(np.argwhere(mask), np.exp(rng.normal(0, 1, int(mask.sum()))))
        }
        t = make_tensor(shape, entries)
        for k in (1, 2):
            total = sum(int(c.sum()) for c in BalanceState(t, k).counts.values())
            assert total == math.comb(3, 3 - k) * t.n_observed


shapes = st.lists(st.integers(1, 4), min_size=2, max_size=4).map(tuple)


@st.composite
def patterns(draw, shape=None):
    """A tensor of ``shape`` (drawn if None) on an arbitrary, possibly
    empty, pattern."""
    shape = draw(shapes) if shape is None else shape
    mask = np.array(draw(st.lists(st.booleans(), min_size=math.prod(shape), max_size=math.prod(shape))))
    indices = np.argwhere(mask.reshape(shape))
    return make_tensor(shape, {tuple(ix): float(i + 1) for i, ix in enumerate(indices.tolist())})


@st.composite
def drawn_logs(draw, shape):
    """(k, logs, nonempty) of a scale set of ``shape`` whose empty keys
    hold arbitrary logs, as a hand-built or loaded model may."""
    k = draw(st.integers(1, len(shape) - 1))
    logs, nonempty = {}, {}
    for fixed in itertools.combinations(range(len(shape)), len(shape) - k):
        size = math.prod(shape[d] for d in fixed)
        logs[fixed] = np.array(draw(st.lists(st.floats(-3, 3), min_size=size, max_size=size)))
        nonempty[fixed] = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    return k, logs, nonempty


class TestKeyStorage:
    """A tensor stores its pattern once, as ascending flat keys; the
    coordinate rows and the per-family subtensor ids derive from them."""

    @given(st.one_of(patterns(), patterns((1, 3, 1, 2))))
    @settings(max_examples=100, deadline=None)
    def test_family_ids_from_keys_match_the_ids_from_rows(self, t):
        rows = t.indices
        for r in range(1, t.ndim + 1):
            for fixed in itertools.combinations(range(t.ndim), r):
                ids, size = family_sub_ids(t, fixed)
                want = sub_ids(rows, t.shape, fixed)
                assert ids.dtype == want.dtype and np.array_equal(ids, want)
                assert size == math.prod(t.shape[d] for d in fixed)

    @given(patterns())
    @settings(max_examples=30, deadline=None)
    def test_an_entry_costs_16_bytes_and_no_slot_holds_rows(self, t):
        held = [t, t.with_values(t.values * 2.0), scale_apply(t, scale_set(t.shape, 1, {}))]
        assert SparseTensor.__slots__ == ("shape", "values", "_flat")
        for tensor in held:
            arrays = [getattr(tensor, name) for name in SparseTensor.__slots__]
            arrays = [a for a in arrays if isinstance(a, np.ndarray)]
            assert all(a.ndim == 1 for a in arrays)
            assert sum(a.nbytes for a in arrays) == 16 * tensor.n_observed
            assert tensor.indices.shape == (tensor.n_observed, tensor.ndim)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_a_bad_value_names_the_same_cell_from_rows_or_keys(self, bad):
        t = make_tensor((2, 3, 2), {(1, 2, 0): 1.0, (0, 1, 1): 2.0, (1, 0, 1): 3.0})
        values = t.values.copy()
        values[1] = bad
        with pytest.raises((NonFiniteValueError, NonPositiveValueError)) as from_rows:
            SparseTensor(t.shape, t.indices, values)
        with pytest.raises(type(from_rows.value)) as from_keys:
            t.with_values(values)
        assert str(from_keys.value) == str(from_rows.value)
        assert "at index (1, 0, 1)" in str(from_keys.value)


# D = 1 to 4, size-1 dimensions, and 3037000499**2 cells, within 1e-9 of int64's maximum
CODEC_SHAPES = [(7,), (1,), (5, 3), (1, 4), (6, 1), (3, 1, 4), (2, 3, 4, 5), (1, 1, 1, 1),
                (3037000499, 3037000499), (3, 1, 3037000499)]


def codec_keys(shape, n, seed):
    """Up to ``n`` distinct ascending flat keys of ``shape``, seeded: the
    first and last cell, and random ones between."""
    n_cells = math.prod(shape)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return np.unique(np.concatenate(([0, n_cells - 1], rng.integers(0, n_cells, n, dtype=np.int64))))


class TestKeyCodec:
    """The key format's one reader (``key_coordinate`` and what is built on
    it) against numpy's own codec: ``np.unravel_index``,
    ``np.ravel_multi_index`` and ``np.bincount``."""

    @pytest.mark.parametrize("n", [0, 60])
    @pytest.mark.parametrize("shape", CODEC_SHAPES)
    def test_coordinates_match_unravel_index(self, shape, n):
        keys = codec_keys(shape, n, seed=len(shape) * 100 + n)
        want = np.stack(np.unravel_index(keys, shape), axis=1)
        for d in range(len(shape)):
            coord = key_coordinate(keys, shape, d)
            assert coord.dtype == np.int64 and np.array_equal(coord, want[:, d])
        rows = unravel_keys(keys, shape)
        assert rows.dtype == np.int64 and np.array_equal(rows, want)
        out = np.full((len(keys), 2, len(shape)), -1, dtype=np.int64)
        unravel_keys(keys, shape, out[:, 1])
        assert np.array_equal(out[:, 1], want) and (out[:, 0] == -1).all()
        assert [_cell(key, shape) for key in keys.tolist()] == [tuple(r) for r in want.tolist()]
        t = SparseTensor(shape, None, np.ones(len(keys)), _flat=keys)
        assert t.indices.dtype == np.int64 and np.array_equal(t.indices, want)

    @pytest.mark.parametrize("n", [0, 60])
    @pytest.mark.parametrize("shape", [s for s in CODEC_SHAPES if len(s) > 1])
    def test_family_ids_match_ravel_multi_index(self, shape, n):
        keys = codec_keys(shape, n, seed=len(shape) * 100 + n + 1)
        t = SparseTensor(shape, None, np.ones(len(keys)), _flat=keys)
        cells = np.unravel_index(keys, shape)
        for r in range(1, len(shape) + 1):
            for fixed in itertools.combinations(range(len(shape)), r):
                dims = [shape[d] for d in fixed]
                ids, size = family_sub_ids(t, fixed)
                want = np.ravel_multi_index([cells[d] for d in fixed], dims)
                assert ids.dtype == np.int64 and np.array_equal(ids, want)
                assert size == math.prod(dims)

    @pytest.mark.parametrize("n", [0, 60])
    @pytest.mark.parametrize("shape", [s for s in CODEC_SHAPES if 1 < len(s) and math.prod(s) < 10**6])
    def test_counts_match_bincount(self, shape, n):
        keys = codec_keys(shape, n, seed=len(shape) * 100 + n + 2)
        t = SparseTensor(shape, None, np.ones(len(keys)), _flat=keys)
        cells = np.unravel_index(keys, shape)
        for k in range(1, len(shape)):
            families = subtensor_families(len(shape), k)
            counts, rest_ids = subtensor_counts(t, families)
            assert list(counts) == families and len(rest_ids) == len(families) - 1
            for i, fixed in enumerate(families):
                dims = [shape[d] for d in fixed]
                ids = np.ravel_multi_index([cells[d] for d in fixed], dims)
                assert np.array_equal(counts[fixed], np.bincount(ids, minlength=math.prod(dims)))
                if i:
                    assert np.array_equal(rest_ids[i - 1], ids)


class TestLogSums:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_empty_keys_count_as_scale_one_whatever_they_hold(self, data):
        shape = data.draw(shapes)
        k, logs, nonempty = data.draw(drawn_logs(shape))
        scales = ScaleSet(shape, k, logs, nonempty)
        cells = np.argwhere(np.ones(shape, dtype=bool))
        expected = np.zeros(len(cells))
        for fixed in logs:
            ids = np.ravel_multi_index(cells[:, list(fixed)].T, [shape[d] for d in fixed])
            expected += np.where(nonempty[fixed][ids], logs[fixed][ids], 0.0)
        assert scales.log_sum_at(cells).tolist() == expected.tolist()
        np.testing.assert_allclose(scales.factor_grid().reshape(-1), np.exp(expected), rtol=1e-12)
        assert scales.inverse().log_sum_at(cells).tolist() == (-expected).tolist()
