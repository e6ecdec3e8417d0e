import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctensor import (
    DuplicateIndexError,
    IndexOutOfBoundsError,
    InvalidKError,
    NonFiniteValueError,
    NonPositiveValueError,
    ScaleSet,
    ShapeMismatchError,
    SubtensorKey,
    containing_keys,
    enumerate_subtensors,
    make_tensor,
    scale_apply,
    subtensor_products,
)


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

    def test_errors_print_plain_int_indices(self):
        with pytest.raises(NonPositiveValueError, match=r"at index \(1, 0\) is not strictly"):
            make_tensor((2, 2), {(1, 0): -1.0})
        with pytest.raises(DuplicateIndexError, match=r"duplicate index \(0, 1\)$"):
            make_tensor((2, 2), [((0, 1), 1.0), ((0, 1), 2.0)])

    def test_with_values_checks_only_the_values(self, three_entry_2x2):
        t = three_entry_2x2
        again = t.with_values([3.0, 5.0, 7.0])
        assert np.shares_memory(again.indices, t.indices) and again._flat is t._flat
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

    def test_duplicate_index(self):
        with pytest.raises(DuplicateIndexError):
            make_tensor((2, 2), [((0, 0), 1.0), ((0, 0), 2.0)])

    def test_entries_are_sorted_lexicographically(self):
        t = make_tensor((3, 3), [((2, 0), 1.0), ((0, 1), 2.0), ((1, 2), 3.0)])
        assert [tuple(ix) for ix in t.indices] == [(0, 1), (1, 2), (2, 0)]

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            make_tensor((0, 2), {})


class TestEnumeration:
    def test_rows_and_columns(self):
        keys = enumerate_subtensors((2, 3), 1)
        assert len(keys) == 5  # 2 row keys + 3 column keys
        assert SubtensorKey((0, None)) in keys
        assert SubtensorKey((None, 2)) in keys

    def test_cube_fibers_match_brute_force(self):
        # independent oracle: all coordinate vectors with exactly one null
        # slot and in-bounds fixed slots
        shape = (2, 2, 2)
        brute = set()
        for coords in itertools.product(*[list(range(s)) + [None] for s in shape]):
            if sum(c is None for c in coords) == 1:
                brute.add(coords)
        keys = enumerate_subtensors(shape, 1)
        assert len(keys) == 12
        assert {k.coords for k in keys} == brute

    def test_cube_slices(self):
        keys = enumerate_subtensors((2, 2, 2), 2)
        assert len(keys) == 6
        assert all(k.k == 2 for k in keys)

    @pytest.mark.parametrize("k", [0, 2])
    def test_invalid_k(self, k):
        with pytest.raises(InvalidKError):
            enumerate_subtensors((2, 3), k)

    def test_key_count_formula(self):
        # total = sum over fixed-dim subsets of the product of their sizes
        shape = (3, 4, 2)
        for k in (1, 2):
            keys = enumerate_subtensors(shape, k)
            expected = sum(
                int(np.prod([shape[d] for d in fixed]))
                for fixed in itertools.combinations(range(3), 3 - k)
            )
            assert len(keys) == expected


class TestContainingKeys:
    def test_matrix_row_and_column(self):
        keys = containing_keys((1, 2), 1, (2, 3))
        assert {k.coords for k in keys} == {(1, None), (None, 2)}

    def test_cube_slices(self):
        keys = containing_keys((0, 1, 1), 2, (2, 2, 2))
        assert {k.coords for k in keys} == {(0, None, None), (None, 1, None), (None, None, 1)}

    def test_cube_fibers(self):
        keys = containing_keys((0, 1, 1), 1, (2, 2, 2))
        assert {k.coords for k in keys} == {(0, 1, None), (0, None, 1), (None, 1, 1)}

    def test_out_of_bounds(self):
        with pytest.raises(IndexOutOfBoundsError):
            containing_keys((5, 0), 1, (2, 2))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_count_is_d_choose_d_minus_k(self, data):
        ndim = data.draw(st.integers(2, 4))
        shape = tuple(data.draw(st.integers(1, 4)) for _ in range(ndim))
        k = data.draw(st.integers(1, ndim - 1))
        index = tuple(data.draw(st.integers(0, s - 1)) for s in shape)
        keys = containing_keys(index, k, shape)
        assert len(keys) == math.comb(ndim, ndim - k)
        assert all(key.contains(index) for key in keys)


class TestScaleApply:
    def test_identity(self, three_entry_2x2):
        ones = ScaleSet.from_dict(
            (2, 2), 1, {k: 1.0 for k in enumerate_subtensors((2, 2), 1)}
        )
        out = scale_apply(three_entry_2x2, ones)
        np.testing.assert_array_equal(out.values, three_entry_2x2.values)

    def test_row_column_products(self):
        t = make_tensor((2, 2), {(i, j): 1.0 for i in range(2) for j in range(2)})
        scales = ScaleSet.from_dict(
            (2, 2),
            1,
            {
                (0, None): 2.0,
                (1, None): 3.0,
                (None, 0): 5.0,
                (None, 1): 7.0,
            },
        )
        out = scale_apply(t, scales)
        np.testing.assert_allclose(out.to_dense(), [[10.0, 14.0], [15.0, 21.0]], rtol=1e-12)

    def test_pattern_preserved(self, three_entry_2x2):
        scales = ScaleSet.from_dict(
            (2, 2), 1, {k: 2.0 for k in enumerate_subtensors((2, 2), 1)}
        )
        out = scale_apply(three_entry_2x2, scales)
        assert not out.is_observed((1, 1))
        assert out.n_observed == 3

    def test_shape_mismatch(self, three_entry_2x2):
        scales = ScaleSet.from_dict((3, 3), 1, {(0, None): 2.0})
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
        scales = ScaleSet.from_dict(
            shape,
            k,
            {key: float(np.exp(rng.uniform(-2, 2))) for key in enumerate_subtensors(shape, k)},
        )
        back = scale_apply(scale_apply(t, scales), scales.inverse())
        np.testing.assert_allclose(back.values, t.values, rtol=1e-12)


class TestScaleSetMapping:
    def test_mapping_interface(self):
        scales = ScaleSet.from_dict((2, 2), 1, {(0, None): 2.0, (None, 1): 3.0})
        assert len(scales) == 2
        assert scales[SubtensorKey((0, None))] == 2.0
        assert (None, 1) in scales
        assert (1, None) not in scales  # empty key: implicit scale 1
        assert scales.get((1, None)) == 1.0
        with pytest.raises(KeyError):
            scales[(1, None)]
        assert dict(scales.items()) == {
            SubtensorKey((0, None)): 2.0,
            SubtensorKey((None, 1)): 3.0,
        }

    def test_positive_scales_required(self):
        with pytest.raises(NonPositiveValueError):
            ScaleSet.from_dict((2, 2), 1, {(0, None): 0.0})

    def test_wrong_family_key(self):
        with pytest.raises(InvalidKError):
            ScaleSet.from_dict((2, 2, 2), 1, {(0, None, None): 2.0})  # that is a k=2 key


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
            total = sum(int(c.sum()) for _, c in subtensor_products(t, k).values())
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


class TestRowSlice:
    @given(patterns())
    @settings(max_examples=100, deadline=None)
    def test_slice_holds_exactly_the_row(self, t):
        for i in range(t.shape[0]):
            rows = t.row_slice(i)
            np.testing.assert_array_equal(t.indices[rows], t.indices[t.indices[:, 0] == i])
            np.testing.assert_array_equal(t.values[rows], t.values[t.indices[:, 0] == i])


class TestLogSums:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_fiber_equals_log_sum_at_bit_for_bit(self, data):
        shape = data.draw(shapes)
        scales = ScaleSet.from_log_arrays(shape, *data.draw(drawn_logs(shape)))
        for prefix in itertools.product(*(range(s) for s in shape[:-1])):
            cells = np.array([(*prefix, j) for j in range(shape[-1])])
            assert scales.log_sum_fiber(prefix).tolist() == scales.log_sum_at(cells).tolist()

    def test_fiber_prefix_is_checked(self):
        scales = ScaleSet.from_dict((2, 3, 4), 1, {})
        for bad in [(0,), (0, 3), (-1, 0), (0, 0, 0)]:
            with pytest.raises(IndexOutOfBoundsError):
                scales.log_sum_fiber(bad)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_empty_keys_count_as_scale_one_whatever_they_hold(self, data):
        shape = data.draw(shapes)
        k, logs, nonempty = data.draw(drawn_logs(shape))
        scales = ScaleSet.from_log_arrays(shape, k, logs, nonempty)
        cells = np.argwhere(np.ones(shape, dtype=bool))
        expected = np.zeros(len(cells))
        for fixed in logs:
            ids = np.ravel_multi_index(cells[:, list(fixed)].T, [shape[d] for d in fixed])
            expected += np.where(nonempty[fixed][ids], logs[fixed][ids], 0.0)
        assert scales.log_sum_at(cells).tolist() == expected.tolist()
        np.testing.assert_allclose(scales.factor_grid().reshape(-1), np.exp(expected), rtol=1e-12)
        assert scales.inverse().log_sum_at(cells).tolist() == (-expected).tolist()
