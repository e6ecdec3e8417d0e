import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctensor import (
    BalanceState,
    CompletedTensor,
    DidNotConvergeError,
    EmptyTensorError,
    ScaleSet,
    SolverConfig,
    SparseTensor,
    balance,
    check_full_support,
    complete_matrix,
    make_tensor,
    max_balance_violation,
    scale_apply,
    subtensor_families,
)
from uctensor.properties import hide_with_full_support, random_sparse_tensor
from uctensor.tensor import family_sub_ids

from conftest import TIGHT, reversed_balance
from sweep_oracle import SweepState, sweep, sweep_balance


def max_squared_log_product(tensor, k):
    """The balance violation the solver stops on, recomputed from scratch."""
    logs = np.log(tensor.values)
    worst = 0.0
    for fixed in subtensor_families(tensor.ndim, k):
        ids, size = family_sub_ids(tensor, fixed)
        worst = max(worst, float(np.max(np.bincount(ids, weights=logs, minlength=size) ** 2)))
    return worst


def banded_rank1(n=80, half_width=3, seed=0):
    """A positive rank-1 n x n matrix observed only where |i - j| <= half_width:
    a pattern that mixes slowly.  Returns the tensor and the dense truth."""
    rng = np.random.default_rng(seed)
    truth = np.outer(np.exp(rng.uniform(-1, 1, n)), np.exp(rng.uniform(-1, 1, n)))
    i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= half_width)
    return SparseTensor((n, n), np.stack([i, j], axis=1), truth[i, j]), truth


@st.composite
def patterns(draw):
    """A random 2-D or 3-D positive tensor, a k for it, and its dense
    values when they are rank-1.  Half the patterns hide cells only where
    full support survives; the others may have empty subtensors (a cleared
    slice) and may fall apart into two parts that no subtensor links."""
    ndim = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.lists(st.integers(2, 7 if ndim == 2 else 4), min_size=ndim, max_size=ndim)))
    k = draw(st.integers(1, ndim - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank1 = draw(st.booleans())
    if rank1:
        dense = functools.reduce(np.multiply, np.ix_(*(np.exp(rng.normal(0.0, 1.0, s)) for s in shape)))
    else:
        dense = np.exp(rng.normal(0.0, 1.0, shape))
    truth = dense if rank1 else None
    if draw(st.booleans()):
        tensor, _, _ = hide_with_full_support(rng, dense, draw(st.sampled_from([0.2, 0.4])))
        return tensor, k, truth
    mask = rng.random(shape) < draw(st.sampled_from([0.3, 0.6, 0.9]))
    if draw(st.booleans()):  # two diagonal blocks: a disconnected pattern
        cut = [s // 2 for s in shape]
        blocks = np.zeros(shape, dtype=bool)
        blocks[tuple(slice(0, c) for c in cut)] = True
        blocks[tuple(slice(c, None) for c in cut)] = True
        mask &= blocks
    if draw(st.booleans()):  # an empty slice
        dim = int(rng.integers(ndim))
        mask[(slice(None),) * dim + (int(rng.integers(shape[dim])),)] = False
    if not mask.any():
        mask[tuple(int(rng.integers(s)) for s in shape)] = True
    return SparseTensor(shape, np.argwhere(mask), dense[mask]), k, truth


class TestSolves:
    def test_all_ones_already_balanced(self):
        t = make_tensor((2, 2), {(i, j): 1.0 for i in range(2) for j in range(2)})
        model = balance(t, 1)
        np.testing.assert_array_equal(model.balanced.values, np.ones(4))
        assert model.sweeps_run == 1
        assert model.final_residual == 0.0
        assert model.residual_trace == (0.0,)

    def test_single_entry_columns_forced_to_one(self):
        # each column of a 1x2 matrix is a single-entry subtensor
        t = make_tensor((1, 2), {(0, 0): 4.0, (0, 1): 9.0})
        model = balance(t, 1, TIGHT)
        np.testing.assert_allclose(model.balanced.values, [1.0, 1.0], rtol=1e-12)

    def test_rank1_matrix_balances_to_ones(self):
        t = make_tensor((2, 2), {(0, 0): 2.0, (0, 1): 8.0, (1, 0): 4.0, (1, 1): 16.0})
        model = balance(t, 1, TIGHT)
        np.testing.assert_allclose(model.balanced.values, np.ones(4), rtol=1e-10)

    def test_empty_tensor(self):
        with pytest.raises(EmptyTensorError):
            balance(make_tensor((2, 2), {}), 1)

    def test_did_not_converge_carries_diagnostics(self, three_entry_2x2):
        with pytest.raises(DidNotConvergeError) as err:
            balance(three_entry_2x2, 1, SolverConfig(epsilon=1e-10, max_sweeps=1))
        model = err.value.model
        assert model.sweeps_run == 1
        assert len(model.residual_trace) == 1
        assert model.final_residual >= 1e-10


class TestFirstFamilyRuns:
    """The first family fixes the leading dims, so its subtensors are runs
    of the sorted keys, found by one search; its counts and runs must be
    those a bincount of its per-entry ids gives, whichever of its
    subtensors are empty."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("ndim", [2, 3, 4])
    def test_runs_match_a_bincount_of_the_ids(self, ndim, seed):
        rng = np.random.default_rng(seed)
        dense = random_sparse_tensor(rng, tuple(int(s) for s in rng.integers(4, 7, size=ndim)), 0.7)
        for k in range(1, ndim):
            first = subtensor_families(ndim, k)[0]
            ids, size = family_sub_ids(dense, first)
            holes = [0, size // 2, size - 1]  # at the front, in the middle, at the end
            keep = ~np.isin(ids, holes)
            t = SparseTensor(dense.shape, dense.indices[keep], dense.values[keep])
            state = BalanceState(t, k)
            for fixed in state.families:
                ids, size = family_sub_ids(t, fixed)
                assert np.array_equal(state.counts[fixed], np.bincount(ids, minlength=size))
            ids, size = family_sub_ids(t, first)
            counts = state.counts[first]
            assert counts.dtype == np.bincount(ids).dtype and not counts[holes].any()
            assert np.array_equal(state._first_nonempty, np.flatnonzero(counts))
            assert np.array_equal(state._runs, counts[state._first_nonempty])
            assert np.array_equal(state._starts, np.cumsum(state._runs) - state._runs)
            # each run holds exactly its subtensor's entries
            assert np.array_equal(np.repeat(state._first_nonempty, state._runs), ids)


class TestSweep:
    """Hand-derived single-sweep arithmetic of the reference sweeps (rows
    first, then columns)."""

    @staticmethod
    def state_from_logs(log_matrix):
        logs = np.asarray(log_matrix, dtype=float)
        entries = {
            (i, j): float(np.exp(logs[i, j]))
            for i in range(logs.shape[0])
            for j in range(logs.shape[1])
        }
        return SweepState(make_tensor(logs.shape, entries), 1)

    def test_zero_mean_subtensor_is_untouched(self):
        state = self.state_from_logs([[1.0, -1.0]])
        v = sweep(state)
        # row already zero-mean; the two singleton columns then each remove
        # their (already zero) entry
        np.testing.assert_allclose(state.log_values, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(v, 2.0, rtol=1e-12)

    def test_singleton_subtensor_mean_removal(self):
        # one observed log value 2.0 in its own row: rho = -2, entry -> 0,
        # contributing 4 to v; the column pass then contributes nothing
        state = self.state_from_logs([[2.0]])
        v = sweep(state)
        np.testing.assert_allclose(state.log_values, [0.0], atol=1e-12)
        np.testing.assert_allclose(v, 4.0, rtol=1e-12)

    def test_one_sweep_rows_then_columns(self):
        # [[0, 2], [2, 0]]: rows remove means +-1 (v += 2) leaving
        # [[-1, 1], [1, -1]], whose columns are already zero-mean
        state = self.state_from_logs([[0.0, 2.0], [2.0, 0.0]])
        v = sweep(state)
        np.testing.assert_allclose(
            state.log_values, [-1.0, 1.0, 1.0, -1.0], atol=1e-12
        )
        np.testing.assert_allclose(v, 2.0, rtol=1e-12)

    def test_one_sweep_columns_perturbed_again(self):
        # [[0, 2], [0, 2]]: rows leave [[-1, 1], [-1, 1]] (v += 2), then the
        # columns remove means -+1 (v += 2) landing on the fixed point
        state = self.state_from_logs([[0.0, 2.0], [0.0, 2.0]])
        v = sweep(state)
        np.testing.assert_allclose(state.log_values, np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(v, 4.0, rtol=1e-12)


class TestConvergedProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_constraints_hold_at_default_epsilon(self, seed):
        rng = np.random.default_rng(seed)
        t = random_sparse_tensor(rng, (12, 9), 0.4)
        model = balance(t, 1, SolverConfig(epsilon=1e-10, max_sweeps=5000))
        assert max_balance_violation(model.balanced, 1) <= 1e-4

    def test_known_pattern_preserved(self, three_entry_2x2):
        model = balance(three_entry_2x2, 1, TIGHT)
        np.testing.assert_array_equal(model.balanced.indices, three_entry_2x2.indices)

    def test_sweep_order_does_not_change_result(self, rng):
        t = random_sparse_tensor(rng, (10, 8, 6), 0.3)
        for k in (1, 2):
            lex = balance(t, k, TIGHT)
            rev = reversed_balance(t, k, TIGHT)
            np.testing.assert_allclose(
                lex.balanced.values, rev.balanced.values, atol=1e-8
            )

    def test_idempotence(self, rng):
        t = random_sparse_tensor(rng, (10, 8), 0.4)
        model = balance(t, 1, TIGHT)
        again = balance(model.balanced, 1, SolverConfig(epsilon=1e-10))
        assert again.sweeps_run == 1
        assert again.final_residual <= 1e-10

    def test_fixed_point_scale_apply_reproduces_balanced(self, rng):
        t = random_sparse_tensor(rng, (9, 7), 0.5)
        model = balance(t, 1, TIGHT)
        redone = scale_apply(t, model.scales)
        np.testing.assert_allclose(redone.values, model.balanced.values, atol=1e-8)

    def test_balanced_tensor_of_a_tiny_entry_is_finite(self):
        # the scales of this pattern reach ~e^±490, beyond what a linear
        # factor exp(sum of log scales) can hold; the entries balance to 1
        t = make_tensor((2, 2), {(0, 0): 1e-320, (0, 1): 1.0, (1, 0): 1.0})
        model = balance(t, 1, TIGHT)
        for values in (model.balanced.values, scale_apply(t, model.scales).values):
            assert np.isfinite(values).all()
            np.testing.assert_allclose(values, np.ones(3), rtol=0, atol=1e-12)

    def test_gauge_freedom(self, rng):
        # T with product 1 over every observed entry's containing keys:
        # row scales (t, t) against column scales (1/t, 1/t)
        t = make_tensor((2, 2), {(i, j): float(np.exp(rng.normal())) for i in range(2) for j in range(2)})
        model = balance(t, 1, TIGHT)
        z = model.scales
        factor = 3.7
        gauge = {(0,): np.log(factor), (1,): -np.log(factor)}
        z_twisted = ScaleSet((2, 2), 1, {f: z.log[f] + gauge[f] for f in z.families}, z.nonempty)
        a = scale_apply(t, z)
        b = scale_apply(t, z_twisted)
        np.testing.assert_allclose(a.values, model.balanced.values, atol=1e-8)
        np.testing.assert_allclose(b.values, model.balanced.values, atol=1e-8)

    def test_trace_is_non_negative_and_ends_at_final(self, rng):
        t = random_sparse_tensor(rng, (8, 8), 0.4)
        model = balance(t, 1, TIGHT)
        assert all(v >= 0.0 for v in model.residual_trace)
        assert model.residual_trace[-1] == model.final_residual
        assert len(model.residual_trace) == model.sweeps_run

    def test_scales_strictly_positive(self, rng):
        t = random_sparse_tensor(rng, (8, 6), 0.4)
        model = balance(t, 1, TIGHT)
        # a scale is stored as its log: a finite log is a positive scale
        for f in model.scales.families:
            assert model.scales.nonempty[f].any()
            assert np.isfinite(model.scales.log[f]).all()


class TestMatchesReferenceSweeps:
    """The conjugate-gradient solve against the reference sweeps, both run
    tightly.  Scales carry gauge freedom, so they are compared only through
    what they determine: the balanced tensor and the pinned fills."""

    @given(patterns(), st.sampled_from(["lex", "reversed"]))
    @settings(max_examples=150, deadline=None)
    def test_balanced_values_and_pinned_fills_agree(self, case, order):
        tensor, k, rank1_truth = case
        ours = balance(tensor, k, TIGHT) if order == "lex" else reversed_balance(tensor, k, TIGHT)
        ref = sweep_balance(tensor, k, TIGHT.epsilon)
        np.testing.assert_allclose(ours.balanced.values, ref.balanced.values, rtol=1e-8)
        if check_full_support(tensor).fully_supported:
            fills = CompletedTensor(ours).to_dense()
            np.testing.assert_allclose(fills, CompletedTensor(ref).to_dense(), rtol=1e-8)
            if rank1_truth is not None:  # a rank-1 tensor is recovered exactly
                np.testing.assert_allclose(fills, rank1_truth, rtol=1e-8)

    @given(st.lists(st.floats(0.01, 100.0), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_closed_form_2x2(self, abc):
        a, b, c = abc
        t = make_tensor((2, 2), {(0, 0): a, (0, 1): b, (1, 0): c})
        for model in (balance(t, 1, TIGHT), sweep_balance(t, 1, TIGHT.epsilon)):
            assert CompletedTensor(model).value_at((1, 1)) == pytest.approx(b * c / a, rel=1e-10)

    @pytest.mark.parametrize("order", ["lex", "reversed"])
    def test_slow_mixing_chain_converges_within_the_default_cap(self, order):
        # ~2,800 reference sweeps at this epsilon; the default cap is 1000
        tensor, truth = banded_rank1()
        config = SolverConfig(epsilon=1e-18)
        if order == "lex":
            completed = complete_matrix(tensor, config)
        else:
            completed = CompletedTensor(reversed_balance(tensor, 1, config))
        cells = np.argwhere(truth > 0)
        fill_err = np.abs(completed.values_at(cells) / truth.ravel() - 1.0).max()
        assert fill_err <= 1e-6


class TestReportedResidual:
    """final_residual is the true constraint violation at the returned scales."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([((12, 9), 1), ((6, 5, 4), 1), ((6, 5, 4), 2)]))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_violation_recomputed_from_the_balanced_tensor(self, seed, case):
        shape, k = case
        t = random_sparse_tensor(np.random.default_rng(seed), shape, 0.4)
        model = balance(t, k)
        assert model.residual_trace[-1] == model.final_residual
        assert model.final_residual < 1e-10
        recomputed = max_squared_log_product(model.balanced, k)
        assert model.final_residual == pytest.approx(recomputed, rel=1e-6, abs=1e-24)

    def test_equals_the_recomputed_violation_on_a_slow_mixing_chain(self):
        tensor, _ = banded_rank1()
        model = balance(tensor, 1, SolverConfig(epsilon=1e-18))
        recomputed = max_squared_log_product(model.balanced, 1)
        assert model.final_residual == pytest.approx(recomputed, rel=1e-6, abs=1e-24)

    @pytest.mark.parametrize("max_sweeps", [1, 2, 3])
    def test_partial_model_reports_its_own_violation(self, rng, max_sweeps):
        t = random_sparse_tensor(rng, (12, 9), 0.4)
        with pytest.raises(DidNotConvergeError) as err:
            balance(t, 1, SolverConfig(max_sweeps=max_sweeps))
        model = err.value.model
        assert model.sweeps_run == max_sweeps
        recomputed = max_squared_log_product(model.balanced, 1)
        assert model.final_residual == pytest.approx(recomputed, rel=1e-6, abs=1e-24)

    def test_epsilon_zero_stops_without_a_search_direction(self):
        # the residual is exactly 0, never below epsilon = 0, and the
        # conjugate-gradient direction is 0: the solve stops at once
        # instead of dividing by p·Ap = 0
        t = make_tensor((2, 3), {(i, j): 1.0 for i in range(2) for j in range(3)})
        with pytest.raises(DidNotConvergeError) as err:
            balance(t, 1, SolverConfig(epsilon=0.0, max_sweeps=50))
        model = err.value.model
        assert model.final_residual == 0.0
        np.testing.assert_array_equal(model.balanced.values, np.ones(6))

    def test_no_direction_left_while_unsettled_reports_the_recomputed_residual(self):
        # at epsilon = 0 the recurrence's residual of 1.2e-32 never settles
        # the solve, and p·Ap then stops it: the reported residual must be
        # the one the returned scales give, bit for bit
        t = make_tensor((2, 2), {(0, 0): 2.0, (0, 1): 8.0, (1, 0): 4.0})
        with pytest.raises(DidNotConvergeError) as err:
            balance(t, 1, SolverConfig(epsilon=0.0))
        model = err.value.model
        state = BalanceState(t, 1)
        x = np.concatenate([model.scales.log[f] for f in state.families[1:]])
        assert model.final_residual == float(np.max(np.abs(state._settle(x)))) ** 2
        assert model.final_residual == model.residual_trace[-1] > 0.0


class TestSolverConfig:
    def test_validation(self):
        # a bool is not taken as 0 or 1, nor a str compared with 0
        for epsilon in (-1.0, float("nan"), float("inf"), float("-inf"), True, np.True_, "1e-3", None, 1j):
            with pytest.raises(ValueError, match=r"^epsilon must be finite and >= 0, got "):
                SolverConfig(epsilon=epsilon)
        with pytest.raises(ValueError, match=r"got '1e-3'$"):  # quoted, not read as a number
            SolverConfig(epsilon="1e-3")
        with pytest.raises(ValueError):
            SolverConfig(max_sweeps=0)
