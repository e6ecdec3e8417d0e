import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctensor import (
    BalanceState,
    DidNotConvergeError,
    EmptyTensorError,
    ScaleSet,
    SolverConfig,
    balance,
    enumerate_subtensors,
    make_tensor,
    max_balance_violation,
    scale_apply,
)
from uctensor.properties import random_sparse_tensor

from conftest import TIGHT


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


class TestSweep:
    """Hand-derived single-sweep arithmetic (rows first, then columns)."""

    @staticmethod
    def state_from_logs(log_matrix):
        logs = np.asarray(log_matrix, dtype=float)
        entries = {
            (i, j): float(np.exp(logs[i, j]))
            for i in range(logs.shape[0])
            for j in range(logs.shape[1])
        }
        return BalanceState(make_tensor(logs.shape, entries), 1)

    def test_zero_mean_subtensor_is_untouched(self):
        state = self.state_from_logs([[1.0, -1.0]])
        v = state.sweep()
        # row already zero-mean; the two singleton columns then each remove
        # their (already zero) entry
        np.testing.assert_allclose(state.log_values, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(v, 2.0, rtol=1e-12)

    def test_singleton_subtensor_mean_removal(self):
        # one observed log value 2.0 in its own row: rho = -2, entry -> 0,
        # contributing 4 to v; the column pass then contributes nothing
        state = self.state_from_logs([[2.0]])
        v = state.sweep()
        np.testing.assert_allclose(state.log_values, [0.0], atol=1e-12)
        np.testing.assert_allclose(v, 4.0, rtol=1e-12)

    def test_one_sweep_rows_then_columns(self):
        # [[0, 2], [2, 0]]: rows remove means +-1 (v += 2) leaving
        # [[-1, 1], [1, -1]], whose columns are already zero-mean
        state = self.state_from_logs([[0.0, 2.0], [2.0, 0.0]])
        v = state.sweep()
        np.testing.assert_allclose(
            state.log_values, [-1.0, 1.0, 1.0, -1.0], atol=1e-12
        )
        np.testing.assert_allclose(v, 2.0, rtol=1e-12)

    def test_one_sweep_columns_perturbed_again(self):
        # [[0, 2], [0, 2]]: rows leave [[-1, 1], [-1, 1]] (v += 2), then the
        # columns remove means -+1 (v += 2) landing on the fixed point
        state = self.state_from_logs([[0.0, 2.0], [0.0, 2.0]])
        v = state.sweep()
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
            rev = balance(
                t, k, SolverConfig(epsilon=1e-24, max_sweeps=20_000, sweep_order="reversed")
            )
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
        gauge = {
            (0, None): factor,
            (1, None): factor,
            (None, 0): 1.0 / factor,
            (None, 1): 1.0 / factor,
        }
        z_twisted = ScaleSet.from_dict(
            (2, 2), 1, {key: z[key] * gauge[key.coords] for key in enumerate_subtensors((2, 2), 1)}
        )
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
        assert all(v > 0 for _, v in model.scales.items())


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(max_sweeps=0)
        with pytest.raises(ValueError):
            SolverConfig(sweep_order="shuffled")
