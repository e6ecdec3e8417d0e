"""Block Gauss–Seidel sweeps: the reference solver the conjugate-gradient
solve is checked against.

Each sweep visits every non-empty subtensor family by family, in the
state's family order, removes the mean of its observed log entries and
accumulates the removed mean into that subtensor's log scale.  Within one
family the subtensors are disjoint, so a family's updates are applied
together.  The sweep residual v is the sum of the squared removed means.
"""

import numpy as np

from uctensor import BalanceState, LatentModel


def sweep(state: BalanceState) -> float:
    """One pass over all families of ``state``, whose ``log_values`` it
    turns into the balanced log entries; returns v."""
    v = 0.0
    for fixed in state.families:
        ids = state.ids[fixed]
        sums = np.bincount(ids, weights=state.log_values, minlength=len(state.counts[fixed]))
        rho = -sums * state.inv_counts[fixed]
        state.log_values += rho[ids]
        state.log_scales[fixed] += rho
        v += float(rho @ rho)
    return v


def sweep_balance(tensor, k, epsilon, max_sweeps=200_000, sweep_order="lex") -> LatentModel:
    """Sweep until v < epsilon; raises AssertionError past max_sweeps."""
    state = BalanceState(tensor, k, sweep_order)
    trace = []
    while not trace or trace[-1] >= epsilon:
        assert len(trace) < max_sweeps, f"reference sweeps did not reach {epsilon:.0e}"
        trace.append(sweep(state))
    return LatentModel(tensor, state.scale_set(), len(trace), trace[-1], tuple(trace))
