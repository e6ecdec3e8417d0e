"""Block Gauss–Seidel sweeps: the reference solver the conjugate-gradient
solve is checked against.

Each sweep visits every non-empty subtensor family by family, in
canonical family order, removes the mean of its observed log entries and
accumulates the removed mean into that subtensor's log scale.  Within one
family the subtensors are disjoint, so a family's updates are applied
together.  The sweep residual v is the sum of the squared removed means.
The sweeps keep their own arrays: they share none with the solver.
"""

import numpy as np

from uctensor import LatentModel, ScaleSet, subtensor_families
from uctensor.tensor import family_sub_ids


class SweepState:
    """The sweeps' arrays: the log entries, and per family each entry's
    subtensor id, the subtensor counts and their inverses (0 for an empty
    subtensor), and the log scales."""

    def __init__(self, tensor, k):
        self.tensor = tensor
        self.k = k
        self.families = subtensor_families(tensor.ndim, k)
        self.log_values = np.log(tensor.values)
        self.ids, self.counts, self.inv_counts, self.log_scales = {}, {}, {}, {}
        for fixed in self.families:
            ids, size = family_sub_ids(tensor, fixed)
            counts = np.bincount(ids, minlength=size)
            self.ids[fixed] = ids
            self.counts[fixed] = counts
            self.inv_counts[fixed] = np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0)
            self.log_scales[fixed] = np.zeros(size)

    def scale_set(self) -> ScaleSet:
        nonempty = {f: self.counts[f] > 0 for f in self.families}
        return ScaleSet(self.tensor.shape, self.k, self.log_scales, nonempty)


def sweep(state: SweepState) -> float:
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


def sweep_balance(tensor, k, epsilon, max_sweeps=200_000) -> LatentModel:
    """Sweep until v < epsilon; raises AssertionError past max_sweeps."""
    state = SweepState(tensor, k)
    trace = []
    while not trace or trace[-1] >= epsilon:
        assert len(trace) < max_sweeps, f"reference sweeps did not reach {epsilon:.0e}"
        trace.append(sweep(state))
    return LatentModel(tensor, state.scale_set(), len(trace), trace[-1], tuple(trace))
