"""Log-space iterative balancing of subtensor products.

Each sweep visits every non-empty family-k subtensor once, removes the
mean of its observed log entries (the geometric mean in the original
domain), and accumulates the removed mean into that subtensor's log
scale.  The per-sweep sum of squared means, v, is the convergence
residual: the solve stops once v < epsilon.  At the fixed point the
product of observed entries in every non-empty subtensor is 1.

Within one family the subtensors are disjoint, so a family's updates are
applied simultaneously (vectorized); families are processed sequentially
in canonical order, which makes the solve deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DidNotConvergeError, EmptyTensorError
from .tensor import ScaleSet, SparseTensor, family_sub_ids, scale_apply, subtensor_families

SWEEP_ORDERS = ("lex", "reversed")


@dataclass(frozen=True)
class SolverConfig:
    """epsilon: per-sweep squared-residual stopping threshold (the method's
    only tuning knob); max_sweeps: hard cap; sweep_order: canonical family
    order or its reverse (the limit is order-independent)."""

    epsilon: float = 1e-10
    max_sweeps: int = 1000
    sweep_order: str = "lex"

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if self.sweep_order not in SWEEP_ORDERS:
            raise ValueError(f"sweep_order must be one of {SWEEP_ORDERS}")


class BalanceState:
    """Mutable solver state: log entries, per-family inverted index, and
    accumulated log scales.  One ``sweep()`` call visits every non-empty
    subtensor exactly once and returns that sweep's residual v."""

    def __init__(self, tensor: SparseTensor, k: int, sweep_order: str = "lex"):
        if tensor.n_observed == 0:
            raise EmptyTensorError("cannot balance a tensor with no observed entries")
        if sweep_order not in SWEEP_ORDERS:
            raise ValueError(f"sweep_order must be one of {SWEEP_ORDERS}")
        self.tensor = tensor
        self.k = int(k)
        self.families = subtensor_families(tensor.ndim, k)
        if sweep_order == "reversed":
            self.families = self.families[::-1]
        self.log_values = np.log(tensor.values)

        self._ids = {}
        self._neg_inv = {}
        self._counts = {}
        self.log_scales = {}
        for fixed in self.families:
            ids, size = family_sub_ids(tensor, fixed)
            counts = np.bincount(ids, minlength=size)
            self._ids[fixed] = ids
            self._counts[fixed] = counts
            self._neg_inv[fixed] = np.where(counts > 0, -1.0 / np.maximum(counts, 1), 0.0)
            self.log_scales[fixed] = np.zeros(size)

    def sweep(self) -> float:
        """One full pass over all families; returns v = sum of squared
        per-subtensor log means removed this sweep."""
        v = 0.0
        for fixed in self.families:
            ids = self._ids[fixed]
            sums = np.bincount(ids, weights=self.log_values, minlength=len(self._counts[fixed]))
            rho = sums * self._neg_inv[fixed]
            self.log_values += rho[ids]
            self.log_scales[fixed] += rho
            v += float(rho @ rho)
        return v

    def scale_set(self) -> ScaleSet:
        nonempty = {f: self._counts[f] > 0 for f in self.families}
        return ScaleSet(self.tensor.shape, self.k, dict(self.log_scales), nonempty)


@dataclass
class LatentModel:
    """Result of a balance solve: the source tensor, the accumulated
    per-subtensor scales, and convergence diagnostics.  The scales are
    the whole solution; the balanced tensor is derived from them."""

    source: SparseTensor
    scales: ScaleSet
    sweeps_run: int
    final_residual: float
    residual_trace: tuple = field(default_factory=tuple)

    @property
    def k(self) -> int:
        return self.scales.k

    @property
    def shape(self) -> tuple:
        return self.source.shape

    @property
    def balanced(self) -> SparseTensor:
        """The source times its scales, computed on each access."""
        return scale_apply(self.source, self.scales)


def balance(tensor: SparseTensor, k: int, config: SolverConfig | None = None) -> LatentModel:
    """Balance every family-k subtensor's observed-entry product to 1.

    Sweeps until the per-sweep residual v drops below config.epsilon;
    raises DidNotConvergeError (carrying the partial model) if the sweep
    cap is hit first.
    """
    config = config or SolverConfig()
    state = BalanceState(tensor, k, config.sweep_order)
    trace = []
    for _ in range(config.max_sweeps):
        trace.append(state.sweep())
        if trace[-1] < config.epsilon:
            break
    model = LatentModel(
        source=tensor,
        scales=state.scale_set(),
        sweeps_run=len(trace),
        final_residual=trace[-1],
        residual_trace=tuple(trace),
    )
    if trace[-1] < config.epsilon:
        return model
    raise DidNotConvergeError(
        f"residual {trace[-1]:.3e} still >= epsilon {config.epsilon:.3e} "
        f"after {config.max_sweeps} sweeps",
        model=model,
    )
