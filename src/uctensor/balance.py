"""Log-space balancing of subtensor products by conjugate gradients.

In log space the balance condition is linear.  With y the observed log
entries and B the entry x subtensor incidence matrix, the log scales x
solve BᵀB x = −Bᵀ y: at the solution every non-empty subtensor's sum of
balanced log entries y + Bx (its log-product) is 0, so its product is 1.

The first family in canonical order is eliminated exactly.  For fixed scales
of the other ("rest") families, the best first-family scale of each
subtensor removes that subtensor's mean log entry, so the rest scales
solve the Schur complement B_RᵀP B_R x_R = −B_RᵀP y, where P removes
first-family means.  It is a graph-Laplacian-type system, and it is
solved by conjugate gradients preconditioned with the inverse subtensor
counts (Jacobi).  For two families this is conjugate-gradient
acceleration of alternating row/column sweeps.

One projection, B_Rᵀ P (y + B_R x), is a whole pass over the entries,
the work of one Gauss–Seidel sweep: gather the rest scales x onto the
entries, add y, remove each first-family mean, sum onto the rest
subtensors.  With y = 0 it is the CG operator; with the log entries as
y it is the Schur residual, the rest families' log-products (the first
family's are 0 up to rounding), and its means are minus the first
family's log scales.  The first family fixes the leading dims, so its
subtensors are runs of the sorted keys, found by one search.

The solve stops once the largest squared log-product is below epsilon.
When the recurrence says so, the residual is recomputed from the scales
(one more projection), and the solve restarts from it if the recomputed
value is not below epsilon.  So the reported residual is the true
constraint violation at the returned scales.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DidNotConvergeError, EmptyTensorError
from .tensor import ScaleSet, SparseTensor, check_int, is_int, scale_apply, subtensor_counts, subtensor_families


@dataclass(frozen=True)
class SolverConfig:
    """epsilon: stopping threshold on the largest squared log-product of a
    non-empty subtensor, so every product ends within ~sqrt(epsilon) of 1
    (the method's only tuning knob); max_sweeps: cap on the iterations,
    each one pass over the entries (the passes that recompute the residual
    are not counted)."""

    epsilon: float = 1e-10
    max_sweeps: int = 1000

    def __post_init__(self):
        epsilon = self.epsilon  # an int or a float, not a bool or a str
        if not ((is_int(epsilon) or isinstance(epsilon, (float, np.floating))) and 0 <= epsilon < np.inf):
            raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")
        check_int("max_sweeps", self.max_sweeps, 1)


def _max_square(r: np.ndarray) -> float:
    return float(np.max(np.abs(r))) ** 2


class BalanceState:
    """The solve's arrays: the source's log entries, per family the
    subtensor counts and log scales, and per rest family each entry's
    subtensor id.  ``solve`` fills the log scales.  The families are
    solved in canonical order, so the first one fixes the leading dims
    and is eliminated exactly; the limit does not depend on which family
    that is (solving the axis-reversed tensor eliminates another)."""

    def __init__(self, tensor: SparseTensor, k: int):
        if tensor.n_observed == 0:
            raise EmptyTensorError("cannot balance a tensor with no observed entries")
        self.tensor = tensor
        self.families = subtensor_families(tensor.ndim, k)
        self.k = int(k)
        first, *rest = self.families
        self.counts, rest_ids = subtensor_counts(tensor, self.families)
        self.log_scales = {f: np.zeros(len(c)) for f, c in self.counts.items()}
        # each first-family subtensor is a run of the sorted keys, so its
        # sums and broadcasts are reduceat/repeat, several times faster
        # than bincount/gather
        self._first_nonempty = np.flatnonzero(self.counts[first])
        self._runs = self.counts[first][self._first_nonempty]
        self._starts = np.cumsum(self._runs) - self._runs
        self._inv_runs = 1.0 / self._runs
        self._y = np.log(tensor.values)
        # the rest families' scales form one vector x; their entry ids are
        # offset into it
        self._bounds = np.cumsum([0] + [len(self.counts[f]) for f in rest])
        self._rest_ids = [ids + lo if lo else ids for ids, lo in zip(rest_ids, self._bounds)]
        rest_counts = np.concatenate([self.counts[f] for f in rest])
        self._inv = np.where(rest_counts > 0, 1.0 / np.maximum(rest_counts, 1), 0.0)

    def _project(self, x: np.ndarray, y: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """B_Rᵀ P (y + B_R x): gather the rest scales x onto the entries,
        add y, remove each non-empty first-family subtensor's mean, and sum
        onto the rest subtensors.  Returns those sums and the means."""
        w = x[self._rest_ids[0]]
        for ids in self._rest_ids[1:]:
            w += x[ids]
        if y is not None:
            w += y
        means = np.add.reduceat(w, self._starts)
        means *= self._inv_runs
        w -= means.repeat(self._runs)
        out = np.bincount(self._rest_ids[0], weights=w, minlength=len(self._inv))
        for ids in self._rest_ids[1:]:
            out += np.bincount(ids, weights=w, minlength=len(self._inv))
        return out, means

    def _settle(self, x: np.ndarray) -> np.ndarray:
        """Set the log scales to x on the rest families and to the exact
        mean removal on the first; return the rest families' log-products
        at those scales."""
        sums, means = self._project(x, self._y)
        self.log_scales[self.families[0]][self._first_nonempty] = -means
        for f, lo, hi in zip(self.families[1:], self._bounds, self._bounds[1:]):
            self.log_scales[f] = x[lo:hi].copy()
        return sums

    def solve(self, epsilon: float, max_iterations: int) -> list:
        """Preconditioned conjugate gradients on the Schur system.

        Returns the residual after each iteration (the largest squared
        log-product), the first being the pass that eliminates the first
        family at zero rest scales.  The last entry is recomputed from
        the scales the state is left with."""
        x = np.zeros(len(self._inv))
        r = -self._settle(x)
        trace = [_max_square(r)]
        settled = True
        while trace[-1] >= epsilon and len(trace) < max_iterations:
            if settled:  # (re)start from the true residual
                p = self._inv * r
                rs = float(r @ p)
            q = self._project(p)[0]
            pq = float(p @ q)
            if not pq > 0.0:  # no direction left to descend along
                break
            alpha = rs / pq
            x += alpha * p
            r -= alpha * q
            residual = _max_square(r)
            settled = residual < epsilon or len(trace) + 1 == max_iterations
            if settled:
                r = -self._settle(x)
                residual = _max_square(r)
            else:
                s = self._inv * r
                rs_next = float(r @ s)
                p = s + (rs_next / rs) * p
                rs = rs_next
            trace.append(residual)
        if not settled:
            trace[-1] = _max_square(self._settle(x))
        return trace

    def scale_set(self) -> ScaleSet:
        nonempty = {f: self.counts[f] > 0 for f in self.families}
        return ScaleSet(self.tensor.shape, self.k, dict(self.log_scales), nonempty)


@dataclass(frozen=True)
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

    Iterates until the largest squared log-product of a non-empty
    subtensor is below config.epsilon; raises DidNotConvergeError
    (carrying the partial model) if the iteration cap is hit first.
    """
    config = config or SolverConfig()
    state = BalanceState(tensor, k)
    trace = state.solve(config.epsilon, config.max_sweeps)
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
        f"after {len(trace)} iterations",
        model=model,
    )
