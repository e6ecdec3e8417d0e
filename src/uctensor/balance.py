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
counts (Jacobi).  One operator application gathers the rest scales onto
the entries, removes each first-family mean and sums onto the rest
subtensors: the work of one Gauss–Seidel sweep.  For two families this
is conjugate-gradient acceleration of alternating row/column sweeps.

The residual of the Schur system is the rest families' log-products;
the first family's are 0 by construction, up to rounding.  The solve stops once the
largest squared log-product is below epsilon.  When the recurrence says
so, the residual is recomputed from the scales (one more pass, which
also recovers the first family's scales), and the solve restarts from
it if the recomputed value is not below epsilon.  So the reported
residual is the true constraint violation at the returned scales.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DidNotConvergeError, EmptyTensorError
from .tensor import ScaleSet, SparseTensor, check_int, family_sub_ids, scale_apply, subtensor_families


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
        if not 0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
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
        self.k = int(k)
        self.families = subtensor_families(tensor.ndim, k)
        first, *rest = self.families
        self.counts = {}
        self.log_scales = {}
        rest_ids = []
        for fixed in self.families:
            ids, size = family_sub_ids(tensor, fixed)
            self.counts[fixed] = np.bincount(ids, minlength=size)
            self.log_scales[fixed] = np.zeros(size)
            if fixed != first:
                rest_ids.append(ids)

        # Lexicographic entry order is first-family order: each first-family
        # subtensor is a run of consecutive entries, so its sums and
        # broadcasts are reduceat/repeat, several times faster than
        # bincount/gather.
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

    def _gather(self, x: np.ndarray) -> np.ndarray:
        """Per entry, the sum of x over the entry's rest-family subtensors."""
        g = x[self._rest_ids[0]]
        for ids in self._rest_ids[1:]:
            g += x[ids]
        return g

    def _scatter(self, w: np.ndarray) -> np.ndarray:
        """Per rest-family subtensor, the sum of w over its entries."""
        m = len(self._inv)
        out = np.bincount(self._rest_ids[0], weights=w, minlength=m)
        for ids in self._rest_ids[1:]:
            out += np.bincount(ids, weights=w, minlength=m)
        return out

    def _remove_first_means(self, w: np.ndarray) -> np.ndarray:
        """Subtract from w, in place, the mean of each non-empty
        first-family subtensor; return those means."""
        means = np.add.reduceat(w, self._starts) * self._inv_runs
        w -= np.repeat(means, self._runs)
        return means

    def _apply(self, p: np.ndarray) -> np.ndarray:
        """The Schur complement operator: B_Rᵀ P B_R p."""
        g = self._gather(p)
        self._remove_first_means(g)
        return self._scatter(g)

    def _settle(self, x: np.ndarray) -> np.ndarray:
        """Set the log scales to x on the rest families and to the exact
        mean removal on the first; return the rest families' log-products
        at those scales."""
        w = self._y + self._gather(x)
        self.log_scales[self.families[0]][self._first_nonempty] = -self._remove_first_means(w)
        for f, lo, hi in zip(self.families[1:], self._bounds, self._bounds[1:]):
            self.log_scales[f] = x[lo:hi].copy()
        return self._scatter(w)

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
            q = self._apply(p)
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
