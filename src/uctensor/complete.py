"""Completion of unobserved cells by inverse-scale products, and the
structural checkers that certify when the completion is trustworthy:
full support, unit consistency, and consensus ordering.

An unobserved cell's fill is the product of the inverses of the scales
of all its containing subtensors (empty subtensors contribute 1, and
such cells are flagged "weakly determined").  Observed cells are copied
from the source verbatim.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .balance import LatentModel, SolverConfig, balance
from .exceptions import InvalidGammaError, InvalidKError, NonFiniteValueError, NotAMatrixError
from .tensor import MAX_DENSE_CELLS, ScaleSet, SparseTensor, scale_apply


def require_finite(values: np.ndarray, cell_at) -> np.ndarray:
    """``values``, once checked to be finite.  A fill overflows to inf when
    the log scales of its cell sum below about -709 (a tiny observed value
    can do that); the error names the first such cell, ``cell_at(i)``
    giving the cell of flat position i."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NonFiniteValueError(
            f"fill {float(values.flat[bad])} at index {cell_at(bad)} is not finite"
        )
    return values


class CompletedTensor:
    """Query interface over a completion: observed cells verbatim from the
    source, everything else filled on demand from the scale set."""

    def __init__(self, model: LatentModel):
        self.model = model
        self.source = model.source
        self.scales = model.scales

    @property
    def shape(self) -> tuple:
        return self.source.shape

    @property
    def k(self) -> int:
        return self.scales.k

    @property
    def source_pattern(self) -> np.ndarray:
        return self.source.indices

    def is_observed(self, index) -> bool:
        return self.source.is_observed(index)

    def fill_at(self, index) -> float:
        """The inverse-scale-product fill, regardless of observedness."""
        index = self.source._check_index(index)
        fill = np.exp(-self.scales.log_sum_at(np.array([index], dtype=np.int64)))
        return float(require_finite(fill, lambda _: index)[0])

    def value_at(self, index) -> float:
        observed = self.source.value_at(index)
        if observed is not None:
            return observed
        return self.fill_at(index)

    def values_at(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized value_at over an (M, D) index array: one lookup of
        the rows in the sorted pattern serves both the observed test and
        the stored values."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1, self.source.ndim)
        out = np.exp(-self.scales.log_sum_at(indices))
        stored = self.source._flat
        if len(indices) and len(stored):
            flat = np.ravel_multi_index(indices.T, self.shape)
            pos = np.minimum(np.searchsorted(stored, flat), len(stored) - 1)
            hit = stored[pos] == flat
            out[hit] = self.source.values[pos[hit]]
        return require_finite(out, lambda i: tuple(indices[i].tolist()))

    def weakly_determined(self, index) -> bool:
        """True when some containing subtensor has no observed entry, so the
        fill leaned on an implicit scale of 1."""
        idx = np.asarray(self.source._check_index(index), dtype=np.int64)
        return bool(self.scales.empty_key_mask(idx[None, :])[0])

    def to_dense(self) -> np.ndarray:
        """Materialize all cells (observed verbatim, rest filled).  Guarded
        to small shapes."""
        if self.source.n_cells > MAX_DENSE_CELLS:
            raise ValueError(f"refusing to materialize {self.source.n_cells} cells")
        grid = 1.0 / self.scales.factor_grid()
        grid.flat[self.source._flat] = self.source.values
        return require_finite(
            grid, lambda i: tuple(int(c) for c in np.unravel_index(i, self.shape))
        )


def complete(
    tensor: SparseTensor, k: int, config: SolverConfig | None = None
) -> CompletedTensor:
    """Balance, then expose fills for every unobserved cell."""
    return CompletedTensor(balance(tensor, k, config))


def complete_matrix(matrix: SparseTensor, config: SolverConfig | None = None) -> CompletedTensor:
    """The 2-D special case: completion with row/column subtensors (k=1)."""
    if matrix.ndim != 2:
        raise NotAMatrixError(f"expected a 2-D tensor, got {matrix.ndim}-D")
    return complete(matrix, 1, config)


# ---------------------------------------------------------------------------
# full support
# ---------------------------------------------------------------------------


@dataclass
class SupportReport:
    fully_supported: bool
    violations: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)


def _offset_sequence(extent: int, bound: int) -> list[int]:
    """Signed offsets 1, -1, 2, -2, ... out to min(bound, extent-1)."""
    out = []
    for a in range(1, min(bound, extent - 1) + 1):
        out.extend((a, -a))
    return out


def check_full_support(tensor: SparseTensor, max_offset=None) -> SupportReport:
    """Certify that every unobserved cell sits at the corner of a box whose
    other 2^D - 1 corners are all observed.

    For each unobserved index i we search offset vectors s (per-dimension
    signed, magnitude up to max_offset) such that every index i + delta,
    with delta_d in {0, s_d} and delta != 0, is observed.  The first such
    s (nearest-first order) is recorded as the witness.  Exponential in D
    and linear in the search volume: a verification tool, not a production
    path.
    """
    shape = tensor.shape
    ndim = tensor.ndim
    if max_offset is None:
        max_offset = [s - 1 for s in shape]
    elif np.isscalar(max_offset):
        max_offset = [int(max_offset)] * ndim
    max_offset = [max(int(b), 0) for b in max_offset]

    n_cells = tensor.n_cells
    if n_cells > MAX_DENSE_CELLS:
        raise ValueError("tensor too large for exhaustive support checking")
    unobserved_flat = np.setdiff1d(np.arange(n_cells, dtype=np.int64), tensor._flat)
    if len(unobserved_flat) == 0:
        return SupportReport(fully_supported=True)

    pending = np.stack(np.unravel_index(unobserved_flat, shape), axis=1)
    corners = [c for c in itertools.product((0, 1), repeat=ndim) if any(c)]
    witnesses = {}

    per_dim = [_offset_sequence(shape[d], max_offset[d]) for d in range(ndim)]
    if all(per_dim):
        for s in itertools.product(*per_dim):
            ok = np.ones(len(pending), dtype=bool)
            for mask in corners:
                delta = np.array([sd if m else 0 for sd, m in zip(s, mask)], dtype=np.int64)
                corner = pending + delta
                valid = np.all((corner >= 0) & (corner < np.asarray(shape)), axis=1)
                ok &= valid
                if not ok.any():
                    break
                observed = np.zeros(len(pending), dtype=bool)
                observed[valid] = tensor.observed_mask_for(corner[valid])
                ok &= observed
            if ok.any():
                for idx in pending[ok]:
                    witnesses[tuple(int(i) for i in idx)] = tuple(s)
                pending = pending[~ok]
                if len(pending) == 0:
                    break

    violations = [tuple(int(i) for i in idx) for idx in pending]
    return SupportReport(
        fully_supported=len(violations) == 0,
        violations=violations,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# unit consistency
# ---------------------------------------------------------------------------


def unit_consistency_gap(
    tensor: SparseTensor, scales: ScaleSet, k: int, config: SolverConfig | None = None
) -> float:
    """Max relative difference, over all cells, between scaling the
    completion and completing the scaled tensor.

    Zero (up to solver accuracy) wherever the fill is uniquely pinned by
    the observed pattern: on fully supported tensors this holds at every
    cell, and for k = D-1 on connected patterns the per-axis scales
    cancel cell-wise.  Cells the pattern cannot pin (leftover gauge
    freedom, empty subtensors) can honestly differ, since scales attached
    to them are invisible in the scaled data.
    """
    completed = complete(tensor, k, config)
    scaled_then_completed = complete(scale_apply(tensor, scales), k, config)
    lhs = completed.to_dense() * scales.factor_grid()
    rhs = scaled_then_completed.to_dense()
    return float(np.max(np.abs(lhs - rhs) / np.maximum(lhs, rhs)))


# ---------------------------------------------------------------------------
# consensus ordering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderingSpec:
    """A ranking to test: ``gamma`` lists indices of dimension ``dim`` in
    claimed ascending-value order (possibly a subset of the dimension)."""

    dim: int
    gamma: tuple

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(int(g) for g in self.gamma))


@dataclass
class OrderingReport:
    """Partition of prefix vectors (all dims except spec.dim) and the
    verdict on whether completed values of fully-unobserved prefixes
    follow gamma; 'precondition_unmet' when no fully-observed prefix
    exhibits the ordering."""

    verdict: str  # "pass" | "fail" | "precondition_unmet"
    known_prefixes: list = field(default_factory=list)
    unknown_prefixes: list = field(default_factory=list)
    n_neither: int = 0
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def check_consensus_ordering(completed: CompletedTensor, spec: OrderingSpec) -> OrderingReport:
    """Check that completion preserves a ranking exhibited by the data.

    Prefixes with every gamma position observed and strictly increasing
    per gamma form the known set; prefixes with every gamma position
    unobserved form the unknown set (everything else is 'neither').  With
    a non-empty known set, each unknown prefix's completed values must
    strictly increase along gamma.  Ties count as violations.
    """
    shape = completed.shape
    ndim = len(shape)
    dim = spec.dim
    if not 0 <= dim < ndim:
        raise InvalidGammaError(f"dim {dim} out of range for shape {shape}")
    gamma = spec.gamma
    if len(gamma) == 0 or len(set(gamma)) != len(gamma):
        raise InvalidGammaError("gamma must be non-empty with distinct entries")
    if any(g < 0 or g >= shape[dim] for g in gamma):
        raise InvalidGammaError(f"gamma {gamma} out of bounds for dimension of size {shape[dim]}")
    if completed.k != ndim - 1:
        raise InvalidKError(
            f"consensus ordering applies to completions with k = D-1 = {ndim - 1}, "
            f"got k = {completed.k}"
        )

    other_dims = [d for d in range(ndim) if d != dim]
    n_prefixes = int(np.prod([shape[d] for d in other_dims], dtype=np.int64))
    if n_prefixes * len(gamma) > MAX_DENSE_CELLS:
        raise ValueError("prefix space too large for exhaustive ordering check")

    report = OrderingReport(verdict="precondition_unmet")
    for prefix in itertools.product(*(range(shape[d]) for d in other_dims)):
        idx = np.empty((len(gamma), ndim), dtype=np.int64)
        for pos, d in enumerate(other_dims):
            idx[:, d] = prefix[pos]
        idx[:, dim] = gamma
        observed = completed.source.observed_mask_for(idx)
        if observed.all():
            values = completed.values_at(idx)
            if np.all(np.diff(values) > 0):
                report.known_prefixes.append(prefix)
            else:
                report.n_neither += 1
        elif not observed.any():
            report.unknown_prefixes.append(prefix)
            values = completed.values_at(idx)
            bad = np.flatnonzero(~(np.diff(values) > 0))
            for b in bad:
                report.violations.append(
                    (prefix, (gamma[b], gamma[b + 1]), (float(values[b]), float(values[b + 1])))
                )
        else:
            report.n_neither += 1

    if not report.known_prefixes:
        report.verdict = "precondition_unmet"
    elif report.violations:
        report.verdict = "fail"
    else:
        report.verdict = "pass"
    return report
