"""Completion of unobserved cells by inverse-scale products, and the
structural checkers that certify when the completion is trustworthy:
full support, unit consistency, and consensus ordering.

An unobserved cell's fill is the product of the inverses of the scales
of all its containing subtensors (empty subtensors contribute 1).
Observed cells are copied from the source verbatim.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .balance import LatentModel, SolverConfig, balance
from .exceptions import (
    InvalidGammaError, InvalidKError, NonFiniteValueError, NonPositiveValueError, NotAMatrixError
)
from .tensor import (
    ScaleSet, SparseTensor, _cell, check_dense_size, check_int, index_rows, is_int, key_coordinate, scale_apply,
    unravel_keys,
)


def inverse_scale_fills(log_sums: np.ndarray, cell_at) -> np.ndarray:
    """The fills exp(-log_sums), each finite and non-zero: the package's
    one conversion of log sums to fills (``top_n`` alone skips it, for
    rows whose every log sum it has bounded).  The fills are written over
    ``log_sums``, which is returned: every caller (``values_at``,
    ``fill_at``, ``to_dense``, ``evaluate._uctensor`` and ``top_n``, over
    a row's unrated products in walk order) passes a temporary.  A log
    sum in (-700, 700) gives a normal float.  One below about -709
    overflows to inf (a tiny observed value can do that), and one above
    about 745 underflows to 0, the unobserved marker: either raises,
    naming the first such cell, ``cell_at(i)`` giving the cell of
    position i.  Callers zero the log sums of the cells they answer from
    the source."""
    values = np.negative(log_sums, out=log_sums)
    if len(values) and -700.0 < values.min() and values.max() < 700.0:
        return np.exp(values, out=values)
    with np.errstate(over="ignore"):
        np.exp(values, out=values)
    ok = np.isfinite(values) & (values > 0.0)
    if not ok.all():
        bad = int(np.argmin(ok))
        if values[bad] == 0.0:
            raise NonPositiveValueError(f"fill at index {cell_at(bad)} underflows to 0")
        raise NonFiniteValueError(f"fill {float(values[bad])} at index {cell_at(bad)} is not finite")
    return values


class CompletedTensor:
    """A completion's query interface, a plain value fixed at construction:
    observed cells verbatim from the source, the rest filled on demand from
    the scales.  A pickle holds the model alone, never ``top_n``'s ``_plan``."""

    __slots__ = ("_model", "_plan")

    def __init__(self, model: LatentModel):
        self._model = model
        self._plan = None

    def __reduce__(self):
        return CompletedTensor, (self._model,)

    model = property(attrgetter("_model"))
    source = property(attrgetter("_model.source"))
    scales = property(attrgetter("_model.scales"))
    shape = property(attrgetter("_model.source.shape"))
    k = property(attrgetter("_model.scales.k"))

    def fill_at(self, index) -> float:
        """The inverse-scale-product fill, regardless of observedness."""
        rows = index_rows([index], self.shape)
        logs = self.scales.log_sum_at(rows)
        return float(inverse_scale_fills(logs, lambda _: tuple(rows[0].tolist()))[0])

    def value_at(self, index) -> float:
        """``values_at`` of the one row ``index``."""
        return float(self.values_at([index])[0])

    def values_at(self, indices: np.ndarray) -> np.ndarray:
        """Each row's value for an (M, D) index array: observed cells from
        the source, the rest from ``inverse_scale_fills``.  One lookup of
        the rows in the sorted pattern serves both the observed test and
        the stored values."""
        rows = index_rows(indices, self.shape)
        pos, hit = self.source._locate(rows)
        logs = self.scales.log_sum_at(rows)
        logs[hit] = 0.0
        out = inverse_scale_fills(logs, lambda i: tuple(rows[i].tolist()))
        out[hit] = self.source.values[pos[hit]]
        return out

    def to_dense(self) -> np.ndarray:
        """Every cell, observed verbatim and the rest filled: the flat
        ``_log_sum_grid``, the observed cells' zeroed, goes through one
        ``inverse_scale_fills`` in place, so an unrepresentable fill raises
        naming the first such cell in row-major order.  8 bytes a cell,
        guarded by ``check_dense_size``."""
        shape, observed = self.shape, self.source._flat
        out = self.scales._log_sum_grid("dense completion").reshape(-1)
        out[observed] = 0.0
        inverse_scale_fills(out, lambda i: _cell(i, shape))
        out[observed] = self.source.values
        return out.reshape(shape)


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


# the most bytes a checked cell each checker peaks at, D = 2 and 3 (see ``check_dense_size``)
SUPPORT_BYTES_PER_CELL = 80
ORDERING_BYTES_PER_CELL = 64
UNIT_GAP_BYTES_PER_CELL = 32


@dataclass
class SupportReport:
    """``violations``: the (V, D) unwitnessed cells, row-major.
    ``witnesses``: (W, 2, D), each cell (``[:, 0]``) beside its offset
    (``[:, 1]``), in the order found: nearest offset first, then row-major."""

    fully_supported: bool
    violations: np.ndarray
    witnesses: np.ndarray


def check_full_support(tensor: SparseTensor, max_offset: int | None = None) -> SupportReport:
    """Certify that every unobserved cell sits at the corner of a box whose
    other 2^D - 1 corners are all observed.

    For each unobserved index i we search offset vectors s (per-dimension
    signed, magnitude up to max_offset: None for every offset, else one
    int >= 1 for all dimensions) such that every index i + delta, with
    delta_d in {0, s_d} and delta != 0, is observed.  The first such s
    (nearest-first order) is recorded as the witness.  A cell whose line
    along some dimension holds no observed cell has no witness (the
    corner i + s_d along that dimension is never observed): it is a
    violation up front, left out of the search.

    The unobserved cells' flat keys are one array: the witnessed ones in
    front in the order found (``found`` notes each one's offset by its
    place in the search), the pending ones behind, row-major, and the
    up-front violations last, row-major.  Peaks at
    ``SUPPORT_BYTES_PER_CELL`` bytes a cell for D = 2 and 3, the report
    most of it.  Exponential in D and linear in the search volume: a
    verification tool, not a production path.  A 1-D tensor, which no
    completion exists for, raises InvalidKError as ``complete`` does.
    """
    shape, ndim, n = tensor.shape, tensor.ndim, tensor.n_cells
    if ndim < 2:
        raise InvalidKError(f"a {ndim}-D tensor has no completion: k must be in [1, {ndim - 1}]")
    if max_offset is None:
        max_offset = max(shape)
    else:
        check_int("max_offset", max_offset, 1)
    check_dense_size(n, SUPPORT_BYTES_PER_CELL, "support check")
    observed = np.zeros(n, dtype=bool)
    observed[tensor._flat] = True
    lonely = np.zeros(shape, dtype=bool)  # on a line holding no observed cell
    for d in range(ndim):
        lonely |= ~observed.reshape(shape).any(axis=d, keepdims=True)
    lonely = lonely.reshape(-1)
    keys = np.concatenate((np.flatnonzero(~(observed | lonely)), np.flatnonzero(lonely)))
    m = len(keys) - int(np.count_nonzero(lonely))  # keys[:m] are searched
    del lonely
    found, w = np.empty(m, dtype=np.int64), 0  # keys[:w] are witnessed
    strides = [math.prod(shape[d + 1:]) for d in range(ndim)]
    corners = [c for c in itertools.product((0, 1), repeat=ndim) if any(c)]
    # per dimension, the signed offsets 1, -1, 2, -2, ... out to min(max_offset, size - 1)
    searched = [[a * sign for a in range(1, min(max_offset, size - 1) + 1) for sign in (1, -1)] for size in shape]
    for place, s in enumerate(itertools.product(*searched)):
        if w == m:
            break
        pending = keys[w:m]
        ok = np.ones(len(pending), dtype=bool)
        for d, (sd, size) in enumerate(zip(s, shape)):
            coord = key_coordinate(pending, shape, d)
            ok &= coord < size - sd if sd > 0 else coord >= -sd
        for corner in corners:
            ok[ok] = observed[pending[ok] + sum(sd * stride for sd, stride, c in zip(s, strides, corner) if c)]
        hits = int(np.count_nonzero(ok))
        if hits:
            keys[w:m] = np.concatenate((pending[ok], pending[~ok]))
            found[w:w + hits] = place
            w += hits
    del observed
    witnesses = np.empty((w, 2, ndim), dtype=np.int64)
    unravel_keys(keys[:w], shape, witnesses[:, 0])
    unravel_keys(found[:w], [len(offsets) for offsets in searched], witnesses[:, 1])
    for d, offsets in enumerate(searched):
        witnesses[:, 1, d] = np.take(offsets, witnesses[:, 1, d])
    del found
    keys[w:].sort()  # the pending and the up-front violations, merged row-major
    violations = unravel_keys(keys[w:], shape)
    return SupportReport(len(violations) == 0, violations, witnesses)


# ---------------------------------------------------------------------------
# unit consistency
# ---------------------------------------------------------------------------


def unit_consistency_gap(tensor: SparseTensor, scales: ScaleSet, config: SolverConfig | None = None) -> float:
    """Max relative difference, over all cells, between scaling the
    completion and completing the scaled tensor, both at ``scales.k``.

    Zero (up to solver accuracy) wherever the fill is uniquely pinned by
    the observed pattern: on fully supported tensors this holds at every
    cell, and for k = D-1 on connected patterns the per-axis scales
    cancel cell-wise.  Cells the pattern cannot pin (leftover gauge
    freedom, empty subtensors) can honestly differ, since scales attached
    to them are invisible in the scaled data.

    Refused before either solve beyond ``UNIT_GAP_BYTES_PER_CELL`` bytes
    a cell: the two dense completions and one more grid, in place.
    """
    check_dense_size(tensor.n_cells, UNIT_GAP_BYTES_PER_CELL, "unit consistency gap")
    completed = complete(tensor, scales.k, config)
    scaled_then_completed = complete(scale_apply(tensor, scales), scales.k, config)
    lhs = completed.to_dense()
    lhs *= scales.factor_grid()
    rhs = scaled_then_completed.to_dense()
    gap = np.subtract(lhs, rhs)
    np.abs(gap, out=gap)
    gap /= np.maximum(lhs, rhs, out=lhs)
    return float(np.max(gap))


# ---------------------------------------------------------------------------
# consensus ordering
# ---------------------------------------------------------------------------


@dataclass
class OrderingReport:
    """Partition of prefix vectors (all dims except the ordered one) and the
    verdict on whether completed values of fully-unobserved prefixes
    follow gamma; 'precondition_unmet' when no fully-observed prefix
    exhibits the ordering.  The prefixes are (n, D-1) arrays, row-major;
    ``violations`` has a row (``prefix``, gamma ``pair``, their ``values``)
    per adjacent pair an unknown prefix does not rise along, and none
    unless the verdict is 'fail'."""

    verdict: str  # "pass" | "fail" | "precondition_unmet"
    known_prefixes: np.ndarray
    unknown_prefixes: np.ndarray
    n_neither: int
    violations: np.ndarray

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def check_consensus_ordering(completed: CompletedTensor, dim: int, gamma) -> OrderingReport:
    """Check that completion preserves a ranking exhibited by the data:
    ``gamma`` lists indices of dimension ``dim`` in claimed ascending-value
    order (possibly a subset of the dimension).

    Prefixes with every gamma position observed and strictly increasing
    per gamma form the known set; prefixes with every gamma position
    unobserved form the unknown set (everything else is 'neither').  With
    a non-empty known set, each unknown prefix's completed values must
    strictly increase along gamma.  Ties count as violations.

    The completion is asked twice: one ``observed_mask_for`` over the
    whole (prefix x gamma) index grid, then one ``values_at`` over the
    known and unknown prefixes alone (a mixed prefix is never filled, so
    its fills cannot raise).  Peaks at ``ORDERING_BYTES_PER_CELL`` bytes a
    checked cell for D = 2 and 3, 8*D of them the grid.
    """
    shape = completed.shape
    ndim = len(shape)
    if not is_int(dim):
        raise InvalidGammaError(f"dim must be an int, got {dim!r}")
    if not 0 <= dim < ndim:
        raise InvalidGammaError(f"dim {dim} out of range for shape {shape}")
    gamma = tuple(gamma)
    for g in gamma:
        if not is_int(g):
            raise InvalidGammaError(f"gamma entries must be ints, got {g!r} in {gamma}")
    gamma = tuple(int(g) for g in gamma)
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
    sizes = [shape[d] for d in other_dims]
    n_prefixes = int(np.prod(sizes, dtype=np.int64))
    check_dense_size(n_prefixes * len(gamma), ORDERING_BYTES_PER_CELL, "ordering check",
                     "cells (prefixes x gamma)")

    prefixes = np.indices(sizes).reshape(len(sizes), n_prefixes).T  # row-major
    grid = np.empty((n_prefixes, len(gamma), ndim), dtype=np.int64)
    grid[:, :, other_dims] = prefixes[:, None, :]
    grid[:, :, dim] = gamma
    observed = completed.source.observed_mask_for(grid.reshape(-1, ndim)).reshape(grid.shape[:2])
    known, unknown = observed.all(axis=1), ~observed.any(axis=1)
    asked = np.flatnonzero(known | unknown)
    grid = grid[asked].reshape(-1, ndim)  # the whole grid is freed before the fills
    values = completed.values_at(grid).reshape(len(asked), len(gamma))
    del grid  # before the report's arrays, or a failing check passes 64 B a cell
    rising = np.diff(values, axis=1) > 0
    known[asked] &= rising.all(axis=1)
    # with no known order there is nothing to violate
    r, b = np.nonzero(~rising & unknown[asked, None] & known.any())
    violations = np.empty(len(r), dtype=[("prefix", np.int64, (ndim - 1,)), ("pair", np.int64, (2,)),
                                         ("values", np.float64, (2,))])
    violations["prefix"] = prefixes[asked[r]]
    for i in (0, 1):
        violations["pair"][:, i] = np.take(gamma, b + i)
        violations["values"][:, i] = values[r, b + i]
    return OrderingReport(
        "fail" if len(violations) else "pass" if known.any() else "precondition_unmet",
        known_prefixes=prefixes[known],
        unknown_prefixes=prefixes[unknown],
        n_neither=n_prefixes - int(known.sum()) - int(unknown.sum()),
        violations=violations,
    )
