"""Sparse COO tensors of strictly positive values, plus subtensor machinery.

A tensor stores only its observed cells; zero is the "unobserved" marker
everywhere in this package, so stored values must be strictly positive.
A family-k subtensor is the k-dimensional slice obtained by fixing D-k
coordinates.  Families and the per-entry subtensor memberships are the
substrate for both the balancing solver and the completion rules.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .exceptions import (
    DuplicateIndexError,
    IndexOutOfBoundsError,
    InvalidKError,
    NonFiniteValueError,
    NonPositiveValueError,
    ShapeMismatchError,
)

# Dense materialization guard: this many float64 cells, 400 MB
MAX_DENSE_CELLS = 50_000_000


def check_dense_size(n_cells: int, bytes_per_cell: int, what: str, cells: str = "cells") -> None:
    """Refuse dense work of ``n_cells`` cells at ``bytes_per_cell`` bytes a
    cell beyond ``8 * MAX_DENSE_CELLS`` bytes, before anything is allocated."""
    bound = 8 * MAX_DENSE_CELLS // bytes_per_cell
    if n_cells > bound:
        raise ValueError(f"{what} of {n_cells} {cells} exceeds its bound of {bound}")


def is_int(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, not a bool: an
    integer argument that ``int()`` would not truncate or reinterpret."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def subtensor_families(ndim: int, k: int) -> list[tuple[int, ...]]:
    """All fixed-dimension subsets defining family-k subtensors, in canonical
    (lexicographic) order.  Each subset has D-k dimensions."""
    if not is_int(k):
        raise InvalidKError(f"k must be an int, got {k!r}")
    if not 1 <= k <= ndim - 1:
        raise InvalidKError(f"k must be in [1, {ndim - 1}] for a {ndim}-D tensor, got {k}")
    return list(itertools.combinations(range(ndim), ndim - k))


def check_int(name: str, value, least: int) -> None:
    """Refuse ``value`` with a ``ValueError`` naming ``name`` unless it
    ``is_int`` and is at least ``least``."""
    if not is_int(value) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def _as_rows(indices, ndim: int) -> np.ndarray:
    """An (M, ndim) index array as C-contiguous int64 rows.  An empty array
    is zero rows; an array of any other width, or of any but an integer
    dtype, is refused, never cast or reshaped into other cells."""
    rows = np.asarray(indices)
    if rows.dtype.kind not in "iu" and rows.size:
        raise IndexOutOfBoundsError(f"index array of dtype {rows.dtype} does not hold integer coordinates")
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != ndim:
        if len(rows):
            raise IndexOutOfBoundsError(
                f"index array of shape {rows.shape} does not hold rows of {ndim} coordinates"
            )
        rows = rows.reshape(0, ndim)
    return rows


def index_rows(indices, shape) -> np.ndarray:
    """An (M, D) index array (see ``_as_rows``) as int64 rows, each
    coordinate checked to lie in [0, size) of its dimension; the error
    names the first bad one."""
    rows = _as_rows(indices, len(shape))
    if len(rows):
        # column by column: a strided min/max over one column is
        # far cheaper than numpy's reduction along axis 0
        for d, size in enumerate(shape):
            column = rows[:, d]
            if column.min() < 0 or column.max() >= size:
                raise IndexOutOfBoundsError(
                    f"index out of bounds in dimension {d} for shape {tuple(shape)}"
                )
    return rows


def sub_ids(rows: np.ndarray, shape, fixed_dims: tuple[int, ...]) -> np.ndarray:
    """The row-major ravel of the ``fixed_dims`` coordinates of checked
    index rows (see ``index_rows``): with every fixed dimension, the cell
    keys.  Ascending id order is lexicographic order of those coordinates.
    The shape's ravel fits int64 (``SparseTensor`` refuses larger shapes),
    so plain arithmetic forms it."""
    ids = rows[:, fixed_dims[0]].copy()
    for d in fixed_dims[1:]:
        ids *= shape[d]
        ids += rows[:, d]
    return ids


def key_coordinate(keys: np.ndarray, shape, d: int) -> np.ndarray:
    """Coordinate ``d`` of row-major flat ``keys`` of ``shape``, a new array:
    the package's one coordinate reader.  It is key // stride(d) - (key //
    stride(d - 1)) * shape[d], stride(d) the product of the dims after d:
    floordiv by a scalar is several times faster than ``%`` in numpy."""
    stride = math.prod(shape[d + 1 :])
    coord = keys // stride if stride > 1 else keys.copy()
    if d > 0:
        high = keys // (stride * shape[d])
        high *= shape[d]
        coord -= high
    return coord


def unravel_keys(keys: np.ndarray, shape, out: np.ndarray | None = None) -> np.ndarray:
    """The (len(keys), D) coordinate rows of flat ``keys``, into ``out`` if given."""
    if out is None:
        out = np.empty((len(keys), len(shape)), dtype=np.int64)
    for d in range(len(shape)):
        out[:, d] = key_coordinate(keys, shape, d)
    return out


def _cell(key, shape) -> tuple:
    """The coordinates of one flat key, as plain ints."""
    return tuple(unravel_keys(np.array([key], dtype=np.int64), shape)[0].tolist())


class SparseTensor:
    """Immutable COO tensor, a plain value: the shape, and the pattern
    stored once, as the cells' row-major flat keys in ascending order
    (``_flat``, int64), beside one value per key.  16 bytes an entry
    whatever the dimension, and nothing filled in later.  ``indices``
    derives the (N, D) coordinate rows from the keys on each access.  No
    attribute is rebound or deleted after ``__init__``, so what a query
    plan derives from a tensor stays true of it."""

    __slots__ = ("shape", "values", "_flat")

    def __init__(self, shape, indices, values, *, _flat=None):
        # ``_flat``, given with ``indices=None``, holds the ascending flat
        # keys of an already validated pattern: only the values are checked
        shape = tuple(shape)
        for s in shape:
            if not is_int(s):
                raise ValueError(f"shape dimensions must be ints, got {s!r} in {shape}")
        shape = tuple(int(s) for s in shape)
        if len(shape) == 0 or any(s < 1 for s in shape):
            raise ValueError(f"shape must be non-empty with all dims >= 1, got {shape}")
        if math.prod(shape) > np.iinfo(np.int64).max:  # row-major keys would wrap
            raise IndexOutOfBoundsError(
                f"shape {shape} has {math.prod(shape)} cells, more than int64 keys can index"
            )
        if _flat is None:
            rows = _as_rows(indices, len(shape))
            n, cell = len(rows), lambda i: tuple(rows[i].tolist())
        else:
            _flat = np.ascontiguousarray(_flat, dtype=np.int64)
            n, cell = len(_flat), lambda i: _cell(_flat[i], shape)
        values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
        if n != len(values):
            raise ValueError("indices and values length mismatch")

        # two reductions, no temporaries: a nan fails both comparisons
        if len(values) and not (values.min() > 0.0 and values.max() < np.inf):
            bad = int(np.argmin(np.isfinite(values) & (values > 0.0)))
            at = f"value {values[bad]} at index {cell(bad)}"
            if not np.isfinite(values[bad]):
                raise NonFiniteValueError(f"{at} is not finite")
            raise NonPositiveValueError(
                f"{at} is not strictly positive (zero marks an unobserved cell)"
            )
        if _flat is None:
            _flat = sub_ids(index_rows(rows, shape), shape, tuple(range(len(shape))))
            del rows
            # unique keys have one order, so the sort need not be stable;
            # equal keys name the same cell, whichever is first.  The
            # gather copies the values: a caller's later writes to them
            # never reach the tensor
            order = np.argsort(_flat)
            _flat = _flat[order]
            values = values[order]
            del order
            dup = _flat[1:] == _flat[:-1]
            if dup.any():
                pos = int(np.argmax(dup))
                raise DuplicateIndexError(f"duplicate index {_cell(_flat[pos], shape)}")

        for a in (values, _flat):
            a.setflags(write=False)
        for name, value in zip(self.__slots__, (shape, values, _flat)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"SparseTensor is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SparseTensor is immutable: cannot delete {name!r}")

    def __reduce__(self):  # rebuild on the stored keys: checks the values, sorts nothing
        return partial(SparseTensor, _flat=self._flat), (self.shape, None, self.values)

    @property
    def indices(self) -> np.ndarray:
        """The entries' (N, D) int64 coordinate rows, in key order, derived
        from the flat keys on each access: O(N) time and a new (read-only)
        array, so no hot path reads it."""
        rows = unravel_keys(self._flat, self.shape)
        rows.setflags(write=False)
        return rows

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def n_observed(self) -> int:
        return len(self.values)

    @property
    def n_cells(self) -> int:
        return math.prod(self.shape)

    @property
    def density(self) -> float:
        return self.n_observed / self.n_cells

    def _locate(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """For each row of an (M, D) index array, checked against the
        shape: its insertion position in the sorted keys, and whether the
        cell is stored there (then ``values[pos]`` is its value)."""
        keys = sub_ids(index_rows(indices, self.shape), self.shape, tuple(range(self.ndim)))
        stored = self._flat
        pos = stored.searchsorted(keys)
        if len(stored) == 0:
            return pos, np.zeros(len(keys), dtype=bool)
        return pos, stored.take(pos, mode="clip") == keys

    def is_observed(self, index) -> bool:
        return bool(self._locate([index])[1][0])

    def value_at(self, index):
        """Stored value at ``index``, or None if the cell is unobserved."""
        pos, hit = self._locate([index])
        return float(self.values[pos[0]]) if hit[0] else None

    def observed_mask_for(self, indices: np.ndarray) -> np.ndarray:
        """Boolean mask telling which rows of an (M, D) index array are observed."""
        return self._locate(indices)[1]

    def with_values(self, values: np.ndarray) -> "SparseTensor":
        """Same observed pattern, new values (one per entry, in entry
        order; finite and strictly positive).  The pattern is shared, not
        validated again; the values are copied, so a caller's later writes
        do not reach the tensor."""
        values = np.array(values, dtype=np.float64)
        return SparseTensor(self.shape, None, values, _flat=self._flat)

    def to_dense(self) -> np.ndarray:
        """The observed values on a dense grid, 0.0 at unobserved cells."""
        check_dense_size(self.n_cells, 8, "dense tensor")
        out = np.zeros(self.shape, dtype=np.float64)
        out.flat[self._flat] = self.values
        return out

    def __repr__(self):
        return f"SparseTensor(shape={self.shape}, n_observed={self.n_observed})"


def make_tensor(shape, entries) -> SparseTensor:
    """Build a validated SparseTensor from (index, value) pairs or a mapping."""
    if isinstance(entries, Mapping):
        entries = entries.items()
    entries = list(entries)
    indices = np.array([tuple(ix) for ix, _ in entries])
    values = np.array([v for _, v in entries], dtype=np.float64)
    return SparseTensor(shape, indices, values)


def family_sub_ids(tensor: SparseTensor, fixed_dims: tuple[int, ...]):
    """Per-entry subtensor ids for one family (``sub_ids`` of the entries),
    plus the dense id-space size, derived from the flat keys."""
    shape, keys = tensor.shape, tensor._flat
    ids = key_coordinate(keys, shape, fixed_dims[0])
    for d in fixed_dims[1:]:
        ids *= shape[d]
        ids += key_coordinate(keys, shape, d)
    return ids, math.prod(shape[d] for d in fixed_dims)


def leading_run_starts(tensor: SparseTensor, lead: int) -> np.ndarray:
    """Where each subtensor of the family fixing the first ``lead`` dims
    starts among the sorted keys, in row-major order, and the entry count
    last: each such subtensor is one run of the keys, so one
    ``searchsorted`` finds them all without forming per-entry ids."""
    stride = math.prod(tensor.shape[lead:])
    return tensor._flat.searchsorted(np.arange(math.prod(tensor.shape[:lead]) + 1) * stride)


def subtensor_counts(tensor: SparseTensor, families) -> tuple[dict, list]:
    """Each family's per-subtensor entry counts, by family, and the
    per-entry ids (``family_sub_ids``) of every family but the first.
    ``families`` is in canonical order, so the first fixes the leading
    dims: its counts come from its runs of keys, with no per-entry ids."""
    first, *rest = families
    counts = {first: np.diff(leading_run_starts(tensor, len(first)))}
    rest_ids = []
    for fixed in rest:
        ids, size = family_sub_ids(tensor, fixed)
        counts[fixed] = np.bincount(ids, minlength=size)
        rest_ids.append(ids)
    return counts, rest_ids


class ScaleSet:
    """Strictly positive per-subtensor scales for one family dimensionality k,
    stored as their logs.

    ``families`` lists the family-k families (their fixed dims) in
    canonical order.  For each family f, ``log[f]`` holds one log scale per
    subtensor, indexed by the row-major ravel of the fixed coordinates,
    and ``nonempty[f]`` flags the subtensors holding observed entries.
    Empty subtensors carry an implicit scale of 1, stored as such (log 0)
    whatever the constructor was given for them.  A plain value: read-only
    mappings of read-only arrays, and no attribute rebound after ``__init__``.
    """

    __slots__ = ("shape", "k", "families", "log", "nonempty")

    def __init__(self, shape, k, log_arrays, nonempty):
        shape = tuple(shape)
        families = tuple(subtensor_families(len(shape), k))
        k = int(k)
        foreign = {*log_arrays, *nonempty} - set(families)
        if foreign:
            raise InvalidKError(f"{min(foreign)} is not a family-{k} family of shape {shape}")
        logs, flags = {}, {}
        for f in families:
            dims = tuple(shape[d] for d in f)
            size = math.prod(dims)
            for what, given in (("log scales", log_arrays), ("non-empty flags", nonempty)):
                got = np.shape(given[f]) if f in given else None
                if got != (size,):
                    raise ShapeMismatchError(
                        f"{what} of family {f} have shape {got}, expected ({size},)"
                    )
            ne = np.array(nonempty[f], dtype=bool)  # a copy: it is frozen below
            log = np.where(ne, log_arrays[f], 0.0)
            finite = np.isfinite(log)
            if not finite.all():
                sub = int(np.argmin(finite))
                at = f"family {f} subtensor {_cell(sub, dims)}"
                if log[sub] == -np.inf:
                    raise NonPositiveValueError(f"scale of {at} is 0 (log -inf)")
                raise NonFiniteValueError(f"log scale of {at} is not finite, got {log[sub]}")
            for a in (ne, log):
                a.setflags(write=False)
            flags[f], logs[f] = ne, log
        for name, value in zip(self.__slots__, (shape, k, families, MappingProxyType(logs), MappingProxyType(flags))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"ScaleSet is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ScaleSet is immutable: cannot delete {name!r}")

    def __reduce__(self):  # a mappingproxy does not pickle: rebuild through the constructor
        return ScaleSet, (self.shape, self.k, dict(self.log), dict(self.nonempty))

    # -- vectorized views ----------------------------------------------------
    def log_sum_at(self, indices: np.ndarray) -> np.ndarray:
        """Sum of log scales over the containing non-empty keys of each row
        of an (M, D) index array.  Empty subtensors contribute 0."""
        rows = index_rows(indices, self.shape)
        total = np.zeros(len(rows))
        for fixed in self.families:
            total += self.log[fixed][sub_ids(rows, self.shape, fixed)]
        return total

    def empty_key_mask(self, indices: np.ndarray) -> np.ndarray:
        """True for index rows having at least one empty containing subtensor."""
        rows = index_rows(indices, self.shape)
        mask = np.zeros(len(rows), dtype=bool)
        for fixed in self.families:
            mask |= ~self.nonempty[fixed][sub_ids(rows, self.shape, fixed)]
        return mask

    def _log_sum_grid(self, what: str) -> np.ndarray:
        """Dense per-cell sum of log scales over all containing keys (empty
        keys contribute 0), added family by family in family order from
        zeros, as ``log_sum_at`` adds them: 8 bytes a cell, refused as
        ``what`` by ``check_dense_size`` before it is allocated."""
        check_dense_size(math.prod(self.shape), 8, what)
        grid = np.zeros(self.shape)
        for fixed in self.families:
            grid += self.log[fixed].reshape([s if d in fixed else 1 for d, s in enumerate(self.shape)])
        return grid

    def factor_grid(self) -> np.ndarray:
        """Dense per-cell product of scales over all containing keys (empty
        keys contribute 1): ``_log_sum_grid`` exponentiated in place, so 8
        bytes a cell; a product beyond the float range is inf or 0, with
        no warning."""
        grid = self._log_sum_grid("dense factor grid")
        with np.errstate(over="ignore"):
            return np.exp(grid, out=grid)

    def inverse(self) -> "ScaleSet":
        return ScaleSet(self.shape, self.k, {f: -a for f, a in self.log.items()}, self.nonempty)

    def __repr__(self):
        n_scales = sum(int(m.sum()) for m in self.nonempty.values())
        return f"ScaleSet(shape={self.shape}, k={self.k}, n_scales={n_scales})"


def scale_apply(tensor: SparseTensor, scales: ScaleSet) -> SparseTensor:
    """Multiply every observed entry by the scales of all its containing
    keys; the unobserved pattern is untouched.  The factor exp(L) is
    applied as exp(L/2) twice, so a tiny entry times a huge factor stays
    in range up to |L| ~ 1416, and scaling by 1 stays exact."""
    if scales.shape != tensor.shape:
        raise ShapeMismatchError(
            f"scale set for shape {scales.shape} applied to tensor of shape {tensor.shape}"
        )
    if tensor.n_observed == 0:
        return tensor
    # summed per family in family order from zeros, as ``log_sum_at`` sums
    total = np.zeros(tensor.n_observed)
    for fixed in scales.families:
        total += scales.log[fixed][family_sub_ids(tensor, fixed)[0]]
    half = np.exp(total / 2)
    return tensor.with_values(tensor.values * half * half)


def max_balance_violation(tensor: SparseTensor, k: int) -> float:
    """max over non-empty family-k subtensors of |product of entries - 1|."""
    worst = 0.0
    logs = np.log(tensor.values)
    for fixed in subtensor_families(tensor.ndim, k):
        ids, size = family_sub_ids(tensor, fixed)
        if len(ids):
            sums = np.bincount(ids, weights=logs, minlength=size)
            worst = max(worst, float(np.abs(np.exp(sums[ids]) - 1.0).max()))
    return worst
