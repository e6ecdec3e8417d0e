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
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .exceptions import (
    DuplicateIndexError,
    IndexOutOfBoundsError,
    InvalidKError,
    NonFiniteValueError,
    NonPositiveValueError,
    ShapeMismatchError,
)

# Dense materialization guard: refuse to allocate grids larger than this.
MAX_DENSE_CELLS = 50_000_000


def subtensor_families(ndim: int, k: int) -> list[tuple[int, ...]]:
    """All fixed-dimension subsets defining family-k subtensors, in canonical
    (lexicographic) order.  Each subset has D-k dimensions."""
    if not 1 <= k <= ndim - 1:
        raise InvalidKError(f"k must be in [1, {ndim - 1}] for a {ndim}-D tensor, got {k}")
    return list(itertools.combinations(range(ndim), ndim - k))


class SparseTensor:
    """Immutable COO tensor; indices kept in lexicographic (row-major) order."""

    __slots__ = ("shape", "indices", "values", "_flat")

    def __init__(self, shape, indices, values, *, _sorted=False, _flat=None):
        # ``_flat`` is the flat-key array of an already validated pattern
        # that ``indices`` belongs to: only the values are checked then
        shape = tuple(int(s) for s in shape)
        if len(shape) == 0 or any(s < 1 for s in shape):
            raise ValueError(f"shape must be non-empty with all dims >= 1, got {shape}")
        indices = np.ascontiguousarray(indices, dtype=np.int64).reshape(-1, len(shape))
        values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
        if len(indices) != len(values):
            raise ValueError("indices and values length mismatch")

        ok = np.isfinite(values) & (values > 0.0)
        if not ok.all():
            bad = int(np.argmin(ok))
            at = f"value {values[bad]} at index {tuple(indices[bad].tolist())}"
            if not np.isfinite(values[bad]):
                raise NonFiniteValueError(f"{at} is not finite")
            raise NonPositiveValueError(
                f"{at} is not strictly positive (zero marks an unobserved cell)"
            )
        if _flat is None:
            if len(indices):
                lo = indices.min(axis=0)
                hi = indices.max(axis=0)
                if (lo < 0).any() or (hi >= np.asarray(shape)).any():
                    d = int(np.argmax((lo < 0) | (hi >= np.asarray(shape))))
                    raise IndexOutOfBoundsError(
                        f"index out of bounds in dimension {d} for shape {shape}"
                    )
            _flat = (
                np.ravel_multi_index(indices.T, shape)
                if len(indices)
                else np.empty(0, dtype=np.int64)
            )
            if not _sorted and len(_flat) > 1:
                order = np.argsort(_flat, kind="stable")
                _flat = _flat[order]
                indices = indices[order]
                values = values[order]
            if len(_flat) > 1 and np.any(np.diff(_flat) == 0):
                pos = int(np.argmax(np.diff(_flat) == 0))
                raise DuplicateIndexError(f"duplicate index {tuple(indices[pos].tolist())}")

        self.shape = shape
        self.indices = indices
        self.values = values
        self._flat = _flat
        for a in (self.indices, self.values, self._flat):
            a.setflags(write=False)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def n_observed(self) -> int:
        return len(self.values)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))

    @property
    def density(self) -> float:
        return self.n_observed / self.n_cells

    def _check_index(self, index) -> tuple[int, ...]:
        index = tuple(int(i) for i in index)
        if len(index) != self.ndim:
            raise IndexOutOfBoundsError(f"index {index} has wrong length for shape {self.shape}")
        if any(i < 0 or i >= s for i, s in zip(index, self.shape)):
            raise IndexOutOfBoundsError(f"index {index} out of bounds for shape {self.shape}")
        return index

    def is_observed(self, index) -> bool:
        index = self._check_index(index)
        flat = np.ravel_multi_index(index, self.shape)
        pos = np.searchsorted(self._flat, flat)
        return bool(pos < len(self._flat) and self._flat[pos] == flat)

    def value_at(self, index):
        """Stored value at ``index``, or None if the cell is unobserved."""
        index = self._check_index(index)
        flat = np.ravel_multi_index(index, self.shape)
        pos = np.searchsorted(self._flat, flat)
        if pos < len(self._flat) and self._flat[pos] == flat:
            return float(self.values[pos])
        return None

    def observed_mask_for(self, indices: np.ndarray) -> np.ndarray:
        """Boolean mask telling which rows of an (M, D) index array are observed."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1, self.ndim)
        if len(indices) == 0 or len(self._flat) == 0:
            return np.zeros(len(indices), dtype=bool)
        flat = np.ravel_multi_index(indices.T, self.shape)
        pos = np.searchsorted(self._flat, flat)
        pos = np.minimum(pos, len(self._flat) - 1)
        return self._flat[pos] == flat

    def row_slice(self, i: int) -> slice:
        """The entries whose first coordinate is ``i``, as a slice of
        ``indices`` and ``values``: row-major order keeps them contiguous."""
        stride = math.prod(self.shape[1:])
        lo, hi = np.searchsorted(self._flat, [i * stride, (i + 1) * stride])
        return slice(int(lo), int(hi))

    def with_values(self, values: np.ndarray) -> "SparseTensor":
        """Same observed pattern, new values (one per entry, in entry
        order; finite and strictly positive).  The pattern is shared, not
        validated again."""
        return SparseTensor(self.shape, self.indices, values, _flat=self._flat)

    def to_dense(self, fill: float = 0.0) -> np.ndarray:
        if self.n_cells > MAX_DENSE_CELLS:
            raise ValueError(f"refusing to materialize {self.n_cells} cells densely")
        out = np.full(self.shape, fill, dtype=np.float64)
        out.flat[self._flat] = self.values
        return out

    def __repr__(self):
        return f"SparseTensor(shape={self.shape}, n_observed={self.n_observed})"


def make_tensor(shape, entries) -> SparseTensor:
    """Build a validated SparseTensor from (index, value) pairs or a mapping."""
    if isinstance(entries, Mapping):
        entries = entries.items()
    entries = list(entries)
    indices = np.array([tuple(ix) for ix, _ in entries], dtype=np.int64).reshape(
        -1, len(tuple(shape))
    )
    values = np.array([v for _, v in entries], dtype=np.float64)
    return SparseTensor(shape, indices, values)


@dataclass(frozen=True)
class SubtensorKey:
    """A length-D coordinate vector with exactly k null (None) slots.

    The null slots are the free dimensions the subtensor spans; the fixed
    slots pin the remaining coordinates.
    """

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

    @property
    def free_dims(self) -> tuple[int, ...]:
        return tuple(d for d, c in enumerate(self.coords) if c is None)

    @property
    def fixed_dims(self) -> tuple[int, ...]:
        return tuple(d for d, c in enumerate(self.coords) if c is not None)

    @property
    def k(self) -> int:
        return len(self.free_dims)

    def contains(self, index) -> bool:
        return all(c is None or c == i for c, i in zip(self.coords, index))

    def __str__(self):
        return "(" + ", ".join("·" if c is None else str(c) for c in self.coords) + ")"


def enumerate_subtensors(shape, k: int) -> list[SubtensorKey]:
    """Every family-k key of ``shape``: one per (choice of fixed dims) x
    (assignment of fixed coordinates), families then keys in lexicographic order."""
    shape = tuple(shape)
    keys = []
    for fixed in subtensor_families(len(shape), k):
        for assign in itertools.product(*(range(shape[d]) for d in fixed)):
            coords = [None] * len(shape)
            for d, c in zip(fixed, assign):
                coords[d] = c
            keys.append(SubtensorKey(tuple(coords)))
    return keys


def containing_keys(index, k: int, shape) -> list[SubtensorKey]:
    """The C(D, D-k) family-k keys whose subtensor contains ``index``."""
    shape = tuple(shape)
    index = tuple(int(i) for i in index)
    if len(index) != len(shape) or any(i < 0 or i >= s for i, s in zip(index, shape)):
        raise IndexOutOfBoundsError(f"index {index} out of bounds for shape {shape}")
    keys = []
    for fixed in subtensor_families(len(shape), k):
        coords = [None] * len(shape)
        for d in fixed:
            coords[d] = index[d]
        keys.append(SubtensorKey(tuple(coords)))
    return keys


def family_sub_ids(tensor: SparseTensor, fixed_dims: tuple[int, ...]):
    """Per-entry subtensor ids for one family, plus the dense id-space size.

    Ids are the row-major ravel of the fixed coordinates, so ascending id
    order equals lexicographic key order within the family.
    """
    dims = [tensor.shape[d] for d in fixed_dims]
    size = int(np.prod(dims, dtype=np.int64))
    if tensor.n_observed == 0:
        return np.empty(0, dtype=np.int64), size
    ids = np.ravel_multi_index([tensor.indices[:, d] for d in fixed_dims], dims)
    return ids, size


class ScaleSet:
    """Strictly positive per-subtensor scales for one family dimensionality k.

    Stored as dense per-family arrays (linear and log); the mapping
    interface exposes only non-empty subtensor keys.  Empty subtensors
    carry an implicit scale of 1, stored as such (log 0) whatever the
    constructor was given for them.
    """

    __slots__ = ("shape", "k", "_scale", "_log", "_nonempty", "_fams")

    def __init__(self, shape, k, scale_arrays, log_arrays, nonempty):
        self.shape = tuple(shape)
        self.k = int(k)
        self._fams = subtensor_families(len(self.shape), self.k)
        self._nonempty = {f: np.asarray(nonempty[f], dtype=bool) for f in self._fams}
        self._scale = {f: np.where(self._nonempty[f], scale_arrays[f], 1.0) for f in self._fams}
        self._log = {f: np.where(self._nonempty[f], log_arrays[f], 0.0) for f in self._fams}

    @classmethod
    def from_log_arrays(cls, shape, k, log_arrays, nonempty) -> "ScaleSet":
        scale = {f: np.exp(a) for f, a in log_arrays.items()}
        return cls(shape, k, scale, log_arrays, nonempty)

    @classmethod
    def from_dict(cls, shape, k, mapping) -> "ScaleSet":
        """Build from {SubtensorKey or coords-tuple: positive scale}.

        Keys absent from the mapping are treated as empty subtensors
        (implicit scale 1)."""
        shape = tuple(shape)
        fams = subtensor_families(len(shape), k)
        scale = {}
        nonempty = {}
        for f in fams:
            size = int(np.prod([shape[d] for d in f], dtype=np.int64))
            scale[f] = np.ones(size)
            nonempty[f] = np.zeros(size, dtype=bool)
        for key, value in mapping.items():
            coords = key.coords if isinstance(key, SubtensorKey) else tuple(key)
            fixed = tuple(d for d, c in enumerate(coords) if c is not None)
            if len(coords) != len(shape) or fixed not in scale:
                raise InvalidKError(f"key {coords} is not a family-{k} key of shape {shape}")
            if any(coords[d] < 0 or coords[d] >= shape[d] for d in fixed):
                raise IndexOutOfBoundsError(f"key {coords} out of bounds for shape {shape}")
            if not value > 0:
                raise NonPositiveValueError(f"scale for key {coords} must be positive, got {value}")
            dims = [shape[d] for d in fixed]
            sub = int(np.ravel_multi_index([coords[d] for d in fixed], dims))
            scale[fixed][sub] = float(value)
            nonempty[fixed][sub] = True
        log = {f: np.log(a) for f, a in scale.items()}
        return cls(shape, k, scale, log, nonempty)

    # -- mapping interface over non-empty keys ------------------------------
    def _locate(self, key):
        coords = key.coords if isinstance(key, SubtensorKey) else tuple(key)
        fixed = tuple(d for d, c in enumerate(coords) if c is not None)
        if fixed not in self._scale:
            raise KeyError(key)
        dims = [self.shape[d] for d in fixed]
        sub = int(np.ravel_multi_index([coords[d] for d in fixed], dims))
        return fixed, sub

    def __getitem__(self, key) -> float:
        fixed, sub = self._locate(key)
        if not self._nonempty[fixed][sub]:
            raise KeyError(key)
        return float(self._scale[fixed][sub])

    def get(self, key, default: float = 1.0) -> float:
        try:
            return self[key]
        except KeyError:
            return default

    def __contains__(self, key) -> bool:
        try:
            fixed, sub = self._locate(key)
        except (KeyError, ValueError):
            return False
        return bool(self._nonempty[fixed][sub])

    def __len__(self) -> int:
        return sum(int(m.sum()) for m in self._nonempty.values())

    def keys(self) -> Iterator[SubtensorKey]:
        for fixed in self._fams:
            dims = [self.shape[d] for d in fixed]
            for sub in np.flatnonzero(self._nonempty[fixed]):
                assign = np.unravel_index(int(sub), dims)
                coords = [None] * len(self.shape)
                for d, c in zip(fixed, assign):
                    coords[d] = int(c)
                yield SubtensorKey(tuple(coords))

    def __iter__(self):
        return self.keys()

    def items(self):
        for key in self.keys():
            yield key, self[key]

    # -- vectorized views ----------------------------------------------------
    def log_sum_at(self, indices: np.ndarray) -> np.ndarray:
        """Sum of log scales over the containing non-empty keys of each row
        of an (M, D) index array.  Empty subtensors contribute 0."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1, len(self.shape))
        total = np.zeros(len(indices))
        for fixed in self._fams:
            dims = [self.shape[d] for d in fixed]
            ids = np.ravel_multi_index([indices[:, d] for d in fixed], dims)
            total += self._log[fixed][ids]
        return total

    def log_sum_fiber(self, prefix) -> np.ndarray:
        """``log_sum_at`` of the cells (*prefix, j) for every j along the
        last dimension, summed in the same order, so the two agree bit
        for bit."""
        prefix = tuple(int(i) for i in prefix)
        last = len(self.shape) - 1
        if len(prefix) != last or any(not 0 <= i < s for i, s in zip(prefix, self.shape)):
            raise IndexOutOfBoundsError(
                f"fiber prefix {prefix} out of bounds for shape {self.shape}"
            )
        cell = prefix + (0,)
        n = self.shape[last]
        total = np.zeros(n)
        for fixed in self._fams:
            start = 0
            for d in fixed:
                start = start * self.shape[d] + cell[d]
            logs = self._log[fixed]
            # a family fixing the last dimension holds the fiber's keys
            # contiguously from (*prefix, 0); any other family, one key
            total += logs[start : start + n] if fixed[-1] == last else logs[start]
        return total

    def empty_key_mask(self, indices: np.ndarray) -> np.ndarray:
        """True for index rows having at least one empty containing subtensor."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1, len(self.shape))
        mask = np.zeros(len(indices), dtype=bool)
        for fixed in self._fams:
            dims = [self.shape[d] for d in fixed]
            ids = np.ravel_multi_index([indices[:, d] for d in fixed], dims)
            mask |= ~self._nonempty[fixed][ids]
        return mask

    def factor_grid(self) -> np.ndarray:
        """Dense per-cell product of scales over all containing keys
        (empty keys contribute 1).  Small shapes only."""
        if int(np.prod(self.shape, dtype=np.int64)) > MAX_DENSE_CELLS:
            raise ValueError("shape too large for a dense factor grid")
        grid = np.ones(self.shape)
        for fixed in self._fams:
            dims = [self.shape[d] for d in fixed]
            bshape = [self.shape[d] if d in fixed else 1 for d in range(len(self.shape))]
            grid = grid * self._scale[fixed].reshape(dims).reshape(bshape)
        return grid

    def inverse(self) -> "ScaleSet":
        scale = {f: 1.0 / a for f, a in self._scale.items()}
        log = {f: -a for f, a in self._log.items()}
        return ScaleSet(self.shape, self.k, scale, log, self._nonempty)

    def __repr__(self):
        return f"ScaleSet(shape={self.shape}, k={self.k}, n_scales={len(self)})"


def scale_apply(tensor: SparseTensor, scales: ScaleSet) -> SparseTensor:
    """Multiply every observed entry by the scales of all its containing
    keys; the unobserved pattern is untouched."""
    if scales.shape != tensor.shape:
        raise ShapeMismatchError(
            f"scale set for shape {scales.shape} applied to tensor of shape {tensor.shape}"
        )
    if tensor.n_observed == 0:
        return tensor
    factors = np.exp(scales.log_sum_at(tensor.indices))
    return tensor.with_values(tensor.values * factors)


def subtensor_products(tensor: SparseTensor, k: int):
    """Per-family arrays of (product of observed entries, observed count).

    Returns {fixed_dims: (products, counts)}; products are 1 for empty
    subtensors.  Used by the balance-constraint checkers.
    """
    out = {}
    logs = np.log(tensor.values)
    for fixed in subtensor_families(tensor.ndim, k):
        ids, size = family_sub_ids(tensor, fixed)
        counts = np.bincount(ids, minlength=size)
        sums = np.bincount(ids, weights=logs, minlength=size)
        out[fixed] = (np.exp(sums), counts)
    return out


def max_balance_violation(tensor: SparseTensor, k: int) -> float:
    """max over non-empty family-k subtensors of |product of entries - 1|."""
    worst = 0.0
    for products, counts in subtensor_products(tensor, k).values():
        ne = counts > 0
        if ne.any():
            worst = max(worst, float(np.abs(products[ne] - 1.0).max()))
    return worst
