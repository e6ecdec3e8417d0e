"""Dense least squares: the exact oracle for the balance and the completion.

In log space the balance is a least-squares fit.  With y the observed log
entries and A the entry x subtensor 0/1 design matrix (one column per
subtensor of every family), the solver's log scales x make every
non-empty subtensor's sum of y + Ax zero: Aᵀ(y + Ax) = 0, the normal
equations of fitting y by A.  So, with x̂ any least-squares fit of y
(here numpy's min-norm one), the balanced log entries are the residuals
y - Ax̂, whichever fit the solver found.  An unobserved cell's fill is
exp(a·x̂), a its design row, but only when a lies in the row space of A
(the cell is "estimable"): then a·x̂ is the same for every fit, and
otherwise the data leave it free.

Everything here is built with numpy from the caller's own cell rows, not
through ``uctensor``, and is dense: meant for patterns of a few dozen
entries.
"""

from __future__ import annotations

import itertools

import numpy as np

# design matrices beyond this many entries (cells x subtensors) are refused
MAX_DESIGN_ENTRIES = 100_000
# a design row lies in the row space when its projection onto it moves no
# entry by more than this
ESTIMABLE_TOL = 1e-9


def families(ndim: int, k: int) -> list[tuple[int, ...]]:
    """The fixed dims of each family-k family, in lexicographic order."""
    return list(itertools.combinations(range(ndim), ndim - k))


def design(cells, shape, k: int) -> np.ndarray:
    """The dense (M, Σ family sizes) 0/1 matrix of the (M, D) ``cells``:
    row i has a 1 in the column of each family-k subtensor holding cell
    i.  Families are in ``families`` order, each one's subtensors in
    row-major order of its fixed coordinates.  Refused past
    ``MAX_DESIGN_ENTRIES`` entries."""
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, len(shape))
    dims = [[shape[d] for d in fixed] for fixed in families(len(shape), k)]
    offsets = np.cumsum([0] + [int(np.prod(sizes)) for sizes in dims])
    if len(cells) * offsets[-1] > MAX_DESIGN_ENTRIES:
        raise ValueError(f"a {len(cells)} x {offsets[-1]} design is too large for the dense oracle")
    a = np.zeros((len(cells), offsets[-1]))
    for fixed, sizes, offset in zip(families(len(shape), k), dims, offsets):
        a[np.arange(len(cells)), offset + np.ravel_multi_index(tuple(cells[:, fixed].T), sizes)] = 1.0
    return a


def fit(a: np.ndarray, log_values: np.ndarray):
    """The min-norm least-squares fit x̂ of ``log_values`` by the design
    ``a``: (x̂, the residuals log_values - a x̂, the rank of ``a``)."""
    x, _, rank, _ = np.linalg.lstsq(a, log_values, rcond=None)
    return x, log_values - a @ x, int(rank)


def estimable(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Whether each design row of ``rows`` lies in the row space of ``a``:
    its projection ``row @ pinv(a) @ a`` differs from it by at most
    ``ESTIMABLE_TOL`` in every entry."""
    projection = np.linalg.pinv(a) @ a
    return np.abs(rows @ projection - rows).max(axis=1, initial=0.0) <= ESTIMABLE_TOL
