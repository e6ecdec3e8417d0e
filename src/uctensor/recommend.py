"""Rating prediction and ranking over completed 2-D (user x product)
tensors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complete import CompletedTensor, inverse_scale_fills
from .exceptions import IndexOutOfBoundsError, NotAMatrixError


@dataclass(frozen=True)
class Prediction:
    user: int
    product: int
    rating: float
    source: str  # "observed" | "completed"


def _check_axis(value: int, size: int, what: str) -> int:
    value = int(value)
    if not 0 <= value < size:
        raise IndexOutOfBoundsError(f"{what} {value} out of range [0, {size})")
    return value


def predict_rating(completed: CompletedTensor, user: int, product: int) -> Prediction:
    """2-D query: the training value if (user, product) was observed, else
    the inverse-scale fill."""
    if len(completed.shape) != 2:
        raise NotAMatrixError("predict_rating expects a 2-D completion")
    user = _check_axis(user, completed.shape[0], "user")
    product = _check_axis(product, completed.shape[1], "product")
    observed = completed.source.value_at((user, product))
    if observed is not None:
        return Prediction(user, product, observed, "observed")
    return Prediction(user, product, completed.fill_at((user, product)), "completed")


def _first_n(keys: np.ndarray, n: int) -> np.ndarray:
    """Positions of the ``n`` smallest keys, ties in ascending position:
    the first n of a stable argsort.  A partition finds the n-th key, and
    only the keys at or below it are sorted."""
    if n < len(keys):
        nth = np.partition(keys, n - 1)[n - 1]
        cut = np.flatnonzero(keys <= nth)
        return cut[np.argsort(keys[cut], kind="stable")[:n]]
    return np.argsort(keys, kind="stable")


def top_n(
    completed: CompletedTensor,
    user: int,
    n: int,
    exclude_observed: bool = False,
) -> list[Prediction]:
    """Products ranked by predicted rating (descending), ties broken by
    ascending product index.  Optionally drops products the user already
    rated.

    A query reads the user's row of the pattern as one slice, fills every
    product from the row's log scale and the product log scales, and
    ranks by partial selection: O(n_products) plus O(row), independent
    of the number of stored entries."""
    if len(completed.shape) != 2:
        raise NotAMatrixError("top_n expects a 2-D completion")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    user = _check_axis(user, completed.shape[0], "user")
    source = completed.source
    row = source.row_slice(user)
    rated = source.indices[row, 1]
    logs = completed.scales.log_sum_fiber((user,))
    logs[rated] = 0.0
    values = inverse_scale_fills(logs, lambda p: (user, p))
    values[rated] = source.values[row]
    observed = np.zeros(len(values), dtype=bool)
    observed[rated] = True

    if exclude_observed:
        candidates = np.flatnonzero(~observed)
        picks = candidates[_first_n(-values[candidates], n)]
    else:
        picks = _first_n(-values, n)
    return [
        Prediction(user, p, v, "observed" if o else "completed")
        for p, v, o in zip(picks.tolist(), values[picks].tolist(), observed[picks].tolist())
    ]
