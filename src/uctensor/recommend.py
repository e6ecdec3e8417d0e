"""Rating prediction and ranking over completed tensors.

2-D models answer (user, product) queries directly; 3-D models
(user x feature x product) project onto the feature dimension by taking
the maximum completed value, optionally restricted to a caller-supplied
feature set.
"""

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
    argmax_feature: int | None = None


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


def predict_max_feature(
    completed: CompletedTensor,
    user: int,
    product: int,
    feature_indices=None,
) -> Prediction:
    """3-D query: maximum completed value over the feature dimension of the
    (user, :, product) fiber; ties resolve to the lowest feature index.

    ``feature_indices`` restricts the projection (e.g. to the features a
    user actually carries); None scans the whole dimension.
    """
    if len(completed.shape) != 3:
        raise IndexOutOfBoundsError("predict_max_feature expects a 3-D completion")
    n_users, n_features, n_products = completed.shape
    user = _check_axis(user, n_users, "user")
    product = _check_axis(product, n_products, "product")
    if feature_indices is None:
        feats = np.arange(n_features, dtype=np.int64)
    else:
        feats = np.asarray(sorted(int(f) for f in feature_indices), dtype=np.int64)
        if len(feats) == 0:
            raise IndexOutOfBoundsError("feature_indices must be non-empty")
        if feats[0] < 0 or feats[-1] >= n_features:
            raise IndexOutOfBoundsError(f"feature index out of range [0, {n_features})")
    idx = np.empty((len(feats), 3), dtype=np.int64)
    idx[:, 0] = user
    idx[:, 1] = feats
    idx[:, 2] = product
    values = completed.values_at(idx)
    best = int(np.argmax(values))
    feature = int(feats[best])
    source = "observed" if completed.source.is_observed((user, feature, product)) else "completed"
    return Prediction(user, product, float(values[best]), source, argmax_feature=feature)


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
