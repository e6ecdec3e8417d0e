"""Rating prediction and ranking over completed 2-D (user x product)
tensors."""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

import numpy as np

from .complete import CompletedTensor, inverse_scale_fills
from .exceptions import NotAMatrixError


class Prediction(NamedTuple):
    """One ranked or queried cell.  A tuple, so it also compares equal to
    the plain tuple ``(user, product, rating, source)``."""

    user: int
    product: int
    rating: float
    source: str  # "observed" | "completed"


def predict_rating(completed: CompletedTensor, user: int, product: int) -> Prediction:
    """2-D query: the training value if (user, product) was observed, else
    the inverse-scale fill.  The source's lookup checks the cell's bounds."""
    if len(completed.shape) != 2:
        raise NotAMatrixError("predict_rating expects a 2-D completion")
    user, product = int(user), int(product)
    observed = completed.source.value_at((user, product))
    if observed is not None:
        return Prediction(user, product, observed, "observed")
    return Prediction(user, product, completed.fill_at((user, product)), "completed")


# Products whose log scales differ by at most this much are walked past
# together: their fills can round equal, or out of log-scale order.
TIE_WINDOW = 1e-9


def _product_order(completed: CompletedTensor):
    """The products by ascending log scale (a stable argsort of
    ``scales.log[(1,)]``), its inverse permutation, and for each order
    position the end of the run of products whose log scales are within
    ``TIE_WINDOW`` of its own.  Computed on a completion's first query and
    kept on it, keyed on the log array itself, so a replaced ``scales``
    gets a fresh order."""
    logs = completed.scales.log[(1,)]
    cached = completed._product_order
    if cached is None or cached[0] is not logs:
        order = np.argsort(logs, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ascending = logs[order]
        tie_end = np.searchsorted(ascending, ascending + TIE_WINDOW, side="right")
        cached = completed._product_order = (logs, order, rank, tie_end)
    return cached[1:]


def _walk(order, rank, tie_end, rated, n) -> np.ndarray:
    """The unrated products, in walk order, of the shortest prefix of
    ``order`` holding n unrated products, extended over every product
    whose log scale is within ``TIE_WINDOW`` of the n-th one's."""
    taken = rank[rated]
    taken.sort()
    # taken[j] - j unrated products come before the j-th rated one, so the
    # n-th unrated product sits at order position n - 1 + (rated before it)
    nth = n - 1 + int((taken - np.arange(len(taken))).searchsorted(n - 1, side="right"))
    end = int(tie_end[nth]) if nth < len(order) else len(order)
    keep = np.ones(end, dtype=bool)
    keep[taken[: taken.searchsorted(end)]] = False
    return order[:end][keep]


def top_n(
    completed: CompletedTensor,
    user: int,
    n: int,
    exclude_observed: bool = False,
) -> list[Prediction]:
    """Products ranked by predicted rating (descending), ties broken by
    ascending product index.  Optionally drops products the user already
    rated.

    A 2-D fill is exp(-(a_u + b_p)), so every user ranks the products it
    has not rated by one global order: ascending product log scale b_p.
    A query walks that order, cached on the completion, only until it
    holds the n-th unrated product, and then on over every product whose
    b_p is within ``TIE_WINDOW`` of that product's.  The user's row is
    one slice of the source's entries, whose bounds the source keeps
    after its first ``row_slice``; its rated products are its flat keys
    less user * P.  Only the unrated products of the
    prefix are filled, from a_u + b_p, the sum ``log_sum_at`` forms.
    Unless they are excluded, the rated products join them with
    their observed values, less those below the least of the first n
    fills, which n fills beat.  One ``sort`` over (-value, product,
    source) triples ranks them all, ties to the smaller product index.
    The fills come in walk order, nearly sorted, so sorting them takes
    linear time even over a run of tied fills.

    The answer is exact, ties included.  When a_u + min(b) and a_u +
    max(b) lie in (-700, 700), every sum of the row does, each rounded
    within 1e-13 of its true value, and its fill is a normal float.  A
    product past the prefix then has a sum more than 1e-9 - 2e-13 above
    the n-th unrated product's, and so above those of n unrated products
    at or before it.  Its fill is smaller than theirs by a relative 1e-9,
    far beyond ``exp``'s rounding of a few 1e-16, so it can neither rank
    among the first n nor tie with them.  Otherwise some fill of the
    row may leave the float range, and the whole row is filled, checked
    (raising ``NonFiniteValueError`` or ``NonPositiveValueError`` that
    names the first such cell, rated products excepted) and ranked by
    the same sort, in O(P log P) for P products.

    A query costs O(r log r + prefix) for a row of r rated products,
    independent of the number of products and of stored entries.  The
    completion pays one O(P log P) sort of its P products; its source
    pays, on its first ``row_slice``, one O(U log nnz) search for where
    each of its U rows starts among its nnz entries, and keeps that
    list of U + 1 ints."""
    if len(completed.shape) != 2:
        raise NotAMatrixError("top_n expects a 2-D completion")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    user = int(user)
    source = completed.source
    row = source.row_slice(user)  # checks the user's bounds
    rated = source._flat[row] - user * source.shape[1]
    scales = completed.scales
    order, rank, tie_end = _product_order(completed)
    a, b = scales.log[(0,)][user], scales.log[(1,)]
    if -700.0 < a + b[order[0]] and a + b[order[-1]] < 700.0:
        products = _walk(order, rank, tie_end, rated, n)
        values = np.exp(-(a + b[products]))  # every sum of the row is in (-700, 700)
    else:
        unrated = np.ones(len(b), dtype=bool)
        unrated[rated] = False
        products = np.flatnonzero(unrated)
        values = inverse_scale_fills(a + b[products], lambda i: (user, int(products[i])))
    ranked = list(zip((-values).tolist(), products.tolist(), repeat("completed")))
    if not exclude_observed:
        observed = source.values[row]
        if len(values) >= n:
            # n fills are at least the least of values[:n]: a rating below
            # it cannot rank
            keep = observed >= values[:n].min()
            observed, rated = observed[keep], rated[keep]
        ranked += zip((-observed).tolist(), rated.tolist(), repeat("observed"))
    ranked.sort()
    # ``tuple.__new__`` builds each answer without the Python frame of the
    # generated ``Prediction.__new__``; the fields are in declaration order
    return [tuple.__new__(Prediction, (user, p, -v, s)) for v, p, s in ranked[:n]]
