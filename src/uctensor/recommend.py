"""Rating prediction and ranking over completed 2-D (user x product)
tensors."""

from __future__ import annotations

import operator
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .complete import CompletedTensor, inverse_scale_fills
from .exceptions import IndexOutOfBoundsError, NotAMatrixError
from .tensor import check_int


class Prediction(NamedTuple):
    """One ranked or queried cell.  A tuple, so it also compares equal to
    the plain tuple ``(user, product, rating, source)``."""

    user: int
    product: int
    rating: float
    source: str  # "observed" | "completed"


def predict_rating(completed: CompletedTensor, user: int, product: int) -> Prediction:
    """2-D query: the training value if (user, product) was observed, else
    the inverse-scale fill.  The ids must be integers (``operator.index``);
    the source's lookup checks the cell's bounds."""
    if len(completed.shape) != 2:
        raise NotAMatrixError("predict_rating expects a 2-D completion")
    user, product = operator.index(user), operator.index(product)
    observed = completed.source.value_at((user, product))
    if observed is not None:
        return Prediction(user, product, observed, "observed")
    return Prediction(user, product, completed.fill_at((user, product)), "completed")


# Products whose log scales differ by at most this much are walked past
# together: their fills can round equal, or out of log-scale order.
TIE_WINDOW = 1e-9


def _query_plan(completed: CompletedTensor):
    """What every top-n query of a completion shares: ``(user logs,
    product logs, source, starts, order, rank, tie_end, ramp, all_true,
    -product logs, least, greatest)``.  ``starts[u]`` is where the
    source's row u starts among its entries, a Python list of U + 1.
    ``order`` is the products by ascending log scale (stable), ``rank``
    its inverse, and ``tie_end[i]`` the end of the run of order positions
    within ``TIE_WINDOW`` of position i's log scale; a query slices the
    index ramp and copies the all-true mask rather than build them.  The
    least and greatest product log scales are Python floats.  Built on the
    first query and kept on the completion, keyed on the identity of its
    ``source`` and both log arrays of its ``scales``, so replacing any of
    them rebuilds it; O(U + P) and read-only, so concurrent queries share it."""
    user_logs, logs = completed.scales.log[(0,)], completed.scales.log[(1,)]
    source = completed.source
    plan = completed._product_order
    if plan is None or plan[0] is not user_logs or plan[1] is not logs or plan[2] is not source:
        starts = source._flat.searchsorted(np.arange(source.shape[0] + 1) * source.shape[1]).tolist()
        order = np.argsort(logs, kind="stable")
        ramp = np.arange(len(order))
        rank = np.empty_like(order)
        rank[order] = ramp
        ascending = logs[order]
        tie_end = np.searchsorted(ascending, ascending + TIE_WINDOW, side="right")
        arrays = (order, rank, tie_end, ramp, np.ones(len(order), dtype=bool), -logs)
        for a in arrays:
            a.setflags(write=False)
        least, greatest = float(ascending[0]), float(ascending[-1])
        plan = completed._product_order = (user_logs, logs, source, starts, *arrays, least, greatest)
    return plan


def _walk(order, rank, tie_end, ramp, all_true, rated, n) -> np.ndarray:
    """The unrated products, in walk order, of the shortest prefix of
    ``order`` holding n unrated products, extended over every product
    whose log scale is within ``TIE_WINDOW`` of the n-th one's."""
    taken = rank[rated]
    taken.sort()
    # taken[j] - j unrated products come before the j-th rated one, so the
    # n-th unrated product sits at order position n - 1 + (rated before it)
    nth = n - 1 + int((taken - ramp[: len(taken)]).searchsorted(n - 1, side="right"))
    end = int(tie_end[nth]) if nth < len(order) else len(order)
    keep = all_true[:end].copy()
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
    rated.  ``user`` must be an integer (``operator.index``) in range,
    ``n`` an int >= 1.

    A 2-D fill is exp(-(a_u + b_p)), so every user ranks the products it
    has not rated by one global order: ascending product log scale b_p.
    A query walks that order, kept in the completion's ``_query_plan``,
    only until it holds the n-th unrated product, and then on over every
    product whose b_p is within ``TIE_WINDOW`` of that product's.  The
    user's row is one slice of the source's entries, between the row
    starts the plan keeps; its rated products are its flat keys less
    user * P.  Only the unrated products of the prefix are filled, from
    a_u + b_p, the sum ``log_sum_at`` forms.  Unless they are excluded,
    every rated product joins them with its observed value.  One ``sort``
    over (-value, product, source) triples ranks them all, ties to the
    smaller product index.  The fills come in walk order, nearly sorted,
    so sorting them takes linear time even over a run of tied fills.

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

    A query costs O(r log r + prefix) for a row of r rated products: the
    sort of its rated products' order positions, the walk, the prefix's
    fills and the final sort, none of it growing with the number of
    products or of stored entries.  The completion pays, on its first
    query, for the plan: the O(P log P) sort of its P products and one
    O(U log nnz) search for where each of its U rows starts among its
    nnz entries."""
    if len(completed.shape) != 2:
        raise NotAMatrixError("top_n expects a 2-D completion")
    check_int("n", n, 1)
    user = operator.index(user)
    user_logs, _, source, starts, order, rank, tie_end, ramp, all_true, neg_b, least, greatest = _query_plan(completed)
    if not 0 <= user < source.shape[0]:
        raise IndexOutOfBoundsError(f"row {user} out of range [0, {source.shape[0]})")
    lo, hi = starts[user], starts[user + 1]
    rated = source._flat[lo:hi] - user * source.shape[1]
    a = float(user_logs[user])  # float sums round as numpy's; -(a + b) is exactly -b - a
    if -700.0 < a + least and a + greatest < 700.0:
        products = _walk(order, rank, tie_end, ramp, all_true, rated, n)
        values = np.exp(neg_b[products] - a)  # every sum of the row is in (-700, 700)
    else:
        unrated = all_true.copy()
        unrated[rated] = False
        products = np.flatnonzero(unrated)
        values = inverse_scale_fills(a - neg_b[products], lambda i: (user, int(products[i])))
    ranked = list(zip((-values).tolist(), products.tolist(), repeat("completed")))
    if not exclude_observed:
        ranked += zip((-source.values[lo:hi]).tolist(), rated.tolist(), repeat("observed"))
    ranked.sort()
    # ``tuple.__new__`` builds each answer without the Python frame of the
    # generated ``Prediction.__new__``; the fields are in declaration order
    return [tuple.__new__(Prediction, (user, p, -v, s)) for v, p, s in ranked[:n]]
