"""Rating prediction and ranking over completed 2-D (user x product)
tensors."""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .complete import CompletedTensor, inverse_scale_fills
from .exceptions import IndexOutOfBoundsError, NotAMatrixError
from .tensor import check_int, is_int, leading_run_starts


class Prediction(NamedTuple):
    """One ranked or queried cell.  A tuple, so it also compares equal to
    the plain tuple ``(user, product, rating, source)``."""

    user: int
    product: int
    rating: float
    source: str  # "observed" | "completed"


def _id(name: str, value) -> int:
    """``value`` as an int if it ``is_int`` (not a float, not a bool)."""
    if not is_int(value):
        raise TypeError(f"{name} id must be an integer, got {value!r}")
    return int(value)


def predict_rating(completed: CompletedTensor, user: int, product: int) -> Prediction:
    """2-D query: the training value if (user, product) was observed, else
    the inverse-scale fill.  The ids must be integers (``_id``); the
    source's lookup checks the cell's bounds."""
    if len(completed.shape) != 2:
        raise NotAMatrixError("predict_rating expects a 2-D completion")
    user, product = _id("user", user), _id("product", product)
    observed = completed.source.value_at((user, product))
    if observed is not None:
        return Prediction(user, product, observed, "observed")
    return Prediction(user, product, completed.fill_at((user, product)), "completed")


# Products whose log scales differ by at most this much are walked past
# together: their fills can round equal, or out of log-scale order.
TIE_WINDOW = 1e-9
PLAN_BLOCK = 1 << 13  # entries of whole rows whose gaps are built at once


def _query_plan(completed: CompletedTensor):
    """What every top-n query of a completion shares: ``(user logs,
    starts, order, tie_end, -product logs, gaps, gaps view, least,
    greatest, first tie)``.  ``starts`` lists where each row of the
    source starts among its entries, and the entry count last.
    ``order`` is the products by ascending log scale (stable), and
    ``tie_end[i]`` the end of the run of order positions within
    ``TIE_WINDOW`` of position i's log scale.  ``gaps``, aligned with the
    entries, holds each row's rated products' order positions, sorted,
    each less its index in the row, in the smallest unsigned dtype that
    holds P; the gaps view is a read-only ``memoryview`` of it, which
    ``bisect`` searches with a Python int and without a slice.
    ``least`` and ``greatest`` are the extreme product log scales, and
    the first tie is the first order position i whose tie run goes past
    i + 1 (P if none): every two consecutive positions before it differ
    by more than ``TIE_WINDOW``.  The completion is a plain value, so
    the plan is built once, on its first query, and kept read-only on it."""
    if completed._plan is None:
        source, user_logs, logs = completed.source, completed.scales.log[(0,)], completed.scales.log[(1,)]
        n_users, n_products = source.shape
        row_starts = leading_run_starts(source, 1)
        starts = row_starts.tolist()
        order = np.argsort(logs, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        gaps = np.empty(len(source._flat), dtype=np.min_scalar_type(n_products))
        u = 0
        while u < n_users:  # PLAN_BLOCK entries of whole rows at a time, so temporaries stay small
            v = max(u + 1, bisect_right(starts, starts[u] + PLAN_BLOCK) - 1)
            lo, hi, counts = starts[u], starts[v], np.diff(row_starts[u : v + 1])
            shift = (np.arange(u, v) * n_products).repeat(counts)  # row * P keeps the rows apart
            keys = rank[source._flat[lo:hi] - shift] + shift
            keys.sort()
            keys -= shift
            gaps[lo:hi] = keys - np.arange(hi - lo) + (row_starts[u:v] - lo).repeat(counts)
            u = v
        ascending = logs[order]
        tie_end = np.searchsorted(ascending, ascending + TIE_WINDOW, side="right")
        tied = np.flatnonzero(tie_end > np.arange(1, n_products + 1))
        arrays = (order, tie_end, -logs, gaps)
        for a in arrays:
            a.setflags(write=False)
        completed._plan = (
            user_logs, starts, *arrays, memoryview(gaps), float(ascending[0]), float(ascending[-1]),
            int(tied[0]) if len(tied) else n_products,
        )
    return completed._plan


def _walk(order, tie_end, gaps, gaps_view, lo, hi, n) -> tuple[np.ndarray, int]:
    """The unrated products, in walk order, of the shortest prefix of
    ``order`` holding n unrated products, extended over every product
    whose log scale is within ``TIE_WINDOW`` of the n-th one's, and the
    prefix's end; ``gaps[lo:hi]`` is the user's row of the plan's."""
    # the n-th unrated product sits at order position n - 1 + (rated
    # before it), and the j-th rated one at gaps[j] + j
    k = bisect_right(gaps_view, n - 1, lo, hi) - lo
    nth = n - 1 + k
    end = int(tie_end[nth]) if nth < len(order) else len(order)
    if end > nth + 1:  # rated products may lie inside the tie run
        k += int((gaps[lo + k : hi] + np.arange(k, hi - lo)).searchsorted(end))
    if not k:
        return order[:end], end
    # the j-th unrated product of the prefix has the rated ones whose
    # gap is at most j before it
    ar = np.arange(end - k)
    return order[ar + gaps[lo : lo + k].searchsorted(ar, side="right")], end


def top_n(
    completed: CompletedTensor,
    user: int,
    n: int,
    exclude_observed: bool = False,
) -> list[Prediction]:
    """Products ranked by predicted rating (descending), ties broken by
    ascending product index.  Optionally drops products the user already
    rated.  ``user`` must be an integer (``_id``: a bool is refused) in
    range, ``n`` an int >= 1.

    A 2-D fill is exp(-(a_u + b_p)), so every user ranks the products it
    has not rated by one global order: ascending product log scale b_p.
    A query walks that order, kept in the completion's ``_query_plan``,
    only until it holds the n-th unrated product, and then on over every
    product whose b_p is within ``TIE_WINDOW`` of that product's.  The
    user's row is one slice of the source's entries, between the row
    starts the plan keeps, and of the plan's ``gaps``, where one
    ``bisect_right`` of n - 1 counts the rated products before the n-th
    unrated one, and one ``searchsorted`` places the prefix's unrated
    products among its rated ones (``_walk``).  Only the unrated
    products of the prefix are filled, from a_u + b_p, the sum
    ``log_sum_at`` forms.

    An exclude-observed query of an in-range row (below) whose prefix
    ends at or before the plan's first tie position + 1 returns the
    fills in walk order, and sorts nothing: two consecutive walked log
    scales differ by more than ``TIE_WINDOW``, so, as for the products
    past the prefix below, the fills strictly decrease.  Any other query
    sorts: unless they are excluded, every rated product joins the fills
    with its observed value, and one ``sort`` over (-value, product,
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
    row may leave the float range, and the walk takes all P products:
    each unrated one is filled, checked (raising ``NonFiniteValueError``
    or ``NonPositiveValueError`` naming the first such cell in walk
    order) and ranked by the same sort, near-linear on the sorted fills.

    A query costs one O(log r) binary search for a row of r rated
    products plus the prefix: the placement of its unrated products, its
    fills, and the final sort when it sorts (the include-observed branch
    adds the row's r ratings to it), none of it growing with the number
    of products or of stored entries, and no sort of the row.  The
    completion pays, on its first query, for the plan: the O(P log P)
    sort of its P products, one O(U log nnz) search for where each of
    its U rows starts among its nnz entries, and the O(nnz log r) sort
    of each row's order positions."""
    if len(completed.shape) != 2:
        raise NotAMatrixError("top_n expects a 2-D completion")
    check_int("n", n, 1)
    user = _id("user", user)
    user_logs, starts, order, tie_end, neg_b, gaps, gaps_view, least, greatest, first_tie = _query_plan(completed)
    source = completed.source
    if not 0 <= user < source.shape[0]:
        raise IndexOutOfBoundsError(f"row {user} out of range [0, {source.shape[0]})")
    lo, hi = starts[user], starts[user + 1]
    a = float(user_logs[user])  # float sums round as numpy's; -(a + b) is exactly -b - a
    in_range = -700.0 < a + least and a + greatest < 700.0  # else the walk takes every unrated product
    products, end = _walk(order, tie_end, gaps, gaps_view, lo, hi, n if in_range else len(order))
    if in_range:
        values = np.exp(neg_b[products] - a)  # every sum of the row is in (-700, 700)
        if exclude_observed and end <= first_tie + 1:  # the fills strictly decrease in walk order
            # ``tuple.__new__`` builds each answer without the Python frame
            # of the generated ``Prediction.__new__``; the fields are in
            # declaration order
            answers = zip(repeat(user), products.tolist(), values.tolist(), repeat("completed"))
            return list(map(tuple.__new__, repeat(Prediction), answers))
    else:
        values = inverse_scale_fills(a - neg_b[products], lambda i: (user, int(products[i])))
    ranked = list(zip((-values).tolist(), products.tolist(), repeat("completed")))
    if not exclude_observed:
        rated = source._flat[lo:hi] - user * source.shape[1]
        ranked += zip((-source.values[lo:hi]).tolist(), rated.tolist(), repeat("observed"))
    ranked.sort()
    return [tuple.__new__(Prediction, (user, p, -v, s)) for v, p, s in ranked[:n]]  # as above
