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
    the inverse-scale fill.  The ids must be integers (``_id``) within
    the shape, checked as ints with ``index_rows``'s error; one search
    of the cell's key, user * P + product, in the source's sorted keys
    finds its stored value, and a fill is ``inverse_scale_fills`` of
    a_u + b_p, the sum ``log_sum_at`` forms for a 2-D cell.  The rating
    is on the stored scale, shift included (``RatingsDataset.shift``);
    ``uctensor recommend`` unshifts and clamps what it prints from the
    model header."""
    if len(completed.shape) != 2:
        raise NotAMatrixError("predict_rating expects a 2-D completion")
    user, product = _id("user", user), _id("product", product)
    source = completed.source
    shape = source.shape
    for d, index in enumerate((user, product)):
        if not 0 <= index < shape[d]:
            raise IndexOutOfBoundsError(f"index out of bounds in dimension {d} for shape {shape}")
    keys, key = source._flat, user * shape[1] + product
    pos = int(keys.searchsorted(key))
    if pos < len(keys) and keys[pos] == key:
        return Prediction(user, product, float(source.values[pos]), "observed")
    logs = completed.scales.log
    log_sum = np.array([logs[(0,)][user] + logs[(1,)][product]])
    return Prediction(user, product, float(inverse_scale_fills(log_sum, lambda _: (user, product))[0]), "completed")


# Products whose log scales differ by at most this much are walked past
# together: their fills can round equal, or out of log-scale order.
TIE_WINDOW = 1e-9
PLAN_BLOCK = 1 << 13  # entries of whole rows whose gaps are built at once


def _query_plan(completed: CompletedTensor):
    """What every top-n query of a 2-D completion shares: ``(user logs,
    starts, walk, tie_end, walk logs, gaps, least, greatest, first
    tie)``.  ``walk`` is the products by ascending log scale (stable), a
    tuple of ints, and ``walk logs`` the read-only array of the negated
    product log scales in that order, -b of ``walk[i]`` at position i.
    ``tie_end[i]`` is the end of the run of walk positions within
    ``TIE_WINDOW`` of position i's log scale.  The user log scales,
    ``starts`` (where each row of the source starts among its entries,
    and the entry count last) and ``tie_end`` are tuples too, so a query
    reads them as Python numbers.  ``gaps`` is a read-only ``memoryview``
    of an array aligned with the entries (its ``obj``): each row's rated
    products' walk positions, sorted, each less its index in the row, in
    the smallest unsigned dtype that holds P, which ``bisect`` searches
    with a Python int and without a slice.  ``least`` and ``greatest``
    are the extreme product log scales, and the first tie is the first
    walk position i whose tie run goes past i + 1 (P if none): every two
    consecutive positions before it differ by more than ``TIE_WINDOW``.
    The completion is a plain value, so the plan is built once, on its
    first query, and kept on it, holding no list and no writable array."""
    if completed._plan is None:
        source, user_logs, logs = completed.source, completed.scales.log[(0,)], completed.scales.log[(1,)]
        n_users, n_products = source.shape
        row_starts = leading_run_starts(source, 1)
        starts = tuple(row_starts.tolist())
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
        walk_logs = -ascending
        for a in (walk_logs, gaps):
            a.setflags(write=False)
        completed._plan = (
            tuple(user_logs.tolist()), starts, tuple(order.tolist()), tuple(tie_end.tolist()), walk_logs,
            memoryview(gaps), float(ascending[0]), float(ascending[-1]), int(tied[0]) if len(tied) else n_products,
        )
    return completed._plan


def _without(products, values, gaps, lo, k):
    """``products`` and ``values`` without the items at the prefix's k
    rated positions, ``gaps[lo + j] + j``, each list joined from the
    slices between them.  Rated positions j, j + 1, ... that share a gap
    are adjacent, so each such run is cut at once."""
    kept_products, kept_values, start, j = [], [], 0, 0
    while j < k:
        gap = gaps[lo + j]
        kept_products += products[start : gap + j]
        kept_values += values[start : gap + j]
        j += 1
        while j < k and gaps[lo + j] == gap:
            j += 1
        start = gap + j
    kept_products += products[start:]
    kept_values += values[start:]
    return kept_products, kept_values


def top_n(
    completed: CompletedTensor,
    user: int,
    n: int,
    exclude_observed: bool = False,
) -> list[Prediction]:
    """Products ranked by predicted rating (descending), ties broken by
    ascending product index.  Optionally drops products the user already
    rated.  ``user`` must be an integer (``_id``: a bool is refused) in
    range, ``n`` an int >= 1; a completion that is not 2-D raises
    ``NotAMatrixError`` before either is checked.  Ratings come back on
    the stored scale, shift included (``RatingsDataset.shift``);
    ``uctensor recommend`` unshifts and clamps them from the model
    header.

    A 2-D fill is exp(-(a_u + b_p)), so every user ranks the products it
    has not rated by one global order: ascending product log scale b_p.
    A query walks that order, kept in the completion's ``_query_plan``,
    only until it holds the n-th unrated product, and then on over every
    product whose b_p is within ``TIE_WINDOW`` of that product's.  The
    plan keeps the order as a tuple of ints, the negated b in walk order
    as one array, the user log scales, the row starts and the tie ends
    as tuples, and ``gaps``: per row, the rated products' walk
    positions, sorted, each less its index in the row.  The user's row
    is one slice of ``gaps`` between two row starts, where one
    ``bisect_right`` of n - 1 counts the k rated products before the
    n-th unrated one, which so sits at position n - 1 + k, and the j-th
    rated one at ``gaps[j] + j``; past the n-th, the prefix's tie run
    adds the rated products it holds to k.

    Every query takes the prefix's products as a slice of the walk tuple
    and its fills as ``exp`` of one contiguous slice of the walk-ordered
    -b, less a_u (-b - a_u is exactly -(a_u + b_p)), converted to floats
    by one ``tolist``, and joins the slices between its k rated
    positions.  An exclude-observed query of an in-range row (below)
    whose prefix's last position lies before the plan's first tie
    returns them in walk order: two consecutive walked log scales differ
    by more than ``TIE_WINDOW``, so, as for the products past the prefix
    below, the fills strictly decrease.  Any other query sorts: unless
    they are excluded, the ratings at least the row's n-th largest (ties
    kept, found by one ``np.partition``) join the fills with their
    observed values, and one ``sort`` over (-value, product, source)
    triples ranks them all, ties to the smaller product index.  A rating
    below the n-th largest has n ratings ahead of it, so it cannot rank.
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
    row may leave the float range, and the prefix is all P products:
    each unrated one is filled by ``inverse_scale_fills``, its rated
    ones' log sums zeroed, so that an unrepresentable fill raises
    ``NonFiniteValueError`` or ``NonPositiveValueError`` naming the first
    such unrated cell in walk order, and ranked by the same sort,
    near-linear on the sorted fills.

    A query costs one O(log r) binary search for a row of r rated
    products plus the prefix: O(n + k) list work and one ``exp`` with no
    per-answer numpy call, and for a sorted answer the sort (the
    include-observed branch adds an O(r) partition of the row's ratings
    and at least n of them to it), none of it growing with the number of
    products or of stored entries, and no sort of the row.  The
    completion pays, on its first query, for the plan: the O(P log P)
    sort of its P products, one O(U log nnz) search for where each of
    its U rows starts among its nnz entries, and the O(nnz log r) sort
    of each row's walk positions."""
    plan = completed._plan
    if plan is None and len(completed.shape) != 2:  # a plan is only built for a 2-D completion
        raise NotAMatrixError("top_n expects a 2-D completion")
    if type(n) is not int or n < 1:  # the checks, with a fast path for a plain int
        check_int("n", n, 1)
    if type(user) is not int:
        user = _id("user", user)
    user_logs, starts, walk, tie_end, walk_logs, gaps, least, greatest, first_tie = plan or _query_plan(completed)
    if not 0 <= user < len(user_logs):
        raise IndexOutOfBoundsError(f"row {user} out of range [0, {len(user_logs)})")
    lo, hi = starts[user], starts[user + 1]
    a, n_products = user_logs[user], len(walk)  # float sums round as numpy's; -(a + b) is exactly -b - a
    in_range = -700.0 < a + least and a + greatest < 700.0  # else the walk takes every unrated product
    m = n if in_range else n_products
    # the m-th unrated product sits at walk position m - 1 + k, k the
    # rated products before it, and the j-th rated one at gaps[lo + j] + j
    k = bisect_right(gaps, m - 1, lo, hi) - lo
    nth = m - 1 + k
    end = tie_end[nth] if nth < n_products else n_products
    if end > nth + 1:  # the tie run may hold rated products past the nth
        while lo + k < hi and gaps[lo + k] + k < end:
            k += 1
    # before the first tie no tie run extends the prefix past nth + 1,
    # and the fills strictly decrease in walk order
    walk_order = exclude_observed and in_range and end <= first_tie
    if in_range:  # every sum of the row is in (-700, 700)
        values = np.exp(walk_logs[:end] - a)
    else:  # end = P; zeroed, a rated product's log sum cannot raise, so an error names an unrated cell
        log_sums = a - walk_logs
        log_sums[gaps.obj[lo:hi] + np.arange(hi - lo)] = 0.0
        values = inverse_scale_fills(log_sums, lambda i: (user, walk[i]))
    products, values = walk[:end], (values if walk_order else -values).tolist()
    if k:
        products, values = _without(products, values, gaps, lo, k)
    if walk_order:
        # ``tuple.__new__`` builds each answer without the Python frame of
        # the generated ``Prediction.__new__``; the fields are in
        # declaration order
        answers = zip(repeat(user), products, values, repeat("completed"))
        return list(map(tuple.__new__, repeat(Prediction), answers))
    ranked = list(zip(values, products, repeat("completed")))
    if not exclude_observed:
        source = completed.source
        ratings, keys = source.values[lo:hi], source._flat[lo:hi]
        if hi - lo > n:  # a rating below the n-th largest has n ratings ahead of it
            keep = ratings >= np.partition(ratings, hi - lo - n)[hi - lo - n]
            ratings, keys = ratings[keep], keys[keep]
        ranked += zip((-ratings).tolist(), (keys - user * n_products).tolist(), repeat("observed"))
    ranked.sort()
    return [tuple.__new__(Prediction, (user, p, -v, s)) for v, p, s in ranked[:n]]  # as above
