"""Loop implementations of the two structural checkers: the reference the
bulk checkers in ``uctensor.complete`` are checked against.

``check_full_support`` asks the tensor once per offset and corner through
``observed_mask_for``; ``check_consensus_ordering`` walks the prefixes
with ``itertools.product`` and asks ``observed_mask_for`` and
``values_at`` once per prefix.  Both build their reports from plain lists,
tuples and dicts, under the field names of the package's report types,
whose arrays compare with them through ``tolist()``.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np

from uctensor import InvalidGammaError, InvalidKError
from uctensor.tensor import MAX_DENSE_CELLS


def _offset_sequence(extent: int, bound: int) -> list[int]:
    """Signed offsets 1, -1, 2, -2, ... out to min(bound, extent-1)."""
    out = []
    for a in range(1, min(bound, extent - 1) + 1):
        out.extend((a, -a))
    return out


def check_full_support(tensor: SparseTensor, max_offset=None):
    """Certify that every unobserved cell sits at the corner of a box whose
    other 2^D - 1 corners are all observed.

    For each unobserved index i we search offset vectors s (per-dimension
    signed, magnitude up to max_offset) such that every index i + delta,
    with delta_d in {0, s_d} and delta != 0, is observed.  The first such
    s (nearest-first order) is recorded as the witness.  Exponential in D
    and linear in the search volume: a verification tool, not a production
    path.
    """
    shape = tensor.shape
    ndim = tensor.ndim
    if max_offset is None:
        max_offset = [s - 1 for s in shape]
    elif np.isscalar(max_offset):
        max_offset = [int(max_offset)] * ndim
    max_offset = [max(int(b), 0) for b in max_offset]

    n_cells = tensor.n_cells
    if n_cells > MAX_DENSE_CELLS:
        raise ValueError("tensor too large for exhaustive support checking")
    unobserved_flat = np.setdiff1d(np.arange(n_cells, dtype=np.int64), tensor._flat)
    if len(unobserved_flat) == 0:
        return SimpleNamespace(fully_supported=True, violations=[], witnesses={})

    pending = np.stack(np.unravel_index(unobserved_flat, shape), axis=1)
    corners = [c for c in itertools.product((0, 1), repeat=ndim) if any(c)]
    witnesses = {}

    per_dim = [_offset_sequence(shape[d], max_offset[d]) for d in range(ndim)]
    if all(per_dim):
        for s in itertools.product(*per_dim):
            ok = np.ones(len(pending), dtype=bool)
            for mask in corners:
                delta = np.array([sd if m else 0 for sd, m in zip(s, mask)], dtype=np.int64)
                corner = pending + delta
                valid = np.all((corner >= 0) & (corner < np.asarray(shape)), axis=1)
                ok &= valid
                if not ok.any():
                    break
                observed = np.zeros(len(pending), dtype=bool)
                observed[valid] = tensor.observed_mask_for(corner[valid])
                ok &= observed
            if ok.any():
                for idx in pending[ok]:
                    witnesses[tuple(int(i) for i in idx)] = tuple(s)
                pending = pending[~ok]
                if len(pending) == 0:
                    break

    violations = [tuple(int(i) for i in idx) for idx in pending]
    return SimpleNamespace(
        fully_supported=len(violations) == 0,
        violations=violations,
        witnesses=witnesses,
    )


def check_consensus_ordering(completed: CompletedTensor, dim: int, gamma):
    """Check that completion preserves a ranking exhibited by the data.

    Prefixes with every gamma position observed and strictly increasing
    per gamma form the known set; prefixes with every gamma position
    unobserved form the unknown set (everything else is 'neither').  With
    a non-empty known set, each unknown prefix's completed values must
    strictly increase along gamma.  Ties count as violations.
    """
    shape = completed.shape
    ndim = len(shape)
    if not 0 <= dim < ndim:
        raise InvalidGammaError(f"dim {dim} out of range for shape {shape}")
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
    n_prefixes = int(np.prod([shape[d] for d in other_dims], dtype=np.int64))
    if n_prefixes * len(gamma) > MAX_DENSE_CELLS:
        raise ValueError("prefix space too large for exhaustive ordering check")

    report = SimpleNamespace(verdict="precondition_unmet", known_prefixes=[], unknown_prefixes=[],
                             n_neither=0, violations=[])
    for prefix in itertools.product(*(range(shape[d]) for d in other_dims)):
        idx = np.empty((len(gamma), ndim), dtype=np.int64)
        for pos, d in enumerate(other_dims):
            idx[:, d] = prefix[pos]
        idx[:, dim] = gamma
        observed = completed.source.observed_mask_for(idx)
        if observed.all():
            values = completed.values_at(idx)
            if np.all(np.diff(values) > 0):
                report.known_prefixes.append(prefix)
            else:
                report.n_neither += 1
        elif not observed.any():
            report.unknown_prefixes.append(prefix)
            values = completed.values_at(idx)
            bad = np.flatnonzero(~(np.diff(values) > 0))
            for b in bad:
                report.violations.append(
                    (prefix, (gamma[b], gamma[b + 1]), (float(values[b]), float(values[b + 1])))
                )
        else:
            report.n_neither += 1

    if not report.known_prefixes:
        report.verdict, report.violations = "precondition_unmet", []
    elif report.violations:
        report.verdict = "fail"
    else:
        report.verdict = "pass"
    return report
