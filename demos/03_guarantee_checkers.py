"""Walkthrough: the three checkers that say when a completion can be
trusted - full support, unit consistency, and consensus ordering.

Run:  python demos/03_guarantee_checkers.py
"""

import numpy as np

from uctensor import (
    SolverConfig,
    check_consensus_ordering,
    check_full_support,
    complete_matrix,
    make_tensor,
    unit_consistency_gap,
)
from uctensor.properties import hide_with_full_support, random_scale_set

cfg = SolverConfig(epsilon=1e-24, max_sweeps=20_000)
rng = np.random.default_rng(1)

# ---------------------------------------------------------------------------
# Full support: every unobserved cell must sit at the corner of a box whose
# other corners are all observed.  That is the structural condition under
# which the completion is uniquely determined.
# ---------------------------------------------------------------------------
three = make_tensor((2, 2), {(0, 0): 2.0, (0, 1): 8.0, (1, 0): 4.0})
report = check_full_support(three)
(cell, offset), = report.witnesses.tolist()  # one (cell, offset) row per witnessed cell
print("3-of-4 matrix fully supported:", report.fully_supported,
      f"witness for {cell}: offset {offset}")

diagonal = make_tensor((2, 2), {(0, 0): 1.0, (1, 1): 1.0})
report = check_full_support(diagonal)
print("diagonal-only matrix fully supported:", report.fully_supported,
      "violations:", report.violations.tolist())

# ---------------------------------------------------------------------------
# Unit consistency: rescaling the data rescales the completion identically.
# A recommender should not care what units users secretly rate in.
# ---------------------------------------------------------------------------
dense = np.exp(rng.normal(0, 1, (8, 6)))
tensor, _, support = hide_with_full_support(rng, dense, 0.3)
assert support.fully_supported
scales = random_scale_set(rng, tensor.shape, 1)  # arbitrary positive units
gap = unit_consistency_gap(tensor, scales, cfg)
print(f"\nscale-then-complete vs complete-then-scale gap: {gap:.2e}")

# ---------------------------------------------------------------------------
# Consensus ordering: if every fully observed row ranks the columns the
# same way, completed rows inherit that ranking.
# ---------------------------------------------------------------------------
entries = {}
for row in range(4):  # four observed rows, all preferring col2 > col0 > col1
    base = float(np.exp(rng.normal(0, 0.3)))
    entries.update({(row, 1): base, (row, 0): 2.1 * base, (row, 2): 4.2 * base})
tensor = make_tensor((6, 3), entries)  # rows 4 and 5 are fully unobserved
completed = complete_matrix(tensor, cfg)
report = check_consensus_ordering(completed, 1, (1, 0, 2))
print("\nconsensus ordering verdict:", report.verdict)
print("known prefixes:", report.known_prefixes.tolist(),
      " unknown prefixes:", report.unknown_prefixes.tolist(),
      " violations:", len(report.violations))
for row in (4, 5):
    fills = [completed.value_at((row, c)) for c in range(3)]
    print(f"  completed row {row}:", np.round(fills, 4), "- ranks cols as 1 < 0 < 2")
