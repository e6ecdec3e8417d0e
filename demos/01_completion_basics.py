"""Walkthrough: sparse positive tensors, balancing, and completion.

Run:  python demos/01_completion_basics.py
"""

import numpy as np

from uctensor import SolverConfig, balance, complete_matrix, make_tensor

cfg = SolverConfig(epsilon=1e-18, max_sweeps=5000)

# ---------------------------------------------------------------------------
# A 2x2 ratings matrix with one unobserved cell.  Zero means "unobserved",
# so every stored value must be strictly positive.
# ---------------------------------------------------------------------------
A = make_tensor((2, 2), {(0, 0): 2.0, (0, 1): 8.0, (1, 0): 4.0})
print("observed cells:", A.n_observed, "of", A.n_cells)

# Balancing learns one positive scale per row and per column such that the
# product of observed entries in every row and column becomes 1.
model = balance(A, k=1, config=cfg)
print("iterations:", model.sweeps_run, " final residual:", model.final_residual)
print("balanced entries:", np.round(model.balanced.values, 12))
# The scales are stored as logs, one array per family: rows fix dim 0,
# columns fix dim 1.
for f in model.scales.families:
    print(f"  scales of family {f}:", np.round(np.exp(model.scales.log[f]), 6))

# Completion fills the missing cell with the product of inverse scales.
completed = complete_matrix(A, cfg)
print("fill at (1,1):", completed.value_at((1, 1)))
print("closed form b*c/a =", 8.0 * 4.0 / 2.0)

# Observed cells pass through untouched, bit for bit.
assert completed.value_at((0, 0)) == 2.0

# ---------------------------------------------------------------------------
# Rank-1 structure is recovered exactly: hide a third of a multiplicative
# matrix and the fills reproduce u_i * v_j.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(0)
u = np.exp(rng.uniform(-1, 1, 6))
v = np.exp(rng.uniform(-1, 1, 5))
dense = np.outer(u, v)
mask = rng.random(dense.shape) < 0.65
mask[:, 0] = True  # keep every row anchored
mask[0, :] = True
entries = {tuple(ix): dense[tuple(ix)] for ix in np.argwhere(mask)}
completed = complete_matrix(make_tensor(dense.shape, entries), cfg)
err = np.abs(completed.to_dense() - dense) / dense
print(f"\nrank-1 recovery: hidden {int((~mask).sum())} cells, "
      f"max relative error {err.max():.2e}")
