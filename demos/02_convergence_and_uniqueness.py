"""Walkthrough: convergence behaviour and why the balanced tensor is the
object that matters (scales carry gauge freedom, the balanced tensor and
its completions do not).

Run:  python demos/02_convergence_and_uniqueness.py
"""

import numpy as np

from uctensor import (
    CompletedTensor,
    ScaleSet,
    SolverConfig,
    SparseTensor,
    balance,
    complete,
    scale_apply,
)
from uctensor.properties import random_sparse_tensor

rng = np.random.default_rng(7)
tensor = random_sparse_tensor(rng, (40, 30), 0.15)
print(f"tensor {tensor.shape}, {tensor.n_observed} observed "
      f"({tensor.density:.0%} dense)")

# ---------------------------------------------------------------------------
# The residual after each conjugate-gradient iteration (the largest squared
# subtensor log-product, recomputed from the scales at the end) falls until
# it is below epsilon, the only knob the method has.
# ---------------------------------------------------------------------------
model = balance(tensor, 1, SolverConfig(epsilon=1e-10))
print("\nresidual trace:")
for i, v in enumerate(model.residual_trace, start=1):
    print(f"  iteration {i:2d}  residual = {v:.3e}")

# ---------------------------------------------------------------------------
# The solve eliminates the first family (here the rows) exactly.  Solving
# the axis-reversed tensor eliminates the columns instead, and lands on the
# same balanced tensor: the fixed point does not depend on the route.  .T
# reverses every axis of a dense result, mapping it back.
# ---------------------------------------------------------------------------
tight = SolverConfig(epsilon=1e-24, max_sweeps=20_000)
lex = balance(tensor, 1, tight)
rev = balance(SparseTensor(tensor.shape[::-1], tensor.indices[:, ::-1], tensor.values), 1, tight)
gap = np.abs(lex.balanced.to_dense() - rev.balanced.to_dense().T).max()
print(f"\nmax |balanced - balanced(axis-reversed).T| = {gap:.2e}")

# ---------------------------------------------------------------------------
# Gauge freedom: multiplying row scales by t and column scales by 1/t
# changes the scale set but reproduces the same balanced tensor.
# ---------------------------------------------------------------------------
t = 2.5
twisted = {(0,): lex.scales.log[(0,)] + np.log(t), (1,): lex.scales.log[(1,)] - np.log(t)}
z2 = ScaleSet(tensor.shape, 1, twisted, lex.scales.nonempty)
a = scale_apply(tensor, lex.scales)
b = scale_apply(tensor, z2)
print("max |A*Z - A*(Z.T)| on observed cells:",
      f"{np.abs(a.values - b.values).max():.2e}")

# Completions agree too: for row/column balancing on a connected pattern
# every fill is pinned down, whatever gauge the scales carry.
c_lex = complete(tensor, 1, tight)
c_rev = CompletedTensor(rev)
print("max completion difference:",
      f"{np.abs(c_lex.to_dense() - c_rev.to_dense().T).max():.2e}")
