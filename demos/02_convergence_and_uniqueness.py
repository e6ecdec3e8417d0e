"""Walkthrough: convergence behaviour and why the balanced tensor is the
object that matters (scales carry gauge freedom, the balanced tensor and
its completions do not).

Run:  python demos/02_convergence_and_uniqueness.py
"""

import numpy as np

from uctensor import (
    BalanceState,
    CompletedTensor,
    LatentModel,
    ScaleSet,
    SolverConfig,
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
# Solving with the families in the opposite order (so the other family is
# eliminated exactly) lands on the same balanced tensor: the fixed point is
# order-independent.  BalanceState picks the order.
# ---------------------------------------------------------------------------
tight = SolverConfig(epsilon=1e-24, max_sweeps=20_000)
lex = balance(tensor, 1, tight)
state = BalanceState(tensor, 1, "reversed")
trace = state.solve(tight.epsilon, tight.max_sweeps)
rev = LatentModel(tensor, state.scale_set(), len(trace), trace[-1], tuple(trace))
gap = np.abs(lex.balanced.values - rev.balanced.values).max()
print(f"\nmax |balanced(lex) - balanced(reversed)| = {gap:.2e}")

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
      f"{np.abs(c_lex.to_dense() - c_rev.to_dense()).max():.2e}")
