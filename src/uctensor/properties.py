"""Seeded, self-contained verification suites for the method's guarantees.

Each suite builds synthetic instances, runs the production solve and
completion paths against an independent expectation (closed forms,
planted structure, exhaustive checks), and reports pass/fail with a
measured detail line.  The CLI ``check`` command and the acceptance
tests both run these.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .balance import SolverConfig, balance
from .complete import (
    check_consensus_ordering,
    check_full_support,
    complete,
    complete_matrix,
    unit_consistency_gap,
)
from .datasets import RatingsDataset
from .evaluate import ExperimentConfig, run_experiment
from .tensor import (
    ScaleSet, SparseTensor, make_tensor, max_balance_violation, sub_ids, subtensor_families, unravel_keys
)

# tight stopping threshold for property suites: the residual bounds the
# subtensor log-products, and a fill's error can exceed them by the factor
# by which the pattern's weakest links amplify it, so a 1e-8 value tolerance
# needs a far smaller threshold than the 1e-10 default used for dataset runs
PROPERTY_EPSILON = 1e-24
PROPERTY_SWEEPS = 20_000


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail} [{self.elapsed:.2f}s]"


def _cfg(epsilon: float = PROPERTY_EPSILON) -> SolverConfig:
    return SolverConfig(epsilon=epsilon, max_sweeps=PROPERTY_SWEEPS)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def random_sparse_tensor(rng, shape, density) -> SparseTensor:
    """Random log-normal-valued tensor on a Bernoulli(density) pattern."""
    shape = tuple(shape)
    mask = rng.random(shape) < density
    if not mask.any():
        mask[tuple(rng.integers(0, s) for s in shape)] = True
    indices = np.argwhere(mask)
    values = np.exp(rng.normal(0.0, 1.0, size=len(indices)))
    return SparseTensor(shape, indices, values)


def hide_with_full_support(rng, dense, hide_fraction):
    """Hide a random fraction of a dense positive array's cells, then
    re-observe whatever breaks full support until check_full_support,
    searching offsets up to 2, certifies the pattern."""
    dense = np.asarray(dense, dtype=np.float64)
    shape = dense.shape
    n = dense.size
    hidden = np.zeros(n, dtype=bool)
    hidden[rng.choice(n, size=int(round(hide_fraction * n)), replace=False)] = True
    while True:
        observed = ~hidden.reshape(shape)
        indices = np.argwhere(observed)
        tensor = SparseTensor(shape, indices, dense[observed])
        report = check_full_support(tensor, max_offset=2)
        if report.fully_supported:
            return tensor, hidden.reshape(shape), report
        hidden[sub_ids(report.violations, shape, tuple(range(len(shape))))] = False


def random_scale_set(rng, shape, k, low=0.1, high=10.0) -> ScaleSet:
    """Log-uniform positive scales for every family-k key of ``shape``."""
    logs = {}
    nonempty = {}
    for fixed in subtensor_families(len(shape), k):
        size = int(np.prod([shape[d] for d in fixed], dtype=np.int64))
        logs[fixed] = rng.uniform(np.log(low), np.log(high), size=size)
        nonempty[fixed] = np.ones(size, dtype=bool)
    return ScaleSet(shape, k, logs, nonempty)


def synthetic_dataset(
    seed: int, n_users: int = 60, n_products: int = 40, density: float = 0.35, noise: float = 0.0
) -> RatingsDataset:
    """Planted multiplicative ratings u_i * v_j in [1, 5]; exactly rank-1
    when noise is 0, so completion should beat the mean baselines easily."""
    rng = np.random.default_rng(seed)
    half = np.log(5.0) / 2
    u = np.exp(rng.uniform(0, half, size=n_users))
    v = np.exp(rng.uniform(0, half, size=n_products))
    mask = rng.random((n_users, n_products)) < density
    # no empty rows/columns: give every user and product one sure rating
    mask[np.arange(n_users), rng.integers(0, n_products, n_users)] = True
    mask[rng.integers(0, n_users, n_products), np.arange(n_products)] = True
    uu, pp = np.nonzero(mask)
    ratings = u[uu] * v[pp]
    if noise > 0:
        ratings = np.clip(ratings * np.exp(rng.normal(0, noise, len(ratings))), 1.0, 5.0)
    return RatingsDataset(
        name="synthetic",
        users={i: i for i in range(n_users)},
        products={j: j for j in range(n_products)},
        user_index=uu.astype(np.int64),
        product_index=pp.astype(np.int64),
        rating_values=ratings.astype(np.float64),
        shift=0.0,
        native_range=(1.0, 5.0),
        key_order=np.arange(len(uu)),  # np.nonzero is row-major
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite(name):
    """A suite returning ``(passed, detail)`` becomes one returning the
    timed ``CheckResult`` named ``name``."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            passed, detail = fn(*args, **kwargs)
            return CheckResult(name, bool(passed), detail, time.perf_counter() - t0)
        return run
    return wrap


@_suite("closed-form 2x2 oracle")
def oracle_2x2(seed: int = 0, n: int = 1000):
    """Completing [[a, b], [c, .]] must return b*c/a (closed form from the
    balance constraints) within 1e-8 relative."""
    rng = np.random.default_rng(seed)
    triples = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=(n, 3)))
    cfg = _cfg(1e-18)
    worst = 0.0
    for a, b, c in triples:
        completed = complete_matrix(make_tensor((2, 2), {(0, 0): a, (0, 1): b, (1, 0): c}), cfg)
        expected = b * c / a
        worst = max(worst, abs(completed.value_at((1, 1)) - expected) / expected)
    return worst < 1e-8, f"max relative error {worst:.2e} over {n} random triples (tolerance 1e-8)"


@_suite("rank-1 exact recovery")
def rank1_recovery(seed: int = 0):
    """Hidden entries of a positive rank-1 matrix (full support preserved,
    no empty row/column) must be recovered within 1e-6 relative."""
    rng = np.random.default_rng(seed)
    shape, hide_fraction = (50, 40), 0.2
    u = np.exp(rng.uniform(-1.0, 1.0, size=shape[0]))
    v = np.exp(rng.uniform(-1.0, 1.0, size=shape[1]))
    dense = np.outer(u, v)
    tensor, hidden, _ = hide_with_full_support(rng, dense, hide_fraction)
    row_ok = np.all((~hidden).sum(axis=1) > 0)
    col_ok = np.all((~hidden).sum(axis=0) > 0)
    completed = complete_matrix(tensor, _cfg())
    errs = np.abs(completed.values_at(np.argwhere(hidden)) - dense[hidden]) / dense[hidden]
    worst = float(errs.max()) if len(errs) else 0.0
    return (row_ok and col_ok and worst <= 1e-6,
            f"max relative error {worst:.2e} over {int(hidden.sum())} hidden cells (tolerance 1e-6)")


@_suite("balance constraint satisfaction")
def constraint_satisfaction(seed: int = 0):
    """After balancing at the solver's default epsilon, every non-empty
    subtensor's product of observed entries must be within 1e-4 of 1."""
    rng = np.random.default_rng(seed)
    cases = [((100, 80), 0.10, (1,)), ((20, 15, 10), 0.30, (1, 2))]
    worst = 0.0
    cfg = SolverConfig(max_sweeps=PROPERTY_SWEEPS)
    for shape, density, ks in cases:
        tensor = random_sparse_tensor(rng, shape, density)
        for k in ks:
            model = balance(tensor, k, cfg)
            worst = max(worst, max_balance_violation(model.balanced, k))
    return (worst <= 1e-4,
            f"max |subtensor product - 1| = {worst:.2e} at epsilon {cfg.epsilon:.0e} (tolerance 1e-4)")


@_suite("uniqueness under elimination order")
def uniqueness(seed: int = 0):
    """Eliminating another family exactly must land on the same balanced
    tensor, and on certified fully-supported inputs also the same
    completion (1e-8).  The solve eliminates the first family in
    canonical order, so solving the axis-reversed tensor eliminates the
    last; ``.T`` maps its dense results back."""
    rng = np.random.default_rng(seed)
    worst_bal = 0.0
    worst_fill = 0.0
    cases = [((12, 9), 0.30, 1), ((6, 5, 4), 0.25, 1), ((6, 5, 4), 0.25, 2)]
    for shape, hide_fraction, k in cases:
        for _ in range(5):
            dense = np.exp(rng.normal(0, 1, size=shape))
            tensor, _, _ = hide_with_full_support(rng, dense, hide_fraction)
            flipped = SparseTensor(shape[::-1], tensor.indices[:, ::-1], tensor.values)
            c_lex = complete(tensor, k, _cfg())
            c_rev = complete(flipped, k, _cfg())
            bal_gap = c_lex.model.balanced.to_dense() - c_rev.model.balanced.to_dense().T
            worst_bal = max(worst_bal, float(np.abs(bal_gap).max()))
            worst_fill = max(
                worst_fill, float(np.abs(c_lex.to_dense() - c_rev.to_dense().T).max())
            )
    return (worst_bal < 1e-8 and worst_fill < 1e-8,
            f"max balanced diff {worst_bal:.2e}, max completion diff {worst_fill:.2e} (tolerance 1e-8)")


@_suite("unit consistency")
def unit_consistency(seed: int = 0):
    """Scaling then completing must equal completing then scaling:
    gap < 1e-8 over random (tensor, scale set) pairs for D in {2, 3} and
    every valid k.

    Fills are only pinned down where completion is unique, so the random
    tensors are certified fully supported before testing (on patterns with
    leftover gauge freedom the two sides can differ honestly).  One
    denser k = D-1 case without the certification rides along: there the
    per-axis slice scales cancel at every cell."""
    rng = np.random.default_rng(seed)
    supported_cases = [((8, 6), 0.30, 1), ((6, 5, 4), 0.30, 1), ((6, 5, 4), 0.30, 2)]
    worst = 0.0
    n_pairs = 100
    for i in range(n_pairs - 1):
        shape, hide_fraction, k = supported_cases[i % len(supported_cases)]
        dense = np.exp(rng.normal(0, 1, size=shape))
        tensor, _, _ = hide_with_full_support(rng, dense, hide_fraction)
        z = random_scale_set(rng, shape, k)
        worst = max(worst, unit_consistency_gap(tensor, z, _cfg()))
    dense_case = random_sparse_tensor(rng, (20, 15, 10), 0.30)
    z = random_scale_set(rng, (20, 15, 10), 2)
    worst = max(worst, unit_consistency_gap(dense_case, z, _cfg()))
    return worst < 1e-8, f"max scale-commutation gap {worst:.2e} over {n_pairs} pairs (tolerance 1e-8)"


def _ordered(rng, shape, dim):
    """A tensor whose observed prefixes (the indices of every dimension
    but ``dim``) each rise, up to 10% noise, along one random order gamma
    of dimension ``dim``; every other prefix is wholly unobserved.
    Returns the tensor, gamma and the count of unobserved prefixes."""
    gamma = rng.permutation(shape[dim])
    sizes = [s for d, s in enumerate(shape) if d != dim]
    n_prefixes = int(np.prod(sizes))
    n_obs = int(rng.integers(2, n_prefixes))
    chosen = rng.choice(n_prefixes, size=n_obs, replace=False)
    step = np.cumprod(rng.uniform(1.3, 2.0, size=shape[dim]))
    # per chosen prefix, in gamma order: base * step * noise
    values = [np.exp(rng.normal(0, 0.5)) * step * np.exp(rng.uniform(-0.1, 0.1, size=shape[dim])) for _ in chosen]
    prefixes = np.repeat(unravel_keys(chosen, sizes), shape[dim], axis=0)
    cells = np.insert(prefixes, dim, np.tile(gamma, n_obs), axis=1)
    return SparseTensor(shape, cells, np.concatenate(values)), tuple(gamma.tolist()), n_prefixes - n_obs


@_suite("consensus ordering")
def consensus_ordering(seed: int = 0):
    """On constructions where every fully-observed prefix follows gamma,
    every fully-unobserved prefix must follow gamma after completion with
    k = D-1 (orderings over columns in 2-D and over each dimension in 3-D)."""
    rng = np.random.default_rng(seed)
    cfg = _cfg(1e-14)
    cases = (((10, 6), 1), ((5, 4, 6), 0), ((5, 4, 6), 1), ((5, 4, 6), 2))
    n_per_case = 100
    checked = 0
    failures = 0
    for shape, dim in cases:
        for _ in range(n_per_case):
            tensor, gamma, n_unknown = _ordered(rng, shape, dim)
            report = check_consensus_ordering(complete(tensor, len(shape) - 1, cfg), dim, gamma)
            checked += len(report.unknown_prefixes)
            if not (report.passed and len(report.unknown_prefixes) == n_unknown):
                failures += 1
    return (failures == 0, f"{failures} failing constructions; {checked} fully-unobserved prefixes "
            f"checked across {len(cases) * n_per_case} constructions")


@_suite("full-support detection")
def support_detection(seed: int = 0):
    """Exhaustive corner-box search on hand-sized cases."""
    three = check_full_support(make_tensor((2, 2), {(0, 0): 2.0, (0, 1): 8.0, (1, 0): 4.0}))
    diag = check_full_support(make_tensor((2, 2), {(0, 0): 1.0, (1, 1): 1.0}))
    full = check_full_support(make_tensor((2, 2), {(i, j): 1.0 for i in range(2) for j in range(2)}))
    ok = (three.fully_supported and three.witnesses.tolist() == [[[1, 1], [-1, -1]]]
          and not diag.fully_supported and diag.violations.tolist() == [[0, 1], [1, 0]]
          and full.fully_supported)
    return ok, (f"3-of-4 supported={three.fully_supported}; diagonal supported={diag.fully_supported}; "
                f"fully-observed supported={full.fully_supported}")


@_suite("determinism")
def determinism(seed: int = 0):
    """Same seed, same inputs: bit-identical balanced values and
    byte-identical canonical evaluation reports."""
    rng1 = np.random.default_rng(seed)
    rng2 = np.random.default_rng(seed)
    t1 = random_sparse_tensor(rng1, (15, 12), 0.3)
    t2 = random_sparse_tensor(rng2, (15, 12), 0.3)
    m1 = balance(t1, 1, _cfg())
    m2 = balance(t2, 1, _cfg())
    bits_equal = np.array_equal(m1.balanced.values, m2.balanced.values)

    ds = synthetic_dataset(seed + 1)
    cfg = ExperimentConfig(n_folds=3, seed=seed)
    r1 = run_experiment(ds, "2d", cfg).to_json(include_timing=False)
    r2 = run_experiment(ds, "2d", cfg).to_json(include_timing=False)
    reports_equal = r1 == r2
    return (bits_equal and reports_equal,
            f"balanced values bit-identical={bits_equal}, canonical reports identical={reports_equal}")


def run_all(seed: int = 0) -> list:
    """Every suite, in a stable order."""
    return [
        oracle_2x2(seed),
        rank1_recovery(seed),
        constraint_satisfaction(seed),
        uniqueness(seed),
        unit_consistency(seed),
        consensus_ordering(seed),
        support_detection(seed),
        determinism(seed),
    ]
