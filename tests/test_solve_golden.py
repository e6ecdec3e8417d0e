"""Fresh solves pinned bit for bit: each residual trace and each family's
log scales and non-empty flags, against ``golden/solves.json``.

The golden was written by this file's writer before the solver's operator
and residual pass became one projection; any change to the order of the
solve's float operations shows here.  To rewrite it on purpose:

    PYTHONPATH=src python tests/test_solve_golden.py
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from uctensor import DidNotConvergeError, SolverConfig, SparseTensor, balance
from uctensor.properties import random_sparse_tensor

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden" / "solves.json"


def _chain_tensor():
    spec = importlib.util.spec_from_file_location("bench_gen", REPO / "perfbench" / "bench_gen.py")
    bench_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_gen)
    indices, values, _, _ = bench_gen.chain_arrays(1, 80)
    return SparseTensor((80, 80), indices, values)


def _with_empty_rows(tensor, rows):
    """``tensor`` less its entries whose first coordinate is in ``rows``."""
    keep = ~np.isin(tensor.indices[:, 0], rows)
    return SparseTensor(tensor.shape, tensor.indices[keep], tensor.values[keep])


def _cases():
    """name -> (tensor, k, config).  The 2-D and 3-D patterns have empty
    first-family subtensors at the front, in the middle and at the end."""
    flat = _with_empty_rows(random_sparse_tensor(np.random.default_rng(11), (9, 7), 0.5), [0, 4, 8])
    cube = _with_empty_rows(random_sparse_tensor(np.random.default_rng(12), (5, 4, 6), 0.4), [2])
    return {
        "2d_k1": (flat, 1, SolverConfig()),
        "3d_k1": (cube, 1, SolverConfig()),
        "3d_k2": (cube, 2, SolverConfig()),
        "chain_k1_eps1e-18": (_chain_tensor(), 1, SolverConfig(epsilon=1e-18)),
        "3d_k1_capped": (cube, 1, SolverConfig(epsilon=1e-30, max_sweeps=4)),
    }


def _record(tensor, k, config):
    """The solve's trace (float ``repr``), whether it converged, and per
    family its log scales (``float.hex``) and non-empty flags."""
    try:
        model, converged = balance(tensor, k, config), True
    except DidNotConvergeError as e:
        model, converged = e.model, False
    return {
        "converged": converged,
        "residual_trace": [repr(float(r)) for r in model.residual_trace],
        "families": {
            ",".join(map(str, f)): {
                "log_scales": [float(v).hex() for v in model.scales.log[f]],
                "nonempty": "".join("1" if b else "0" for b in model.scales.nonempty[f]),
            }
            for f in model.scales.families
        },
    }


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(_cases()))
def test_a_fresh_solve_matches_the_golden_bit_for_bit(name):
    expected = _golden()[name]
    got = _record(*_cases()[name])
    assert got["converged"] == expected["converged"]
    assert got["residual_trace"] == expected["residual_trace"]
    assert got["families"] == expected["families"]


def test_the_golden_covers_every_case_and_each_kind_of_ending():
    golden = _golden()
    assert set(golden) == set(_cases())
    assert {g["converged"] for g in golden.values()} == {True, False}
    # the capped solve stops at its cap: max_sweeps traced iterations
    assert len(golden["3d_k1_capped"]["residual_trace"]) == 4


if __name__ == "__main__":
    records = {name: _record(*case) for name, case in _cases().items()}
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    for name, record in records.items():
        print(f"{name}: {len(record['residual_trace'])} iterations, converged={record['converged']}")
