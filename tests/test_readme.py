"""The README's claims ledger names tests; each must exist, so that a
rename cannot orphan a row."""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
LEDGER = "## What the paper claims and what this repo shows"


def ledger_test_ids():
    readme = (REPO / "README.md").read_text()
    section = readme[readme.index(LEDGER):]
    section = section[: section.find("\n## ", len(LEDGER))]
    return re.findall(r"`((?:tests|perfbench)/[\w/]+\.py(?:::\w+)+)`", section)


def defined_names(path):
    """``name`` for each top-level test function or class of a test file,
    and ``Class::method`` for each method of a class."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{m.name}" for m in node.body if isinstance(m, ast.FunctionDef))
    return names


def test_every_test_the_claims_ledger_names_exists():
    ids = ledger_test_ids()
    assert len(ids) >= 11, ids  # the rows name at least this many
    for test_id in ids:
        path, name = test_id.split("::", 1)
        assert (REPO / path).is_file(), f"{test_id}: no file {path}"
        assert name in defined_names(REPO / path), f"{test_id}: {path} defines no {name}"
