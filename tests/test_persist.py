import io
import json
import re
import zipfile
from pathlib import Path

import numpy as np
import pytest

from uctensor import (
    InvalidKError,
    NonFiniteValueError,
    ParseError,
    ShapeMismatchError,
    UctensorError,
    balance,
    load_model,
    make_tensor,
    max_balance_violation,
    save_model,
    top_n,
)
from uctensor.cli import main
from uctensor.complete import CompletedTensor
from uctensor.properties import random_sparse_tensor

from conftest import TIGHT

GOLDEN = Path(__file__).parent / "golden"
# version-2 model files written by save_model before version 3
GOLDEN_V2 = ["model_v2_2d.json", "model_v2_3d.json"]


def v2_document(model, *, shift=0.0, native_range=None, users=None, products=None, config=None):
    """The version-2 JSON document of a model, field for field as
    save_model wrote it before version 3."""
    scales = model.scales
    return {
        "format": "uctensor-model",
        "version": 2,
        "shape": list(model.shape),
        "k": model.k,
        "shift": shift,
        "native_range": list(native_range) if native_range is not None else None,
        "sweeps_run": model.sweeps_run,
        "final_residual": model.final_residual,
        "scales": [
            {
                "fixed_dims": list(fixed),
                "log_scale": scales.log[fixed].tolist(),
                "nonempty": scales.nonempty[fixed].astype(int).tolist(),
            }
            for fixed in scales.families
        ],
        "entries": {
            "indices": model.source.indices.tolist(),
            "values": model.source.values.tolist(),
        },
        "users": [[raw, idx] for raw, idx in users.items()] if users is not None else None,
        "products": [[raw, idx] for raw, idx in products.items()] if products is not None else None,
        "config": config or {},
    }


def metadata(doc):
    """The save_model keyword arguments that reproduce a loaded doc."""
    return {key: doc[key] for key in ("shift", "native_range", "users", "products", "config")}


def all_cells(shape):
    return np.array(list(np.ndindex(*shape)))


def test_round_trip_preserves_queries(tmp_path, rng):
    tensor = random_sparse_tensor(rng, (9, 7), 0.4)
    model = balance(tensor, 1, TIGHT)
    path = tmp_path / "model.json"
    save_model(path, model, shift=2.5, native_range=(1.0, 5.0),
               users={10: 0, 11: 1}, products={"a": 0}, config={"epsilon": 1e-24})

    loaded, doc = load_model(path)
    assert doc["shift"] == 2.5
    assert doc["users"] == {10: 0, 11: 1} and doc["products"] == {"a": 0}
    original = CompletedTensor(model)
    grid = all_cells((9, 7))
    np.testing.assert_array_equal(loaded.values_at(grid), original.values_at(grid))
    np.testing.assert_array_equal(loaded.model.balanced.values, model.balanced.values)


def test_format_is_told_by_content_not_by_file_name(tmp_path, rng):
    model = balance(random_sparse_tensor(rng, (6, 5), 0.5), 1, TIGHT)
    binary, text = tmp_path / "model.txt", tmp_path / "model.npz"
    save_model(binary, model)
    text.write_text(json.dumps(v2_document(model)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz", "model.txt"]
    assert binary.read_bytes()[:4] == b"PK\x03\x04"
    grid = all_cells((6, 5))
    np.testing.assert_array_equal(load_model(binary)[0].values_at(grid),
                                  load_model(text)[0].values_at(grid))


def test_rejects_foreign_documents(tmp_path):
    path = tmp_path / "not_a_model.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ValueError, match="not a"):
        load_model(path)
    for version in (3, 99):
        path.write_text(json.dumps({"format": "uctensor-model", "version": version}))
        with pytest.raises(ValueError, match="version"):
            load_model(path)


def test_saved_file_stores_no_derived_values(tmp_path, rng):
    path = tmp_path / "model.json"
    save_model(path, balance(random_sparse_tensor(rng, (6, 5), 0.5), 1, TIGHT),
               users={10: 0}, products={"a": 0})
    with np.load(path, allow_pickle=False) as z:
        assert sorted(z.files) == sorted([
            "header", "keys", "values", "log_0", "log_1",
            "users_raw", "users_index", "products_raw", "products_index",
        ])
        header = json.loads(z["header"].tobytes())
    assert header["version"] == 3
    assert set(header) == {"format", "version", "shape", "k", "shift", "native_range",
                           "sweeps_run", "final_residual", "config"}


@pytest.mark.parametrize("users", [{1: 0, "1": 1}, {True: 0}, {2**63: 0}, {(1, 2): 0}, {None: 0}])
def test_raw_ids_of_one_python_type_only(tmp_path, rng, users):
    path = tmp_path / "model.json"
    with pytest.raises(UctensorError, match="users raw ids"):
        save_model(path, balance(random_sparse_tensor(rng, (6, 5), 0.5), 1, TIGHT), users=users)
    assert not path.exists()


@pytest.mark.parametrize("name", GOLDEN_V2)
def test_test_side_v2_writer_reproduces_the_golden_files(name):
    text = (GOLDEN / name).read_text()
    loaded, doc = load_model(GOLDEN / name)
    assert json.dumps(v2_document(loaded.model, **metadata(doc))) == text


def test_golden_v2_metadata():
    _, doc = load_model(GOLDEN / "model_v2_2d.json")
    assert doc == {
        "format": "uctensor-model", "version": 2, "shape": [9, 7], "k": 1,
        "shift": 2.5, "native_range": [1.0, 5.0],
        "sweeps_run": 6, "final_residual": 6.039716305598372e-31,
        "users": {101 + i: i for i in range(9)},
        "products": {f"m{j + 1}": j for j in range(7)},
        "config": {"epsilon": 1e-24, "k": 1},
    }
    _, doc = load_model(GOLDEN / "model_v2_3d.json")
    assert (doc["shape"], doc["k"], doc["users"], doc["products"]) == ([3, 2, 4], 2, None, None)


@pytest.mark.parametrize("name", GOLDEN_V2)
def test_golden_v2_files_match_their_v3_round_trip(tmp_path, name):
    old, old_doc = load_model(GOLDEN / name)
    path = tmp_path / "model.json"
    save_model(path, old.model, **metadata(old_doc))
    new, new_doc = load_model(path)

    assert new_doc.pop("version") == 3 and old_doc.pop("version") == 2
    assert new_doc == old_doc
    grid = all_cells(old.shape)
    np.testing.assert_array_equal(new.values_at(grid), old.values_at(grid))
    for fixed in old.scales.families:
        np.testing.assert_array_equal(new.scales.log[fixed], old.scales.log[fixed])
        np.testing.assert_array_equal(new.scales.nonempty[fixed], old.scales.nonempty[fixed])
    if len(old.shape) == 2:
        for user in range(old.shape[0]):
            for exclude in (False, True):
                assert top_n(new, user, old.shape[1], exclude) == top_n(old, user, old.shape[1], exclude)


def test_entries_out_of_order_still_load(tmp_path, rng):
    model = balance(random_sparse_tensor(rng, (6, 5), 0.5), 1, TIGHT)
    doc = v2_document(model)
    for field in ("indices", "values"):
        doc["entries"][field] = doc["entries"][field][::-1]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    loaded, _ = load_model(path)
    np.testing.assert_array_equal(loaded.source.indices, model.source.indices)
    for index, value in zip(model.source.indices.tolist(), model.source.values.tolist()):
        assert loaded.source.is_observed(index) and loaded.value_at(index) == value


def test_version_1_documents_still_load(tmp_path):
    v2 = GOLDEN / "model_v2_2d.json"
    new, _ = load_model(v2)
    doc = json.loads(v2.read_text())
    doc["version"] = 1
    doc["entries"]["balanced_values"] = new.model.balanced.values.tolist()
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps(doc))

    old, _ = load_model(v1)
    grid = all_cells((9, 7))
    np.testing.assert_array_equal(old.values_at(grid), new.values_at(grid))
    for user in range(9):
        for exclude in (False, True):
            assert top_n(old, user, 7, exclude) == top_n(new, user, 7, exclude)


def test_nonempty_flags_must_agree_with_the_entries(tmp_path, three_entry_2x2):
    path = tmp_path / "model.json"
    doc = v2_document(balance(three_entry_2x2, 1, TIGHT))
    doc["scales"][0]["nonempty"][0] = 0  # row 0 holds (0, 0) and (0, 1)
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=re.escape(f"{path}: non-empty flag of family (0,) "
                                                   "subtensor (0,)") + ".* holds entries"):
        load_model(path)

    doc = json.loads((GOLDEN / "model_v2_2d.json").read_text())
    doc["scales"][1]["nonempty"][6] = 1  # no entry lies in column 6
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=r"family \(1,\) subtensor \(6,\) .* holds none"):
        load_model(path)


def test_loaded_model_is_balanced(tmp_path, three_entry_2x2):
    path = tmp_path / "model.json"
    save_model(path, balance(three_entry_2x2, 1, TIGHT))
    loaded, _ = load_model(path)
    assert max_balance_violation(loaded.model.balanced, 1) < 1e-12


def _drop_last(block, field):
    block[field] = block[field][:-1]


# each case corrupts the version-2 document of a 3x4 model (or replaces its text)
CORRUPTIONS = {
    "row block one short": (lambda doc: _drop_last(doc["scales"][0], "log_scale"), ShapeMismatchError),
    "row block one long": (lambda doc: doc["scales"][0]["log_scale"].append(0.0), ShapeMismatchError),
    "nan log scale": (lambda doc: doc["scales"][0]["log_scale"].__setitem__(0, float("nan")),
                      NonFiniteValueError),
    "missing family": (lambda doc: doc["scales"].pop(1), ShapeMismatchError),
    "nonempty one short": (lambda doc: _drop_last(doc["scales"][1], "nonempty"), ShapeMismatchError),
    "foreign family": (lambda doc: doc["scales"][1].__setitem__("fixed_dims", [0, 1]), InvalidKError),
    "missing entries": (lambda doc: doc.pop("entries"), ParseError),
    "not JSON": (lambda doc: "uctensor-model, version 2", ParseError),
    "not an object": (lambda doc: "[1, 2]", ParseError),
}


def model_3x4():
    return balance(make_tensor((3, 4), {(i, j): 1.0 + i + 2 * j for i in range(3) for j in range(4)
                                        if (i, j) != (2, 3)}), 1, TIGHT)


def write_corrupted(path, corrupt):
    doc = v2_document(model_3x4())
    text = corrupt(doc)
    path.write_text(text if isinstance(text, str) else json.dumps(doc))


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_malformed_documents_raise_a_named_error(tmp_path, case):
    corrupt, error = CORRUPTIONS[case]
    path = tmp_path / "model.json"
    write_corrupted(path, corrupt)
    with pytest.raises(error, match=re.escape(str(path))) as info:
        load_model(path)
    assert isinstance(info.value, UctensorError) and isinstance(info.value, ValueError)


UNPICKLED = []


def _record_unpickling():
    UNPICKLED.append(True)


class PicklesACall:
    """Unpickling it calls _record_unpickling."""

    def __reduce__(self):
        return _record_unpickling, ()


def npz_bytes(members):
    buf = io.BytesIO()
    np.savez(buf, **members)
    return buf.getvalue()


def not_a_model(members):
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("notes.txt", "a zip archive, but not a model")
    return buf.getvalue()


def header_with(members, **fields):
    header = json.loads(members["header"].tobytes())
    header.update(fields)
    members["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)


def swap_first_keys(members):
    keys = members["keys"].copy()
    keys[[0, 1]] = keys[[1, 0]]
    members["keys"] = keys


# each case corrupts the members of the version-3 file of a 3x4 model: in
# place, or by returning the bytes to write instead
V3_CORRUPTIONS = {
    "truncated file": (lambda m: npz_bytes(m)[: len(npz_bytes(m)) // 2], ParseError),
    "zip that is not a model": (not_a_model, ParseError),
    "missing member": (lambda m: m.pop("values"), ParseError),
    "log array one short": (lambda m: m.__setitem__("log_0", m["log_0"][:-1]), ShapeMismatchError),
    "nan value": (lambda m: m["values"].__setitem__(0, np.nan), NonFiniteValueError),
    "values one short of the keys": (lambda m: m.__setitem__("values", m["values"][:-1]), ParseError),
    "flat key out of range": (lambda m: m["keys"].__setitem__(-1, 12), ParseError),
    "duplicate flat keys": (lambda m: m["keys"].__setitem__(1, m["keys"][0]), ParseError),
    "unsorted flat keys": (swap_first_keys, ParseError),
    "header not JSON": (lambda m: m.__setitem__("header", np.frombuffer(b"\xff{", np.uint8)), ParseError),
    "unknown version": (lambda m: header_with(m, version=4), ParseError),
    "object-dtype member": (lambda m: m.__setitem__("values", np.array([PicklesACall()] * 11)),
                            ParseError),
}


def write_v3_corrupted(path, corrupt):
    save_model(path, model_3x4(), users={7: 0, 8: 1, 9: 2})
    with np.load(path, allow_pickle=False) as z:
        members = {name: z[name].copy() for name in z.files}
    data = corrupt(members)
    path.write_bytes(data if isinstance(data, bytes) else npz_bytes(members))


@pytest.mark.parametrize("case", V3_CORRUPTIONS)
def test_malformed_binary_files_raise_a_named_error(tmp_path, case):
    corrupt, error = V3_CORRUPTIONS[case]
    path = tmp_path / "model.json"
    write_v3_corrupted(path, corrupt)
    del UNPICKLED[:]
    with pytest.raises(error, match=re.escape(str(path))) as info:
        load_model(path)
    assert isinstance(info.value, UctensorError) and isinstance(info.value, ValueError)
    assert not UNPICKLED


def test_object_members_are_refused_unread(tmp_path):
    path = tmp_path / "model.json"
    write_v3_corrupted(path, V3_CORRUPTIONS["object-dtype member"][0])
    del UNPICKLED[:]
    with np.load(path, allow_pickle=True) as z:
        z["values"]
    assert UNPICKLED  # the member does unpickle a call when allowed to
    del UNPICKLED[:]
    with pytest.raises(ParseError, match="allow_pickle"):
        load_model(path)
    assert not UNPICKLED


@pytest.mark.parametrize("case", ["not JSON", "row block one short"])
def test_cli_reports_a_malformed_model(tmp_path, capsys, case):
    path = tmp_path / "model.json"
    write_corrupted(path, CORRUPTIONS[case][0])
    assert main(["recommend", "--model", str(path), "--user", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["truncated file", "object-dtype member"])
def test_cli_reports_a_malformed_binary_model(tmp_path, capsys, case):
    path = tmp_path / "model.json"
    write_v3_corrupted(path, V3_CORRUPTIONS[case][0])
    assert main(["recommend", "--model", str(path), "--user", "7"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err
