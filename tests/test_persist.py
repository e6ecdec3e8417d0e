import io
import json
import pickle
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
from uctensor.persist import MAGIC
from uctensor.properties import random_sparse_tensor

from conftest import TIGHT

GOLDEN = Path(__file__).parent / "golden"
# version-2 model files written by save_model before version 3
GOLDEN_V2 = ["model_v2_2d.json", "model_v2_3d.json"]
# the 2-D version-2 model as save_model wrote it in version 3, and writes it in version 4
GOLDEN_V3 = GOLDEN / "model_v3_2d.npz"
GOLDEN_V4 = GOLDEN / "model_v4_2d.bin"


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


def v3_members(model, *, shift=0.0, native_range=None, users=None, products=None, config=None):
    """The (writable) members of the version-3 ``.npz`` file of a model,
    array for array as save_model wrote them before version 4."""
    header = {
        "format": "uctensor-model",
        "version": 3,
        "shape": list(model.shape),
        "k": model.k,
        "shift": shift,
        "native_range": list(native_range) if native_range is not None else None,
        "sweeps_run": model.sweeps_run,
        "final_residual": model.final_residual,
        "config": config or {},
    }
    members = {
        "header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8).copy(),
        "keys": model.source._flat.copy(),
        "values": model.source.values.copy(),
    }
    for i, fixed in enumerate(model.scales.families):
        members[f"log_{i}"] = model.scales.log[fixed].copy()
    for name, vocab in (("users", users), ("products", products)):
        if vocab is not None:
            members[f"{name}_raw"] = np.asarray(list(vocab)) if vocab else np.empty(0, np.int64)
            members[f"{name}_index"] = np.asarray(list(vocab.values()), dtype=np.int64)
    return members


def v4_frame(text, body):
    """A version-4 file of a header's text and the members' bytes."""
    text += b" " * (-len(text) % 8)
    return MAGIC + len(text).to_bytes(8, "little") + text + body


def v4_parts(data):
    """The header (a dict) and the members' bytes of a version-4 file."""
    size = int.from_bytes(data[8:16], "little")
    return json.loads(data[16:16 + size]), data[16 + size:]


def v4_bytes(header, members):
    """The version-4 file of header fields and members, laid out as
    save_model lays them out."""
    table, body = [], b""
    for name, a in members.items():
        table.append([name, a.dtype.str, len(a), len(body)])
        body += a.tobytes() + bytes(-a.nbytes % 8)
    return v4_frame(json.dumps(dict(header, members=table)).encode(), body)


def v4_members(data):
    """The header fields and the (writable) members of a version-4 file."""
    header, body = v4_parts(data)
    members = {name: np.frombuffer(body, dtype, count, offset).copy()
               for name, dtype, count, offset in header.pop("members")}
    return header, members


def assert_same_model(new, old):
    """Two loaded models answer every query alike."""
    grid = all_cells(old.shape)
    np.testing.assert_array_equal(new.values_at(grid), old.values_at(grid))
    for fixed in old.scales.families:
        np.testing.assert_array_equal(new.scales.log[fixed], old.scales.log[fixed])
        np.testing.assert_array_equal(new.scales.nonempty[fixed], old.scales.nonempty[fixed])
    if len(old.shape) == 2:
        for user in range(old.shape[0]):
            for exclude in (False, True):
                assert top_n(new, user, old.shape[1], exclude) == top_n(old, user, old.shape[1], exclude)


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
    binary, archive, text = tmp_path / "model.txt", tmp_path / "model.json", tmp_path / "model.npz"
    save_model(binary, model)
    archive.write_bytes(npz_bytes(v3_members(model)))
    text.write_text(json.dumps(v2_document(model)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "model.npz", "model.txt"]
    assert binary.read_bytes()[:8] == b"\x89UCTM\r\n\x1a"
    assert archive.read_bytes()[:4] == b"PK\x03\x04"
    grid = all_cells((6, 5))
    loaded = [load_model(path) for path in (binary, archive, text)]
    assert [doc["version"] for _, doc in loaded] == [4, 3, 2]
    for completed, _ in loaded[1:]:
        np.testing.assert_array_equal(loaded[0][0].values_at(grid), completed.values_at(grid))


def test_rejects_foreign_documents(tmp_path):
    path = tmp_path / "not_a_model.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ValueError, match="not a"):
        load_model(path)
    for version in (3, 4, 99):
        path.write_text(json.dumps({"format": "uctensor-model", "version": version}))
        with pytest.raises(ValueError, match="version"):
            load_model(path)


def test_saved_file_stores_no_derived_values(tmp_path, rng):
    path = tmp_path / "model.json"
    save_model(path, balance(random_sparse_tensor(rng, (6, 5), 0.5), 1, TIGHT),
               users={10: 0}, products={"a": 0})
    header, _ = v4_parts(path.read_bytes())
    assert [name for name, *_ in header.pop("members")] == [
        "keys", "values", "log_0", "log_1",
        "users_raw", "users_index", "products_raw", "products_index",
    ]
    assert header["version"] == 4
    assert set(header) == {"format", "version", "shape", "k", "shift", "native_range",
                           "sweeps_run", "final_residual", "config"}


@pytest.mark.parametrize("users", [{1: 0, "1": 1}, {True: 0}, {2**63: 0}, {(1, 2): 0}, {None: 0}])
def test_raw_ids_of_one_python_type_only(tmp_path, rng, users):
    path = tmp_path / "model.json"
    with pytest.raises(UctensorError, match="users raw ids"):
        save_model(path, balance(random_sparse_tensor(rng, (6, 5), 0.5), 1, TIGHT), users=users)
    assert not path.exists()


# vocabularies of a 6 x 5 model that cannot serve, and what the error names
BAD_VOCABULARIES = {
    "repeated user index": ({"users": {10: 0, 11: 0}}, "users vocabulary maps more than one raw id to dense index 0"),
    "repeated product index": ({"products": {10: 0, 11: 0, 12: 1}},
                               "products vocabulary maps more than one raw id to dense index 0"),
    "negative user index": ({"users": {10: -1}}, re.escape("users vocabulary holds dense index -1, outside [0, 6)")),
    "user index past the shape": ({"users": {10: 6}}, re.escape("users vocabulary holds dense index 6, outside [0, 6)")),
    "product index past the shape": ({"products": {"a": 0, "b": 5}},
                                     re.escape("products vocabulary holds dense index 5, outside [0, 5)")),
}


@pytest.mark.parametrize("case", BAD_VOCABULARIES)
def test_a_vocabulary_that_cannot_serve_is_not_saved(tmp_path, rng, case):
    vocabularies, why = BAD_VOCABULARIES[case]
    path = tmp_path / "model.bin"
    with pytest.raises(UctensorError, match=why):
        save_model(path, balance(random_sparse_tensor(rng, (6, 5), 0.5), 1, TIGHT), **vocabularies)
    assert not path.exists()


@pytest.mark.parametrize("version", [2, 3, 4])
@pytest.mark.parametrize("case", BAD_VOCABULARIES)
def test_a_vocabulary_that_cannot_serve_is_not_loaded(tmp_path, rng, case, version):
    vocabularies, why = BAD_VOCABULARIES[case]
    model = balance(random_sparse_tensor(rng, (6, 5), 0.5), 1, TIGHT)
    path = tmp_path / "model.bin"
    if version == 2:
        path.write_text(json.dumps(v2_document(model, **vocabularies)))
    elif version == 3:
        path.write_bytes(npz_bytes(v3_members(model, **vocabularies)))
    else:
        save_model(path, model)
        header, members = v4_members(path.read_bytes())
        for name, vocab in vocabularies.items():
            members[f"{name}_raw"] = np.asarray(list(vocab))
            members[f"{name}_index"] = np.asarray(list(vocab.values()), dtype=np.int64)
        path.write_bytes(v4_bytes(header, members))
    with pytest.raises(ParseError, match=re.escape(str(path)) + ".*" + why):
        load_model(path)


def test_recommend_refuses_a_pick_the_vocabulary_leaves_out(tmp_path, capsys):
    model = balance(make_tensor((2, 3), {(0, 0): 1.0, (0, 1): 2.0, (1, 1): 3.0, (1, 2): 4.0}), 1, TIGHT)
    path = tmp_path / "model.bin"
    save_model(path, model, users={"a": 0, "b": 1}, products={10: 0})  # a partial vocabulary saves
    assert load_model(path)[1]["products"] == {10: 0}
    assert main(["recommend", "--model", str(path), "--user", "a", "--top", "3"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: the products vocabulary has no raw id for dense product [12]\n", err), err


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
def test_golden_v2_files_match_their_round_trip(tmp_path, name):
    old, old_doc = load_model(GOLDEN / name)
    path = tmp_path / "model.json"
    save_model(path, old.model, **metadata(old_doc))
    new, new_doc = load_model(path)

    assert new_doc.pop("version") == 4 and old_doc.pop("version") == 2
    assert new_doc == old_doc
    assert_same_model(new, old)


def test_test_side_v3_writer_reproduces_the_golden_file(tmp_path):
    old, old_doc = load_model(GOLDEN / "model_v2_2d.json")
    members = v3_members(old.model, **metadata(old_doc))
    with np.load(GOLDEN_V3, allow_pickle=False) as z:
        assert z.files == list(members)
        for name in z.files:
            assert z[name].dtype == members[name].dtype
            np.testing.assert_array_equal(z[name], members[name])
    path = tmp_path / "model.npz"
    path.write_bytes(npz_bytes(members))
    (new, new_doc), (golden, golden_doc) = load_model(path), load_model(GOLDEN_V3)
    assert new_doc == golden_doc
    assert_same_model(new, golden)
    # and the version-3 golden holds the version-2 model
    assert golden_doc.pop("version") == 3 and old_doc.pop("version") == 2
    assert golden_doc == old_doc
    assert_same_model(golden, old)


def test_save_model_reproduces_the_v4_golden_bytes(tmp_path):
    old, old_doc = load_model(GOLDEN / "model_v2_2d.json")
    path = tmp_path / "model.bin"
    save_model(path, old.model, **metadata(old_doc))
    assert path.read_bytes() == GOLDEN_V4.read_bytes()
    # the test-side writer lays out the same bytes, so the corruption cases below start from them
    assert v4_bytes(*v4_members(GOLDEN_V4.read_bytes())) == GOLDEN_V4.read_bytes()
    new, new_doc = load_model(GOLDEN_V4)
    assert new_doc.pop("version") == 4 and old_doc.pop("version") == 2
    assert new_doc == old_doc
    assert_same_model(new, old)


def test_big_endian_members_load_to_the_same_model(tmp_path):
    header, members = v4_members(GOLDEN_V4.read_bytes())
    swapped = {name: a.astype(a.dtype.newbyteorder(">")) for name, a in members.items()}
    assert {a.dtype.str for a in swapped.values()} == {">i8", ">f8", ">U2"}
    path = tmp_path / "model.bin"
    path.write_bytes(v4_bytes(header, swapped))
    (new, new_doc), (golden, golden_doc) = load_model(path), load_model(GOLDEN_V4)
    assert new_doc == golden_doc
    assert_same_model(new, golden)


def test_v4_files_are_read_without_zip_npy_or_pickle(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a version-4 file was read through zip, .npy or pickle")

    for module, name in ((np, "load"), (np.lib.format, "read_array"), (zipfile, "ZipFile"),
                         (pickle, "load"), (pickle, "loads"), (pickle, "Unpickler")):
        monkeypatch.setattr(module, name, refused)
    loaded, doc = load_model(GOLDEN_V4)
    assert doc["version"] == 4 and loaded.source.n_observed == 24


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
    "2-D values": (lambda m: m.__setitem__("values", m["values"].reshape(11, 1)), ParseError),
    "float keys": (lambda m: m.__setitem__("keys", m["keys"].astype(np.float64)), ParseError),
    "raw ids one short": (lambda m: m.__setitem__("users_raw", m["users_raw"][:-1]), ParseError),
}


def write_v3_corrupted(path, corrupt):
    members = v3_members(model_3x4(), users={7: 0, 8: 1, 9: 2})
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


@pytest.mark.parametrize("case, why", [
    ("2-D values", r"member 'values' is a float64 array of shape \(11, 1\)"),
    ("float keys", r"member 'keys' is a float64 array of shape \(11,\)"),
    ("raw ids one short", "users has 2 raw ids but 3 indices"),
])
def test_malformed_binary_members_are_named(tmp_path, case, why):
    path = tmp_path / "model.json"
    write_v3_corrupted(path, V3_CORRUPTIONS[case][0])
    with pytest.raises(ParseError, match=re.escape(str(path)) + ".*" + why):
        load_model(path)


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


def edit_member(data, name, **fields):
    """A version-4 file whose members table gives member ``name`` other
    ``dtype``, ``count`` or ``offset`` fields; the bytes stay as they are."""
    header, body = v4_parts(data)
    for row in header["members"]:
        if row[0] == name:
            row[1:] = [fields.get(field, old) for field, old in zip(("dtype", "count", "offset"), row[1:])]
    return v4_frame(json.dumps(header).encode(), body)


def pickled_values(header, members):
    """A file whose ``values`` member is an object array holding a pickle
    that would record a call if it were unpickled."""
    members["values"] = np.frombuffer(pickle.dumps([PicklesACall()]), np.uint8)
    return edit_member(v4_bytes(header, members), "values", dtype="|O", count=1)


def with_table_row(name, **fields):
    """A corruption that edits the members table's row of ``name``."""
    return lambda h, m: edit_member(v4_bytes(h, m), name, **fields)


# each case corrupts the header fields and members of the version-4 file
# of a 3x4 model, in place or by returning the bytes to write instead, and
# names what the error says is wrong
V4_CORRUPTIONS = {
    "truncated header": (lambda h, m: v4_bytes(h, m)[:40], ParseError, "truncated: the header needs"),
    "truncated data": (lambda h, m: v4_bytes(h, m)[:-8], ParseError, "'users_index': .* do not lie within"),
    "header not JSON": (lambda h, m: v4_frame(b"\xff{", v4_parts(v4_bytes(h, m))[1]), ParseError,
                        "header is not JSON"),
    "unknown version": (lambda h, m: h.__setitem__("version", 5), ParseError, "unsupported model version 5"),
    "version-3 header": (lambda h, m: h.__setitem__("version", 3), ParseError, "unsupported model version 3"),
    "missing member": (lambda h, m: m.pop("values"), ParseError, r"KeyError\('values'\)"),
    "member past the end of the file": (with_table_row("log_0", count=10**6), ParseError,
                                        "'log_0': .* do not lie within"),
    "negative offset": (with_table_row("log_0", offset=-8), ParseError, "'log_0': .* at offset -8 do not lie"),
    "negative count": (with_table_row("keys", count=-1), ParseError, "'keys': -1 .* do not lie within"),
    "object dtype": (pickled_values, ParseError, "'values' has dtype object"),
    "void dtype": (with_table_row("values", dtype="|V8"), ParseError, r"'values' has dtype \|V8"),
    "bytes dtype": (with_table_row("values", dtype="|S8"), ParseError, r"'values' has dtype \|S8"),
    "unsorted flat keys": (lambda h, m: swap_first_keys(m), ParseError, "not strictly increasing"),
    "duplicate flat keys": (lambda h, m: m["keys"].__setitem__(1, m["keys"][0]), ParseError,
                            "not strictly increasing"),
    "flat key out of range": (lambda h, m: m["keys"].__setitem__(-1, 12), ParseError, "out of range"),
    "nan value": (lambda h, m: m["values"].__setitem__(0, np.nan), NonFiniteValueError, "not finite"),
    "values one short of the keys": (lambda h, m: m.__setitem__("values", m["values"][:-1]), ParseError,
                                     "length mismatch"),
    "float keys": (with_table_row("keys", dtype="<f8"), ParseError,
                   r"member 'keys' is a float64 array of shape \(11,\)"),
    "raw ids one short": (lambda h, m: m.__setitem__("users_raw", m["users_raw"][:-1]), ParseError,
                          "users has 2 raw ids but 3 indices"),
}


def write_v4_corrupted(path, corrupt):
    save_model(path, model_3x4(), users={7: 0, 8: 1, 9: 2})
    header, members = v4_members(path.read_bytes())
    data = corrupt(header, members)
    path.write_bytes(data if isinstance(data, bytes) else v4_bytes(header, members))


@pytest.mark.parametrize("case", V4_CORRUPTIONS)
def test_malformed_v4_files_raise_a_named_error(tmp_path, case):
    corrupt, error, why = V4_CORRUPTIONS[case]
    path = tmp_path / "model.json"
    write_v4_corrupted(path, corrupt)
    del UNPICKLED[:]
    with pytest.raises(error, match=re.escape(str(path)) + ".*" + why) as info:
        load_model(path)
    assert isinstance(info.value, UctensorError) and isinstance(info.value, ValueError)
    assert not UNPICKLED


def test_v4_object_members_are_refused_unread(tmp_path):
    path = tmp_path / "model.json"
    write_v4_corrupted(path, pickled_values)
    header, body = v4_parts(path.read_bytes())
    (_, _, _, offset), = [row for row in header["members"] if row[0] == "values"]
    del UNPICKLED[:]
    pickle.loads(body[offset:])
    assert UNPICKLED  # the member does unpickle a call when allowed to
    del UNPICKLED[:]
    with pytest.raises(ParseError, match="'values' has dtype object"):
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


@pytest.mark.parametrize("case", ["truncated header", "truncated data"])
def test_cli_reports_a_truncated_v4_model(tmp_path, capsys, case):
    path = tmp_path / "model.json"
    write_v4_corrupted(path, V4_CORRUPTIONS[case][0])
    assert main(["recommend", "--model", str(path), "--user", "7"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err
