import json
import re

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
    persist,
    save_model,
    top_n,
)
from uctensor.cli import main
from uctensor.complete import CompletedTensor
from uctensor.properties import random_sparse_tensor

from conftest import TIGHT


def test_round_trip_preserves_queries(tmp_path, rng):
    tensor = random_sparse_tensor(rng, (9, 7), 0.4)
    model = balance(tensor, 1, TIGHT)
    path = tmp_path / "model.json"
    save_model(path, model, shift=2.5, native_range=(1.0, 5.0),
               users={10: 0, 11: 1}, products={100: 0}, config={"epsilon": 1e-24})

    loaded, doc = load_model(path)
    assert doc["shift"] == 2.5
    assert doc["users"] == {10: 0, 11: 1}
    original = CompletedTensor(model)
    grid = np.array([(i, j) for i in range(9) for j in range(7)])
    np.testing.assert_array_equal(loaded.values_at(grid), original.values_at(grid))
    np.testing.assert_array_equal(loaded.model.balanced.values, model.balanced.values)


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
    save_model(path, balance(random_sparse_tensor(rng, (6, 5), 0.5), 1, TIGHT))
    doc = json.loads(path.read_text())
    assert doc["version"] == 2
    assert set(doc["entries"]) == {"indices", "values"}


@pytest.mark.parametrize("json_slice", [1, 3, persist.JSON_SLICE])
def test_saved_text_is_the_default_encoding_of_the_document(tmp_path, rng, monkeypatch, json_slice):
    # long lists are written a slice at a time; the text must not show it
    monkeypatch.setattr(persist, "JSON_SLICE", json_slice)
    path = tmp_path / "model.json"
    save_model(path, balance(random_sparse_tensor(rng, (6, 5), 0.5), 1, TIGHT),
               users={10: 0, 11: 1}, products={100: 0}, config={"epsilon": 1e-24})
    text = path.read_text()
    assert text == json.dumps(json.loads(text))


def test_entries_out_of_order_still_load(tmp_path, rng):
    model = balance(random_sparse_tensor(rng, (6, 5), 0.5), 1, TIGHT)
    path = tmp_path / "model.json"
    save_model(path, model)
    doc = json.loads(path.read_text())
    for field in ("indices", "values"):
        doc["entries"][field] = doc["entries"][field][::-1]
    path.write_text(json.dumps(doc))
    loaded, _ = load_model(path)
    np.testing.assert_array_equal(loaded.source.indices, model.source.indices)
    for index, value in zip(model.source.indices.tolist(), model.source.values.tolist()):
        assert loaded.is_observed(index) and loaded.value_at(index) == value


def test_version_1_documents_still_load(tmp_path, rng):
    model = balance(random_sparse_tensor(rng, (9, 7), 0.4), 1, TIGHT)
    v2 = tmp_path / "v2.json"
    save_model(v2, model)
    doc = json.loads(v2.read_text())
    doc["version"] = 1
    doc["entries"]["balanced_values"] = model.balanced.values.tolist()
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps(doc))

    old, _ = load_model(v1)
    new, _ = load_model(v2)
    grid = np.array([(i, j) for i in range(9) for j in range(7)])
    np.testing.assert_array_equal(old.values_at(grid), new.values_at(grid))
    for user in range(9):
        for exclude in (False, True):
            assert top_n(old, user, 7, exclude) == top_n(new, user, 7, exclude)


def _drop_last(block, field):
    block[field] = block[field][:-1]


# each case corrupts a saved 3x4 model document (or replaces its text)
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


def write_corrupted(path, corrupt):
    model = balance(make_tensor((3, 4), {(i, j): 1.0 + i + 2 * j for i in range(3) for j in range(4)
                                         if (i, j) != (2, 3)}), 1, TIGHT)
    save_model(path, model)
    doc = json.loads(path.read_text())
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


@pytest.mark.parametrize("case", ["not JSON", "row block one short"])
def test_cli_reports_a_malformed_model(tmp_path, capsys, case):
    path = tmp_path / "model.json"
    write_corrupted(path, CORRUPTIONS[case][0])
    assert main(["recommend", "--model", str(path), "--user", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err
