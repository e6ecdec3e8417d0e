import json

import numpy as np
import pytest

from uctensor import balance, load_model, persist, save_model, top_n
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
