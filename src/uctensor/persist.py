"""Model persistence: one JSON document holding everything a serving query
needs (shape, k, per-subtensor log scales, the observed entries for
verbatim passthrough/exclusion, shift, vocabularies, config echo).  The
balanced tensor is derived from the entries and the scales, so it is not
stored."""

from __future__ import annotations

import json

import numpy as np

from .balance import LatentModel
from .complete import CompletedTensor
from .exceptions import ParseError, UctensorError
from .tensor import ScaleSet, SparseTensor

FORMAT = "uctensor-model"
VERSION = 2
# longest list encoded in one json.dumps call by _write_json
JSON_SLICE = 1024


def _write_json(fh, value) -> None:
    """Write the text of ``json.dumps(value)`` to fh, long lists a slice at a
    time.  ``json.dumps`` encodes in C, several times faster than the
    streaming ``json.dump``, but it keeps up to 100,000 fragment strings
    before joining them (CPython 3.11), megabytes for a large model; a
    slice's fragments are a few hundred kilobytes."""
    if isinstance(value, dict):
        fh.write("{")
        for i, (key, item) in enumerate(value.items()):
            fh.write((", " if i else "") + json.dumps(key) + ": ")
            _write_json(fh, item)
        fh.write("}")
    elif isinstance(value, list) and len(value) > JSON_SLICE:
        fh.write("[")
        for lo in range(0, len(value), JSON_SLICE):
            fh.write((", " if lo else "") + json.dumps(value[lo : lo + JSON_SLICE])[1:-1])
        fh.write("]")
    else:
        fh.write(json.dumps(value))


def save_model(
    path,
    model: LatentModel,
    *,
    shift: float = 0.0,
    native_range=None,
    users: dict | None = None,
    products: dict | None = None,
    config: dict | None = None,
) -> None:
    scales = model.scales
    doc = {
        "format": FORMAT,
        "version": VERSION,
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
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh, doc)


def load_model(path):
    """Rebuild the completion query interface plus metadata:
    returns (CompletedTensor, doc-dict).

    Errors name the path: ParseError for a file that is not a model
    document of a known version, and the error of the part it breaks
    (ShapeMismatchError for a scale block of the wrong size, ...) for a
    malformed one."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"{path} is not JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ParseError(f"{path} is not a {FORMAT} document")
    # version 1 also stored entries.balanced_values; being derived, it is not read
    if doc.get("version") not in (1, VERSION):
        raise ParseError(f"{path}: unsupported model version {doc.get('version')}")
    try:
        shape = tuple(doc["shape"])
        source = SparseTensor(shape, doc["entries"]["indices"], doc["entries"]["values"])
        logs = {}
        nonempty = {}
        for block in doc["scales"]:
            fixed = tuple(block["fixed_dims"])
            logs[fixed] = np.asarray(block["log_scale"], dtype=np.float64)
            nonempty[fixed] = np.asarray(block["nonempty"], dtype=bool)
        model = LatentModel(
            source=source,
            scales=ScaleSet(shape, doc["k"], logs, nonempty),
            sweeps_run=doc["sweeps_run"],
            final_residual=doc["final_residual"],
        )
    except UctensorError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed {FORMAT} document: {exc!r}") from None
    doc["users"] = dict((raw, idx) for raw, idx in doc["users"]) if doc.get("users") else None
    doc["products"] = (
        dict((raw, idx) for raw, idx in doc["products"]) if doc.get("products") else None
    )
    return CompletedTensor(model), doc
