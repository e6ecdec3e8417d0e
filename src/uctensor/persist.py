"""Model persistence.

A model file holds only what cannot be derived from the rest: the
observed entries (their row-major flat keys and their values), one
array of log scales per family, the raw-id vocabularies, and a small
JSON header (format, version, shape, k, shift, native range, the
solve's diagnostics, the config echo).  The loaded tensor keeps the
flat keys as read, once checked to be strictly increasing and in range;
its (N, D) indices are not derived on load.  Everything else is derived
on load: the non-empty flags from the keys (a subtensor is non-empty
iff an entry lies in it), and the balanced tensor from the entries and
the scales.

``save_model`` writes format version 4, under whatever file name the
caller gives: the 8-byte ``MAGIC``, the header's length as a
little-endian uint64, the JSON header padded with spaces to a multiple
of 8 bytes, then each member's raw bytes at an 8-aligned offset.  The
header's ``members`` table lists each member as ``[name, dtype.str,
count, offset]``, the offset counted from the end of the header.  The
file holds no timestamp: one model gives the same bytes.  ``load_model``
reads a version-4 file with one ``read`` and views each member in place
(``np.frombuffer``: no copy, read-only), after checking that its dtype
is a number or a unicode string (so nothing is ever unpickled) and that
it lies inside the file.

``load_model`` tells the formats apart by their first bytes, not by the
file name: ``MAGIC`` is version 4, a zip archive (``PK\\x03\\x04``) is
version 3, an uncompressed numpy ``.npz`` read with
``allow_pickle=False``, and anything else is a JSON document of version
1 or 2; every format written before still loads.  Versions 3 and 4 hold
the same members and pass the same checks, and every version is rebuilt
through the ``SparseTensor`` and ``ScaleSet`` constructors, which check
whatever the reader has not.
"""

from __future__ import annotations

import json
import math
import zipfile

import numpy as np

from .balance import LatentModel
from .complete import CompletedTensor
from .exceptions import ParseError, UctensorError
from .tensor import ScaleSet, SparseTensor, _cell, subtensor_counts, subtensor_families

FORMAT = "uctensor-model"
VERSION = 4
NPZ_VERSION = 3
JSON_VERSIONS = (1, 2)
# neither a zip archive nor JSON; the high byte and line ends catch text-mode copies
MAGIC = b"\x89UCTM\r\n\x1a"
ZIP_MAGIC = b"PK\x03\x04"
PREAMBLE = len(MAGIC) + 8  # the magic, then the header's length
VOCABULARIES = ("users", "products")  # raw id -> dense index of the first dimension, of the last


def _raw_ids(name: str, vocab: dict) -> np.ndarray:
    """The raw ids of a vocabulary as an int64 or unicode array whose
    ``tolist()`` gives back the same keys."""
    keys = list(vocab)
    raw = np.asarray(keys) if keys else np.empty(0, dtype=np.int64)
    if raw.ndim != 1 or raw.dtype.kind not in "iU" or raw.tolist() != keys:
        raise UctensorError(
            f"{name} raw ids must be all int (within int64) or all str, got {raw.dtype} values"
        )
    return raw


def _check_vocabulary(name: str, index, size: int, error) -> None:
    """Raise ``error`` unless a vocabulary's dense indices are distinct and
    in [0, size); a vocabulary may leave indices out."""
    index = np.sort(np.asarray(index, dtype=np.int64))
    outside = index[(index < 0) | (index >= size)]
    if len(outside):
        raise error(f"{name} vocabulary holds dense index {outside[0]}, outside [0, {size})")
    repeated = index[1:][index[1:] == index[:-1]]
    if len(repeated):
        raise error(f"{name} vocabulary maps more than one raw id to dense index {repeated[0]}")


def _padding(nbytes: int) -> int:
    return -nbytes % 8


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
    members = {"keys": model.source._flat, "values": model.source.values}
    for i, fixed in enumerate(model.scales.families):
        members[f"log_{i}"] = model.scales.log[fixed]
    for name, vocab, size in zip(VOCABULARIES, (users, products), (model.shape[0], model.shape[-1])):
        if vocab is not None:
            members[f"{name}_raw"] = _raw_ids(name, vocab)
            members[f"{name}_index"] = np.asarray(list(vocab.values()), dtype=np.int64)
            _check_vocabulary(name, members[f"{name}_index"], size, UctensorError)
    table, offset = [], 0
    for name, a in members.items():
        table.append([name, a.dtype.str, len(a), offset])
        offset += a.nbytes + _padding(a.nbytes)
    header = json.dumps({
        "format": FORMAT,
        "version": VERSION,
        "shape": list(model.shape),
        "k": model.k,
        "shift": shift,
        "native_range": list(native_range) if native_range is not None else None,
        "sweeps_run": model.sweeps_run,
        "final_residual": model.final_residual,
        "config": config or {},
        "members": table,
    }).encode()
    header += b" " * _padding(len(header))
    with open(path, "wb") as fh:
        fh.write(MAGIC + len(header).to_bytes(8, "little") + header)
        for a in members.values():
            fh.write(a)
            fh.write(bytes(_padding(a.nbytes)))


def _check_header(doc, versions) -> None:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ParseError(f"not a {FORMAT} document")
    if doc.get("version") not in versions:
        raise ParseError(f"unsupported model version {doc.get('version')}")


def _member(z, name: str, kinds: str) -> np.ndarray:
    """A 1-D member whose dtype kind is one of ``kinds``."""
    a = z[name]
    if a.ndim != 1 or a.dtype.kind not in kinds:
        raise ParseError(f"member {name!r} is a {a.dtype} array of shape {a.shape}")
    return a


def _from_members(doc, z, names):
    """Versions 3 and 4: (metadata, source tensor, log arrays by family,
    None) from a checked header and the members ``z[name]`` for each name
    in ``names``."""
    shape = tuple(doc["shape"])
    keys = _member(z, "keys", "i")
    if len(keys) > 1 and not (keys[1:] > keys[:-1]).all():
        raise ParseError("flat keys are not strictly increasing")
    if len(keys) and (keys[0] < 0 or keys[-1] >= math.prod(shape)):
        raise ParseError(f"flat keys out of range for shape {shape}")
    source = SparseTensor(shape, None, _member(z, "values", "f"), _flat=keys)
    families = subtensor_families(len(shape), doc["k"])
    logs = {f: _member(z, f"log_{i}", "f") for i, f in enumerate(families)}
    for name in VOCABULARIES:
        doc[name] = None
        if f"{name}_raw" in names or f"{name}_index" in names:
            raw = _member(z, f"{name}_raw", "iU")
            index = _member(z, f"{name}_index", "i")
            if len(raw) != len(index):
                raise ParseError(f"{name} has {len(raw)} raw ids but {len(index)} indices")
            doc[name] = dict(zip(raw.tolist(), index.tolist()))
    return doc, source, logs, None


def _read_raw(fh):
    """Version 4: the whole file in one read, each member a view of it."""
    data = fh.read()
    size = int.from_bytes(data[len(MAGIC):PREAMBLE], "little")
    start = PREAMBLE + size
    if len(data) < start:
        raise ParseError(f"truncated: the header needs {start} bytes, the file has {len(data)}")
    try:
        doc = json.loads(data[PREAMBLE:start])
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"header is not JSON: {exc}") from None
    _check_header(doc, (VERSION,))
    members = {}
    for name, dtype, count, offset in doc.pop("members"):
        dtype = np.dtype(dtype)
        if dtype.kind not in "iufU":  # no object, void or bytes member is ever read
            raise ParseError(f"member {name!r} has dtype {dtype}, not a number or a str")
        if count < 0 or offset < 0 or start + offset + count * dtype.itemsize > len(data):
            raise ParseError(
                f"member {name!r}: {count} {dtype} values at offset {offset} "
                f"do not lie within the {len(data) - start} bytes after the header"
            )
        members[name] = np.frombuffer(data, dtype, count, start + offset)
    return _from_members(doc, members, members)


def _read_npz(fh):
    """Version 3: a ``header`` member holding the JSON header, beside the
    members that version 4 also holds."""
    with np.load(fh, allow_pickle=False) as z:
        if "header" not in z.files:
            raise ParseError(f"not a {FORMAT} file: no header member")
        doc = json.loads(_member(z, "header", "u").tobytes())
        _check_header(doc, (NPZ_VERSION,))
        return _from_members(doc, z, z.files)


def _read_json(fh):
    """Versions 1 and 2: (metadata, source tensor, log arrays by family,
    the stored non-empty flags by family)."""
    try:
        doc = json.loads(fh.read())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"not JSON: {exc}") from None
    _check_header(doc, JSON_VERSIONS)
    # version 1 also stored entries.balanced_values; being derived, it is not read
    entries = doc.pop("entries")
    source = SparseTensor(doc["shape"], entries["indices"], entries["values"])
    logs, flags = {}, {}
    for block in doc.pop("scales"):
        fixed = tuple(block["fixed_dims"])
        logs[fixed] = np.asarray(block["log_scale"], dtype=np.float64)
        flags[fixed] = np.asarray(block["nonempty"], dtype=bool)
    for name in VOCABULARIES:
        doc[name] = dict((raw, idx) for raw, idx in doc[name]) if doc.get(name) else None
    return doc, source, logs, flags


def _scale_set(source: SparseTensor, k, logs: dict, flags: dict | None) -> ScaleSet:
    """The ScaleSet of the log arrays, whose non-empty flags are derived
    from the entries: a subtensor is non-empty iff an entry lies in it.
    Stored ``flags`` (versions 1 and 2) must agree with them."""
    counts = subtensor_counts(source, subtensor_families(source.ndim, k))[0]
    derived = {fixed: c > 0 for fixed, c in counts.items()}
    scales = ScaleSet(source.shape, k, logs, derived if flags is None else flags)
    for fixed in scales.families:
        wrong = scales.nonempty[fixed] != derived[fixed]
        if wrong.any():
            sub = int(np.argmax(wrong))
            at = _cell(sub, [source.shape[d] for d in fixed])
            held = "holds entries" if derived[fixed][sub] else "holds none"
            raise ParseError(
                f"non-empty flag of family {fixed} subtensor {at} disagrees with the entries: "
                f"it {held}"
            )
    return scales


def load_model(path):
    """Rebuild the completion query interface plus metadata:
    returns (CompletedTensor, doc-dict).  The doc holds the header's
    fields (format, version, shape, k, shift, native_range, sweeps_run,
    final_residual, config) and ``users``/``products`` as raw id ->
    dense index dicts, or None.

    The first bytes pick the reader: ``MAGIC`` a version-4 file, read
    once and viewed in place; ``PK\\x03\\x04`` a version-3 ``.npz``
    archive; anything else a version-1 or -2 JSON document.

    Errors name the path: ParseError for a file that is not a model of a
    known version or is malformed as a file (truncated, a member
    missing, of the wrong type or past the end of the file, flat keys
    out of range or not strictly increasing, non-empty flags that disagree
    with the entries, dense indices of a vocabulary that repeat or fall
    outside their dimension, ...), and the error of the part it breaks
    (ShapeMismatchError for a scale array of the wrong size,
    NonFiniteValueError for a nan value, ...) otherwise."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        fh.seek(0)
        reader = _read_raw if magic == MAGIC else _read_npz if magic.startswith(ZIP_MAGIC) else _read_json
        try:
            doc, source, logs, flags = reader(fh)
            scales = _scale_set(source, doc["k"], logs, flags)
            for name, size in zip(VOCABULARIES, (source.shape[0], source.shape[-1])):
                if doc[name]:
                    _check_vocabulary(name, list(doc[name].values()), size, ParseError)
            model = LatentModel(
                source=source,
                scales=scales,
                sweeps_run=doc["sweeps_run"],
                final_residual=doc["final_residual"],
            )
        except UctensorError as exc:
            raise type(exc)(f"{path}: {exc}") from None
        except (KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ParseError(f"{path}: malformed {FORMAT} file: {exc!r}") from None
    return CompletedTensor(model), doc
