"""Reading and writing network spec documents.

A document is a JSON object, and every object in it carries exactly the
keys shown (_KEYS lists them), except that "weights", "transform",
"provenance", a conv's "stride" and a sidecar's "crc32" may be left out:

    {
      "schema_version": 1,
      "network": {
        "name": "...", "provenance": "original",
        "input_shape": [channels, height, width],
        "layers": [
          {"kind": "conv", "channels_out": C, "kernel": [kh, kw], "stride": s},
          {"kind": "activation", "function": "relu"},
          {"kind": "fully_connected", "units": U}
        ]
      },
      "weights": {"mode": "inline", "arrays": {"<layer index>": [flat floats...]}}
              or {"mode": "sidecar", "path": "relative/file.bin",
                  "lengths": {"<layer index>": count}, "crc32": checksum},
      "transform": {"source": name,
                    "input_map": {"stride": s, "entries": [[k, p, q], ...]}}
    }

A sidecar "path" is relative to the document's directory (the writer
records the sidecar's base name, the reader takes any relative path), and
the file it names is raw little-endian float64, layers concatenated in
index order.
"crc32" is zlib.crc32 of the sidecar's bytes.  The writer always records
it, and the reader refuses a sidecar whose bytes do not match it; a
sidecar document without the key (as benchmarks/reference.py writes its
originals) still loads, unchecked.
Inline decimal values round-trip bit-exactly (shortest-repr floats);
sidecars are the raw bytes, so both modes reload to identical arrays.  A
layer-index key is the canonical decimal str(i) of a parameterized layer,
in "arrays" and in "lengths" alike: "00", "+0" or " 0" is rejected, so no
two keys can name one layer.

The written layout is part of the format, and the writer keeps it byte for
byte: the text json.dumps(document, indent=1) gives, plus a final newline.
That is one space per level of nesting and one value per line (an inline
weight value sits at depth 4, a weight array's brackets at depth 3), ASCII
only with every other character escaped as \\uXXXX, integers without a
decimal point, and non-finite weights spelled NaN, Infinity and -Infinity,
as Python's json module reads and writes them.  The writer does not run
json.dumps on the document: the schema is closed, so it fills one format
string per object kind (document, each layer kind, sidecar weights,
transform), passes every string through json's C encode_basestring_ascii,
writes the input map's entries as one %-formatted block and each inline
weight array as C-encoded chunks (_inline_array), and writes a sidecar's
bytes in one call.  It spells the document's path once as pathlib does
("a//./b" as "a/b"), the spelling its messages give, refuses one that ends
in a separator ("out/" names a directory), or one whose directory is
missing, before it writes either file, and works on the strings through
os.path from there.  The sidecar is always the name
Path(document).with_suffix(".weights.bin") gives, beside the document
("x." has the sidecar "x..weights.bin"), and the document records its base
name.  Both files are replaced in place (_write_over): an existing file is
written over from its start, keeping its inode, and then,
if it was longer, cut to the new length; a target that is not a regular
file, such as /dev/null or a FIFO, is written but not cut.  The sidecar is
written before its document, so a writer stopped anywhere in between,
even killed with no handler run, leaves a sidecar that fails the crc32 of
the document beside it.

The reader reads each object by one path.  One module-level JSONDecoder
parses the text (with json.loads's refusal of a byte order mark), and one
function per object kind tests each field once, by its key set and exact
types (type(v) is int), in the order the messages name faults; it raises
at the first and builds the object once, so a left-out optional key and
its spelt default build the same object.  ChannelMap takes the input
map's entries as parsed; only a map it refuses is scanned, to name the
entry that is not a list of integers.  A sidecar is read by one open, an
fstat and one readinto a bytearray, so its arrays are writable and
aligned without a copy.  Paths go through os.path; a message names a path
as pathlib spells it, worked out only when there is a message.

The transform block links a transformed document to its source.  The
rewrite writes the input map's entries in source-major order
(channel_entries), but any complete enumeration of the (k, p, q) triples is
read, since the transformed network's first conv can read its input
channels in any order.

Every integer field (channels_out, kernel, stride, units, input_shape, the
input map's stride and entries, sidecar lengths and crc32) must be a JSON
integer: floats and booleans are rejected, not coerced, and sidecar lengths
must not be negative.  A weights block holds every parameterized layer's
key, and a sidecar exactly 8 bytes per value the lengths declare.  A key
not shown for its object (a layer's of another kind, a weights block's of
the other mode, or the dense "input_permutation" and transform
"flatten_permutation" that earlier versions wrote) is rejected, as is a
key repeated within one object.
"provenance" must be a string, and inline weight arrays must be flat lists
of JSON numbers, none beyond float64: an integer too large, or a decimal
such as 1e400 that json reads as infinity, is rejected, while NaN, Infinity
and -Infinity load.
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import json
import math
import os
import stat
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import (
    ActivationLayer,
    ConvLayer,
    FullyConnectedLayer,
    NetworkSpec,
    _walk,
)
from .transform import ChannelMap

SCHEMA_VERSION = 1
# values per C-encoder call when writing an inline weight array
_CHUNK = 1 << 12


class SpecFormatError(ValueError):
    """Document does not conform to the spec schema."""


@dataclass(frozen=True)
class TransformMetadata:
    source: str
    input_map: ChannelMap

    def __post_init__(self):
        # the writer spells it as a JSON string, the reader takes only one
        if not isinstance(self.source, str):
            raise ValueError(f"source must be a str, got {self.source!r}")


@dataclass(frozen=True)
class SpecDocument:
    network: NetworkSpec
    transform: TransformMetadata | None = None
    weights_mode: str | None = None  # "inline" | "sidecar" | None as loaded


def _int(val, where, field):
    """val, where's field, if it is a JSON integer; floats and booleans are
    rejected rather than truncated (bool is a subclass of int)."""
    if type(val) is not int:
        raise SpecFormatError(f"{where}: {field}: expected an integer, got {val!r}")
    return val


def _ints(val, where, field):
    if type(val) is list and set(map(type, val)) <= {int}:
        return tuple(val)
    if not isinstance(val, list):
        raise SpecFormatError(f"{where}: {field}: expected a list of integers, got {val!r}")
    return tuple(_int(v, where, field) for v in val)


def _require(obj, key, kind, where):
    """obj[key], of exactly the type kind: a bool never passes as an int."""
    val = obj.get(key)
    if type(val) is not kind:
        raise _field_error(obj, key, kind, where)
    return val


def _field_error(obj, key, kind, where) -> SpecFormatError:
    """The message for obj's field key, missing or not of the type kind."""
    if key not in obj:
        return SpecFormatError(f"{where}: missing field {key!r}")
    if kind is int:
        return SpecFormatError(f"{where}: field {key!r}: expected an integer, got {obj[key]!r}")
    return SpecFormatError(f"{where}: field {key!r} has wrong type {type(obj[key]).__name__}")


def _unknown_field(obj, known, where) -> SpecFormatError:
    """The message for obj, which holds a key not in known."""
    return SpecFormatError(f"{where}: unknown field {sorted(obj.keys() - known)[0]!r}")


# the keys save_document writes, the only ones each object may carry
_KEYS = {
    "document": {"schema_version", "network", "weights", "transform"},
    "network": {"name", "provenance", "input_shape", "layers"},
    "layer": {
        "conv": {"kind", "channels_out", "kernel", "stride"},
        "activation": {"kind", "function"},
        "fully_connected": {"kind", "units"},
    },
    "weights": {
        "inline": {"mode", "arrays"},
        "sidecar": {"mode", "path", "lengths", "crc32"},
    },
    "transform": {"source", "input_map"},
    "transform.input_map": {"stride", "entries"},
}


def _layer_from_json(i, obj):
    """Layer i: its kind, keys and fields tested once each, in that order,
    and the layer built once; a value its constructor refuses names i."""
    where = f"layer {i}"
    if type(obj) is not dict:
        raise SpecFormatError(f"{where}: expected an object, got {type(obj).__name__}")
    kind = _require(obj, "kind", str, where)
    keys = _KEYS["layer"].get(kind)
    if keys is None:
        raise SpecFormatError(f"{where}: unknown kind {kind!r}")
    if not obj.keys() <= keys:
        raise _unknown_field(obj, keys, f"{where} ({kind})")
    if kind == "conv":
        make, fields = ConvLayer, (_require(obj, "channels_out", int, where),
                                   _ints(_require(obj, "kernel", list, where), where, "kernel"),
                                   _int(obj.get("stride", 1), where, "stride"))
    elif kind == "activation":
        make, fields = ActivationLayer, (_require(obj, "function", str, where),)
    else:
        make, fields = FullyConnectedLayer, (_require(obj, "units", int, where),)
    try:
        return make(*fields)
    except (ValueError, TypeError) as e:
        raise SpecFormatError(f"{where}: {e}") from None


def _network_from_json(obj) -> NetworkSpec:
    """The network: keys, name, provenance, input_shape, layers, then each
    layer and input_shape's values, in that order."""
    if not obj.keys() <= _KEYS["network"]:
        raise _unknown_field(obj, _KEYS["network"], "network")
    name = _require(obj, "name", str, "network")
    provenance = obj.get("provenance", "original")
    if type(provenance) is not str:
        raise _field_error(obj, "provenance", str, "network")
    shape = _require(obj, "input_shape", list, "network")
    layers = _require(obj, "layers", list, "network")
    layers = tuple([_layer_from_json(i, layer) for i, layer in enumerate(layers)])
    shape = _ints(shape, "network", "input_shape")
    try:
        return NetworkSpec(name, shape, layers, provenance)
    except (ValueError, TypeError) as e:
        raise SpecFormatError(f"network: {e}") from None


def _attach_weights(network: NetworkSpec, wobj, doc_path: str) -> None:
    """Read the weights block into network's layers.  They are the reader's
    own, just built and not yet handed out, so each is given its weights in
    place rather than built a second time."""
    expected = {
        i: wshape for i, (_, _, wshape) in enumerate(_walk(network)) if wshape is not None
    }
    # the canonical key of each parameterized layer (_weight_index)
    index = {str(i): i for i in expected}
    mode = _require(wobj, "mode", str, "weights")
    if mode not in _KEYS["weights"]:
        raise SpecFormatError(f"weights: unknown mode {mode!r}")
    if not wobj.keys() <= _KEYS["weights"][mode]:
        raise _unknown_field(wobj, _KEYS["weights"][mode], f"weights ({mode})")
    flats: dict[int, np.ndarray] = {}
    if mode == "inline":
        arrays = _require(wobj, "arrays", dict, "weights")
        for key, values in arrays.items():
            idx = _weight_index(key, index)
            # exact types: bool is an int subclass and must not load as 0/1
            if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
                raise SpecFormatError(f"weights: layer {idx} must be a flat list of numbers")
            beyond = f"weights: layer {idx} has a number beyond float64"
            try:
                flat = np.asarray(values, dtype=np.float64)
            except OverflowError:  # an integer beyond the largest float64
                raise SpecFormatError(beyond) from None
            # json.loads reads a decimal beyond float64 (1e400) as an infinity,
            # so each infinity must be one the document spelled out
            for v in (values[i] for i in np.flatnonzero(np.isinf(flat))):
                if v is not _CONSTANTS["Infinity"] and v is not _CONSTANTS["-Infinity"]:
                    raise SpecFormatError(beyond)
            flats[idx] = flat
        _every_layer(flats, expected)
    else:
        rel = _require(wobj, "path", str, "weights")
        lengths = _require(wobj, "lengths", dict, "weights")
        crc = _require(wobj, "crc32", int, "weights") if "crc32" in wobj else None
        counts = {_weight_index(k, index): _int(v, "weights", "lengths") for k, v in lengths.items()}
        for idx, n in counts.items():
            if n < 0:
                raise SpecFormatError(f"weights: layer {idx} has negative length {n}")
        _every_layer(counts, expected)
        total = sum(counts.values())
        blob = _read_sidecar(os.path.join(os.path.dirname(doc_path), rel), total, crc)
        pos = 0
        for idx in sorted(counts):
            flats[idx] = blob[pos : pos + counts[idx]]
            pos += counts[idx]

    for idx, flat in flats.items():
        want = expected[idx]
        if flat.size != math.prod(want):
            raise SpecFormatError(
                f"weights: layer {idx} has {flat.size} values, shape {want} "
                f"needs {math.prod(want)}"
            )
        object.__setattr__(network.layers[idx], "weights", flat.reshape(want))


def _every_layer(given: dict, expected: dict) -> None:
    """Refuse keys that leave out a layer, which would load unweighted."""
    if len(given) < len(expected):
        raise SpecFormatError(f"weights: no values for layer {min(expected.keys() - given)}")


def _read_sidecar(name: str, total: int, crc) -> np.ndarray:
    """The float64 values of the sidecar file name, read by one open, an
    fstat and one read into a bytearray, so that the arrays over it are
    writable without a copy.  The file must hold exactly total values, 8
    bytes each, and their crc32 must be crc unless crc is None."""
    try:
        with open(name, "rb") as f:
            buf = bytearray(os.fstat(f.fileno()).st_size)
            nbytes = f.readinto(buf)
    except OSError as e:
        _name_as_pathlib(e)
        raise
    if nbytes != 8 * total:
        raise SpecFormatError(
            f"weights: sidecar holds {nbytes} bytes, lengths declare {total} "
            f"values ({8 * total} bytes)"
        )
    if crc is not None and (got := zlib.crc32(buf)) != crc:
        raise SpecFormatError(
            f"weights: sidecar checksum mismatch: its bytes have crc32 {got}, "
            f"the document records {crc}"
        )
    return np.frombuffer(buf, dtype="<f8")


def _name_as_pathlib(e: OSError) -> None:
    """Name e's file as pathlib spells its path ("a//./b" as "a/b"), the
    one spelling every message of the reader gives a path."""
    if e.filename is not None:
        e.filename = str(Path(e.filename))


def _weight_index(key: str, index: dict) -> int:
    """The layer index a weights key names, given index, the canonical key
    str(i) of each parameterized layer i.  Only those are accepted: "00",
    "+0" or " 0" would alias layer 0, and the later of two such keys would
    silently replace the earlier's values."""
    if key in index:
        return index[key]
    try:
        idx = int(key)
    except (TypeError, ValueError):
        raise SpecFormatError(f"weights: bad layer index {key!r}") from None
    if key != str(idx):
        raise SpecFormatError(f"weights: layer index {key!r} must be written {str(idx)!r}")
    raise SpecFormatError(f"weights: layer {idx} is not a parameterized layer")


def _transform_from_json(obj) -> TransformMetadata:
    """The transform block, tested in the order of its messages.  The
    entries go to ChannelMap as parsed; only a map it refuses is scanned,
    for an entry that is not a list of integers, to name that entry."""
    if not obj.keys() <= _KEYS["transform"]:
        raise _unknown_field(obj, _KEYS["transform"], "transform")
    source = _require(obj, "source", str, "transform")
    where, keys = "transform.input_map", _KEYS["transform.input_map"]
    imap = _require(obj, "input_map", dict, "transform")
    if not imap.keys() <= keys:
        raise _unknown_field(imap, keys, where)
    entries = _require(imap, "entries", list, where)
    stride = _require(imap, "stride", int, where)
    try:
        return TransformMetadata(source, ChannelMap(stride, entries))
    except (ValueError, TypeError) as e:
        refused = e
    for entry in entries:
        _ints(entry, where, "entries")
    raise SpecFormatError(f"transform: {refused}") from None


# json.loads calls parse_constant only for the spellings NaN, Infinity and
# -Infinity, so a spelled infinity is one of these objects and any other
# infinity it returns came from an out-of-range decimal
_CONSTANTS = {"NaN": float("nan"), "Infinity": float("inf"), "-Infinity": float("-inf")}


def _unique_keys(pairs) -> dict:
    """json object_pairs_hook: json.loads alone keeps the last of two equal
    keys, so a repeated "0" in "arrays" would silently replace the first."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SpecFormatError(f"key {key!r} appears twice in one object")
            seen.add(key)
    return obj


# the one decoder of every load: json.loads would build one per call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys, parse_constant=_CONSTANTS.__getitem__)


def load_document(path) -> SpecDocument:
    """Parse and validate a spec document (and its sidecar, if any)."""
    path = os.fspath(path)
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        # json.loads refuses a byte order mark before it decodes, as must this
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        raw = _DECODER.decode(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise SpecFormatError(f"{Path(path)}: not valid JSON ({e})") from None
    except OSError as e:
        _name_as_pathlib(e)
        raise
    # messages name the document as pathlib spells it, worked out only for
    # a document that fails a check
    if type(raw) is not dict:
        raise SpecFormatError(f"{Path(path)}: top level must be an object")
    version = raw.get("schema_version")
    if type(version) is not int:
        raise _field_error(raw, "schema_version", int, Path(path))
    if version != SCHEMA_VERSION:
        raise SpecFormatError(
            f"{Path(path)}: schema_version {version} unsupported (expected {SCHEMA_VERSION})"
        )
    if not raw.keys() <= _KEYS["document"]:
        raise _unknown_field(raw, _KEYS["document"], Path(path))
    network = _network_from_json(_object(raw, "network", path))
    mode = None
    if "weights" in raw:
        wobj = _object(raw, "weights", path)
        _attach_weights(network, wobj, path)
        mode = wobj["mode"]
    meta = _transform_from_json(_object(raw, "transform", path)) if "transform" in raw else None
    return SpecDocument(network=network, transform=meta, weights_mode=mode)


def _object(raw, key, path):
    """The document's field key, which must be a JSON object."""
    val = raw.get(key)
    if type(val) is not dict:
        raise _field_error(raw, key, dict, Path(path))
    return val


# One format per object kind, each at the depth where the closed schema puts
# it, laid out as json.dumps(..., indent=1) lays it out.  Values go in as %d
# (every one is an int) or as _string, json's own spelling of a str.
_DOCUMENT = (
    '{\n "schema_version": %d,\n "network": {\n  "name": %s,\n  "provenance": %s,\n'
    '  "input_shape": [\n   %d,\n   %d,\n   %d\n  ],\n  "layers": %s\n }'
)
_CONV = (
    '{\n    "kind": "conv",\n    "channels_out": %d,\n'
    '    "kernel": [\n     %d,\n     %d\n    ],\n    "stride": %d\n   }'
)
_ACTIVATION = '{\n    "kind": "activation",\n    "function": %s\n   }'
_DENSE = '{\n    "kind": "fully_connected",\n    "units": %d\n   }'
_SIDECAR = (
    ',\n "weights": {\n  "mode": "sidecar",\n  "path": %s,\n  "lengths": %s,\n'
    '  "crc32": %d\n }'
)
_TRANSFORM = (
    ',\n "transform": {\n  "source": %s,\n  "input_map": {\n   "stride": %d,\n'
    '   "entries": %s\n  }\n }'
)
_ENTRY = "[\n     %d,\n     %d,\n     %d\n    ]"
_string = json.encoder.encode_basestring_ascii


def _items(texts, depth: int, brackets="[]") -> str:
    """A JSON array (or object) of already-rendered items at nesting depth
    `depth`, laid out as json.dumps(..., indent=1) lays it out."""
    if not texts:
        return brackets
    inner = "\n" + " " * (depth + 1)
    return f"{brackets[0]}{inner}{(',' + inner).join(texts)}\n{' ' * depth}{brackets[1]}"


def _layer_text(layer) -> str:
    if isinstance(layer, ConvLayer):
        return _CONV % (layer.channels_out, *layer.kernel, layer.stride)
    if isinstance(layer, ActivationLayer):
        return _ACTIVATION % _string(layer.function)
    return _DENSE % layer.units


def save_document(path, doc: SpecDocument, weights_mode=None) -> None:
    """Write a document; weights_mode None stores no weights, "inline" embeds
    them as decimal arrays, "sidecar" writes <document>.weights.bin beside
    the JSON and records its name, which the reader looks up in the
    document's directory."""
    if weights_mode not in (None, "inline", "sidecar"):
        raise ValueError(f"unknown weights mode {weights_mode!r}")
    path = _spelt(path)
    network = doc.network
    # The skeleton is the formats above, filled in: the schema is closed
    # (_KEYS), so no general-purpose encoder walks the document.  Each inline
    # weight array is C-encoded text, and the input map's entries are one
    # %-formatted block.
    parts = [
        _DOCUMENT % (
            SCHEMA_VERSION, _string(network.name), _string(network.provenance),
            *network.input_shape, _items([_layer_text(l) for l in network.layers], 2),
        )
    ]
    carrying = {
        i: l.weights
        for i, l in enumerate(network.layers)
        if getattr(l, "weights", None) is not None
    }
    if weights_mode is not None and carrying:
        # the reader refuses a block that leaves a parameterized layer out
        for i, layer in enumerate(network.layers):
            if i not in carrying and not isinstance(layer, ActivationLayer):
                raise ValueError(f"layer {i} has no weights for the weights block")
        if weights_mode == "inline":
            parts.append(',\n "weights": {\n  "mode": "inline",\n  "arrays": {')
            for n, (i, w) in enumerate(carrying.items()):
                parts += [',' if n else '', f'\n   "{i}": ', *_inline_array(w)]
            parts.append("\n  }\n }")
        else:
            sidecar = str(Path(path).with_suffix(".weights.bin"))
            # the sidecar is written first, so a missing directory is named
            # by the document, as it is in the other modes
            if not os.path.isdir(os.path.dirname(path) or os.curdir):
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
            blob = np.concatenate([w.ravel() for w in carrying.values()], dtype="<f8")
            _write_over(sidecar, [blob], "wb")
            lengths = [f'"{i}": {w.size}' for i, w in carrying.items()]
            parts.append(_SIDECAR % (
                _string(os.path.basename(sidecar)),
                _items(lengths, 2, "{}"),
                zlib.crc32(blob),
            ))
    if doc.transform is not None:
        imap = doc.transform.input_map
        entries = ",\n    ".join([_ENTRY] * len(imap.entries)) % tuple(
            itertools.chain.from_iterable(imap.entries)
        )
        parts.append(_TRANSFORM % (
            _string(doc.transform.source), imap.stride, f"[\n    {entries}\n   ]"
        ))
    parts.append("\n}\n")
    _write_over(path, parts, "w")


def _spelt(path) -> str:
    """path as pathlib spells it ("a//./b" as "a/b"), as files are opened
    and named.  A final separator names a directory, which that spelling
    drops, so such a path is refused as one."""
    given = os.fspath(path)
    spelt = str(Path(given))
    if given.endswith(tuple(filter(None, (os.sep, os.altsep)))):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), spelt)
    return spelt


def _write_over(path, parts, mode: str) -> None:
    """Replace the contents of the file at path (following a symlink, and
    created with open()'s mode bits if it is missing) with parts, str
    written as UTF-8 in mode "w" or bytes-like in mode "wb", one after the
    other.

    The file is written from its start and then, if it was longer, cut to
    the written length, rather than truncated when opened: where a
    filesystem frees blocks eagerly (ext4 mounted with discard), a
    truncating open of a file that holds data costs more than writing a
    small document.  A new file or one no longer than the text is not cut,
    so that writing to a new path costs what it did with a truncating open.
    The file keeps its inode and permissions, and a shorter text leaves no
    stale tail.  A target that is not a regular file (/dev/null, a FIFO, a
    pipe behind /dev/stdout) cannot be cut and is only written.  A write
    that raises part way (a full disk, a file size limit whose signal is
    ignored) cuts a regular file to nothing, so that the file is refused
    rather than read as new head over old tail.  A writer killed part way
    (SIGKILL, SIGXFSZ at its default action) runs no handler and cuts
    nothing: its sidecar is refused by the crc32 its document records, and
    a document is refused only when its cut text fails to parse or to
    agree with itself."""
    f = open(path, mode, encoding=None if "b" in mode else "utf-8",
             opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666))
    try:
        with f:
            old = os.fstat(f.fileno())
            f.writelines(parts)
            if stat.S_ISREG(old.st_mode) and old.st_size > f.tell():
                f.truncate()
    except BaseException:
        # cut after the close, so that nothing still buffered lands past it
        if os.path.isfile(path):
            with contextlib.suppress(OSError):
                os.truncate(path, 0)
        raise


def _inline_array(w) -> list[str]:
    """The text json.dumps(..., indent=1) gives an inline weight array, one
    value per line at depth 4, in pieces from the C encoder: the same
    spelling of every value (NaN, Infinity, -0.0, an int64 as 1) at a
    fraction of the pure-Python encoder's time.  Encoding _CHUNK values at a
    time keeps the Python floats and the encoder's buffers that are alive at
    once small beside the text itself."""
    flat = w.ravel()
    if flat.size == 0:
        return ["[]"]
    parts = ["[\n    "]
    for start in range(0, flat.size, _CHUNK):
        body = json.dumps(flat[start : start + _CHUNK].tolist(), separators=(",\n    ", ": "))
        parts += [body[1:-1], ",\n    "]
    parts[-1] = "\n   ]"
    return parts
