"""Reading and writing network spec documents.

A document is a JSON object, and every object in it carries exactly the
keys shown (_KEYS lists them), except that "weights", "transform",
"provenance" and a conv's "stride" may be left out:

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
                  "lengths": {"<layer index>": count}},
      "transform": {"source": name,
                    "input_map": {"stride": s, "entries": [[k, p, q], ...]}}
    }

A sidecar "path" is relative to the document's directory, and the file it
names is raw little-endian float64, layers concatenated in index order.
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
bytes in one call.  Both files are replaced in place (_write_over): an
existing file is written over from its start, keeping its inode, and then,
if it was longer, cut to the new length; a target that is not a regular
file, such as /dev/null or a FIFO, is written but not cut.  A write that
fails part way cuts a regular file to nothing, so no document is left that
loads the new head over the old tail.  The reader builds each layer and
the network once and then gives the layers their weights, and it
type-checks the input map's entries in one pass, going entry by entry only
to name a malformed one.

The transform block links a transformed document to its source.  The
rewrite writes the input map's entries in source-major order
(channel_entries), but any complete enumeration of the (k, p, q) triples is
read, since the transformed network's first conv can read its input
channels in any order.

Every integer field (channels_out, kernel, stride, units, input_shape, the
input map's stride and entries, sidecar lengths) must be a JSON integer:
floats and booleans are rejected, not coerced, and sidecar lengths must not
be negative.  A sidecar must hold exactly 8 bytes per value the lengths
declare, with no trailing bytes.  A key not shown for its object (a
layer's of another kind, a weights block's of the other mode, or the dense
"input_permutation" and transform "flatten_permutation" that earlier
versions wrote) is rejected, as is a key repeated within one object.
"provenance" must be a string, and inline weight arrays must be flat lists
of JSON numbers, none beyond float64: an integer too large, or a decimal
such as 1e400 that json reads as infinity, is rejected, while NaN, Infinity
and -Infinity load.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import stat
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


def _int(val, where):
    """val if it is a JSON integer; floats and booleans are rejected rather
    than truncated (bool is a subclass of int)."""
    if type(val) is not int:
        raise SpecFormatError(f"{where}: expected an integer, got {val!r}")
    return val


def _ints(val, where):
    if not isinstance(val, list):
        raise SpecFormatError(f"{where}: expected a list of integers, got {val!r}")
    return tuple(_int(v, where) for v in val)


def _require(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise SpecFormatError(f"{where}: missing field {key!r}")
    val = obj[key]
    if kind is int:
        return _int(val, f"{where}: field {key!r}")
    if not isinstance(val, kind):
        raise SpecFormatError(f"{where}: field {key!r} has wrong type {type(val).__name__}")
    return val


def _reject_unknown(obj, known, where):
    unknown = sorted(set(obj) - known)
    if unknown:
        raise SpecFormatError(f"{where}: unknown field {unknown[0]!r}")


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
        "sidecar": {"mode", "path", "lengths"},
    },
    "transform": {"source", "input_map"},
    "transform.input_map": {"stride", "entries"},
}


def _layer_from_json(i, obj):
    where = f"layer {i}"
    kind = _require(obj, "kind", str, where)
    if kind not in _KEYS["layer"]:
        raise SpecFormatError(f"{where}: unknown kind {kind!r}")
    _reject_unknown(obj, _KEYS["layer"][kind], f"{where} ({kind})")
    if kind == "conv":
        return ConvLayer(
            channels_out=_require(obj, "channels_out", int, where),
            kernel=_ints(_require(obj, "kernel", list, where), f"{where}: kernel"),
            stride=_int(obj.get("stride", 1), f"{where}: stride"),
        )
    if kind == "activation":
        return ActivationLayer(function=_require(obj, "function", str, where))
    return FullyConnectedLayer(units=_require(obj, "units", int, where))


def _network_from_json(obj) -> NetworkSpec:
    _reject_unknown(obj, _KEYS["network"], "network")
    name = _require(obj, "name", str, "network")
    provenance = (
        _require(obj, "provenance", str, "network") if "provenance" in obj else "original"
    )
    shape = _require(obj, "input_shape", list, "network")
    layers_json = _require(obj, "layers", list, "network")
    try:
        layers = tuple(_layer_from_json(i, l) for i, l in enumerate(layers_json))
        return NetworkSpec(
            name=name,
            input_shape=_ints(shape, "network: input_shape"),
            layers=layers,
            provenance=provenance,
        )
    except SpecFormatError:
        raise
    except (ValueError, TypeError) as e:
        raise SpecFormatError(f"network: {e}") from None


def _attach_weights(network: NetworkSpec, wobj, doc_dir: Path) -> None:
    """Read the weights block into network's layers.  They are the reader's
    own, just built and not yet handed out, so each is given its weights in
    place rather than built a second time."""
    expected = {
        i: wshape for i, (_, _, wshape) in enumerate(_walk(network)) if wshape is not None
    }
    mode = _require(wobj, "mode", str, "weights")
    if mode not in _KEYS["weights"]:
        raise SpecFormatError(f"weights: unknown mode {mode!r}")
    _reject_unknown(wobj, _KEYS["weights"][mode], f"weights ({mode})")
    flats: dict[int, np.ndarray] = {}
    if mode == "inline":
        arrays = _require(wobj, "arrays", dict, "weights")
        for key, values in arrays.items():
            idx = _weight_index(key, expected)
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
    else:
        rel = _require(wobj, "path", str, "weights")
        lengths = _require(wobj, "lengths", dict, "weights")
        counts = {
            _weight_index(k, expected): _int(v, "weights: lengths") for k, v in lengths.items()
        }
        for idx, n in counts.items():
            if n < 0:
                raise SpecFormatError(f"weights: layer {idx} has negative length {n}")
        path = doc_dir / rel
        blob = np.fromfile(path, dtype="<f8")
        # fromfile drops a partial last value, so the byte size is what counts
        nbytes, total = path.stat().st_size, sum(counts.values())
        if nbytes != 8 * total:
            raise SpecFormatError(
                f"weights: sidecar holds {nbytes} bytes, lengths declare {total} "
                f"values ({8 * total} bytes)"
            )
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


def _weight_index(key: str, expected: dict) -> int:
    """The layer index a weights key names.  Only the canonical str(i) is
    accepted: "00", "+0" or " 0" would alias layer 0, and the later of two
    such keys would silently replace the earlier's values."""
    try:
        idx = int(key)
    except (TypeError, ValueError):
        raise SpecFormatError(f"weights: bad layer index {key!r}") from None
    if key != str(idx):
        raise SpecFormatError(f"weights: layer index {key!r} must be written {str(idx)!r}")
    if idx not in expected:
        raise SpecFormatError(f"weights: layer {idx} is not a parameterized layer")
    return idx


def _transform_from_json(obj) -> TransformMetadata:
    _reject_unknown(obj, _KEYS["transform"], "transform")
    source = _require(obj, "source", str, "transform")
    imap = _require(obj, "input_map", dict, "transform")
    _reject_unknown(imap, _KEYS["transform.input_map"], "transform.input_map")
    entries = _require(imap, "entries", list, "transform.input_map")
    stride = _require(imap, "stride", int, "transform.input_map")
    # one pass over lists of JSON integers, the entries a writer writes;
    # anything else is checked entry by entry, for the message that names it
    if set(map(type, entries)) <= {list} and set(
        map(type, itertools.chain.from_iterable(entries))
    ) <= {int}:
        entries = tuple(map(tuple, entries))
    else:
        entries = tuple(_ints(e, "transform.input_map: entries") for e in entries)
    try:
        return TransformMetadata(source, ChannelMap(stride=stride, entries=entries))
    except (ValueError, TypeError) as e:
        raise SpecFormatError(f"transform: {e}") from None


# json.loads calls parse_constant only for the spellings NaN, Infinity and
# -Infinity, so a spelled infinity is one of these objects and any other
# infinity it returns came from an out-of-range decimal
_CONSTANTS = {"NaN": float("nan"), "Infinity": float("inf"), "-Infinity": float("-inf")}


def _unique_keys(pairs) -> dict:
    """json object_pairs_hook: json.loads alone keeps the last of two equal
    keys, so a repeated "0" in "arrays" would silently replace the first."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SpecFormatError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def load_document(path) -> SpecDocument:
    """Parse and validate a spec document (and its sidecar, if any)."""
    path = Path(path)
    try:
        raw = json.loads(
            path.read_text(encoding="utf-8"),
            object_pairs_hook=_unique_keys,
            parse_constant=_CONSTANTS.__getitem__,
        )
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise SpecFormatError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(raw, dict):
        raise SpecFormatError(f"{path}: top level must be an object")
    version = _require(raw, "schema_version", int, str(path))
    if version != SCHEMA_VERSION:
        raise SpecFormatError(
            f"{path}: schema_version {version} unsupported (expected {SCHEMA_VERSION})"
        )
    _reject_unknown(raw, _KEYS["document"], str(path))
    network = _network_from_json(_require(raw, "network", dict, str(path)))
    mode = None
    if "weights" in raw:
        wobj = _require(raw, "weights", dict, str(path))
        _attach_weights(network, wobj, path.parent)
        mode = wobj["mode"]
    meta = None
    if "transform" in raw:
        meta = _transform_from_json(_require(raw, "transform", dict, str(path)))
    return SpecDocument(network=network, transform=meta, weights_mode=mode)


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
_SIDECAR = ',\n "weights": {\n  "mode": "sidecar",\n  "path": %s,\n  "lengths": %s\n }'
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


def save_document(path, doc: SpecDocument, weights_mode=None, sidecar_path=None) -> None:
    """Write a document; weights_mode None stores no weights, "inline" embeds
    them as decimal arrays, "sidecar" writes <document>.weights.bin next to
    the JSON (or sidecar_path) and references it by its path relative to the
    document's directory, which is where the reader looks it up."""
    if weights_mode not in (None, "inline", "sidecar"):
        raise ValueError(f"unknown weights mode {weights_mode!r}")
    path = Path(path)
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
        if weights_mode == "inline":
            parts.append(',\n "weights": {\n  "mode": "inline",\n  "arrays": {')
            for n, (i, w) in enumerate(carrying.items()):
                parts += [',' if n else '', f'\n   "{i}": ', *_inline_array(w)]
            parts.append("\n  }\n }")
        else:
            sidecar = Path(sidecar_path) if sidecar_path else path.with_suffix(".weights.bin")
            blob = np.concatenate([w.ravel() for w in carrying.values()], dtype="<f8")
            _write_over(sidecar, [blob], "wb")
            lengths = [f'"{i}": {w.size}' for i, w in carrying.items()]
            parts.append(_SIDECAR % (
                _string(os.path.relpath(sidecar, path.parent)), _items(lengths, 2, "{}")
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
    that fails part way cuts a regular file to nothing, so that new head
    over old tail cannot pass for the old document or its sidecar."""
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
