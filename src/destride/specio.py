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
as Python's json module reads and writes them.

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

import json
import math
import os
from dataclasses import dataclass, replace
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


def _layer_to_json(layer) -> dict:
    if isinstance(layer, ConvLayer):
        return {
            "kind": "conv",
            "channels_out": int(layer.channels_out),
            "kernel": [int(v) for v in layer.kernel],
            "stride": int(layer.stride),
        }
    if isinstance(layer, ActivationLayer):
        return {"kind": "activation", "function": layer.function}
    return {"kind": "fully_connected", "units": int(layer.units)}


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


def _attach_weights(network: NetworkSpec, wobj, doc_dir: Path) -> NetworkSpec:
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

    layers = list(network.layers)
    for idx, flat in flats.items():
        want = expected[idx]
        if flat.size != math.prod(want):
            raise SpecFormatError(
                f"weights: layer {idx} has {flat.size} values, shape {want} "
                f"needs {math.prod(want)}"
            )
        layers[idx] = replace(layers[idx], weights=flat.reshape(want))
    return replace(network, layers=tuple(layers))


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
        network = _attach_weights(network, wobj, path.parent)
        mode = wobj["mode"]
    meta = None
    if "transform" in raw:
        meta = _transform_from_json(_require(raw, "transform", dict, str(path)))
    return SpecDocument(network=network, transform=meta, weights_mode=mode)


def save_document(path, doc: SpecDocument, weights_mode=None, sidecar_path=None) -> None:
    """Write a document; weights_mode None stores no weights, "inline" embeds
    them as decimal arrays, "sidecar" writes <document>.weights.bin next to
    the JSON (or sidecar_path) and references it by its path relative to the
    document's directory, which is where the reader looks it up."""
    path = Path(path)
    network = doc.network
    out = {
        "schema_version": SCHEMA_VERSION,
        "network": {
            "name": network.name,
            "provenance": network.provenance,
            "input_shape": [int(v) for v in network.input_shape],
            "layers": [_layer_to_json(l) for l in network.layers],
        },
    }
    carrying = {
        i: l.weights
        for i, l in enumerate(network.layers)
        if getattr(l, "weights", None) is not None
    }
    inline = {}
    if weights_mode is not None and carrying:
        if weights_mode == "inline":
            inline = carrying
            # placeholders, each replaced by its array's values below
            out["weights"] = {"mode": "inline", "arrays": {str(i): [] for i in carrying}}
        elif weights_mode == "sidecar":
            sidecar = Path(sidecar_path) if sidecar_path else path.with_suffix(".weights.bin")
            blob = np.concatenate(
                [carrying[i].ravel() for i in sorted(carrying)]
            ).astype("<f8")
            blob.tofile(sidecar)
            out["weights"] = {
                "mode": "sidecar",
                "path": os.path.relpath(sidecar, path.parent),
                "lengths": {str(i): int(carrying[i].size) for i in sorted(carrying)},
            }
        else:
            raise ValueError(f"unknown weights mode {weights_mode!r}")
    if doc.transform is not None:
        meta = doc.transform
        out["transform"] = {
            "source": meta.source,
            "input_map": {
                "stride": meta.input_map.stride,
                "entries": [list(e) for e in meta.input_map.entries],
            },
        }
    # Only the small skeleton goes through the pure-Python encoder that
    # indent=1 selects.  Strings are written with their newlines escaped, so
    # a raw newline, three spaces and '"<i>": ' can only be a dict key at
    # depth 3, and the only such keys that are layer indices are those of
    # "arrays": each placeholder is found exactly, whatever the strings hold.
    rest = json.dumps(out, indent=1)
    parts = []
    for i, w in inline.items():
        key = f'\n   "{i}": '
        head, _, rest = rest.partition(key + "[]")
        parts += [head, key, *_inline_array(w)]
    parts += [rest, "\n"]
    with path.open("w", encoding="utf-8") as f:
        f.writelines(parts)


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
