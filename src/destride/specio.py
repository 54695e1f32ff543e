"""Reading and writing network spec documents.

A document is a JSON object:

    {
      "schema_version": 1,
      "network": {
        "name": "...", "provenance": "original",
        "input_shape": [channels, height, width],
        "layers": [
          {"kind": "conv", "channels_out": C, "kernel": [kh, kw], "stride": s},
          {"kind": "activation", "function": "relu"},
          {"kind": "fully_connected", "units": U, "input_permutation": [...]?}
        ]
      },
      "weights": { ... }?,        optional
      "transform": { ... }?       present on transformed documents
    }

Weights are either inline ({"mode": "inline", "arrays": {"<layer index>":
[flat floats...]}}) or a sidecar reference ({"mode": "sidecar", "path":
"relative/file.bin", "lengths": {"<layer index>": count}}).  The sidecar is
raw little-endian float64, layers concatenated in index order.  Inline
decimal values round-trip bit-exactly (shortest-repr floats); sidecars are
the raw bytes, so both modes reload to identical arrays.

The transform block links a transformed document to its source:
{"source": name, "input_map": {"stride": s, "entries": [[k, p, q], ...]}}.
Documents written by earlier versions also carry "flatten_permutation":
[0-based indices]; it is still read, and must be the identity, since the
rewrite never reorders the flattened features.

Every integer field (channels_out, kernel, stride, units, input_shape,
input_permutation, the input map's stride and entries, sidecar lengths) must
be a JSON integer: floats and booleans are rejected, not coerced.  A layer
may carry only the keys shown above for its kind, and inline weight arrays
must be flat lists of JSON numbers.
"""

from __future__ import annotations

import json
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


_LAYER_KEYS = {
    "conv": {"kind", "channels_out", "kernel", "stride"},
    "activation": {"kind", "function"},
    "fully_connected": {"kind", "units", "input_permutation"},
}


def _layer_from_json(i, obj):
    where = f"layer {i}"
    kind = _require(obj, "kind", str, where)
    if kind not in _LAYER_KEYS:
        raise SpecFormatError(f"{where}: unknown kind {kind!r}")
    unknown = sorted(set(obj) - _LAYER_KEYS[kind])
    if unknown:
        raise SpecFormatError(f"{where}: unknown field {unknown[0]!r} for a {kind} layer")
    if kind == "conv":
        return ConvLayer(
            channels_out=_require(obj, "channels_out", int, where),
            kernel=_ints(_require(obj, "kernel", list, where), f"{where}: kernel"),
            stride=_int(obj.get("stride", 1), f"{where}: stride"),
        )
    if kind == "activation":
        return ActivationLayer(function=_require(obj, "function", str, where))
    if kind == "fully_connected":
        perm = obj.get("input_permutation")
        return FullyConnectedLayer(
            units=_require(obj, "units", int, where),
            input_permutation=None
            if perm is None
            else np.asarray(_ints(perm, f"{where}: input_permutation"), dtype=np.int64),
        )


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
    out = {"kind": "fully_connected", "units": int(layer.units)}
    if layer.input_permutation is not None:
        out["input_permutation"] = [int(v) for v in layer.input_permutation]
    return out


def _network_from_json(obj) -> NetworkSpec:
    name = _require(obj, "name", str, "network")
    shape = _require(obj, "input_shape", list, "network")
    layers_json = _require(obj, "layers", list, "network")
    try:
        layers = tuple(_layer_from_json(i, l) for i, l in enumerate(layers_json))
        return NetworkSpec(
            name=name,
            input_shape=_ints(shape, "network: input_shape"),
            layers=layers,
            provenance=obj.get("provenance", "original"),
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
    flats: dict[int, np.ndarray] = {}
    if mode == "inline":
        arrays = _require(wobj, "arrays", dict, "weights")
        for key, values in arrays.items():
            idx = _weight_index(key, expected)
            # exact types: bool is an int subclass and must not load as 0/1
            if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
                raise SpecFormatError(f"weights: layer {idx} must be a flat list of numbers")
            flats[idx] = np.asarray(values, dtype=np.float64)
    elif mode == "sidecar":
        rel = _require(wobj, "path", str, "weights")
        lengths = _require(wobj, "lengths", dict, "weights")
        order = sorted(_weight_index(k, expected) for k in lengths)
        counts = {
            _weight_index(k, expected): _int(v, "weights: lengths") for k, v in lengths.items()
        }
        blob = np.fromfile(doc_dir / rel, dtype="<f8")
        if blob.size != sum(counts.values()):
            raise SpecFormatError(
                f"weights: sidecar holds {blob.size} values, lengths declare "
                f"{sum(counts.values())}"
            )
        pos = 0
        for idx in order:
            flats[idx] = blob[pos : pos + counts[idx]]
            pos += counts[idx]
    else:
        raise SpecFormatError(f"weights: unknown mode {mode!r}")

    layers = list(network.layers)
    for idx, flat in flats.items():
        want = expected[idx]
        if flat.size != int(np.prod(want)):
            raise SpecFormatError(
                f"weights: layer {idx} has {flat.size} values, shape {want} "
                f"needs {int(np.prod(want))}"
            )
        layers[idx] = replace(layers[idx], weights=flat.reshape(want))
    return replace(network, layers=tuple(layers))


def _weight_index(key: str, expected: dict) -> int:
    try:
        idx = int(key)
    except (TypeError, ValueError):
        raise SpecFormatError(f"weights: bad layer index {key!r}") from None
    if idx not in expected:
        raise SpecFormatError(f"weights: layer {idx} is not a parameterized layer")
    return idx


def _transform_from_json(obj) -> TransformMetadata:
    source = _require(obj, "source", str, "transform")
    imap = _require(obj, "input_map", dict, "transform")
    entries = _require(imap, "entries", list, "transform.input_map")
    stride = _require(imap, "stride", int, "transform.input_map")
    entries = tuple(_ints(e, "transform.input_map: entries") for e in entries)
    if "flatten_permutation" in obj:
        # written by earlier versions; the rewrite keeps the flatten order
        perm = _ints(obj["flatten_permutation"], "transform: flatten_permutation")
        if perm != tuple(range(len(perm))):
            raise SpecFormatError("transform: flatten_permutation must be the identity")
    try:
        return TransformMetadata(source, ChannelMap(stride=stride, entries=entries))
    except (ValueError, TypeError) as e:
        raise SpecFormatError(f"transform: {e}") from None


def load_document(path) -> SpecDocument:
    """Parse and validate a spec document (and its sidecar, if any)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise SpecFormatError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(raw, dict):
        raise SpecFormatError(f"{path}: top level must be an object")
    version = _require(raw, "schema_version", int, str(path))
    if version != SCHEMA_VERSION:
        raise SpecFormatError(
            f"{path}: schema_version {version} unsupported (expected {SCHEMA_VERSION})"
        )
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
    the JSON (or sidecar_path) and references it relatively."""
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
    if weights_mode is not None and carrying:
        if weights_mode == "inline":
            out["weights"] = {
                "mode": "inline",
                "arrays": {str(i): w.ravel().tolist() for i, w in carrying.items()},
            }
        elif weights_mode == "sidecar":
            sidecar = Path(sidecar_path) if sidecar_path else path.with_suffix(".weights.bin")
            blob = np.concatenate(
                [carrying[i].ravel() for i in sorted(carrying)]
            ).astype("<f8")
            blob.tofile(sidecar)
            out["weights"] = {
                "mode": "sidecar",
                "path": sidecar.name if sidecar.parent == path.parent else str(sidecar),
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
    path.write_text(json.dumps(out, indent=1) + "\n")
