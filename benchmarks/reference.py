"""The benchmark's own model of a network, written from the definitions.

Nothing here calls destride.  The harness checks the library's outputs
against these functions:

- read_document / write_document handle the JSON spec schema (inline or
  raw little-endian float64 sidecar weights) without destride.specio;
- evaluate applies valid strided correlation by its definition,
  out[c, i, j] = sum over k, u, v of w[c, k, u, v] * x[k, i*s + u, j*s + v],
  accumulated one kernel offset (u, v) at a time, without destride's
  forward or conv_multichannel;
- regroup is the space-to-depth rearrangement done with a reshape and a
  transpose, without destride's reshape_input;
- plan derives, from the original shapes alone, every count the rewrite
  should produce: multiplicities, transformed shapes, stored values,
  padding zeros, replication and multiply-accumulates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Net:
    """Input shape, layer dicts as the document stores them, and weights
    keyed by layer index."""

    name: str
    input_shape: tuple
    layers: list
    weights: dict = field(default_factory=dict)


def walk(input_shape, layers) -> list:
    """(input shape, output shape, weight shape or None) for every layer.

    Shapes are (channels, h, w) tuples until the first fully connected
    layer, and feature counts after it.
    """
    shape = tuple(input_shape)
    rows = []
    for layer in layers:
        kind = layer["kind"]
        if kind == "conv":
            c, h, w = shape
            kh, kw = layer["kernel"]
            s = layer.get("stride", 1)
            out = (layer["channels_out"], (h - kh) // s + 1, (w - kw) // s + 1)
            rows.append((shape, out, (layer["channels_out"], c, kh, kw)))
        elif kind == "fully_connected":
            feats = int(np.prod(shape)) if isinstance(shape, tuple) else shape
            out = layer["units"]
            rows.append((shape, out, (out, feats)))
        else:
            out = shape
            rows.append((shape, out, None))
        shape = out
    return rows


def macs(input_shape, layers) -> list:
    """Multiply-accumulates per input of every layer (0 for activations)."""
    out = []
    for (_, oshape, wshape) in walk(input_shape, layers):
        if wshape is None:
            out.append(0)
        elif len(wshape) == 4:
            out.append(int(np.prod(wshape)) * oshape[1] * oshape[2])
        else:
            out.append(int(np.prod(wshape)))
    return out


def correlate(x, w, stride):
    """Valid strided multi-channel correlation from its definition."""
    cout, cin, kh, kw = w.shape
    _, h, wd = x.shape
    oh = (h - kh) // stride + 1
    ow = (wd - kw) // stride + 1
    out = np.zeros((cout, oh, ow))
    for u in range(kh):
        for v in range(kw):
            patch = x[:, u : u + stride * (oh - 1) + 1 : stride,
                      v : v + stride * (ow - 1) + 1 : stride]
            out += np.tensordot(w[:, :, u, v], patch, axes=1)
    return out


def evaluate(net: Net, x) -> np.ndarray:
    """The network's output on one input, flattened."""
    for i, layer in enumerate(net.layers):
        kind = layer["kind"]
        if kind == "conv":
            x = correlate(x, net.weights[i], layer.get("stride", 1))
        elif kind == "activation":
            if layer["function"] == "relu":
                x = np.maximum(x, 0.0)
            elif layer["function"] != "identity":
                raise ValueError(f"layer {i}: unknown activation {layer['function']!r}")
        else:
            v = np.ravel(x)
            if layer.get("input_permutation") is not None:
                v = v[np.asarray(layer["input_permutation"])]
            x = net.weights[i] @ v
    return np.ravel(x)


def regroup(x, stride, entries) -> np.ndarray:
    """Space-to-depth: channel i holds the (p, q) grid sample, step stride,
    of source channel k, for (k, p, q) = entries[i], all 1-based."""
    c, h, w = x.shape
    grids = x.reshape(c, h // stride, stride, w // stride, stride).transpose(0, 2, 4, 1, 3)
    return np.stack([grids[k - 1, p - 1, q - 1] for k, p, q in entries])


@dataclass(frozen=True)
class ConvPlan:
    """What the rewrite should make of one original conv layer."""

    index: int
    sigma_out: int
    sigma_in: int
    original: int      # original weight count
    layer: dict        # the transformed layer as the document stores it
    stored: int        # stored weight values in the transformed layer
    padding: int       # of which deliberate zeros
    replication: int   # copies of each original weight
    pairs: int         # (output-channel entry, input-channel entry) pairs


def plan(net: Net) -> dict:
    """ConvPlan per original conv layer index, and the transformed input
    shape, derived from shapes and strides only.

    Walking back from the last conv, a layer's output multiplicity is the
    product of all later strides and its input multiplicity that times its
    own stride.  Each original channel becomes multiplicity^2 channels, each
    filter piece is the stride-sigma_in sample of the filter shifted by up to
    (sigma_out - 1) * stride, and every original weight is copied once per
    output grid, sigma_out^2 times; the rest of the stored block is padding.
    """
    rows = walk(net.input_shape, net.layers)
    conv_ix = [i for i, l in enumerate(net.layers) if l["kind"] == "conv"]
    plans = {}
    acc = 1
    for i in reversed(conv_ix):
        layer = net.layers[i]
        s = layer.get("stride", 1)
        so, si = acc, acc * s
        acc = si
        cout, cin, kh, kw = rows[i][2]
        kernel = [-(-(k + (so - 1) * s) // si) for k in (kh, kw)]
        new_out, new_in = cout * so * so, cin * si * si
        stored = new_out * new_in * kernel[0] * kernel[1]
        original = cout * cin * kh * kw
        plans[i] = ConvPlan(
            index=i,
            sigma_out=so,
            sigma_in=si,
            original=original,
            layer={"kind": "conv", "channels_out": new_out, "kernel": kernel, "stride": 1},
            stored=stored,
            padding=stored - original * so * so,
            replication=so * so,
            pairs=new_out * new_in,
        )
    c, h, w = net.input_shape
    return {"convs": plans, "stride": acc, "input_shape": (c * acc * acc, h // acc, w // acc)}


def transformed_layers(net: Net, convs: dict) -> list:
    """The layer list the rewrite should produce: each conv replaced by its
    planned stride-1 layer, every other layer unchanged."""
    return [convs[i].layer if i in convs else layer for i, layer in enumerate(net.layers)]


def write_document(path: Path, net: Net, mode: str) -> None:
    """Write an original document with inline or sidecar weights."""
    doc = {
        "schema_version": 1,
        "network": {
            "name": net.name,
            "provenance": "original",
            "input_shape": list(net.input_shape),
            "layers": net.layers,
        },
    }
    order = sorted(net.weights)
    if mode == "inline":
        doc["weights"] = {
            "mode": "inline",
            "arrays": {str(i): net.weights[i].ravel().tolist() for i in order},
        }
    else:
        sidecar = path.with_suffix(".weights.bin")
        np.concatenate([net.weights[i].ravel() for i in order]).astype("<f8").tofile(sidecar)
        doc["weights"] = {
            "mode": "sidecar",
            "path": sidecar.name,
            "lengths": {str(i): int(net.weights[i].size) for i in order},
        }
    path.write_text(json.dumps(doc))


def read_document(path: Path):
    """(Net, transform block or None, files on disk) for a document."""
    doc = json.loads(path.read_text())
    network = doc["network"]
    net = Net(network["name"], tuple(network["input_shape"]), network["layers"])
    shapes = {i: row[2] for i, row in enumerate(walk(net.input_shape, net.layers))}
    files = [path]
    wobj = doc.get("weights")
    if wobj is not None and wobj["mode"] == "inline":
        for key, values in wobj["arrays"].items():
            net.weights[int(key)] = np.asarray(values, dtype=np.float64).reshape(shapes[int(key)])
    elif wobj is not None:
        sidecar = path.parent / wobj["path"]
        files.append(sidecar)
        blob = np.fromfile(sidecar, dtype="<f8")
        lengths = {int(k): int(v) for k, v in wobj["lengths"].items()}
        if blob.size != sum(lengths.values()):
            raise ValueError(f"{sidecar}: {blob.size} values, lengths declare {sum(lengths.values())}")
        pos = 0
        for i in sorted(lengths):
            net.weights[i] = blob[pos : pos + lengths[i]].reshape(shapes[i])
            pos += lengths[i]
    return net, doc.get("transform"), files
