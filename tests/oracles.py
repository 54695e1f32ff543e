"""Brute-force reference implementations used to check the library.

Everything here is deliberately written without importing the package under
test, so that the two sides of every comparison are independent, and mostly
as plain index loops.  The exception is the single-input evaluator at the end
(einsum_conv and what builds on it): one input and one einsum per conv at a
time, a reference for the package's batched im2col products that shares
none of their code.  Slow is fine; these only run on small inputs.
layerwise_forward imports the package's conv_multichannel on purpose: it is
the evaluator loop forward once was, the reference for the bits of its
planned evaluation.  document_text, last, is the spec writer as the single
json.dumps call it once was, the reference for the spliced writer's bytes.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def slide_correlate(h, x):
    """Valid-mode sliding inner product, the loop definition."""
    h = np.asarray(h, dtype=float)
    x = np.asarray(x, dtype=float)
    a, b = h.shape
    c, d = x.shape
    out = np.zeros((c - a + 1, d - b + 1))
    for i in range(c - a + 1):
        for j in range(d - b + 1):
            acc = 0.0
            for u in range(a):
                for v in range(b):
                    acc += h[u, v] * x[i + u, j + v]
            out[i, j] = acc
    return out


def slide_correlate_strided(h, x, s):
    """Strided correlation: every s-th output of the full correlation."""
    full = slide_correlate(h, x)
    rows = [full[i] for i in range(0, full.shape[0], s)]
    out = np.array(rows)
    cols = [out[:, j] for j in range(0, out.shape[1], s)]
    return np.array(cols).T


def grid_sample(x, m, n, s):
    """Keep entries at 1-based positions ((i-1)s+m, (j-1)s+n), by enumeration."""
    x = np.asarray(x, dtype=float)
    rows = []
    i = m - 1
    while i < x.shape[0]:
        rows.append(i)
        i += s
    cols = []
    j = n - 1
    while j < x.shape[1]:
        cols.append(j)
        j += s
    out = np.zeros((len(rows), len(cols)))
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            out[a, b] = x[i, j]
    return out


def tensor_contract(t, x):
    """The four-index contraction out[i,j] = sum_{k,l} t[i,j,k,l] * x[l,k]."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    d1, d2, d3, d4 = t.shape
    out = np.zeros((d1, d2))
    for i in range(d1):
        for j in range(d2):
            acc = 0.0
            for k in range(d3):
                for l in range(d4):
                    acc += t[i, j, k, l] * x[l, k]
            out[i, j] = acc
    return out


def multichannel_forward(w, x, s):
    """Per-channel strided correlation summed over input channels."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    cout = w.shape[0]
    out = []
    for c in range(cout):
        acc = None
        for k in range(w.shape[1]):
            term = slide_correlate_strided(w[c, k], x[k], s)
            acc = term if acc is None else acc + term
        out.append(acc)
    return np.array(out)


def source_map(cin, kernel, stride, sigma_in, out_entries, in_entries):
    """Source map of one transformed conv layer, by the paper's construction.

    For output entry (c, m, n) and input entry (k, p, q), all 1-based: take
    the matrix of flat indices of H[c, k] in the (cout, cin, kh, kw) weight
    block, prepend (m-1)*stride rows and (n-1)*stride columns of -1, take its
    (p, q, sigma_in) grid sample, and pad it bottom/right with -1 up to the
    largest piece.  Returns an int64 array (len(out), len(in), hh, ww).
    """
    kh, kw = kernel
    pieces = []
    for c, m, n in out_entries:
        row = []
        for k, p, q in in_entries:
            index = []
            for u in range(kh):
                index.append([(((c - 1) * cin + (k - 1)) * kh + u) * kw + v for v in range(kw)])
            top = (m - 1) * stride
            left = (n - 1) * stride
            padded = []
            for _ in range(top):
                padded.append([-1] * (left + kw))
            for line in index:
                padded.append([-1] * left + line)
            sample = []
            i = p - 1
            while i < len(padded):
                picked = []
                j = q - 1
                while j < len(padded[i]):
                    picked.append(padded[i][j])
                    j += sigma_in
                sample.append(picked)
                i += sigma_in
            row.append(sample)
        pieces.append(row)
    hh = max(len(g) for row in pieces for g in row)
    ww = max(len(line) for row in pieces for g in row for line in g)
    out = np.full((len(out_entries), len(in_entries), hh, ww), -1, dtype=np.int64)
    for a, row in enumerate(pieces):
        for b, g in enumerate(row):
            for r, line in enumerate(g):
                for t, value in enumerate(line):
                    out[a, b, r, t] = value
    return out


def axis_offsets(kernel, stride, sigma_in, piece):
    """The source map's rule along one axis, by construction.

    For output grid m and input grid p, both 0-based: take the kernel
    offsets 0..kernel-1, prepend m*stride entries of -1, take every
    sigma_in-th entry starting at p, and pad or crop with -1 to piece
    entries.  Returns an int64 array (sigma_in // stride, sigma_in, piece).
    """
    out = np.full((sigma_in // stride, sigma_in, piece), -1, dtype=np.int64)
    for m in range(sigma_in // stride):
        line = [-1] * (m * stride) + list(range(kernel))
        for p in range(sigma_in):
            picked = []
            i = p
            while i < len(line):
                picked.append(line[i])
                i += sigma_in
            picked = (picked + [-1] * piece)[:piece]
            for r, value in enumerate(picked):
                out[m, p, r] = value
    return out


def einsum_conv(w, x, s):
    """Strided multi-channel correlation of one (channel, row, col) map, as
    one einsum over sliding windows."""
    windows = sliding_window_view(x, w.shape[2:], axis=(1, 2))[:, ::s, ::s]
    return np.einsum("oiuv,ihwuv->ohw", w, windows)


def einsum_forward(spec, x):
    """One input through a network, one layer at a time: einsum_conv for a
    conv, max(x, 0) or identity for an activation, the weights times the
    flattened map for a dense layer.  Layers are told apart by their fields,
    so nothing of the package is imported."""
    x = np.asarray(x, dtype=float)
    for layer in spec.layers:
        if hasattr(layer, "kernel"):
            x = einsum_conv(layer.weights, x, layer.stride)
        elif hasattr(layer, "function"):
            x = np.maximum(x, 0.0) if layer.function == "relu" else x
        else:
            x = layer.weights @ x.ravel()
    return np.asarray(x, dtype=float).ravel()


def layerwise_forward(spec, x):
    """forward as the loop it once was, working every layer out at every
    call: conv_multichannel for a conv, max(x, 0) or identity for an
    activation, the flattened map times the transposed weights for a dense
    layer.  One input (c, h, w) gives the flat output, a batch (N, c, h, w)
    gives (N, outputs).  Layers are told apart by their fields."""
    from destride import conv_multichannel

    x = np.asarray(x, dtype=np.float64)
    batch = x.shape[:-3]
    for layer in spec.layers:
        if hasattr(layer, "kernel"):
            x = conv_multichannel(layer.weights, x, layer.stride)
        elif hasattr(layer, "function"):
            x = np.maximum(x, 0.0) if layer.function == "relu" else x
        else:
            x = x.reshape(*batch, int(np.prod(x.shape[len(batch):]))) @ layer.weights.T
    return x.reshape(*batch, int(np.prod(x.shape[len(batch):])))


def space_to_depth(x, entries, s):
    """Stack the (p, q, s) grid sample of channel k for each 1-based entry
    (k, p, q) of a channel map."""
    return np.stack([x[k - 1, p - 1 :: s, q - 1 :: s] for k, p, q in entries])


def verify_loop(original, transformed, entries, s, trials, seed):
    """The per-trial verification loop: the deviation of each trial, drawing
    one input at a time from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    devs = []
    for _ in range(trials):
        x = rng.standard_normal(original.input_shape)
        y = einsum_forward(original, x)
        yt = einsum_forward(transformed, space_to_depth(x, entries, s))
        devs.append(float(np.max(np.abs(y - yt))))
    return devs


def document_text(path, doc, weights_mode=None):
    """The text a spec document is saved as: the whole document as one dict
    through json.dumps(indent=1), as the writer built it before splicing in
    its weight arrays.  The sidecar itself is not written.  Layers are told
    apart by their fields, so nothing of the package is imported."""
    path = Path(path)
    network = doc.network
    layers = []
    for layer in network.layers:
        if hasattr(layer, "kernel"):
            layers.append({"kind": "conv", "channels_out": int(layer.channels_out),
                           "kernel": [int(v) for v in layer.kernel],
                           "stride": int(layer.stride)})
        elif hasattr(layer, "function"):
            layers.append({"kind": "activation", "function": layer.function})
        else:
            layers.append({"kind": "fully_connected", "units": int(layer.units)})
    out = {
        "schema_version": 1,
        "network": {
            "name": network.name,
            "provenance": network.provenance,
            "input_shape": [int(v) for v in network.input_shape],
            "layers": layers,
        },
    }
    carrying = {i: l.weights for i, l in enumerate(network.layers)
                if getattr(l, "weights", None) is not None}
    if weights_mode == "inline" and carrying:
        out["weights"] = {
            "mode": "inline",
            "arrays": {str(i): w.ravel().tolist() for i, w in carrying.items()},
        }
    elif weights_mode == "sidecar" and carrying:
        sidecar = path.with_suffix(".weights.bin")
        out["weights"] = {
            "mode": "sidecar",
            "path": os.path.relpath(sidecar, path.parent),
            "lengths": {str(i): int(carrying[i].size) for i in sorted(carrying)},
            # of the sidecar's bytes: each array as little-endian float64
            "crc32": zlib.crc32(b"".join(
                np.asarray(carrying[i], dtype="<f8").tobytes() for i in sorted(carrying)
            )),
        }
    if doc.transform is not None:
        out["transform"] = {
            "source": doc.transform.source,
            "input_map": {
                "stride": doc.transform.input_map.stride,
                "entries": [list(e) for e in doc.transform.input_map.entries],
            },
        }
    return json.dumps(out, indent=1) + "\n"
