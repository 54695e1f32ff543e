"""Stride elimination for single layers and whole networks.

The single-layer fact: a stride-s correlation equals a sum of stride-1
correlations between grid samples of the filter and of the image, one term
per grid offset (p, q).  More generally, sampling the output of a full
correlation on an (m, n, s) grid equals summing, over all (p, q) offsets,
the correlations of the (p, q)-sampled image against the (p, q)-sampled
filter once the filter has been realigned by prepending m-1 zero rows and
n-1 zero columns.

The network rewrite applies this backwards through the layers.  Walking from
the last convolution to the first, each layer is assigned an output-side
multiplicity (the product of all later strides) and an input-side
multiplicity (that times its own stride).  A feature map with multiplicity
sigma is represented as sigma^2 channels per original channel, channel
(k, p, q) holding the (p, q, sigma) grid sample of original channel k.  Each
transformed convolution maps one such representation to the next with stride
1: its filter piece from input channel (k, p, q) to output channel (c, m, n)
is the (p, q, sigma_in) sample of the original filter H[c, k] padded by the
composed offset, every piece zero-padded bottom/right to a common per-layer
shape.  Under the divisibility preconditions each piece's correlation lands
exactly on the target grid, so no cropping is needed anywhere and outputs
match the original network bit-for-bit up to float summation order.

Transformed weights are pure copies of original weights; the construction
records, for every stored value, the flat index of the original weight it
came from (-1 for the deliberate padding zeros), which is what the parameter
report audits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .convolution import conv2d
from .network import ConvLayer, NetworkSpec, _walk, infer_shapes
from .sampling import (
    RaggedSamplingError,
    SamplingSpec,
    compose_sampling,
    sample_matrix,
    zero_pad,
)
from .tensors import as_matrix

CHANNEL_ORDERS = ("source-major", "grid-major")


def channel_entries(channels: int, stride: int, order: str = "source-major") -> tuple:
    """Enumerate the (source_channel, row_offset, col_offset) triples that
    name the channels of a multiplicity-`stride` representation.

    source-major keeps all grids of one source channel contiguous; grid-major
    is the alternate order used to show the enumeration is a free choice.
    """
    if order == "source-major":
        return tuple(
            (k, p, q)
            for k in range(1, channels + 1)
            for p in range(1, stride + 1)
            for q in range(1, stride + 1)
        )
    if order == "grid-major":
        return tuple(
            (k, p, q)
            for p in range(1, stride + 1)
            for q in range(1, stride + 1)
            for k in range(1, channels + 1)
        )
    raise ValueError(f"unknown channel order {order!r}, expected one of {CHANNEL_ORDERS}")


@dataclass(frozen=True)
class ChannelMap:
    """How a multiplicity-`stride` representation enumerates its channels.

    entries[i] = (source_channel k, row_offset p, col_offset q), all 1-based:
    new channel i holds the (p, q, stride) grid sample of source channel k.
    The entries must enumerate every (k, p, q) combination exactly once.
    """

    stride: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(tuple(e) for e in self.entries))
        if self.stride < 1:
            raise ValueError(f"stride must be at least 1, got {self.stride}")
        if not self.entries:
            raise ValueError("channel map needs at least one entry")
        channels = max(k for k, _, _ in self.entries)
        want = {
            (k, p, q)
            for k in range(1, channels + 1)
            for p in range(1, self.stride + 1)
            for q in range(1, self.stride + 1)
        }
        if len(self.entries) != len(want) or set(self.entries) != want:
            raise ValueError("entries must cover every (channel, p, q) exactly once")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def source_channels(self) -> int:
        return max(k for k, _, _ in self.entries)


class TransformResult(NamedTuple):
    network: NetworkSpec
    input_map: ChannelMap
    # conv layer index -> source map of the transformed layer (_conv_sources)
    sources: dict


def destride_layer(filt, image, stride: int):
    """Split one strided correlation into stride-1 pieces.

    Returns (filters, channels): equally shaped filter pieces and image
    pieces such that the sum of their plain correlations equals
    conv2d_strided(filt, image, stride).  Pieces are ordered by grid offset
    (p, q), row offset outermost; filter pieces are zero-padded bottom/right
    to a common shape.  Offsets whose image sample is empty are dropped
    (their filter sample is empty too whenever the filter fits the image).

    Each image dimension must be divisible by the stride or smaller than it;
    anything else would make the image pieces ragged.
    """
    h = as_matrix(filt)
    x = as_matrix(image)
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if h.shape[0] > x.shape[0] or h.shape[1] > x.shape[1]:
        raise ValueError(f"filter {h.shape} larger than image {x.shape}")
    for axis, dim in (("rows", x.shape[0]), ("cols", x.shape[1])):
        if dim % stride != 0 and dim >= stride:
            raise RaggedSamplingError(
                f"image {axis} {dim} not divisible by stride {stride}"
            )
    pairs = [
        (p, q)
        for p in range(1, stride + 1)
        for q in range(1, stride + 1)
        if p <= x.shape[0] and q <= x.shape[1]
    ]
    filt_pieces = [sample_matrix(h, (p, q, stride)) for p, q in pairs]
    hh = max(g.shape[0] for g in filt_pieces)
    ww = max(g.shape[1] for g in filt_pieces)
    filters = [
        np.pad(g, ((0, hh - g.shape[0]), (0, ww - g.shape[1]))) for g in filt_pieces
    ]
    channels = [sample_matrix(x, (p, q, stride)) for p, q in pairs]
    return filters, channels


def sampled_conv_identity(filt, image, row_offset: int, col_offset: int, stride: int):
    """Both sides of the sampled-correlation identity, for checking.

    lhs: the (row_offset, col_offset, stride) grid sample of the full
    correlation.  rhs: the sum over grid offsets (p, q) of correlations
    between the (p, q)-sampled image and the (p, q)-sampled filter, the
    filter first realigned by prepending row_offset-1 zero rows and
    col_offset-1 zero columns; each term cropped top-left to the lhs shape.
    Terms whose filter or image sample is empty contribute nothing.  The two
    returned matrices agree up to float summation order.
    """
    h = as_matrix(filt)
    x = as_matrix(image)
    spec = SamplingSpec(row_offset, col_offset, stride)
    lhs = sample_matrix(conv2d(h, x), spec)
    rhs = np.zeros_like(lhs)
    if lhs.size == 0:
        return lhs, rhs
    padded = zero_pad(h, row_offset - 1, col_offset - 1)
    for p in range(1, stride + 1):
        for q in range(1, stride + 1):
            g = sample_matrix(padded, (p, q, stride))
            xs = sample_matrix(x, (p, q, stride))
            if g.size == 0 or xs.size == 0:
                continue
            # fits whenever lhs is non-empty; see module docstring
            term = conv2d(g, xs)
            rhs += term[: lhs.shape[0], : lhs.shape[1]]
    return lhs, rhs


def _multiplicities(spec: NetworkSpec):
    """Output- and input-side multiplicities per conv layer index."""
    conv_ix = [i for i, l in enumerate(spec.layers) if isinstance(l, ConvLayer)]
    sig_out = {}
    sig_in = {}
    acc = 1
    for i in reversed(conv_ix):
        sig_out[i] = acc
        acc *= spec.layers[i].stride
        sig_in[i] = acc
    return conv_ix, sig_out, sig_in, acc


def _piece_shape(kernel, stride, sig_out, sig_in):
    # largest sampled piece over all composed offsets; under the divisibility
    # preconditions this equals h_in/sig_in - h_out/sig_out + 1 per axis
    kh, kw = kernel
    hh = -(-(kh + (sig_out - 1) * stride) // sig_in)
    ww = -(-(kw + (sig_out - 1) * stride) // sig_in)
    return hh, ww


def _conv_sources(cin, layer: ConvLayer, sig_out, sig_in, order):
    """Integer source map for one transformed conv layer.

    Shape (new_out, new_in, hh, ww); entry = flat index into the original
    (channels_out, cin, kh, kw) weight block, or -1 for a padding zero.
    """
    kh, kw = layer.kernel
    s = layer.stride
    out_entries = channel_entries(layer.channels_out, sig_out, order)
    in_entries = channel_entries(cin, sig_in, order)
    hh, ww = _piece_shape(layer.kernel, s, sig_out, sig_in)
    sources = np.full((len(out_entries), len(in_entries), hh, ww), -1, dtype=np.int64)
    rr = np.arange(hh)
    tt = np.arange(ww)
    for oi, (c, m, n) in enumerate(out_entries):
        composed = compose_sampling(SamplingSpec(m, n, sig_out), s)
        for ii, (k, p, q) in enumerate(in_entries):
            u = rr * sig_in + (p - 1) - (composed.row_offset - 1)
            v = tt * sig_in + (q - 1) - (composed.col_offset - 1)
            urows = rr[(u >= 0) & (u < kh)]
            ucols = u[(u >= 0) & (u < kh)]
            vrows = tt[(v >= 0) & (v < kw)]
            vcols = v[(v >= 0) & (v < kw)]
            if urows.size and vrows.size:
                flat = (((c - 1) * cin + (k - 1)) * kh + ucols[:, None]) * kw + vcols[None, :]
                sources[oi, ii, urows[:, None], vrows[None, :]] = flat
    return sources


def _check_divisibility(conv_ix, sig_in, plan):
    for i in conv_ix:
        _, h, w = plan[i][0]
        si = sig_in[i]
        if h % si != 0 or w % si != 0:
            raise RaggedSamplingError(
                f"layer {i}: input {h}x{w} not divisible by cumulative stride {si}"
            )


def transform_network(spec: NetworkSpec, channel_order: str = "source-major") -> TransformResult:
    """Rewrite a network so every convolution has stride 1.

    Returns the transformed network, the channel map describing how raw
    inputs must be rearranged before evaluation, and the source map of every
    transformed conv layer, keyed by original layer index (see
    parameter_report).  Activations and dense layers are copied as they
    are: the last convolution has output multiplicity 1, so the final
    feature map comes out in the original flatten order.

    Weights, when present, are copied from the original network; no values
    are invented.  Requires every convolution input dimension divisible by
    that layer's cumulative stride and every (dim - kernel) divisible by the
    layer stride; violations raise RaggedSamplingError naming the layer.
    """
    if channel_order not in CHANNEL_ORDERS:
        raise ValueError(f"unknown channel order {channel_order!r}, expected one of {CHANNEL_ORDERS}")
    plan = list(_walk(spec))
    conv_ix, sig_out, sig_in, total = _multiplicities(spec)
    _check_divisibility(conv_ix, sig_in, plan)

    new_layers = list(spec.layers)
    sources = {}
    for i in conv_ix:
        layer = spec.layers[i]
        src = _conv_sources(plan[i][0][0], layer, sig_out[i], sig_in[i], channel_order)
        weights = None
        if layer.weights is not None:
            flat = layer.weights.reshape(-1)
            weights = np.where(src >= 0, flat[np.clip(src, 0, None)], 0.0)
        new_layers[i] = ConvLayer(
            channels_out=src.shape[0],
            kernel=src.shape[2:],
            stride=1,
            weights=weights,
        )
        sources[i] = src

    # the first conv reads the network input, so _check_divisibility has
    # already made sure the input divides by the total stride
    c0, h0, w0 = spec.input_shape
    input_map = ChannelMap(total, channel_entries(c0, total, channel_order))
    transformed = NetworkSpec(
        name=f"{spec.name}-destrided",
        input_shape=(c0 * total * total, h0 // total, w0 // total),
        layers=tuple(new_layers),
        provenance=f"transformed-from:{spec.name}",
    )
    # transformed net must shape-check end to end
    infer_shapes(transformed)
    return TransformResult(transformed, input_map, sources)


def reshape_input(x, input_map: ChannelMap) -> np.ndarray:
    """Rearrange a raw input into the transformed network's channel layout:
    output channel i is the grid sample named by input_map.entries[i]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"input must be 3-D (channel, row, col), got rank {x.ndim}")
    s = input_map.stride
    if x.shape[0] != input_map.source_channels:
        raise ValueError(
            f"input has {x.shape[0]} channels, map expects {input_map.source_channels}"
        )
    if x.shape[1] % s != 0 or x.shape[2] % s != 0:
        raise ValueError(
            f"input dims {x.shape[1]}x{x.shape[2]} not divisible by map stride {s}"
        )
    return np.stack(
        [x[k - 1, p - 1 :: s, q - 1 :: s] for (k, p, q) in input_map.entries]
    )
