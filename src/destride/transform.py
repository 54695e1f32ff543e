"""Stride elimination for single layers and whole networks.

The single-layer fact: a stride-s correlation equals a sum of stride-1
correlations between grid samples of the filter and of the image, one term
per grid offset (p, q).  More generally, sampling the output of a full
correlation on an (m, n, s) grid equals summing, over all (p, q) offsets,
the correlations of the (p, q)-sampled image against the (p, q)-sampled
filter once the filter has been realigned by prepending m-1 zero rows and
n-1 zero columns.

The network rewrite applies this to every convolution.  A conv of stride s
has an output-side multiplicity sigma_out (the product of all later strides)
and an input-side multiplicity sigma_in = sigma_out * s.  A feature map with
multiplicity sigma is represented as sigma^2 channels per original channel,
channel (k, p, q) holding the (p, q, sigma) grid sample of original channel
k.  For the network input this is space-to-depth, the "pixel unshuffle" of
Shi et al. 2016 (arXiv 1609.05158); reshape_input performs it.  Each
transformed convolution maps one such representation to the next with stride
1: its filter piece from input channel (k, p, q) to output channel (c, m, n)
is the (p, q, sigma_in) sample of H[c, k] after prepending (m-1)s zero rows
and (n-1)s zero columns, zero-padded bottom/right to the common piece shape
h_in/sigma_in - h_out/sigma_out + 1 per axis.  In closed form, with every
offset 0-based, piece position (r, t) holds

    H[c, k, r*sigma_in + p - m*s, t*sigma_in + q - n*s]

where that entry lies inside the kernel, and a padding zero elsewhere.  Under
the divisibility preconditions each piece's correlation lands exactly on the
target grid, so no cropping is needed anywhere and outputs match the
original network bit-for-bit up to float summation order.

Transformed weights are pure copies of original weights; the construction
records, for every stored value, the flat index of the original weight it
came from (-1 for the deliberate padding zeros), which is what the parameter
report audits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .convolution import conv2d
from .network import ConvLayer, NetworkSpec, _walk, infer_shapes
from .sampling import RaggedSamplingError, SamplingSpec, sample_matrix, zero_pad
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


def _conv_sources(cin, layer: ConvLayer, sig_in, piece, order):
    """Integer source map for one transformed conv layer.

    Shape (new_out, new_in) + piece; entry = flat index into the original
    (channels_out, cin, kh, kw) weight block, or -1 for a padding zero.
    """
    kh, kw = layer.kernel
    s = layer.stride
    out_ix = np.array(channel_entries(layer.channels_out, sig_in // s, order)) - 1
    in_ix = np.array(channel_entries(cin, sig_in, order)) - 1
    # 0-based (c, m, n) and (k, p, q), shaped to broadcast over (out, in, r, t)
    c, m, n = out_ix.T[:, :, None, None, None]
    k, p, q = in_ix.T[:, None, :, None, None]
    u = np.arange(piece[0])[:, None] * sig_in + p - m * s
    v = np.arange(piece[1]) * sig_in + q - n * s
    sources = ((c * cin + k) * kh + u) * kw + v
    sources[(u < 0) | (u >= kh) | (v < 0) | (v >= kw)] = -1
    return sources


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
    total = math.prod(l.stride for l in spec.layers if isinstance(l, ConvLayer))

    new_layers = list(spec.layers)
    sources = {}
    sig_in = total
    for i, layer in enumerate(spec.layers):
        if not isinstance(layer, ConvLayer):
            continue
        (cin, h, w), (_, h_out, w_out), _ = plan[i]
        # checked front to back, so the error names the first failing conv
        if h % sig_in != 0 or w % sig_in != 0:
            raise RaggedSamplingError(
                f"layer {i}: input {h}x{w} not divisible by cumulative stride {sig_in}"
            )
        sig_out = sig_in // layer.stride
        piece = (h // sig_in - h_out // sig_out + 1, w // sig_in - w_out // sig_out + 1)
        src = _conv_sources(cin, layer, sig_in, piece, channel_order)
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
        sig_in = sig_out

    # the first conv reads the network input, so the check above has
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
    """Rearrange a raw input into the transformed network's channel layout
    (space-to-depth): output channel i is the grid sample named by
    input_map.entries[i]."""
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
