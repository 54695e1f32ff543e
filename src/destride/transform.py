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
h_in/sigma_in - h_out/sigma_out + 1 per axis.  Rows and columns never meet
in it, so it is one 1-D rule per axis (_piece_window below applies both
axes' rules at once): with every offset 0-based, piece
position r from input grid p to output grid m holds kernel entry
r*sigma_in + p - m*s where that lies inside the kernel, and a padding zero
elsewhere.  The 2-D map combines the row and column rules, so piece
position (r, t) holds

    H[c, k, r*sigma_in + p - m*s, t*sigma_in + q - n*s]

when both offsets lie inside the kernel.  Under the divisibility
preconditions each piece's correlation lands exactly on the target grid, so
no cropping is needed anywhere and outputs match the original network
bit-for-bit up to float summation order.

Transformed weights are pure copies of original weights, which is the
paper's parameter sharing among channels.  All pieces of one conv are one
strided window over its kernel, zero-padded with (sigma_out-1)*s rows and
columns in front and as many behind as the pieces reach (_piece_window):
the m and n axes step back s rows and columns, the p and q axes step 1 and
the r and t axes step sigma_in, so one copy of the window, reshaped, is
the transformed weight block: each piece is copied once.  The same window
over the flat indices 0, 1, ... of the kernel, padded with -1, is the
layer's source map: for every stored value, the flat index of the original
weight it came from (-1 for the deliberate padding zeros), which is what
the parameter report audits.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .convolution import conv2d
from .network import ConvLayer, NetworkSpec, _walk
from .sampling import RaggedSamplingError, SamplingSpec, sample_matrix, zero_pad
from .tensors import _integer, as_matrix


def channel_entries(channels: int, stride: int) -> tuple:
    """Enumerate the (source_channel, row_offset, col_offset) triples, all
    1-based, that name the channels of a multiplicity-`stride`
    representation, in the one layout the rewrite writes: source-major, all
    grids of one source channel contiguous, which is the channel order of
    pixel unshuffle.  Any other complete enumeration renames channels
    consistently and gives an equivalent network; documents may hold one.
    A new tuple at every call: ChannelMap checks every map against it, and
    the rewrite reuses one frozen map per (channels, stride) instead
    (_source_major_map).
    """
    grids = range(1, stride + 1)
    return tuple(itertools.product(range(1, channels + 1), grids, grids))


@dataclass(frozen=True)
class ChannelMap:
    """How a multiplicity-`stride` representation enumerates its channels.

    entries[i] = (source_channel k, row_offset p, col_offset q), all 1-based:
    new channel i holds the (p, q, stride) grid sample of source channel k.
    The stride must be an integer, and the entries integer triples that
    enumerate every (k, p, q) combination exactly once; a float or a bool is
    refused, not truncated.  Every map, the rewrite's own too, is checked in
    full where it is built; entries in source-major order skip only the
    sort.  Their source-major positions, and whether they are in
    source-major order, are cached privately, not as fields, so ==, hash and
    repr see only stride and entries.
    """

    stride: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        entries = tuple(map(tuple, self.entries))
        object.__setattr__(self, "entries", entries)
        # bool is a subclass of int and 1.0 == 1, so the types are checked
        if not (type(self.stride) is int or isinstance(self.stride, np.integer)) or self.stride < 1:
            raise ValueError(f"stride must be an integer of at least 1, got {self.stride!r}")
        if not entries:
            raise ValueError("channel map needs at least one entry")
        channels, rest = divmod(len(entries), self.stride**2)
        types = set(map(type, itertools.chain.from_iterable(entries)))
        if rest or not all(t is int or issubclass(t, np.integer) for t in types):
            raise ValueError("entries must cover every (channel, p, q) exactly once")
        source_major = channel_entries(channels, self.stride)
        # integer entries equal to the source-major ones are that cover, in
        # that order: nothing to sort
        in_order = entries == source_major
        if in_order:
            position = np.arange(len(entries))
        else:
            # the sorted entries of a complete cover are the source-major ones
            if sorted(entries) != list(source_major):
                raise ValueError("entries must cover every (channel, p, q) exactly once")
            k, p, q = (np.array(entries) - 1).T
            position = (k * self.stride + p) * self.stride + q
        position.flags.writeable = False
        object.__setattr__(self, "_position", position)
        object.__setattr__(self, "_source_major", in_order)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def positions(self) -> np.ndarray:
        """Read-only: entries[i] is channel positions[i] of the source-major layout."""
        return self._position

    @property
    def source_channels(self) -> int:
        # the entries hold stride**2 grids per source channel
        return len(self.entries) // self.stride**2


@functools.lru_cache(maxsize=32)
def _source_major_map(channels: int, stride: int) -> ChannelMap:
    """The rewrite's input map: channel_entries(channels, stride) as a
    ChannelMap, checked once and then shared, since it is frozen.  The last
    32 (channels, stride) pairs asked are kept; no document's map is."""
    return ChannelMap(stride, channel_entries(channels, stride))


class _SourceMaps(Mapping):
    """Read-only mapping of conv layer index, ascending, to the source map of
    the transformed layer (_conv_sources).  It holds each conv's geometry
    (cin, layer, sigma_in, piece) from the rewrite's walk, builds a layer's
    map on its first read and keeps it, as a dict would hold it, so a second
    read returns the same array and a rewrite nobody audits builds none."""

    def __init__(self, geometry: dict):
        self._geometry = geometry
        self._built = {}

    def __getitem__(self, i) -> np.ndarray:
        src = self._built.get(i)
        if src is None:
            src = self._built[i] = _conv_sources(*self._geometry[i])
        return src

    def __iter__(self):
        return iter(self._geometry)

    def __len__(self) -> int:
        return len(self._geometry)


class TransformResult(NamedTuple):
    network: NetworkSpec
    input_map: ChannelMap
    # conv layer index -> source map of the transformed layer (_conv_sources),
    # read-only, each map built on its first read and kept
    sources: Mapping
    # each layer's output shape in the original (infer_shapes(spec)) and in
    # the rewrite (infer_shapes(network)), from the rewrite's one walk
    shapes: tuple
    transformed_shapes: tuple


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
    stride = _integer(stride, "stride")
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
    # the rewrite's pieces of a one-channel conv at sigma_in = stride, one
    # per (p, q), row offset outermost; the largest sample, offset (1, 1),
    # is ceil(a/s) x ceil(b/s)
    piece = (-(-h.shape[0] // stride), -(-h.shape[1] // stride))
    window = _piece_window(h[None, None], 0.0, stride, stride, piece)[0]
    filters = [window[(p - 1) * stride + q - 1] for p, q in pairs]
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
    # the spec's fields, so the loops below see the integers it checked
    row_offset, col_offset, stride = spec.row_offset, spec.col_offset, spec.stride
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


def _piece_window(block, fill, stride: int, sig_in: int, piece) -> np.ndarray:
    """Every filter piece of the rewrite of one conv, copied once from one
    strided window over the zero-padded kernel.

    block (cout, cin, kh, kw) is copied once into a buffer of dtype
    np.result_type(block, fill) that holds (sigma_out-1)*stride `fill` rows
    above it and as many columns left of it, and `fill` below and right of
    it as far as the pieces reach.  The window's axes are (c, m, n, k, p, q,
    r, t): m and n step -stride rows and columns, p and q step 1, and r and
    t step sig_in, so entry [c, m, n, k, p, q, r, t] is

        block[c, k, r*sig_in + p - m*stride, t*sig_in + q - n*stride]

    where both offsets lie in the kernel, and `fill` elsewhere.  The result
    is the window reshaped to (cout*sigma_out**2, cin*sig_in**2, *piece),
    the source-major layout of both channel axes: one copy of it, or at
    sig_in = 1, where the window is the whole buffer, the buffer itself.
    Either way it shares no memory with block.
    """
    cout, cin, kh, kw = block.shape
    ph, pw = piece
    sig_out = sig_in // stride
    lead = (sig_out - 1) * stride
    padded = np.empty(
        (cout, cin, lead + max(kh, ph * sig_in), lead + max(kw, pw * sig_in)),
        dtype=np.result_type(block, fill),
    )
    padded.fill(fill)
    padded[:, :, lead : lead + kh, lead : lead + kw] = block
    sc, sk, sr, st = padded.strides
    window = np.ndarray(
        (cout, sig_out, sig_out, cin, sig_in, sig_in, ph, pw),
        padded.dtype,
        padded,
        offset=lead * (sr + st),
        strides=(sc, -stride * sr, -stride * st, sk, sr, st, sig_in * sr, sig_in * st),
    )
    return window.reshape(cout * sig_out**2, cin * sig_in**2, ph, pw)


def _conv_sources(cin, layer: ConvLayer, sig_in, piece):
    """Integer source map for one transformed conv layer.

    Shape (new_out, new_in) + piece; entry = flat index into the original
    (channels_out, cin, kh, kw) weight block, or -1 for a padding zero.  It
    is the same window as the layer's weights (_piece_window), laid over the
    flat indices of the weight block instead of its values, and copied once
    into the source-major layout of both channel axes.
    """
    flat = np.arange(cin * layer.channels_out * math.prod(layer.kernel), dtype=np.int64)
    return _piece_window(flat.reshape(layer.channels_out, cin, *layer.kernel), -1,
                         layer.stride, sig_in, piece)


def transform_network(spec: NetworkSpec) -> TransformResult:
    """Rewrite a network so every convolution has stride 1.

    Returns the transformed network, the channel map describing how raw
    inputs must be rearranged before evaluation, the source map of every
    transformed conv layer, keyed by original layer index (see
    parameter_report) and built only when read, and each layer's output
    shape in both networks.  Activations and dense layers are copied as they
    are: the last convolution has output multiplicity 1, so the final
    feature map comes out in the original flatten order.

    Weights, when present, are copied from the original network; no values
    are invented.  Weights of another shape than their layer declares raise
    ValueError naming the layer.  Requires every convolution input dimension
    divisible by that layer's cumulative stride and every (dim - kernel)
    divisible by the layer stride; violations raise RaggedSamplingError
    naming the layer.

    The original's shapes are walked once (network._walk).  A feature map
    of multiplicity sigma and shape (c, h, w) is (c*sigma**2, h/sigma,
    w/sigma) in the rewrite, so the rewrite's shapes are worked out from
    that walk rather than walked again.
    """
    plan = list(_walk(spec))
    total = math.prod(l.stride for l in spec.layers if isinstance(l, ConvLayer))

    new_layers = list(spec.layers)
    geometry = {}
    shapes, transformed_shapes = [], []
    sig = total  # the multiplicity of the feature map a layer reads
    for i, (layer, (shape, out, _)) in enumerate(zip(spec.layers, plan)):
        if isinstance(layer, ConvLayer):
            cin, h, w = shape
            # checked front to back, so the error names the first failing conv
            if h % sig != 0 or w % sig != 0:
                raise RaggedSamplingError(
                    f"layer {i}: input {h}x{w} not divisible by cumulative stride {sig}"
                )
            sig_out = sig // layer.stride
            _, h_out, w_out = out
            piece = (h // sig - h_out // sig_out + 1, w // sig - w_out // sig_out + 1)
            weights = None
            if layer.weights is not None:
                weights = _piece_window(layer.weights, 0.0, layer.stride, sig, piece)
            new_layers[i] = ConvLayer(
                channels_out=layer.channels_out * sig_out**2,
                kernel=piece,
                stride=1,
                weights=weights,
            )
            geometry[i] = (cin, layer, sig, piece)
            sig = sig_out
        shapes.append(out)
        if isinstance(out, tuple):
            c, h, w = out
            out = (c * sig * sig, h // sig, w // sig)
        transformed_shapes.append(out)

    # the first conv reads the network input, so the check above has
    # already made sure the input divides by the total stride
    c0, h0, w0 = spec.input_shape
    input_map = _source_major_map(c0, total)
    transformed = NetworkSpec(
        name=f"{spec.name}-destrided",
        input_shape=(c0 * total * total, h0 // total, w0 // total),
        layers=tuple(new_layers),
        provenance=f"transformed-from:{spec.name}",
    )
    # no walk of the result: each piece is at most h/sigma_in per axis, the
    # channels are c*sigma**2 and _piece_window shapes the weights, so it
    # shape-checks by construction, and forward plans it through the walk
    return TransformResult(transformed, input_map, _SourceMaps(geometry),
                           tuple(shapes), tuple(transformed_shapes))


def reshape_input(x, input_map: ChannelMap) -> np.ndarray:
    """Rearrange a raw input (c, h, w), or a batch (N, c, h, w), into the
    transformed network's channel layout (space-to-depth): output channel i
    is the grid sample named by input_map.entries[i].  The result is a new
    C-contiguous array: the unshuffled copy itself when the map is
    source-major, as every map the rewrite writes is, or else a take of its
    channels in the map's order."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (3, 4):
        raise ValueError(
            f"input must be 3-D (channel, row, col) or 4-D (batch, channel, row, col), "
            f"got rank {x.ndim}"
        )
    s = input_map.stride
    *batch, c, h, w = x.shape
    if c != input_map.source_channels:
        raise ValueError(f"input has {c} channels, map expects {input_map.source_channels}")
    if h % s != 0 or w % s != 0:
        raise ValueError(f"input dims {h}x{w} not divisible by map stride {s}")
    # pixel unshuffle: axes (c, h/s, p, w/s, q) copied once as (c, p, q, h/s,
    # w/s), the source-major channel layout; copied at stride 1 too, where a
    # reshape alone would give x back
    n, ho, wo = math.prod(batch), h // s, w // s
    out = np.empty((*batch, c * s * s, ho, wo))
    out.reshape(n, c, s, s, ho, wo)[...] = x.reshape(n, c, ho, s, wo, s).transpose(0, 1, 3, 5, 2, 4)
    if input_map._source_major:
        return out
    # any other map then takes the channels in its order
    return out.take(input_map.positions, axis=-3)
