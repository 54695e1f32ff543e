"""Valid-mode multi-channel correlation, as an im2col product.

"Convolution" here is the CNN convention: a sliding inner product with no
kernel flip and no implicit padding.  Filters are 4-D arrays indexed
(out_channel, in_channel, row, col); feature maps are 3-D arrays indexed
(channel, row, col), or 4-D with a leading batch axis.

conv_multichannel is an im2col product.  Its plan (Im2col) holds a gather
index: the flat position in one feature map of every value of that map's
column matrix, built once from the shapes.  Applying it is one take and
one matrix product (per slice of a batch too large for one), and a 1x1
stride-1 conv skips the take, multiplying its input where it lies.
network.forward keeps the plans of a network's convs; a direct call to
conv_multichannel builds its plan anew.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def conv_multichannel(weights, feature_map, stride: int = 1) -> np.ndarray:
    """Multi-channel strided correlation of one feature map or a batch.

    weights: (out_channels, in_channels, a, b); feature_map: (channels, h, w)
    or a batch (N, channels, h, w), giving (out_channels, oh, ow) or
    (N, out_channels, oh, ow).  Output channel c is the sum over input
    channels k of the strided correlation of weights[c, k] with
    feature_map[k].

    Computed as im2col (Chellapilla et al. 2006): the weights reshaped to
    (out, in*a*b) times a column matrix (in*a*b, oh*ow), whose column for
    each kept output position holds the in*a*b input values under the kernel
    there.  The column matrix is one take of each flattened item by a gather
    index (see Im2col), except for a 1x1 stride-1 conv, whose input already
    is its column matrix and is multiplied where it lies.  A gathered
    column matrix holds a*b*oh*ow / (h*w) times the values of its feature
    map, so a batch whose column matrix is larger than its input goes
    through in slices of max(1, N*h*w // (a*b*oh*ow) - 1) items, which
    leaves room in the input's size for the index.  One feature map, or any
    other batch, is one product.

    A call checks the shapes, then takes the two steps that forward keeps
    apart: Im2col.of plans the checked shapes, building the gather index,
    which forward does once per network, and Im2col.apply reads the
    weights, gathers and multiplies, which forward does at every call.  So
    a one-shot call builds its index every time, a few microseconds for a
    small conv.
    """
    w = np.asarray(weights, dtype=np.float64)
    # C-ordered, so that flattening each item is a view
    x = np.asarray(feature_map, dtype=np.float64, order="C")
    if w.ndim != 4:
        raise ValueError(f"weights must be 4-D (out, in, row, col), got rank {w.ndim}")
    if x.ndim not in (3, 4):
        raise ValueError(
            "feature map must be 3-D (channel, row, col) or 4-D (batch, channel, row, "
            f"col), got rank {x.ndim}"
        )
    c, h, wd = x.shape[-3:]
    _, cin, a, b = w.shape
    if cin != c:
        raise ValueError(f"filter expects {cin} input channels, feature map has {c}")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if a > h or b > wd:
        raise ValueError(f"filter {(a, b)} larger than image {(h, wd)}")
    plan = Im2col.of(w.shape, x.shape, stride)
    batch = x.shape[:-3]
    return plan.apply(w, x, batch).reshape(*batch, *plan.out)


@dataclass(frozen=True, eq=False, slots=True)
class Im2col:
    """The plan of one strided correlation's im2col product, for any batch
    of one (channels, h, w) feature map shape and one weight shape: its
    shapes and its gather index, no weight values.  The index costs 8 bytes
    per value of one item's column matrix, whatever the batch: 61,120
    entries (0.49 MB) for the four convs of the paper's LeNet and 13,824
    (0.11 MB) for its rewrite.  A 1x1 stride-1 conv has none, since its
    input already is its column matrix."""

    # the index: an intp array of one item's column matrix shape (c*a*b,
    # oh*ow), whose entry (r, j) is the flat position in a C-ordered (c, h,
    # w) item of the value in row r of column j, or None for a 1x1 stride-1
    # conv.  Kept writeable and private, because ndarray.take copies an
    # index that is not writeable, on every call
    _gather: np.ndarray | None
    rows: int           # c * a * b, the column matrix's rows
    cols: int           # oh * ow, its columns
    out: tuple          # (out_channels, oh, ow)
    size: int           # c * h * w, one item's values

    @classmethod
    def of(cls, weight_shape, map_shape, stride: int) -> "Im2col":
        """The plan for weights of weight_shape (out, in, a, b) over feature
        maps of map_shape, (in, h, w) or (N, in, h, w), at stride: shapes
        the caller has checked (conv_multichannel, or network._walk for
        forward), the kernel no larger than the image and stride at least
        1.  Works out the geometry and the gather index; checks nothing."""
        c, h, wd = map_shape[-3:]
        out_c, _, a, b = weight_shape
        oh, ow = (h - a) // stride + 1, (wd - b) // stride + 1
        rows, cols = c * a * b, oh * ow
        if a == b == stride == 1:
            # each item already is its column matrix
            return cls(None, rows, cols, (out_c, oh, ow), c * h * wd)
        # the (c, a, b, oh, ow) window view of one item's flat positions,
        # copied once.  numpy checks that the view stays inside its buffer,
        # which holds as (oh - 1) * stride + a <= h and (ow - 1) * stride + b <= wd
        positions = np.arange(c * h * wd)
        si = positions.itemsize
        sh = wd * si
        gather = np.ascontiguousarray(np.ndarray(
            (c, a, b, oh, ow), np.intp, positions, 0, (h * sh, sh, si, sh * stride, si * stride)
        )).reshape(rows, cols)
        return cls(gather, rows, cols, (out_c, oh, ow), c * h * wd)

    def apply(self, weights, x, batch: tuple) -> np.ndarray:
        """The correlation of weights, of the planned shape, with x, a
        C-ordered float64 buffer holding feature maps of the planned item
        shape, batch () for one or (N,) for N of them.  Returns (*batch,
        out_channels, oh * ow).

        A batch whose column matrix is larger than its input goes through
        in slices of max(1, N*c*h*w // (rows*cols) - 1) items, so that the
        index and one slice's column matrix together hold no more values
        than the input; any other batch is one product."""
        out_c = self.out[0]
        kernel = np.asarray(weights, dtype=np.float64).reshape(out_c, self.rows)
        index = self._gather
        if not batch:
            # dot makes the BLAS call that @ makes on two matrices, so the
            # same bits, with half a microsecond less set-up
            return kernel.dot(x.reshape(self.rows, self.cols) if index is None else x.take(index))
        if index is None:
            return kernel @ x.reshape(*batch, self.rows, self.cols)
        n = batch[0]
        items = x.reshape(n, self.size)
        if n < 2 or index.size <= self.size:
            return kernel @ items.take(index, axis=-1)
        step = max(1, n * self.size // index.size - 1)
        out = np.empty((n, out_c, self.cols))
        for i in range(0, n, step):
            # a temporary, so one slice's column matrix is freed before the next is made
            np.matmul(kernel, items[i : i + step].take(index, axis=-1), out=out[i : i + step])
        return out
