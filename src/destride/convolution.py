"""Valid-mode correlation and its 4-D tensor form.

"Convolution" here is the CNN convention: a sliding inner product with no
kernel flip and no implicit padding.  Filters for the multi-channel case are
4-D arrays indexed (out_channel, in_channel, row, col); feature maps are 3-D
arrays indexed (channel, row, col), or 4-D with a leading batch axis.

build_conv_tensor re-expresses a single filter as the 4-D tensor whose
tensor_product with the image equals the correlation.  Because the product
pairs tensor dimension 3 with image columns and dimension 4 with image rows,
each filter placement is stored transposed; is_conv_tensor and
extract_filter are written against that layout.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .tensors import as_matrix, as_tensor4


def conv2d(filt, image) -> np.ndarray:
    """Valid-mode correlation of a single filter with a single image.

    out[i, j] = sum over (u, v) of filt[u, v] * image[i + u - 1, j + v - 1]
    in 1-based indices; output shape (rows - a + 1) x (cols - b + 1).
    """
    return conv2d_strided(filt, image, 1)


def conv2d_strided(filt, image, stride: int) -> np.ndarray:
    """Correlation keeping only every stride-th output row and column: the
    one-channel case of conv_multichannel."""
    h = as_matrix(filt)
    x = as_matrix(image)
    return conv_multichannel(h[None, None], x[None], stride)[0]


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
    there, read from a strided window view and copied out of it only when
    the view is not already one (so a 1x1 stride-1 conv multiplies its input
    in place).  A copied column matrix holds a*b*oh*ow / (h*w) times the
    values of its feature map, so a batch of N goes through in slices of
    max(1, N*h*w // (a*b*oh*ow)) items, each no larger than the input unless
    one item's is.  One feature map, or a batch that fits one slice, is one
    product.

    A call is the two steps that forward keeps apart: Im2col.of checks the
    shapes and works out the window, column and output shapes, which forward
    plans once per network, and Im2col.apply reads the weights and
    multiplies, which forward does at every call.
    """
    w = np.asarray(weights, dtype=np.float64)
    # the window view is laid over x's buffer, which must be C-ordered
    x = np.asarray(feature_map, dtype=np.float64, order="C")
    geometry = Im2col.of(w.shape, x.shape, stride)
    batch = x.shape[:-3]
    return geometry.apply(w, x, batch).reshape(*batch, *geometry.out)


class Im2col(NamedTuple):
    """The geometry of one strided correlation's im2col product, for any
    batch of one (channels, h, w) feature map shape and one weight shape.
    It holds shapes only, no weight values."""

    windows: tuple      # (c, a, b, oh, ow), the window view of one item
    strides: tuple      # its byte strides over a C-ordered float64 item
    item_bytes: int     # c * h * w * 8, the byte stride between batch items
    rows: int           # c * a * b, the column matrix's rows
    cols: int           # oh * ow, its columns
    out: tuple          # (out_channels, oh, ow)
    area: int           # h * w, an input channel's values
    column_area: int    # a * b * oh * ow, one channel's column matrix values

    @classmethod
    def of(cls, weight_shape, map_shape, stride: int) -> "Im2col":
        """The geometry of weights of weight_shape over feature maps of
        map_shape, (channels, h, w) or (N, channels, h, w), at stride; a
        ValueError when they do not fit."""
        if len(weight_shape) != 4:
            raise ValueError(
                f"weights must be 4-D (out, in, row, col), got rank {len(weight_shape)}"
            )
        if len(map_shape) not in (3, 4):
            raise ValueError(
                "feature map must be 3-D (channel, row, col) or 4-D (batch, channel, row, "
                f"col), got rank {len(map_shape)}"
            )
        c, h, wd = map_shape[-3:]
        out_c, cin, a, b = weight_shape
        if cin != c:
            raise ValueError(f"filter expects {cin} input channels, feature map has {c}")
        if stride < 1:
            raise ValueError(f"stride must be at least 1, got {stride}")
        if a > h or b > wd:
            raise ValueError(f"filter {tuple(weight_shape[2:])} larger than image {(h, wd)}")
        oh, ow = (h - a) // stride + 1, (wd - b) // stride + 1
        # numpy checks that the window view stays inside its buffer, which
        # holds as (oh - 1) * stride + a <= h and (ow - 1) * stride + b <= wd
        sw = np.dtype(np.float64).itemsize
        sh = wd * sw
        return cls((c, a, b, oh, ow), (h * sh, sh, sw, sh * stride, sw * stride), c * h * sh,
                   c * a * b, oh * ow, (out_c, oh, ow), h * wd, a * b * oh * ow)

    def apply(self, weights, x, batch: tuple) -> np.ndarray:
        """The correlation of weights, of the planned shape, with x, a
        C-ordered float64 buffer holding feature maps of the planned item
        shape, batch () for one or (N,) for N of them.  Returns (*batch,
        out_channels, oh * ow).

        A batch goes through in slices of max(1, N*h*w // (a*b*oh*ow))
        items, which is all of them for one or no item, or when one item's
        column matrix is no larger than its input."""
        # ([N,] c, a, b, oh, ow), a read-only view of x's buffer.  Its
        # arguments go by position, since naming them costs ndarray a
        # microsecond a call
        if batch:
            windows = np.ndarray(
                (*batch, *self.windows), np.float64, x, 0, (self.item_bytes, *self.strides)
            )
        else:
            windows = np.ndarray(self.windows, np.float64, x, 0, self.strides)
        windows.setflags(write=False)
        out_c = self.out[0]
        kernel = np.asarray(weights, dtype=np.float64).reshape(out_c, self.rows)
        # a copy unless the view already is a C-ordered column matrix (a bare
        # reshape could give an overlapping view that BLAS cannot take)
        if not batch or batch[0] < 2 or self.column_area <= self.area:
            return kernel @ np.ascontiguousarray(windows).reshape(*batch, self.rows, self.cols)
        n = batch[0]
        step = max(1, n * self.area // self.column_area)
        out = np.empty((n, out_c, self.cols))
        for i in range(0, n, step):
            m = min(step, n - i)
            # a temporary, so one slice's copy is freed before the next is made
            np.matmul(
                kernel,
                np.ascontiguousarray(windows[i : i + m]).reshape(m, self.rows, self.cols),
                out=out[i : i + m],
            )
        return out


def build_conv_tensor(filt, image_shape) -> np.ndarray:
    """The 4-D tensor T with tensor_product(T, image) == conv2d(filt, image)
    for every image of the given (rows, cols) shape.

    T has shape (c-a+1, d-b+1, d, c).  Slice [i, j] carries the filter placed
    for output position (i, j), transposed to match tensor_product's pairing:
    in 1-based indices T[i, j, k, l] = filt[l-i+1, k-j+1] where defined.
    """
    h = as_matrix(filt)
    c, d = int(image_shape[0]), int(image_shape[1])
    a, b = h.shape
    if a > c or b > d:
        raise ValueError(f"filter {h.shape} larger than image ({c}, {d})")
    t = np.zeros((c - a + 1, d - b + 1, d, c))
    ht = h.T
    for i in range(c - a + 1):
        for j in range(d - b + 1):
            t[i, j, j : j + b, i : i + a] = ht
    return t


def is_conv_tensor(t) -> bool:
    """True iff the tensor is generated by some filter via build_conv_tensor.

    The generating filter's size is forced by the tensor shape, and its
    values by the top-left block of slice [0, 0], so one exact rebuild
    settles the question.  This subsumes the two diagonal shift equalities
    T[i, j, k, l] == T[i+1, j, k, l+1] and T[i, j, k, l] == T[i, j+1, k+1, l];
    those alone leave the four support-corner cells of slice boundaries
    unconstrained, so a rebuilt comparison is the complete check.
    """
    t = as_tensor4(t)
    out_h, out_w, d, c = t.shape
    a = c - out_h + 1
    b = d - out_w + 1
    if a < 1 or b < 1:
        return False
    return np.array_equal(t, build_conv_tensor(t[0, 0, :b, :a].T, (c, d)))


def extract_filter(t) -> np.ndarray:
    """Recover the generating filter of a convolutional tensor.

    Reads the minimal top-left bounding box of nonzeros in slice [1, 1] and
    undoes the transposed storage.  An all-zero tensor yields a 1x1 zero
    filter by convention (zero filters legitimately arise from sampling
    padded filters).
    """
    t = as_tensor4(t)
    if not is_conv_tensor(t):
        raise ValueError("not a convolutional tensor")
    plane = t[0, 0]
    nz = np.argwhere(plane != 0)
    if nz.size == 0:
        return np.zeros((1, 1))
    return plane[: nz[:, 0].max() + 1, : nz[:, 1].max() + 1].T.copy()
