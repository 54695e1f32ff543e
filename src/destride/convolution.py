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

import math

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
    """
    w = np.asarray(weights, dtype=np.float64)
    # the window view below is laid over x's buffer, which must be C-ordered
    x = np.asarray(feature_map, dtype=np.float64, order="C")
    if w.ndim != 4:
        raise ValueError(f"weights must be 4-D (out, in, row, col), got rank {w.ndim}")
    if x.ndim not in (3, 4):
        raise ValueError(
            "feature map must be 3-D (channel, row, col) or 4-D (batch, channel, row, "
            f"col), got rank {x.ndim}"
        )
    *batch, c, h, wd = x.shape
    out_c, _, a, b = w.shape
    if w.shape[1] != c:
        raise ValueError(f"filter expects {w.shape[1]} input channels, feature map has {c}")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if a > h or b > wd:
        raise ValueError(f"filter {w.shape[2:]} larger than image {(h, wd)}")
    oh, ow = (h - a) // stride + 1, (wd - b) // stride + 1
    # ([N,] c, a, b, oh, ow), a read-only view of x's buffer; numpy checks
    # that it stays inside, which holds as (oh - 1) * stride + a <= h and
    # (ow - 1) * stride + b <= wd.  Its arguments go by position, since
    # naming them costs ndarray a microsecond a call
    *_, sh, sw = x.strides
    windows = np.ndarray(
        (*batch, c, a, b, oh, ow), np.float64, x, 0, (*x.strides, sh * stride, sw * stride)
    )
    windows.setflags(write=False)
    kernel = w.reshape(out_c, c * a * b)
    n = math.prod(batch)
    step = max(1, n * h * wd // (a * b * oh * ow))
    # a copy unless the view already is a C-ordered column matrix (a bare
    # reshape could give an overlapping view that BLAS cannot take)
    if step >= n:
        cols = np.ascontiguousarray(windows).reshape(*batch, c * a * b, oh * ow)
        return (kernel @ cols).reshape(*batch, out_c, oh, ow)
    out = np.empty((n, out_c, oh * ow))
    for i in range(0, n, step):
        m = min(step, n - i)
        # a temporary, so one slice's copy is freed before the next is made
        np.matmul(
            kernel,
            np.ascontiguousarray(windows[i : i + m]).reshape(m, c * a * b, oh * ow),
            out=out[i : i + m],
        )
    return out.reshape(n, out_c, oh, ow)


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
