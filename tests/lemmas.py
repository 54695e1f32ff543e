"""The paper's single-layer lemmas, as executable checks: grid sampling,
convolution as a rank-4 tensor, and one strided correlation as a sum of
stride-1 ones.

The network rewrite in `destride` does not use any of this: it has its own
closed-form source map (transform._conv_sources) over one piece window
(transform._piece_window).  This module states the lemmas that rewrite
rests on, for the acceptance checks, the lemma tests and the demos.  It
takes the library's integer rule (network._integer), its ragged-split
error and its piece window from the package, so there is one of each.

A sampling spec (m, n, s) keeps the entries of a matrix at 1-based positions
((i-1)s + m, (j-1)s + n).  The s*s specs with 1 <= m, n <= s partition the
matrix: every entry lands in exactly one sample.  zero_pad prepends zero
rows/columns, which realigns grids; compose_sampling computes the single
spec equivalent to sampling twice.  Sampling tolerates dimensions that s
does not divide (grids then differ in size); destride_layer, which requires
even splits, raises RaggedSamplingError instead of producing ragged pieces.

build_conv_tensor re-expresses a single filter as the 4-D tensor whose
tensor_product with the image equals the correlation.  Because the product
pairs tensor dimension 3 with image columns and dimension 4 with image rows,
each filter placement is stored transposed; is_conv_tensor and
extract_filter are written against that layout.

The single-layer fact, as the destride.transform docstring states it, is
what sampled_conv_identity checks and destride_layer realises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from destride import RaggedSamplingError, conv_multichannel
from destride.network import _integer
from destride.transform import _piece_window


def as_matrix(x) -> np.ndarray:
    """Coerce to a float64 2-D array with at least one row and column."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got array of rank {m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be at least 1, got {m.shape}")
    return m


def as_tensor4(t) -> np.ndarray:
    """Coerce to a float64 4-D array with all dimensions at least 1."""
    a = np.asarray(t, dtype=np.float64)
    if a.ndim != 4:
        raise ValueError(f"expected a 4-D tensor, got array of rank {a.ndim}")
    if min(a.shape) < 1:
        raise ValueError(f"tensor dimensions must be at least 1, got {a.shape}")
    return a


# ---- grid sampling ----------------------------------------------------------


@dataclass(frozen=True)
class SamplingSpec:
    """Grid offsets (1-based) and stride; offsets may not exceed the stride.
    Each is an int, a numpy integer or an integral float, stored as int; a
    fraction or a bool is a ValueError naming the field."""

    row_offset: int
    col_offset: int
    stride: int

    def __post_init__(self):
        for field in ("row_offset", "col_offset", "stride"):
            object.__setattr__(self, field, _integer(getattr(self, field), field))
        if self.stride < 1:
            raise ValueError(f"stride must be at least 1, got {self.stride}")
        for name, off in (("row", self.row_offset), ("col", self.col_offset)):
            if not 1 <= off <= self.stride:
                raise ValueError(
                    f"{name} offset {off} outside [1, {self.stride}] "
                    f"for stride {self.stride}"
                )


def coerce_spec(spec) -> SamplingSpec:
    """Accept a SamplingSpec or a bare (m, n, s) triple."""
    if isinstance(spec, SamplingSpec):
        return spec
    m, n, s = spec
    return SamplingSpec(m, n, s)


def sample_matrix(x, spec) -> np.ndarray:
    """Sample a matrix on the (m, n, s) grid.

    The result has ceil((rows - m + 1) / s) rows and the analogous column
    count; either can be zero when the offset falls past the matrix.
    """
    x = as_matrix(x)
    sp = coerce_spec(spec)
    return x[sp.row_offset - 1 :: sp.stride, sp.col_offset - 1 :: sp.stride].copy()


def sample_tensor(t, dims, spec) -> np.ndarray:
    """Sample a 4-D tensor on the grid over one supported dimension pair.

    dims selects the plane the grid applies to and must be (1, 2) or (3, 4);
    the other two dimensions pass through untouched.
    """
    t = as_tensor4(t)
    sp = coerce_spec(spec)
    pair = tuple(dims)
    if pair == (1, 2):
        return t[sp.row_offset - 1 :: sp.stride, sp.col_offset - 1 :: sp.stride].copy()
    if pair == (3, 4):
        return t[:, :, sp.row_offset - 1 :: sp.stride, sp.col_offset - 1 :: sp.stride].copy()
    raise ValueError(f"unsupported dimension pair {pair}, expected (1, 2) or (3, 4)")


def zero_pad(x, top: int, left: int) -> np.ndarray:
    """Prepend `top` zero rows and `left` zero columns."""
    x = as_matrix(x)
    if top < 0 or left < 0:
        raise ValueError(f"padding must be non-negative, got top={top}, left={left}")
    return np.pad(x, ((top, 0), (left, 0)))


def compose_sampling(outer: SamplingSpec, inner_stride: int) -> SamplingSpec:
    """Spec of outer sampling applied after an offset-(1,1) inner sampling.

    Sampling with (1, 1, s_inner) first and (m, n, s) second equals sampling
    once with ((m-1)*s_inner + 1, (n-1)*s_inner + 1, s*s_inner).
    """
    outer = coerce_spec(outer)
    inner_stride = _integer(inner_stride, "inner_stride")
    if inner_stride < 1:
        raise ValueError(f"inner stride must be at least 1, got {inner_stride}")
    return SamplingSpec(
        (outer.row_offset - 1) * inner_stride + 1,
        (outer.col_offset - 1) * inner_stride + 1,
        outer.stride * inner_stride,
    )


def partition_cover_check(rows: int, cols: int, stride: int) -> bool:
    """True iff the stride's s*s offset grids cover an rows x cols index set
    exactly once each."""
    counts = np.zeros((rows, cols), dtype=int)
    for m in range(1, stride + 1):
        for n in range(1, stride + 1):
            counts[m - 1 :: stride, n - 1 :: stride] += 1
    return bool((counts == 1).all())


# ---- convolution as a rank-4 tensor -----------------------------------------


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


def tensor_product(t, x) -> np.ndarray:
    """Contract a 4-D tensor with a matrix over the trailing tensor dimensions.

    out[i, j] = sum over (k, l) of t[i, j, k, l] * x[l, k]

    Note the transposed pairing: tensor dimension 3 runs over the matrix's
    columns and dimension 4 over its rows.  build_conv_tensor lays filters
    out accordingly, so the two compose to plain correlation.
    """
    t = as_tensor4(t)
    x = as_matrix(x)
    if t.shape[2] != x.shape[1] or t.shape[3] != x.shape[0]:
        raise ValueError(
            f"tensor trailing dims ({t.shape[2]}, {t.shape[3]}) do not match "
            f"matrix shape {x.shape} (need dim 3 = cols, dim 4 = rows)"
        )
    return np.einsum("ijkl,lk->ij", t, x)


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


# ---- one strided layer as a sum of stride-1 ones ----------------------------


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
            # fits whenever lhs is non-empty
            term = conv2d(g, xs)
            rhs += term[: lhs.shape[0], : lhs.shape[1]]
    return lhs, rhs
