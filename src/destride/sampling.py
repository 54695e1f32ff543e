"""Regular-grid sampling of matrices and 4-D tensors.

A sampling spec (m, n, s) keeps the entries of a matrix at 1-based positions
((i-1)s + m, (j-1)s + n).  The s*s specs with 1 <= m, n <= s partition the
matrix: every entry lands in exactly one sample.  zero_pad prepends zero
rows/columns, which realigns grids; compose_sampling computes the single
spec equivalent to sampling twice.

Sampling tolerates dimensions that s does not divide (grids then differ in
size).  Code that requires even splits raises RaggedSamplingError instead of
producing ragged pieces silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import _integer, as_matrix, as_tensor4


class RaggedSamplingError(ValueError):
    """A dimension cannot be split evenly by the required sampling stride."""


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
