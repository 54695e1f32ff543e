"""Dense tensor substrate: matrices, 4-D tensors, and their contraction.

Matrices and 4-D tensors are plain float64 numpy arrays; the helpers here
validate rank.  Every function treats its inputs as immutable.  _integer is
the one rule for integer fields (sizes, offsets, strides) across the library.
"""

from __future__ import annotations

import numpy as np


def _integer(value, field: str) -> int:
    """value as an int: an int, a numpy integer or an integral float.  A bool
    (an int subclass) or a float with a fraction is a ValueError naming the
    field, rather than a silent 0/1 or a truncation."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r}")


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
