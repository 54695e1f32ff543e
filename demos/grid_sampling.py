"""The algebra of offset grid sampling.

sample_matrix(x, (m, n, s)) keeps every s-th row starting at row m and
every s-th column starting at column n (1-based). The s*s offset choices
partition the matrix, composing two samplings multiplies the strides, and
padding shifts which grid each element lands on.

Run from the repository root: PYTHONPATH=src:tests python3 demos/grid_sampling.py
"""

import numpy as np

from lemmas import (
    SamplingSpec,
    compose_sampling,
    partition_cover_check,
    sample_matrix,
    zero_pad,
)

x = np.arange(1.0, 37.0).reshape(6, 6)
print("x:")
print(x)

s = 2
print(f"\nall offset samplings at stride {s}:")
pieces = []
for m in range(1, s + 1):
    for n in range(1, s + 1):
        piece = sample_matrix(x, (m, n, s))
        pieces.append(piece.ravel())
        print(f"offset ({m}, {n}):")
        print(piece)

pooled = np.sort(np.concatenate(pieces))
print("\npieces pooled and sorted equal the original values:",
      np.array_equal(pooled, np.sort(x.ravel())))
print("partition_cover_check(6, 6, 2):", partition_cover_check(6, 6, 2))

# sampling a sampled matrix is one sampling at the product stride
inner = sample_matrix(x, (1, 1, 2))
outer = sample_matrix(inner, (2, 2, 2))
composed = compose_sampling(SamplingSpec(2, 2, 2), 2)
print("\ncompose (2,2,2) after stride 2 ->",
      (composed.row_offset, composed.col_offset, composed.stride))
print("two-step equals one-step:",
      np.array_equal(outer, sample_matrix(x, composed)))

# zero padding shifts the grids: one padded row moves every row to the
# opposite parity class
padded = zero_pad(x, 1, 0)
print("\nodd rows of the padded matrix (first row is padding):")
print(sample_matrix(padded, (1, 1, 2)))
